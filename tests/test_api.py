"""Static checks on the library's interface."""

import ast
import builtins
import re
from collections import Counter
from pathlib import Path

import qptsweep
from qptsweep import exact, response, schedules

SRC = Path(qptsweep.__file__).resolve().parent


def _unread_parameters(tree):
    """(line, function, parameter) for every parameter of a function or
    lambda, other than ``self`` and ``cls``, that its body never loads.
    A load in a nested function or lambda counts as a read."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, name, p) for p in params if p not in loaded | {"self", "cls"}]
    return found


def test_every_parameter_is_read():
    unread = [
        f"{path.name}:{line} {func}({param})"
        for path in sorted(SRC.glob("*.py"))
        for line, func, param in _unread_parameters(ast.parse(path.read_text()))
    ]
    assert not unread, "parameters never read: " + ", ".join(unread)


def test_unread_parameter_is_reported():
    tree = ast.parse(
        "def f(a, b, *args, c=1, **kw):\n"
        "    def g():\n"
        "        return a\n"
        "    return g, (lambda x, y: x), kw\n"
    )
    assert {(func, p) for _, func, p in _unread_parameters(tree)} == {
        ("f", "b"), ("f", "args"), ("f", "c"), ("<lambda>", "y"),
    }


_ARPACK = {"eigsh", "LinearOperator"}


def _uses(tree, names, home):
    """(line, name, inside) for every load of a name in ``names``, by name or
    attribute; ``inside`` tells whether it lies in a function named ``home``.
    Imports are not uses."""
    inside = {
        id(n) for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name == home for n in ast.walk(f)
    }
    found = []
    for n in ast.walk(tree):
        name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
        if name in names:
            found.append((n.lineno, name, id(n) in inside))
    return found


def test_arpack_is_reached_through_one_function():
    # perfbench counts ARPACK matvecs by rebinding exact.eigsh, so every
    # solve must go through exact._eigsh
    outside, home = [], set()
    for path in sorted(SRC.glob("*.py")):
        for line, name, inside in _uses(ast.parse(path.read_text()), _ARPACK, "_eigsh"):
            if inside and path.name == "exact.py":
                home.add(name)
            else:
                outside.append(f"{path.name}:{line} {name}")
    assert not outside, "ARPACK reached outside exact._eigsh: " + ", ".join(outside)
    assert home == _ARPACK


def test_arpack_use_outside_is_reported():
    tree = ast.parse(
        "def _eigsh(A):\n"
        "    return eigsh(LinearOperator(A))\n"
        "def f(A):\n"
        "    return scipy.sparse.linalg.eigsh(A)\n"
    )
    assert sorted((name, inside) for _, name, inside in _uses(tree, _ARPACK, "_eigsh")) == [
        ("LinearOperator", True), ("eigsh", False), ("eigsh", True),
    ]


# kernels that only the shared certified quadratures may run: a module that
# reaches them itself keeps an integrator of its own
_NOT_IN = dict.fromkeys(("grover", "schedules"), {"refine", "cumulative_simpson_uniform"})


def _private_integrators(modules):
    """``module:line name`` for every use of ``stream_filon`` outside
    ``_kernels.filon_refined``, and of a name of ``_NOT_IN`` in its module;
    and the set of names ``filon_refined`` uses."""
    outside, home = [], set()
    for module, tree in modules.items():
        for line, name, inside in _uses(tree, {"stream_filon"} | _NOT_IN.get(module, set()), "filon_refined"):
            if name == "stream_filon" and inside and module == "_kernels":
                home.add(name)
            else:
                outside.append(f"{module}:{line} {name}")
    return outside, home


def test_every_per_frequency_amplitude_goes_through_filon_refined():
    # one grid doubling, filon_refined, certifies every per-frequency amplitude, of
    # the Ising chain and of Grover's search, and the adapted phase integral
    # runs through nested_simpson, not a table of its own
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    outside, home = _private_integrators(modules)
    assert not outside, "integrators outside the shared quadratures: " + ", ".join(outside)
    assert home == {"stream_filon"}


def test_private_integrator_is_reported():
    kernels = ast.parse(
        "def filon_refined(f):\n"
        "    return refine(lambda n: stream_filon(n, f))\n"
        "def other(f):\n"
        "    return stream_filon(4, f)\n"
    )
    grover = ast.parse(
        "from ._kernels import cumulative_simpson_uniform, refine\n"
        "def amplitude(f):\n"
        "    return refine(lambda n: _kernels.stream_filon(n, f))\n"
    )
    schedules = ast.parse("def phase(y):\n    return cumulative_simpson_uniform(y)\n")
    outside, home = _private_integrators({"_kernels": kernels, "grover": grover, "schedules": schedules})
    assert sorted(outside) == [
        "_kernels:4 stream_filon", "grover:3 refine", "grover:3 stream_filon",
        "schedules:2 cumulative_simpson_uniform",
    ]
    assert home == {"stream_filon"}


# what a response row may not be computed from outside ``response``: the
# per-frequency amplitudes, the channel table and the helpers that split a
# channel and pick the quadrature path
_BEHIND_THE_GRID = {
    "amplitude_direct_uniform", "amplitude_direct_nonuniform", "amplitude_bitflip",
    "amplitude_saddle_uniform", "_channel_terms", "_channel_integrals", "filon_refined",
    "_filon_terms", "_fourier_on_grid", "_evenly_spaced",
}


def _amplitude_uses(tree):
    """(line, name) for every load or definition of ``amplitudes_on_grid`` or
    of a name in ``_BEHIND_THE_GRID``, by name or attribute."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.FunctionDef):
            name = n.name
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            name = n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            name = n.attr
        else:
            continue
        if name in _BEHIND_THE_GRID | {"amplitudes_on_grid"}:
            found.append((n.lineno, name))
    return found


def test_cli_reaches_amplitudes_through_one_function():
    # how a channel splits into integrals and which quadrature serves a grid
    # are decided in response.amplitudes_on_grid alone
    uses = _amplitude_uses(ast.parse((SRC / "cli.py").read_text()))
    assert [name for _, name in uses] == ["amplitudes_on_grid"], uses


def test_amplitude_use_outside_is_reported():
    tree = ast.parse(
        "def _evenly_spaced(grid):\n"
        "    return grid\n"
        "def f(w):\n"
        "    return response.amplitude_bitflip(w), response.amplitudes_on_grid(w)\n"
    )
    assert sorted(name for _, name in _amplitude_uses(tree)) == [
        "_evenly_spaced", "amplitude_bitflip", "amplitudes_on_grid",
    ]


_MOMENTA = {"ka", "kpa"}


def _momenta(tree):
    """(line, name) for every parameter or name of ``tree`` in ``_MOMENTA``."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.arg) and n.arg in _MOMENTA:
            found.append((n.lineno, n.arg))
        elif isinstance(n, ast.Name) and n.id in _MOMENTA:
            found.append((n.lineno, n.id))
    return found


def test_kernels_know_no_model():
    # the two-level propagators take each row's coefficients (a0, a1, b0, b1);
    # the Ising mode's are written in ising alone, so no kernel names a momentum
    found = _momenta(ast.parse((SRC / "_kernels.py").read_text()))
    assert not found, "momenta in _kernels: " + ", ".join(f"{line} {name}" for line, name in found)


def test_momentum_in_a_kernel_is_reported():
    tree = ast.parse(
        "def rk4_mode(g2, ka, dt):\n"
        "    return g2\n"
        "def magnus(coef, *, kpa=0.0):\n"
        "    c = np.cos(ka / 2.0)\n"
        "    return lambda ka: coef.ka\n"
    )
    assert sorted(_momenta(tree)) == [(1, "ka"), (3, "kpa"), (4, "ka"), (5, "ka")]


ROOT = Path(__file__).resolve().parent.parent


def _raw_params(tree):
    """Line of every ``.params`` access that is neither inside an argument of
    a call of ``_read`` or ``_value`` nor inside class ``ExperimentConfig``."""
    allowed = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ClassDef) and n.name == "ExperimentConfig":
            allowed |= {id(m) for m in ast.walk(n)}
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in ("_read", "_value"):
            allowed |= {id(m) for arg in n.args for m in ast.walk(arg)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "params" and id(n) not in allowed)


def test_every_config_value_is_read_by_the_key_table():
    # a config value reaches a runner only through cli._read or cli._value,
    # which read it by its type in cli._KEYS: no bare cast, no inline default
    raw = _raw_params(ast.parse((SRC / "cli.py").read_text()))
    assert not raw, f"config values read outside _read and _value at cli.py lines {raw}"


def test_raw_config_read_is_reported():
    tree = ast.parse(
        "class ExperimentConfig:\n"
        "    def canonical(self):\n"
        "        return dict(self.params)\n"
        "def run(cfg):\n"
        "    p = _read(cfg.params, KEYS)\n"
        "    kind = _value(cfg.params.get('kind', 'a'), KINDS, 'kind')\n"
        "    n = int(cfg.params['n'])\n"
        "    q = cfg.params\n"
        "    return p, kind, n, float(q.get('x', 1.0)), read(cfg.params)\n"
    )
    assert _raw_params(tree) == [7, 8, 9]


def _definitions(tree):
    """(line, name, node) for every top-level function, class and constant
    of a module, and every non-dunder method or property of its classes;
    a method's name is ``Class.method``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id, node) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [
                (m.lineno, f"{node.name}.{m.name}", m) for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
            ]
    return found


def _loads(node):
    """Names that ``node`` loads, by name or attribute."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    ]


def _identifiers(tree):
    """Every identifier a file names in code or in a string."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.update(re.findall(r"[A-Za-z_]\w*", n.value))
    return found


def _unreached(modules, named):
    """``module:line name`` for every definition of ``_definitions`` in the
    ``modules`` (name -> tree) that no module loads outside the definition
    itself and that is not among the identifiers ``named``."""
    loads = Counter(name for tree in modules.values() for name in _loads(tree))
    found = []
    for module, tree in modules.items():
        for line, name, node in _definitions(tree):
            short = name.split(".")[-1]
            if short == "__version__" or short in named:
                continue
            if loads[short] - _loads(node).count(short) <= 0:
                found.append(f"{module}:{line} {name}")
    return found


def _named_outside_the_tests():
    """The identifiers of the acceptance criteria and the benchmark."""
    named = set()
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]:
        named |= _identifiers(ast.parse(path.read_text()))
    return named


def test_every_definition_is_reached():
    # a definition stays only if the library itself uses it, an acceptance
    # criterion calls it, or the benchmark looks it up or calls it
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unreached = _unreached(modules, _named_outside_the_tests())
    assert not unreached, "definitions nothing reaches: " + ", ".join(unreached)


def test_unreached_definition_is_reported():
    lib = ast.parse(
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "def used(x):\n"
        "    return x < LIMIT\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def benchmarked():\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.ok = used(1)\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
        "    def read(self):\n"
        "        return self.size\n"
    )
    user = ast.parse("from lib import Box, used\nBox()\n")
    named = _identifiers(ast.parse('wrap(lib, "benchmarked")\n'))
    assert _unreached({"lib": lib, "user": user}, named) == [
        "lib:2 UNUSED", "lib:5 recursive", "lib:15 Box.read",
    ]


def _unselected(kinds, named):
    """``table value`` for every value of the ``kinds`` tables (name ->
    values) that is not among the identifiers ``named``."""
    return [f"{table} {value}" for table, values in kinds.items() for value in values if value not in named]


def test_every_kind_is_selected_outside_the_tests():
    # a kind stays only if an acceptance criterion or the benchmark selects
    # it.  bath.KINDS is left out: its tabulated kind is built inside
    # bath.load_tabulated, which criterion 12 calls, and never named there
    kinds = {"schedules.KINDS": schedules.KINDS, "response.CHANNEL_KINDS": response.CHANNEL_KINDS,
             "exact.MODELS": exact.MODELS}
    unselected = _unselected(kinds, _named_outside_the_tests())
    assert not unselected, "kinds nothing outside the tests selects: " + ", ".join(unselected)


def test_unselected_kind_is_reported():
    named = _identifiers(ast.parse('run({"schedule": "linear"})\nrun(kind="gap_adapted")\n'))
    kinds = {"KINDS": ("linear", "gap_adapted", "frozen"), "MODELS": ("ring",)}
    assert _unselected(kinds, named) == ["KINDS frozen", "MODELS ring"]


def _unused_imports(tree, lines):
    """(line, name) for every name an import binds that the module never
    loads, unless a line of the import carries ``# noqa: F401``."""
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in loaded:
                found.append((node.lineno, name))
    return found


def test_every_import_is_used():
    unused = [
        f"{path.stem}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text()), path.read_text().splitlines())
    ]
    assert not unused, "imports never used: " + ", ".join(unused)


def test_unused_import_is_reported():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from math import (\n"
        "    pi, tau,  # noqa: F401\n"
        ")\n"
        "from json import dumps, loads\n"
        "def f():\n"
        "    from sys import argv\n"
        "    return np.sum(loads('1'))\n"
    )
    assert _unused_imports(ast.parse(source), source.splitlines()) == [
        (1, "os"), (6, "dumps"), (8, "argv"),
    ]


def _options(tree):
    """(definition, parameter, position) for every parameter with a default
    of a top-level function or of a method of a top-level class.  A method's
    definition is ``Class.method``.  ``position`` is the index among the
    positional arguments of a call (a method's ``self`` or ``cls`` is
    bound), or None for a keyword-only parameter."""
    found = []

    def add(fn, name, bound):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        found.extend((name, p.arg, i - bound) for i, p in enumerate(positional[first:], first))
        found.extend((name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            add(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    add(m, f"{node.name}.{m.name}", 1)
    return found


def _calls(tree):
    """(callee, positional count, keywords) for every call, by name or
    attribute.  A call that unpacks ``*args`` or ``**kwargs`` reads as
    setting every parameter (keywords None)."""
    found = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        callee = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
        keywords = {k.arg for k in n.keywords}
        if None in keywords or any(isinstance(a, ast.Starred) for a in n.args):
            keywords = None
        found.append((callee, len(n.args), keywords))
    return found


def _unset_options(modules, callers):
    """``definition.parameter`` for every option of ``_options`` in the
    ``modules`` that no call in the ``callers`` (trees) passes, by position
    or by keyword.  A call of a class's name calls its ``__init__``."""
    calls = [c for tree in callers for c in _calls(tree)]
    found = []
    for tree in modules:
        for name, param, position in _options(tree):
            parts = name.split(".")
            callee = parts[0] if parts[-1] == "__init__" else parts[-1]
            if not any(
                c == callee and (kw is None or param in kw or (position is not None and npos > position))
                for c, npos, kw in calls
            ):
                found.append(f"{name}.{param}")
    return found


# options whose only setters lie outside the scanned callers, each with its reason
_OPTION_ALLOWED = {
    # perfbench/make_reference.py sets it through functools.partial
    "integrate_abs.n_points",
}


def test_every_option_is_set_outside_the_tests():
    # an option stays only if the library, an acceptance criterion or the
    # benchmark passes it; one that only the tests set changes no output
    modules = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    callers = modules + [
        ast.parse(path.read_text())
        for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    ]
    unset = _unset_options(modules, callers)
    assert not set(unset) - _OPTION_ALLOWED, "options no caller sets: " + ", ".join(
        name for name in unset if name not in _OPTION_ALLOWED)
    assert _OPTION_ALLOWED <= set(unset), "allowed options a caller now sets: " + ", ".join(
        sorted(_OPTION_ALLOWED - set(unset)))


def test_unset_option_is_reported():
    lib = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    pass\n"
        "def g(x=0):\n"
        "    pass\n"
        "def h(y=0):\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self, size=1, color=None):\n"
        "        pass\n"
        "    def fill(self, level=0, spill=False):\n"
        "        pass\n"
    )
    user = ast.parse(
        "f(0, 1, d=2)\n"
        "g(*args)\n"
        "Box(3).fill(1)\n"
    )
    assert _unset_options([lib], [lib, user]) == [
        "f.c", "f.e", "h.y", "Box.__init__.color", "Box.fill.spill",
    ]


# the input contract: a bad input is a ValueError (ConfigError is one), a file
# that cannot be read an OSError, and a failed certificate one of the two
# classes that the runners count as nonconverged
_DEFINABLE = {"ConfigError", "NonConvergenceError", "QuadratureError"}
_RAISABLE = _DEFINABLE | {"ValueError", "OSError"}


def _name(node):
    """The name ``node`` loads, by name or attribute, or None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _off_contract(tree):
    """(line, name) for every exception class that ``tree`` defines outside
    ``_DEFINABLE``, and every exception it raises outside ``_RAISABLE``.  A
    class is an exception class if a base is a builtin exception or ends in
    ``Error``; a bare ``raise`` re-raises and is allowed."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.ClassDef):
            bases = [_name(b) or "" for b in n.bases]
            if n.name not in _DEFINABLE and any(
                    b.endswith("Error") or isinstance(getattr(builtins, b, None), type)
                    and issubclass(getattr(builtins, b), BaseException) for b in bases):
                found.append((n.lineno, n.name))
        elif isinstance(n, ast.Raise) and n.exc is not None:
            name = _name(n.exc.func if isinstance(n.exc, ast.Call) else n.exc)
            if name not in _RAISABLE:
                found.append((n.lineno, name))
    return sorted(found)


def test_every_raise_keeps_the_input_contract():
    # cli.main turns a ValueError or an OSError into one line and exit 1; an
    # exception class of another kind would end in a traceback
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _off_contract(ast.parse(path.read_text()))
    ]
    assert not found, "exceptions outside the input contract: " + ", ".join(found)


def test_exception_outside_the_contract_is_reported():
    tree = ast.parse(
        "class QuadratureError(RuntimeError):\n"
        "    pass\n"
        "class DegenerateError(ArithmeticError):\n"
        "    pass\n"
        "class Collision(errors.QuadratureError):\n"
        "    pass\n"
        "class Stop(KeyboardInterrupt):\n"
        "    pass\n"
        "class Params(Base):\n"
        "    pass\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError(x)\n"
        "    try:\n"
        "        raise NotImplementedError\n"
        "    except KeyError:\n"
        "        raise\n"
        "    raise errors.DegenerateError(x) from None\n"
    )
    assert _off_contract(tree) == [
        (3, "DegenerateError"), (5, "Collision"), (7, "Stop"),
        (15, "NotImplementedError"), (18, "DegenerateError"),
    ]
