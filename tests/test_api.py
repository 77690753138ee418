"""Static checks on the library's interface."""

import ast
import re
from collections import Counter
from pathlib import Path

import qptsweep

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


def _arpack_uses(tree, home):
    """(line, name, inside) for every load of ``eigsh`` or ``LinearOperator``,
    by name or attribute; ``inside`` tells whether it lies in a function named
    ``home``.  Imports are not uses."""
    inside = {
        id(n) for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name == home for n in ast.walk(f)
    }
    found = []
    for n in ast.walk(tree):
        name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
        if name in _ARPACK:
            found.append((n.lineno, name, id(n) in inside))
    return found


def test_arpack_is_reached_through_one_function():
    # perfbench counts ARPACK matvecs by rebinding exact.eigsh, so every
    # solve must go through exact._eigsh
    outside, home = [], set()
    for path in sorted(SRC.glob("*.py")):
        for line, name, inside in _arpack_uses(ast.parse(path.read_text()), "_eigsh"):
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
    assert sorted((name, inside) for _, name, inside in _arpack_uses(tree, "_eigsh")) == [
        ("LinearOperator", True), ("eigsh", False), ("eigsh", True),
    ]


# what a response row may not be computed from outside ``response``: the
# per-frequency amplitudes and the helpers that split a channel and pick
# the quadrature path
_BEHIND_THE_GRID = {
    "amplitude_direct_uniform", "amplitude_direct_nonuniform", "amplitude_bitflip",
    "amplitude_saddle_uniform", "_channel_integrals", "_filon_refined", "_fourier_on_grid",
    "_evenly_spaced",
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


ROOT = Path(__file__).resolve().parent.parent


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


def test_every_definition_is_reached():
    # a definition stays only if the library itself uses it, an acceptance
    # criterion calls it, or the benchmark looks it up or calls it
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = set()
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]:
        named |= _identifiers(ast.parse(path.read_text()))
    unreached = _unreached(modules, named)
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
    # both readings of the nonuniform pair phase stay until an ED check of the channel picks one
    "amplitude_direct_nonuniform.pair_gap_phase",
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
