"""Static checks on the library's interface."""

import ast
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
