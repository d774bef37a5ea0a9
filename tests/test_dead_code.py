"""Static checks that keep dead code out of the package: every import is
used in its module, every module-level `_private` definition is
referenced somewhere in the package outside its own body, and every
`__all__` entry names a module-level binding.  One structural check rides
along: only `states` touches the Gram kernel `_gram`; every other module
contracts through the `states` helpers.  And the 17-digit float format is
spelled once, as `cli._FLOAT_FMT`, and read only by `cli._fmt` and
`cli._text_rows`, so every CSV value goes through the one writer.  And
no function in `cli` reads a whole field's `.values`: `wigner` renders
stream the field a block of columns at a time.  And only the grid's cached
trapezoid rules call `wigner._trapezoid_weights`, so quadratures do not
form weights per call."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "subplanck"
MODULES = sorted(PACKAGE.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> set[str]:
    """Names listed in a module-level `__all__`."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            return {elt.value for elt in stmt.value.elts}
    return set()


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module never reads or exports."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(bound)
    return unused


def _bound_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement binds in its module."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    return []


def stale_exports(tree: ast.Module) -> list[str]:
    """`__all__` entries that no top-level statement binds: a star import or
    a `getattr` over `__all__` would fail on them."""
    bound = {name for stmt in tree.body for name in _bound_names(stmt)}
    return sorted(_exported(tree) - bound)


def _private_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return []
    return [n for n in _bound_names(stmt) if n.startswith("_") and not n.startswith("__")]


def _references(stmt: ast.stmt) -> set[str]:
    """Identifiers a statement reads: bare names, attribute names (as in
    `states._gram`) and names imported from another module."""
    refs = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """`module: name` for each module-level private definition that no other
    top-level statement of the package references."""
    statements = [(module, stmt, _references(stmt)) for module, tree in trees.items() for stmt in tree.body]
    dead = []
    for module, stmt, _ in statements:
        for name in _private_names(stmt):
            if not any(name in refs for _, other, refs in statements if other is not stmt):
                dead.append(f"{module}: {name}")
    return dead


def gram_outside_states(trees: dict[str, ast.Module]) -> list[str]:
    """Modules other than states.py that reference `_gram` in any form: a
    bare name, an attribute (`states._gram`) or an imported name."""
    return [
        module
        for module, tree in trees.items()
        if module != "states.py" and any("_gram" in _references(stmt) for stmt in tree.body)
    ]


def float_format_spellings(trees: dict[str, ast.Module]) -> list[str]:
    """`module: name` for each string constant that spells the 17-digit
    float format (a `%.17g` literal, a `.17g` spec for `format` or
    `str.format`, or the spec of an f-string field `{x:.17g}`, which is a
    constant inside the f-string), named by the top-level assignment it is
    the value of, or by its line."""
    owners = {
        id(stmt.value): target.id
        for tree in trees.values()
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }
    return sorted(
        f"{module}: {owners.get(id(node), f'line {node.lineno}')}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value
    )


def float_format_readers(trees: dict[str, ast.Module]) -> list[str]:
    """`module: name` for each top-level statement that reads `_FLOAT_FMT`
    in any form (a bare name, `cli._FLOAT_FMT` or an imported name), named
    by what it defines, or by its line."""
    return sorted(
        f"{module}: {', '.join(_bound_names(stmt)) or f'line {stmt.lineno}'}"
        for module, tree in trees.items()
        for stmt in tree.body
        if "_FLOAT_FMT" in _references(stmt)
    )


def values_readers(tree: ast.Module) -> list[str]:
    """Top-level definitions of a module that read a `.values` attribute
    anywhere in their body, named by what they define, or by their line."""
    return sorted(
        ", ".join(_bound_names(stmt)) or f"line {stmt.lineno}"
        for stmt in tree.body
        if any(isinstance(node, ast.Attribute) and node.attr == "values" for node in ast.walk(stmt))
    )


def trapezoid_weight_callers(trees: dict[str, ast.Module]) -> list[str]:
    """`module: name` for each top-level statement, or statement of a class
    body (named `Class.name`), that reads `_trapezoid_weights` in any form:
    a call, an attribute (`wigner._trapezoid_weights`) or an imported name.
    Unnamed statements are named by their line."""
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            inner = isinstance(stmt, ast.ClassDef)
            for node in stmt.body if inner else [stmt]:
                if "_trapezoid_weights" in _references(node):
                    name = ", ".join(_bound_names(node)) or f"line {node.lineno}"
                    found.append(f"{module}: {stmt.name + '.' if inner else ''}{name}")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert stale_exports(_parse(path)) == []


def test_every_private_definition_is_referenced():
    assert unreferenced_privates({path.name: _parse(path) for path in MODULES}) == []


def test_gram_stays_in_states():
    assert gram_outside_states({path.name: _parse(path) for path in MODULES}) == []


def test_float_format_is_spelled_once():
    assert float_format_spellings({path.name: _parse(path) for path in MODULES}) == ["cli.py: _FLOAT_FMT"]


def test_float_format_check_catches_second_spellings():
    # a second literal, a format() spec and an f-string field each count;
    # other precisions and the name itself do not
    trees = {
        "cli.py": ast.parse('_FLOAT_FMT = "%.17g"\n_SHORT = "%.6g"\ndef f(x):\n    return _FLOAT_FMT % x\n'),
        "wigner.py": ast.parse('_OTHER = "%.17g"\ndef g(x):\n    return f"{x:.17g}"\n'),
        "metrology.py": ast.parse('def h(x):\n    return format(x, ".17g") + "{:.6e}".format(x)\n'),
    }
    assert float_format_spellings(trees) == ["cli.py: _FLOAT_FMT", "metrology.py: line 2", "wigner.py: _OTHER", "wigner.py: line 3"]


def test_float_format_is_read_by_the_one_writer():
    assert float_format_readers({path.name: _parse(path) for path in MODULES}) == ["cli.py: _fmt", "cli.py: _text_rows"]


def test_float_format_reader_check_catches_third_readers():
    # a second row formatter in cli, an attribute read and an import
    # elsewhere each count; the definition itself and a docstring do not
    trees = {
        "cli.py": ast.parse(
            '_FLOAT_FMT = "%.17g"\n'
            "def _fmt(x):\n    return _FLOAT_FMT % x\n"
            "def _text_rows(v):\n    return [_FLOAT_FMT % x for x in v]\n"
            'def _csv_bytes(rows):\n    """Rows as _FLOAT_FMT."""\n    return [",".join([_FLOAT_FMT] * len(r)) % r for r in rows]\n'
        ),
        "wigner.py": ast.parse("from . import cli\ndef dump(x):\n    return cli._FLOAT_FMT % x\n"),
        "metrology.py": ast.parse("from .cli import _FLOAT_FMT\n"),
    }
    assert float_format_readers(trees) == [
        "cli.py: _csv_bytes", "cli.py: _fmt", "cli.py: _text_rows", "metrology.py: _FLOAT_FMT", "wigner.py: dump",
    ]


def test_cli_reads_no_whole_field():
    assert values_readers(_parse(PACKAGE / "cli.py")) == []


def test_values_reader_check_catches_readers():
    # a direct read, one inside a nested generator and one in a module-level
    # statement each count; a `values` name, string or keyword does not
    tree = ast.parse(
        "def _cmd_a(fields):\n    return fields[0].values * fields[1].values\n"
        "def _cmd_b(field):\n    def blocks():\n        yield field.values[:, :64]\n    return list(blocks())\n"
        "def _cmd_c(values, field):\n    return dict(values=values, name='values', f=field.samples(slice(None)))\n"
        "RASTER = wigner.field.values.T\n"
    )
    assert values_readers(tree) == ["RASTER", "_cmd_a", "_cmd_b"]


def test_trapezoid_weights_are_formed_once_per_grid():
    assert trapezoid_weight_callers({path.name: _parse(path) for path in MODULES}) == [
        "wigner.py: PhaseSpaceGrid._trapezoid_rules",
    ]


def test_trapezoid_weight_check_catches_other_callers():
    # a quadrature that forms its own weights, a method of another class, an
    # attribute call from another module and an import each count; the
    # definition itself does not
    trees = {
        "wigner.py": ast.parse(
            "def _trapezoid_weights(points):\n    return points\n"
            "class PhaseSpaceGrid:\n    def _trapezoid_rules(self):\n        return _trapezoid_weights(self.re)\n"
            "class WignerField:\n    def mass(self):\n        return _trapezoid_weights(self.grid.re) @ self.g\n"
            "def _factor_overlap(w1, w2):\n    return _trapezoid_weights(w1.grid.re) @ w2.g\n"
        ),
        "cli.py": ast.parse("from . import wigner\ndef _cmd(grid):\n    return wigner._trapezoid_weights(grid.im)\n"),
        "metrology.py": ast.parse("from .wigner import _trapezoid_weights\n"),
    }
    assert trapezoid_weight_callers(trees) == [
        "cli.py: _cmd", "metrology.py: _trapezoid_weights", "wigner.py: PhaseSpaceGrid._trapezoid_rules",
        "wigner.py: WignerField.mass", "wigner.py: _factor_overlap",
    ]


def test_checks_catch_dead_code():
    # the checks themselves must fire: an unused import, a private helper
    # referenced only by itself, a private constant nobody reads, and an
    # `__all__` entry left behind by a deleted class
    source = ast.parse(
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from .states import _gram, displace\n"
        "__all__ = ['displace', 'public', 'Removed']\n"
        "_UNUSED = 1.0\n"
        "_USED = 2.0\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else _USED\n"
        "def _used(x):\n"
        "    return np.sqrt(x)\n"
        "def public(x):\n"
        "    return _used(x)\n"
    )
    assert unused_imports(source) == ["math", "_gram"]
    assert unreferenced_privates({"m.py": source}) == ["m.py: _UNUSED", "m.py: _recursive"]
    assert stale_exports(source) == ["Removed"]


def test_gram_check_catches_other_modules():
    # an import, an attribute access and a bare name each count; states.py
    # itself is allowed, and names that merely contain "_gram" are not hits
    trees = {
        "states.py": ast.parse("def _gram(b, k):\n    return b\ndef _braket(w, a):\n    return _gram(a, a)\n"),
        "metrology.py": ast.parse("from .states import _gram\n"),
        "protocol.py": ast.parse("from . import states\ndef f(a):\n    return states._gram(a, a)\n"),
        "wigner.py": ast.parse("def f(_gram):\n    return _gram\n"),
        "cli.py": ast.parse("from .states import _braket\n_gram_size = 3\n"),
    }
    assert gram_outside_states(trees) == ["metrology.py", "protocol.py", "wigner.py"]
