"""Static checks that keep dead code out of the package: every import is
used in its module, every module-level `_private` definition is
referenced somewhere in the package outside its own body, and every
`__all__` entry names a module-level binding.  Every public function,
class and public method is called by name somewhere other than its own
definition, in the package or in perfbench/, unless `UNCALLED_PUBLIC`
names it with a reason, so no public twin lives on for tests alone.  One
structural check rides along: only `states` touches the Gram kernel
`_gram`; every other module contracts through the `states` helpers.  And
the 17-digit float format is spelled once, as `cli._FLOAT_FMT`, and read
only by `cli._fmt` and `cli._text_rows`, so every CSV value goes through
the one writer.  And no function in `cli` reads a whole field's
`.values`: `wigner` renders stream the field a block of columns at a
time.  And only the grid's cached trapezoid rules call
`wigner._trapezoid_weights`, so quadratures do not form weights per
call.  And no function in `cli` forms a field or a field overlap per
point: `wigner_field` and `phase_space_overlap` are never called inside
a loop or a comprehension there."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "subplanck"
MODULES = sorted(PACKAGE.glob("*.py"))
# the benchmark's harness, which calls the package by name; read, never written
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public names that nothing in the package or perfbench/ calls, each kept for a reason
UNCALLED_PUBLIC = {
    "wigner.py: cross_wigner": "acceptance criterion 03 checks it, and it is the paper's object, W_kl",
    "metrology.py: sensitivity_report": "ROADMAP item 2 rebuilds it on the quantum Fisher information",
    "protocol.py: revival_time": "the last reader of JCParams.nbar, which the jc_oracle jobs pass by position",
    "states.py: inner_product": "the one public bra-ket that keeps the phase, <a|b>, beside fidelity",
    "states.py: rotate": "R(theta), the public partner of displace in the state algebra",
}


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


PER_POINT_CALLS = {"wigner_field", "phase_space_overlap"}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def per_point_field_calls(tree: ast.Module) -> list[str]:
    """`function: callee` for each call of `wigner_field` or
    `phase_space_overlap` (bare or as an attribute, `wigner.wigner_field`)
    inside a loop or a comprehension of a top-level statement, named by what
    the statement defines, or by its line."""
    found = set()
    for stmt in tree.body:
        for loop in (node for node in ast.walk(stmt) if isinstance(node, LOOPS)):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                    if callee in PER_POINT_CALLS:
                        found.add(f"{', '.join(_bound_names(stmt)) or f'line {stmt.lineno}'}: {callee}")
    return sorted(found)


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(*nodes: ast.AST) -> set[str]:
    """Identifiers the nodes read: bare names and attribute names.  An
    import alone is not a read, so a re-export is not a use."""
    found = set()
    for node in (node for root in nodes for node in ast.walk(root)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def uncalled_public_names(trees: dict[str, ast.Module], outside=(), allowed=()) -> list[str]:
    """`module: name`, or `module: Class.method`, for each public module-level
    function or class of the package `trees`, and each public method of a
    public class, that no other statement reads, in the package or in the
    modules `outside`.  A class's header and each statement of its body
    count apart, so a sibling method's call counts and the definition's own
    body does not; `__all__` holds strings, which are not reads.  Names in
    `allowed` are skipped."""
    units = []  # (the definitions a unit belongs to, the names it reads)
    for tree in [*trees.values(), *outside]:
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                units.append(((stmt,), _reads(*stmt.decorator_list, *stmt.bases, *stmt.keywords)))
                units += [((stmt, member), _reads(member)) for member in stmt.body]
            else:
                units.append(((stmt,), _reads(stmt)))
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, DEFINITIONS) or stmt.name.startswith("_"):
                continue
            labels = [(stmt, stmt.name)]
            if isinstance(stmt, ast.ClassDef):
                labels += [(m, f"{stmt.name}.{m.name}") for m in stmt.body
                           if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_")]
            for node, label in labels:
                name = f"{module}: {label}"
                if name not in allowed and not any(node.name in reads for owners, reads in units if node not in owners):
                    found.append(name)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert stale_exports(_parse(path)) == []


def test_every_public_name_is_called():
    trees = {path.name: _parse(path) for path in MODULES}
    outside = [_parse(path) for path in sorted(PERFBENCH.glob("*.py"))]
    assert outside, "perfbench/ has no modules to read"
    assert uncalled_public_names(trees, outside, UNCALLED_PUBLIC) == []
    # every allowlisted name still exists and is still uncalled
    assert uncalled_public_names(trees, outside) == sorted(UNCALLED_PUBLIC)


def test_public_name_check_catches_uncalled_names():
    # a helper only itself calls, a method nothing calls and a class read
    # only by its own body count; a name only perfbench calls, one a sibling
    # method calls, a re-export, a name in a docstring, a property read as an
    # attribute, a private method and an allowlisted name do not
    trees = {
        "states.py": ast.parse(
            "__all__ = ['Ket', 'helper', 'bench_only', 'kept']\n"
            "def helper(x):\n    'Calls nothing but `helper`.'\n    return helper(x - 1) if x else 0\n"
            "def bench_only(x):\n    return x\n"
            "def kept(x):\n    return x\n"
            "class Ket:\n"
            "    def norm(self):\n        return self.scaled()\n"
            "    def scaled(self):\n        return Ket()\n"
            "    def unused(self):\n        return 0\n"
            "    @property\n    def size(self):\n        return 1\n"
            "    def _private(self):\n        return 2\n"
        ),
        "__init__.py": ast.parse("from .states import Ket, helper\n__all__ = ['Ket', 'helper']\n"),
        "cli.py": ast.parse("def main(k):\n    'See kept.'\n    return k.norm() + k.size\n"),
    }
    outside = [ast.parse("import subplanck.states as states\nstates.bench_only(1)\nsubplanck.cli.main(None)\n")]
    assert uncalled_public_names(trees, outside, {"states.py: kept": "a reason"}) == [
        "states.py: Ket", "states.py: Ket.unused", "states.py: helper",
    ]
    assert "states.py: kept" in uncalled_public_names(trees, outside)
    # without perfbench, its one caller, the name is flagged
    assert "states.py: bench_only" in uncalled_public_names(trees)


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


def test_cli_forms_no_field_per_point():
    assert per_point_field_calls(_parse(PACKAGE / "cli.py")) == []


def test_per_point_field_check_catches_loops():
    # a list comprehension over perturbed states, a generator of overlaps, a
    # for loop, a while loop and a nested helper's loop each count; one call
    # per command, a loop over other calls and a mention in a string do not
    tree = ast.parse(
        "def _cmd_a(states, grid):\n    return [wigner.wigner_field(s, grid) for s in states]\n"
        "def _cmd_b(base, fields):\n    return list(wigner.phase_space_overlap(base, f) for f in fields)\n"
        "def _cmd_c(states, grid):\n    out = []\n    for s in states:\n        out.append(wigner_field(s, grid))\n"
        "    return out\n"
        "def _cmd_d(w, fields):\n    while fields:\n        phase_space_overlap(w, fields.pop())\n"
        "def _cmd_e(states, grid):\n    def inner():\n        for s in states:\n            yield wigner.wigner_field(s, grid)\n"
        "    return inner()\n"
        "def _cmd_f(state, grid, blocks):\n    field = wigner.wigner_field(state, grid)\n"
        "    return [field.samples(b) for b in blocks], 'wigner_field in a loop'\n"
    )
    assert per_point_field_calls(tree) == [
        "_cmd_a: wigner_field", "_cmd_b: phase_space_overlap", "_cmd_c: wigner_field", "_cmd_d: phase_space_overlap",
        "_cmd_e: wigner_field",
    ]


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
