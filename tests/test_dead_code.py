"""Static checks that keep dead code out of the package: every import is
used in its module, every module-level `_private` definition is
referenced somewhere in the package outside its own body, and every
`__all__` entry names a module-level binding.

Every unit of the package (a module-level function or class, or a
method, private ones too) is reached by a walk from what users run:
`cli.main`, `cli.build_parser` and README's python block.  A reached
unit's loaded bare names reach the module-level definitions of those
names, and its attribute names reach those and the methods and
properties of those names; a reached class reaches its dunder methods.
So a same-named local variable keeps no method alive, and a call from an
unreached caller keeps nothing alive.  A unit the walk misses must be in
`UNCALLED_PUBLIC`, with a reason, or in `BENCHMARK_ONLY`, which must equal
the set the walk reaches only when the files of perfbench/ (parsed, never
imported) are roots too.

One structural check rides along: only `states` touches the Gram kernel
`_gram`; every other module contracts through the `states` helpers.  And
the 17-digit float format is spelled once, as `cli._FLOAT_FMT`, and read
only by `cli._fmt` and `cli._text_rows`, so every CSV value goes through
the one writer.  And only the grid's cached trapezoid rules call
`wigner._trapezoid_weights`, so quadratures do not form weights per
call.  And no function in `cli` forms a field or a field overlap per
point: `wigner_field` and `phase_space_overlap` are never called inside
a loop or a comprehension there.  And `estimation` seeds and draws no
trial on its own: `SeedSequence`, `spawn`, `default_rng`, `PCG64` and
`binomial` are never called inside a loop or a comprehension there, so a
run's counts stay one draw.  And only `protocol._prepare` runs a step of the
preparation U forward: U runs once per engine call, in one place, and
every other walk of the descriptors is U^dag.  And no function in
`metrology` calls the exact kernel `_exact_overlaps` on a one-point array
literal: the first-zero search evaluates stacks of magnitudes.  And no
function in `cli` reads a private name of `wigner` or `metrology`, as an
attribute or an import: how the quadrature column is sized, refused and
traced is `metrology.OverlapSweep.quadrature`'s decision alone."""

import ast
from pathlib import Path

import pytest

from test_readme import README, python_blocks

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "subplanck"
MODULES = sorted(PACKAGE.glob("*.py"))
# the benchmark's harness, which calls the package by name; read, never written
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the units every run starts from: the command and its parser
ROOTS = ("cli.py: main", "cli.py: build_parser")

# units that no command, README example or benchmark job reaches, each kept for a reason
UNCALLED_PUBLIC = {
    "wigner.py: cross_wigner": "acceptance criterion 03 checks it, and it is the paper's object, W_kl",
    "states.py: inner_product": "the one public bra-ket that keeps the phase, <a|b>, beside fidelity",
    "states.py: rotate": "R(theta) for any real theta; PerturbationSpec takes theta >= 0 only",
    "states.py: mean_excitation": "acceptance criterion 05 checks it; ROADMAP items 2 and 26 put <n> on the CLI path",
    "protocol.py: revival_time": "the last reader of JCParams.nbar, which the jc_oracle jobs pass by position",
    "protocol.py: ProtocolResult.branch": "acceptance criterion 06 reads it; it goes with ProtocolResult in ROADMAP item 20",
}

# units that only perfbench/'s calls reach: the strategy engine, the JC
# oracle, the Fock bridge, the first-zero search and the calibration, which
# wait for ROADMAP items 20 and 22 to move onto the CLI path or go
BENCHMARK_ONLY = {
    "estimation.py: estimator_calibration",
    "metrology.py: locate_first_zero", "metrology.py: OverlapSweep.first_fringe_zero", "metrology.py: _stacked_minimum",
    "protocol.py: JCParams", "protocol.py: resonant_protocol", "protocol.py: dispersive_sequence",
    "protocol.py: generic_strategy", "protocol.py: _checked", "protocol.py: _apply_op", "protocol.py: _prepare",
    "protocol.py: _joint", "protocol.py: jc_numeric_evolve",
    "states.py: coherent_state", "states.py: default_n_trunc", "states.py: FockVector", "states.py: FockVector.dimension",
    "states.py: to_fock", "states.py: CoherentSuperposition.n_terms",
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


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _callee(call: ast.Call) -> str | None:
    """The name a call calls, bare or as an attribute (`wigner.wigner_field`)."""
    return call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)


def per_point_field_calls(tree: ast.Module, callees: set[str]) -> list[str]:
    """`function: callee` for each call of a name in `callees` (bare or as
    an attribute, `wigner.wigner_field`) inside a loop or a comprehension of
    a top-level statement, named by what the statement defines, or by its
    line."""
    found = set()
    for stmt in tree.body:
        for loop in (node for node in ast.walk(stmt) if isinstance(node, LOOPS)):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and _callee(node) in callees:
                    found.add(f"{', '.join(_bound_names(stmt)) or f'line {stmt.lineno}'}: {_callee(node)}")
    return sorted(found)


def forward_step_callers(tree: ast.Module) -> list[str]:
    """Top-level definitions of a module that call `_apply_op` (bare or as an
    attribute) with an `inverse` argument, by keyword or in fourth place,
    that is not the constant True, so they run a step of U forward; named
    by what they define, or by their line."""
    found = set()
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and _callee(node) == "_apply_op":
                inverse = next((k.value for k in node.keywords if k.arg == "inverse"), node.args[3] if len(node.args) > 3 else None)
                if not (isinstance(inverse, ast.Constant) and inverse.value is True):
                    found.add(", ".join(_bound_names(stmt)) or f"line {stmt.lineno}")
    return sorted(found)


def _one_point_literal(node: ast.AST) -> bool:
    """A one-element list or tuple display, bare or wrapped in an `array` or
    `asarray` call (`np.array([x])`)."""
    if isinstance(node, ast.Call) and _callee(node) in ("array", "asarray") and node.args:
        node = node.args[0]
    return isinstance(node, (ast.List, ast.Tuple)) and len(node.elts) == 1


def one_point_kernel_calls(tree: ast.Module, callee: str) -> list[str]:
    """Top-level definitions of a module, or methods of its classes (named
    `Class.method`), that call `callee` (bare or as an attribute) with a
    one-point array literal among its arguments; unnamed statements are
    named by their line."""
    found = set()
    for stmt in tree.body:
        inner = isinstance(stmt, ast.ClassDef)
        for unit in stmt.body if inner else [stmt]:
            for node in ast.walk(unit):
                if isinstance(node, ast.Call) and _callee(node) == callee and any(
                        _one_point_literal(arg) for arg in [*node.args, *(k.value for k in node.keywords)]):
                    name = ", ".join(_bound_names(unit)) or f"line {unit.lineno}"
                    found.add(f"{stmt.name + '.' if inner else ''}{name}")
    return sorted(found)


def private_reads(tree: ast.Module, modules: set[str]) -> list[str]:
    """`definition: module._name` for each private name of a module in
    `modules` that a top-level statement reads as an attribute
    (`wigner._field`) or imports (`from .wigner import _field`), named by
    what the statement binds, or by its line."""
    found = set()
    for stmt in tree.body:
        name = ", ".join(_bound_names(stmt)) or f"line {stmt.lineno}"
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                names = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom) and node.module in modules:
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            found.update(f"{name}: {module}.{attr}" for module, attr in names
                         if attr.startswith("_") and not attr.startswith("__"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert stale_exports(_parse(path)) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _reads(*nodes: ast.AST) -> tuple[set[str], set[str]]:
    """The bare names the nodes load and the attribute names they read.  An
    import alone is not a read, so a re-export is not a use, and neither is
    a name in a string or a docstring."""
    names, attributes = set(), set()
    for node in (node for root in nodes for node in ast.walk(root)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


def _units(trees: dict[str, ast.Module]) -> tuple[dict, tuple[set[str], set[str]]]:
    """The units of the package `trees`, {`module: name` or `module:
    Class.method`: (name, is a method, reads)}, and the reads of the
    module-level statements that define nothing, which run on import.  A
    unit is a module-level function or class, or a method; a class's
    decorators, bases, other body statements and dunder methods are its
    own reads, so a reached class reaches its dunder methods."""
    units, on_import = {}, (set(), set())
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                methods = [m for m in stmt.body
                           if isinstance(m, FUNCTIONS) and not (m.name.startswith("__") and m.name.endswith("__"))]
                rest = [node for node in stmt.body if node not in methods]
                units[f"{module}: {stmt.name}"] = (stmt.name, False, _reads(*stmt.decorator_list, *stmt.bases, *stmt.keywords, *rest))
                units.update((f"{module}: {stmt.name}.{m.name}", (m.name, True, _reads(m))) for m in methods)
            elif isinstance(stmt, FUNCTIONS):
                units[f"{module}: {stmt.name}"] = (stmt.name, False, _reads(stmt))
            else:
                for found, read in zip(on_import, _reads(stmt)):
                    found |= read
    return units, on_import


def unreached_units(trees: dict[str, ast.Module], outside=(), allowed=()) -> list[str]:
    """Labels of the units of the package `trees` (see `_units`) that no walk
    from `ROOTS`, the package's module-level statements and the modules
    `outside` reaches, outside `allowed`.  Each reached unit's reads reach
    more: a loaded bare name reaches the module-level functions and classes
    of that name, and an attribute also reaches the methods and properties
    of that name.  So a local variable reaches no method, and a unit that
    only unreached units read is unreached too."""
    units, (names, attributes) = _units(trees)
    for tree in outside:
        more_names, more_attributes = _reads(tree)
        names, attributes = names | more_names, attributes | more_attributes
    reached = set()
    frontier = [label for label in ROOTS if label in units]
    while frontier:
        label = frontier.pop()
        if label not in reached:
            reached.add(label)
            more_names, more_attributes = units[label][2]
            names, attributes = names | more_names, attributes | more_attributes
            frontier += [other for other, (name, method, _) in units.items()
                         if other not in reached and (name in attributes or not method and name in names)]
    return sorted(set(units) - reached - set(allowed))


def _package_and_roots():
    """The package's modules, README's python blocks and perfbench/'s files, parsed."""
    trees = {path.name: _parse(path) for path in MODULES}
    readme = [ast.parse(block) for block in python_blocks(README.read_text())]
    bench = [_parse(path) for path in sorted(PERFBENCH.glob("*.py"))]
    assert readme and bench, "README has no python block, or perfbench/ no modules"
    return trees, readme, bench


def test_every_unit_is_reached():
    trees, readme, bench = _package_and_roots()
    assert unreached_units(trees, [*readme, *bench], UNCALLED_PUBLIC) == []
    # every allowlisted unit still exists and is still unreached
    assert unreached_units(trees, [*readme, *bench]) == sorted(UNCALLED_PUBLIC)


def test_benchmark_only_units_are_pinned():
    # the units that only perfbench/'s calls keep: the set that ROADMAP
    # items 20 and 22 delete or move, and no more
    trees, readme, bench = _package_and_roots()
    only = set(unreached_units(trees, readme)) - set(unreached_units(trees, [*readme, *bench]))
    assert sorted(only) == sorted(BENCHMARK_ONLY)


def test_reachability_catches_dead_chains_and_name_collisions():
    # a helper that only an unreached public function calls, a method whose
    # name is only a local variable's (of the command and of the benchmark),
    # and a class nothing builds are flagged; a sibling method's call, a
    # property read, a dunder method of a reached class, a re-export, a
    # name in a docstring and an allowlisted name are not, and a name only
    # the benchmark reads is reached with it alone
    trees = {
        "states.py": ast.parse(
            "__all__ = ['Ket', 'helper', 'dead', 'bench_only', 'kept', 'Unbuilt']\n"
            "def helper(x):\n    return x\n"
            "def dead(k):\n    'Calls `helper`.'\n    return helper(k.size)\n"
            "def bench_only(x):\n    return x\n"
            "def kept(x):\n    return x\n"
            "class Unbuilt:\n    pass\n"
            "class Ket:\n"
            "    def __init__(self):\n        self.n = _size()\n"
            "    def norm(self):\n        return self.scaled()\n"
            "    def scaled(self):\n        return Ket()\n"
            "    def values(self):\n        return 0\n"
            "    def branch(self):\n        return 1\n"
            "    @property\n    def size(self):\n        return 1\n"
            "def _size():\n    return 2\n"
        ),
        "__init__.py": ast.parse("from .states import Ket, helper\n__all__ = ['Ket', 'helper']\n"),
        "cli.py": ast.parse(
            "from .states import Ket\n"
            "def main(values):\n    'See kept.'\n    k = Ket()\n    return k.norm() + k.size + sum(values)\n"
        ),
    }
    bench = [ast.parse("import subplanck.states as states\nbranch = states.bench_only(1)\nprint(branch)\n")]
    assert unreached_units(trees, bench, {"states.py: kept": "a reason"}) == [
        "states.py: Ket.branch", "states.py: Ket.values", "states.py: Unbuilt", "states.py: dead", "states.py: helper",
    ]
    assert "states.py: kept" in unreached_units(trees, bench)
    # without the benchmark, its one reader, the name is unreached
    assert set(unreached_units(trees)) - set(unreached_units(trees, bench)) == {"states.py: bench_only"}
    # the helper is reached once its caller is
    assert "states.py: helper" not in unreached_units(trees, [ast.parse("dead(None)")])


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


PER_POINT_FIELD_CALLS = {"_field", "wigner_field", "phase_space_overlap"}
PER_TRIAL_SEED_CALLS = {"SeedSequence", "spawn", "default_rng", "PCG64", "binomial"}


def test_cli_forms_no_field_per_point():
    assert per_point_field_calls(_parse(PACKAGE / "cli.py"), PER_POINT_FIELD_CALLS) == []


def test_estimation_builds_no_seed_sequence_per_trial():
    assert per_point_field_calls(_parse(PACKAGE / "estimation.py"), PER_TRIAL_SEED_CALLS) == []


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
    assert per_point_field_calls(tree, PER_POINT_FIELD_CALLS) == [
        "_cmd_a: wigner_field", "_cmd_b: phase_space_overlap", "_cmd_c: wigner_field", "_cmd_d: phase_space_overlap",
        "_cmd_e: wigner_field",
    ]
    # with the seed callees, a SeedSequence built per trial counts, and so
    # do a generator seeded and a count drawn per trial; one generator and
    # one sized draw for the whole run, and a loop over its counts, do not
    tree = ast.parse(
        "def per_trial(p, r, n, seed):\n"
        "    return [readout(p, r, np.random.SeedSequence(seed, spawn_key=(i,))) for i in range(n)]\n"
        "def per_trial_draw(p, r, seeds):\n"
        "    return [np.random.default_rng(s).binomial(r, p) for s in seeds]\n"
        "def once(p, r, n, seed):\n"
        "    counts = np.random.default_rng(seed).binomial(r, p, size=n)\n"
        "    return [int(c) for c in counts]\n"
    )
    assert per_point_field_calls(tree, PER_TRIAL_SEED_CALLS) == [
        "per_trial: SeedSequence", "per_trial_draw: binomial", "per_trial_draw: default_rng",
    ]


def test_only_the_preparation_runs_u_forward():
    assert forward_step_callers(_parse(PACKAGE / "protocol.py")) == ["_prepare"]


def test_forward_step_check_catches_other_callers():
    # a per-call engine that runs U itself, a positional False, a call with
    # no inverse argument and an attribute call each count; U^dag by keyword
    # or in fourth place and a mention in a string do not
    tree = ast.parse(
        "def _prepare(ops, w, a):\n    for op in ops:\n        w, a = _apply_op(w, a, op, inverse=False)\n    return w, a\n"
        "def generic_strategy(ops, w, a):\n    for op in ops:\n        w, a = _apply_op(w, a, op, inverse=False)\n"
        "    for op in reversed(ops):\n        w, a = _apply_op(w, a, op, inverse=True)\n    return w, a\n"
        "def positional(op, w, a):\n    return _apply_op(w, a, op, False)\n"
        "def unset(op, w, a):\n    return protocol._apply_op(w, a, op)\n"
        "def undo(ops, w, a):\n    for op in ops:\n        w, a = protocol._apply_op(w, a, op, True)\n"
        "    return w, a, '_apply_op(w, a, op, inverse=False)'\n"
    )
    assert forward_step_callers(tree) == ["_prepare", "generic_strategy", "positional", "unset"]


def test_metrology_evaluates_no_one_point_kernel():
    assert one_point_kernel_calls(_parse(PACKAGE / "metrology.py"), "_exact_overlaps") == []


def test_one_point_kernel_check_catches_scalar_searches():
    # a nested helper of a method (as the golden-section search had), a bare
    # list, an asarray by keyword and a tuple at module level each count; a
    # stack of magnitudes, a two-point literal, a one-point array passed to
    # another function and a mention in a string do not
    tree = ast.parse(
        "class OverlapSweep:\n"
        "    def first_fringe_zero(self):\n"
        "        def overlap(mag):\n"
        "            return float(_exact_overlaps(self.target, self.kind, self.direction, np.array([mag]))[0])\n"
        "        return _golden_minimum(overlap, 0.0, 1.0, 1e-12)\n"
        "    def stacked(self, mags):\n        return _exact_overlaps(self.target, self.kind, None, mags)\n"
        "def bare(t, s):\n    return _exact_overlaps(t, 'rotation', None, [s])\n"
        "def keyword(t, s):\n    return metrology._exact_overlaps(t, 'rotation', None, magnitudes=np.asarray([s]))\n"
        "ZERO = _exact_overlaps(TARGET, 'rotation', None, (0.0,))\n"
        "def pair(t, a, b):\n    return _exact_overlaps(t, 'rotation', None, np.array([a, b]))\n"
        "def other(t, s):\n    return _approx_overlaps(2, 4j, 'rotation', None, np.array([s])), '_exact_overlaps(np.array([s]))'\n"
        "def sweep(t, lo, hi):\n    return _exact_overlaps(t, 'rotation', None, np.linspace(lo, hi, 33))\n"
    )
    assert one_point_kernel_calls(tree, "_exact_overlaps") == [
        "OverlapSweep.first_fringe_zero", "ZERO", "bare", "keyword",
    ]


QUADRATURE_OWNERS = {"wigner", "metrology"}


def test_cli_reads_no_private_name_of_wigner_or_metrology():
    assert private_reads(_parse(PACKAGE / "cli.py"), QUADRATURE_OWNERS) == []


def test_private_read_check_catches_readers():
    # an attribute read, a nested helper's read, a module-level read and an
    # import each count; a public name, a dunder, another module's private
    # name, a local variable named like a module and a string do not
    tree = ast.parse(
        "from . import metrology, protocol, states, wigner\n"
        "from .metrology import _weyl_symbols, overlap_sweep\n"
        "def _cmd_overlap(args, sweep):\n"
        "    grid = wigner.auto_grid(sweep.target)\n"
        "    return wigner._unitary_traces(wigner._field(sweep.target, grid), *_weyl_symbols('rotation', [0.1], None))\n"
        "def _cmd_wigner(args):\n"
        "    def blocks():\n"
        "        yield metrology._perturbed_terms('rotation', 0.1, None, [1], [0])\n"
        "    return list(blocks()), wigner.__name__, wigner.wigner_field\n"
        "def _cmd_protocol(args, sweep):\n"
        "    return protocol._fringe_weights(args), states._abs_sq(sweep.quadrature()), 'wigner._field'\n"
        "def _cmd_local(wigner_like):\n"
        "    metrics = wigner_like\n"
        "    return metrics._private\n"
        "SYMBOLS = metrology._weyl_symbols\n"
    )
    assert private_reads(tree, QUADRATURE_OWNERS) == [
        "SYMBOLS: metrology._weyl_symbols", "_cmd_overlap: wigner._field", "_cmd_overlap: wigner._unitary_traces",
        "_cmd_wigner: metrology._perturbed_terms", "_weyl_symbols, overlap_sweep: metrology._weyl_symbols",
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
