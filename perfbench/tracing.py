"""Span tracing of the subplanck layers from outside the package.

``Tracer.install`` replaces every public function of the layer modules (the
names in ``__all__``, ``cli.main``/``parse_complex``/``build_parser``, and
the public methods of the public classes) with a recorder, and rebinds each
module attribute that held the original, so names imported with ``from ...
import`` (``metrology.displace``, ``protocol.inner_product``,
``estimation.dispersive_protocol``...) are traced too.  Two private
functions are wrapped for their counters only: ``states._gram`` (Gram
entries) and ``cli._atomic_write`` (bytes written).

A span is (id, name, group, start_ns, end_ns, parent id, job id).  Spans
stay in memory until the run writes them out.  A group's self time is the
summed duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

PACKAGE = "subplanck"
LAYERS = ("states", "wigner", "metrology", "protocol", "estimation", "cli")

# function -> (group, counts toward the group's calls); everything else is
# in the group named after its module and counts toward its calls
GROUPS = {
    "wigner.wigner_field": ("wigner.field", True),
    "wigner.cross_wigner": ("wigner.field", False),
    "wigner.phase_space_overlap": ("wigner.overlap", True),
    "metrology.overlap_sweep": ("metrology.sweep", True),
    "metrology.exact_overlap": ("metrology.sweep", False),
    "metrology.approx_overlap": ("metrology.sweep", False),
    "metrology.locate_first_zero": ("metrology.first_zero", True),
    "metrology.OverlapSweep.first_fringe_zero": ("metrology.first_zero", True),
    "protocol.dispersive_protocol": ("protocol.closed_form", True),
    "protocol.resonant_protocol": ("protocol.closed_form", True),
    "protocol.generic_strategy": ("protocol.generic", True),
    "protocol.dispersive_sequence": ("protocol.generic", False),
    "protocol.jc_numeric_evolve": ("protocol.jc", True),
    "estimation.run_trials": ("estimation.trials", True),
    "estimation.simulate_readout": ("estimation.trials", True),
    "estimation.estimate_displacement": ("estimation.invert", True),
    "states._gram": ("states", False),
    "cli._atomic_write": ("cli", False),
    "cli.parse_complex": ("cli", False),
    "cli.build_parser": ("cli", False),
}

CLI_PUBLIC = ("main", "parse_complex", "build_parser")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


COUNTERS = {
    "wigner.wigner_field": lambda a, k, r: (
        "wigner.field.term_points",
        _arg(a, k, 0, "state").n_terms ** 2 * _arg(a, k, 1, "grid").nx * _arg(a, k, 1, "grid").ny),
    "states._gram": lambda a, k, r: ("states.gram_entries", len(a[0]) * len(a[1])),
    "states.to_fock": lambda a, k, r: ("states.fock_coeffs", r.dimension),
    "metrology.overlap_sweep": lambda a, k, r: ("metrology.sweep.points", r.magnitudes.size),
    "protocol.jc_numeric_evolve": lambda a, k, r: ("protocol.jc.fock_dim", _arg(a, k, 0, "psi").dimension),
    "estimation.run_trials": lambda a, k, r: (
        "estimation.shots", _arg(a, k, 2, "repetitions") * _arg(a, k, 3, "n_trials")),
    "cli._atomic_write": lambda a, k, r: ("cli.bytes_written", len(_arg(a, k, 1, "data"))),
}


def _targets():
    """(owner, attribute, traced name) for every callable to wrap."""
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        names = CLI_PUBLIC if layer == "cli" else tuple(module.__all__)
        names += tuple(n.split(".", 1)[1] for n in GROUPS if n.startswith(f"{layer}._"))
        for name in names:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        yield obj, attr, f"{layer}.{name}.{attr}"
            elif callable(obj):
                yield module, name, f"{layer}.{name}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack = [0]
        self._next_id = 0
        self._patches: list[tuple] = []

    def span(self, fn, name: str, group: str, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            sid = tracer._next_id
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((sid, name, group, start, end, parent, tracer.job))
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                tracer.counts[key] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for owner, attr, name in list(_targets()):
            original = vars(owner)[attr]
            group, _ = GROUPS.get(name, (name.split(".", 1)[0], True))
            traced = self.span(original, name, group, COUNTERS.get(name))
            self._patch(owner, attr, traced)
            if inspect.ismodule(owner):
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, key, traced)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with gzip.open(path, "wt") as handle:
            handle.write("id,name,group,start_ns,end_ns,parent,job\n")
            for span in self.spans:
                handle.write(",".join(map(str, span)) + "\n")


def layer_totals(spans) -> dict:
    """Per group: self time in seconds and calls entered from another group."""
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        child_ns[s[5]] += s[4] - s[3]
    self_ns: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    for sid, name, group, start, end, parent, _ in spans:
        self_ns[group] += end - start - child_ns[sid]
        primary = GROUPS.get(name, (group, True))[1]
        if primary and (parent not in by_id or by_id[parent][2] != group):
            calls[group] += 1
    return {g: {"self_s": self_ns[g] * 1e-9, "calls": calls[g]} for g in self_ns}
