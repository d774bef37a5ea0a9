"""The benchmark's contract inside the suite: every `fringe_readout` and
`jc_oracle` job of perfbench/ runs under the benchmark's tracer and passes
the benchmark's own checks.  So a name the benchmark reads (`.p_e`,
`.magnitudes`, `.dimension`, `states._gram`, `cli._atomic_write`,
`cli.build_parser`...) cannot go away with the suite still green.
perfbench/ is imported, never written."""

import contextlib
import io
from pathlib import Path

import subplanck.cli  # noqa: F401  (the tracer wraps every layer, so all must be loaded)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_jobs_pass_their_checks_under_the_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)  # the CLI jobs write their files here
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for workload in ("fringe_readout", "jc_oracle"):
            for job in workloads.build(workload, 1):
                tracer.job = job.name
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    raw = job.run()
                outputs = job.collect(raw, stdout.getvalue(), [])
                workloads.check_finite(outputs)
                job.check(outputs)
    finally:
        tracer.uninstall()
    counted = {key for key, amount in tracer.counts.items() if amount > 0}
    assert counted >= {"states.gram_entries", "states.fock_coeffs", "metrology.sweep.points", "protocol.jc.fock_dim",
                       "estimation.shots", "cli.bytes_written"}
    groups = tracing.layer_totals(tracer.spans)
    assert {"protocol.closed_form", "protocol.generic", "protocol.jc", "estimation.trials"} <= groups.keys()
