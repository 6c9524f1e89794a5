"""Self-tests of the campaign benchmark harness.

Run from the repository root::

    python3 campaign_bench/selftest.py            # fast checks + tiny smoke runs
    python3 campaign_bench/selftest.py --parity   # also the full-size CLI parity check

The functions are plain pytest tests too
(``python -m pytest campaign_bench/selftest.py``). The tiny smoke runs every
workload at a reduced profile, traced and untraced, and requires one digest
across all of its campaigns, which is the check that the wrappers are
transparent. ``--parity`` runs ``repro --seed S campaign --ctis N`` at the
benchmark's own profile and requires its PCT and MLPCT result lines to be
the ones the ``pct`` and ``mlpct`` workloads print, in the stream's own
order and in a seed-drawn one.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

sys.path.insert(0, str(run.SRC))

#: Small enough that all three workloads, traced and untraced, run in
#: about a minute.
TINY = run.Profile(ctis=2, corpus_rounds=40, dataset_ctis=6, epochs=1)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_arithmetic():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("a", 5.0, 9.0, 0),
        # Overlapping children are counted once (their union).
        Span("c", 5.5, 7.0, 3),
        Span("c", 6.0, 8.0, 3),
    ]
    own = self_times(spans)
    assert abs(own["root"] - 3.0) < 1e-12  # 10 - (3 + 4)
    assert abs(own["a"] - 3.5) < 1e-12  # (3 - 1) + (4 - 2.5)
    assert abs(own["b"] - 1.0) < 1e-12
    assert abs(own["c"] - 3.5) < 1e-12


def test_tracer_nesting_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = vars(Layer)["outer"]
    tracer = Tracer()
    with tracer:
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner", only_under="outer")
        assert Layer().inner() == 1  # outside "outer": not traced
        assert Layer().outer() == 2
    assert vars(Layer)["outer"] is original
    assert [(span.layer, span.parent) for span in tracer.spans] == [
        ("outer", -1),
        ("inner", 0),
    ]
    own = tracer.self_times()
    assert abs(sum(own.values()) - tracer.total("outer")) < 1e-9


def test_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    names = list(run.metric_units("end_to_end")) + list(run.metric_units("per_layer"))
    assert len(set(names)) == len(names)
    for name in names + list(run.WORKLOADS):
        assert NAME.match(name), name


def _smoke(name: str) -> None:
    workload = replace(run.WORKLOADS[name], setups=1)
    untraced = run.measure(workload, TINY, seed=5, seconds=0.01, trace=False)
    traced = run.measure(workload, TINY, seed=5, seconds=0.01, trace=True)
    assert untraced.correct and traced.correct
    assert untraced.failed == traced.failed == 0
    # Transparency: the traced campaign reproduces the untraced digest.
    assert traced.digest == untraced.digest
    assert set(untraced.metrics) == set(run.metric_units("end_to_end"))
    assert set(traced.metrics) == set(run.metric_units("per_layer"))
    result = json.loads(run.result_json(traced, trace=True))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert traced.metrics["trace.unattributed_ratio"] < 0.05
    assert traced.metrics["execution.cts"] == untraced.digest["executions"]
    if workload.model:
        assert traced.metrics["ml.infer_graphs"] >= untraced.digest["inferences"]
        assert traced.metrics["ml.gradient_steps"] > 0


def test_smoke_pct():
    _smoke("pct")


def test_smoke_mlpct():
    _smoke("mlpct")


def test_smoke_mlpct_axes():
    _smoke("mlpct-axes")


def check_cli_parity() -> None:
    """The ``pct``/``mlpct`` result lines equal ``repro campaign``'s."""
    profile = run.PROFILE
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "--seed", str(profile.program_seed),
         "campaign", "--ctis", str(profile.ctis)],
        cwd=run.ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    for name in ("pct", "mlpct"):
        workload = run.WORKLOADS[name]
        snapshot = pickle.dumps(run.set_up(workload, profile, Tracer()))
        for seed in (None, 7):
            tracer = Tracer()
            scratch = tempfile.TemporaryDirectory(prefix=".work-", dir=run.BENCH_DIR)
            with tracer, scratch as workdir:
                run.wrap_execution(tracer)
                outcome = run.run_campaign_once(
                    snapshot, workload, profile, seed, tracer, workdir
                )
            assert outcome.result_line in cli, (name, seed, outcome.result_line, cli)
            print(f"parity {name} seed={seed}: {outcome.result_line}")


def main(argv) -> int:
    tests = [
        test_self_time_arithmetic,
        test_tracer_nesting_and_restore,
        test_metric_names,
        test_smoke_pct,
        test_smoke_mlpct,
        test_smoke_mlpct_axes,
    ]
    if "--parity" in argv:
        tests.append(check_cli_parity)
    failed = 0
    for test in tests:
        try:
            test()
        except Exception as error:  # report every failing check, then exit 1
            failed += 1
            print(f"FAIL {test.__name__}: {error!r}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
