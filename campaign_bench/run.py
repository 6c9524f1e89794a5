"""Campaign benchmark: PCT and MLPCT testing campaigns, end to end and per layer.

Drives the program's public API (``build_kernel``, ``Snowcat``,
``Snowcat.cti_stream``, ``run_campaign``) from one process with the
settings ``repro campaign`` uses, on one of its workloads::

    python3 campaign_bench/run.py --workload pct --seed 3 --seconds 30 --trace 0

Each run sets the deployment up several times (``setup_s`` is the median),
snapshots it, and then runs the fixed campaign on fresh copies of the
snapshot until ``--seconds`` of campaign time have passed (at least once).
``--trace 0`` reports the end-to-end metrics with no layer wrapped except
the execution runners, whose results the correctness check counts.
``--trace 1`` sets up once with the setup layers wrapped, then alternates
untraced and traced campaigns and reports per-layer self times, counts and
the tracing overhead.

Every run checks its outputs: campaign invariants (history, ledger, budgets,
the durable journal) and one result digest that every campaign of the run,
traced or not, must reproduce. The last stdout line is the JSON result;
earlier lines carry the digest, the ``repro campaign`` result line, and the
profile receipt (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# -- the locked profile ---------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """What every workload shares; part of each result's receipt.

    The deployment (kernel, corpus, model) is built from ``program_seed``,
    never from ``--seed``: campaign outcomes differ by 30-50% between
    kernels and between CTI samples, which no run length can average out.
    ``--seed`` instead chooses the order in which the pinned CTIs are
    explored (see README.md, "Seeds").
    """

    program_seed: int = 0
    ctis: int = 6
    corpus_rounds: int = 200
    dataset_ctis: int = 30
    epochs: int = 3


PROFILE = Profile()

#: Thread-count settings of the BLAS library NumPy calls.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    #: Train the PIC during setup and run MLPCT-S1; otherwise run PCT.
    model: bool = False
    threads: int = 2
    memory_model: str = "sc"
    irq: bool = False
    #: Supervised worker pool size (``SupervisionPolicy()`` defaults);
    #: 0 executes serially in-process.
    pool_workers: int = 0
    cascade_recall: Optional[float] = None
    infer_dtype: str = "float64"
    journal: bool = False
    #: Set-up repetitions per run; ``setup_s`` is their median.
    setups: int = 2


WORKLOADS: Dict[str, Workload] = {
    # Execution and race detection only: interpreter and detector changes
    # show their full effect, scoring and training changes none.
    "pct": Workload("pct", setups=9),
    # Default MLPCT: PIC inference dominates the campaign and PIC training
    # the setup, on the serial SC float64 path. Not in BENCHMARK.json (its
    # runs spread the most, and the run budget holds two workloads); it
    # stays for the CLI parity check and for runs by hand.
    "mlpct": Workload("mlpct", model=True),
    # The same layers on their other paths (3 threads, TSO, IRQs, float32,
    # cascade filter, supervised pool) plus the filter and the journal.
    "mlpct-axes": Workload(
        "mlpct-axes",
        model=True,
        threads=3,
        memory_model="tso",
        irq=True,
        pool_workers=2,
        cascade_recall=0.95,
        infer_dtype="float32",
        journal=True,
    ),
}


def metric_units(kind: str) -> Dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics, as
    ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


# -- wrappers ----------------------------------------------------------------------


def _count_corpus(tracer, _owner, _args, corpus) -> None:
    tracer.counts["fuzz.corpus_size"] = len(corpus)


def _count_labeled(tracer, _owner, _args, splits) -> None:
    tracer.counts["graphs.labeled"] += (
        len(splits.train) + len(splits.validation) + len(splits.evaluation)
    )


def _count_step(tracer, _owner, _args, _result) -> None:
    tracer.counts["ml.gradient_steps"] += 1


def _count_infer(tracer, _owner, args, _result) -> None:
    tracer.counts["ml.infer_graphs"] += len(args[1])
    tracer.counts["ml.infer_batches"] += 1


def _count_graph_for(tracer, _owner, _args, _result) -> None:
    tracer.counts["graphs.graph_for_calls"] += 1


def _count_scored(tracer, _owner, _args, _result) -> None:
    tracer.counts["strategies.scored"] += 1


def _count_selected(tracer, _owner, _args, _result) -> None:
    tracer.counts["strategies.selected"] += 1


def _count_filtered(tracer, trained_filter, _args, scores) -> None:
    tracer.counts["filtermodel.scored"] += len(scores)
    tracer.counts["filtermodel.rejected"] += int(
        (scores < trained_filter.threshold).sum()
    )


def _count_execution(tracer, _runner, _args, results) -> None:
    tracer.counts["execution.cts"] += len(results)
    tracer.counts["execution.steps"] += sum(result.steps for result in results)
    tracer.counts["execution.failed"] += sum(
        1 for result in results if result.failure is not None
    )


def _count_observe(tracer, _detector, _args, fresh) -> None:
    tracer.counts["races.observed"] += 1
    tracer.counts["races.productive"] += 1 if fresh else 0


def _count_proposals(tracer, _explorer, _args, proposals) -> None:
    tracer.counts["mlpct.candidates"] += len(proposals)


def wrap_execution(tracer) -> None:
    """The execution layer: every CT runner's ``run_many`` and ``close``
    (closing the supervised pool joins its workers)."""
    from repro.execution.parallel import ProcessPoolCTRunner, SerialCTRunner
    from repro.resilience.supervisor import SupervisedRunner

    for runner in (SerialCTRunner, ProcessPoolCTRunner, SupervisedRunner):
        tracer.wrap(runner, "run_many", "execution", count=_count_execution)
        tracer.wrap(runner, "close", "execution")


def wrap_setup(tracer) -> None:
    from repro.core import snowcat as snowcat_module
    from repro.graphs.dataset import GraphDatasetBuilder
    from repro.ml.autograd import Tensor
    from repro.ml.optim import Adam
    from repro.ml.pic import PICModel

    tracer.wrap(GraphDatasetBuilder, "grow_corpus", "fuzz.grow", count=_count_corpus)
    tracer.wrap(
        GraphDatasetBuilder, "build_splits", "graphs.dataset", count=_count_labeled
    )
    # The orchestrator calls these two through its own module namespace.
    tracer.wrap(snowcat_module, "pretrain_encoder", "ml.pretrain")
    tracer.wrap(snowcat_module, "train_pic", "ml.train")
    tracer.wrap(PICModel, "loss", "ml.forward", only_under="ml.train")
    tracer.wrap(Tensor, "backward", "ml.backward", only_under="ml.train")
    tracer.wrap(
        Adam, "step", "ml.optimizer", count=_count_step, only_under="ml.train"
    )
    tracer.wrap(PICModel, "predict_proba", "ml.eval", only_under="ml.train")
    tracer.wrap(snowcat_module.Snowcat, "trained_filter", "filtermodel.train")


def wrap_campaign(tracer) -> None:
    from repro.core.filtermodel import TrainedFilter
    from repro.core.mlpct import MLPCTExplorer, PCTExplorer
    from repro.core.scoring import CandidateScorer
    from repro.core.strategies import SelectionStrategy
    from repro.execution.races import RaceDetector
    from repro.graphs.dataset import GraphDatasetBuilder
    from repro.ml.pic import PICModel
    from repro.resilience.journal import CampaignJournal

    for explorer in (PCTExplorer, MLPCTExplorer):
        tracer.wrap(explorer, "explore_cti", "mlpct.explore")
    tracer.wrap(
        PCTExplorer, "proposals_for", "mlpct.propose", count=_count_proposals
    )
    tracer.wrap(PCTExplorer, "account_results", "mlpct.account")
    tracer.wrap(
        GraphDatasetBuilder, "graph_for", "graphs.graph_for", count=_count_graph_for
    )
    tracer.wrap(CandidateScorer, "predict_graphs", "scoring")
    tracer.wrap(PICModel, "predict_proba_batch", "ml.infer", count=_count_infer)
    tracer.wrap(
        TrainedFilter, "score_graphs", "filtermodel.score", count=_count_filtered
    )
    for strategy in SelectionStrategy.__subclasses__():
        tracer.wrap(
            strategy, "is_interesting", "strategies.select", count=_count_scored
        )
        tracer.wrap(strategy, "commit", "strategies.select", count=_count_selected)
    wrap_execution(tracer)
    tracer.wrap(RaceDetector, "observe", "races.observe", count=_count_observe)
    tracer.wrap(CampaignJournal, "record_cti", "resilience.journal")


# -- set-up and one campaign ---------------------------------------------------------


def exploration(workload: Workload):
    from repro.core import ExplorationConfig
    from repro.resilience.supervisor import SupervisionPolicy

    return ExplorationConfig(
        parallel_workers=workload.pool_workers,
        supervision=SupervisionPolicy() if workload.pool_workers else None,
        num_threads=workload.threads,
        irq=workload.irq,
        memory_model=workload.memory_model,
    )


def set_up(workload: Workload, profile: Profile, tracer) -> Tuple[object, object]:
    """Everything before the first CTI, in ``repro campaign``'s order.

    Returns ``(snowcat, cascade_filter)``.
    """
    from repro.core import Snowcat, SnowcatConfig
    from repro.kernel import KernelConfig, build_kernel

    with tracer.span("setup"):
        with tracer.span("kernel.build"):
            kernel = build_kernel(KernelConfig(), seed=profile.program_seed)
        snowcat = Snowcat(
            kernel,
            SnowcatConfig(
                seed=profile.program_seed,
                corpus_rounds=profile.corpus_rounds,
                dataset_ctis=profile.dataset_ctis,
                epochs=profile.epochs,
                exploration=exploration(workload),
            ),
        )
        snowcat.prepare_corpus()
        cascade = None
        if workload.model:
            snowcat.train()
            if workload.infer_dtype != "float64":
                snowcat.model.set_inference_mode(workload.infer_dtype)
            if workload.cascade_recall is not None:
                cascade = snowcat.trained_filter(
                    recall_floor=workload.cascade_recall
                )
    return snowcat, cascade


def campaign_stream(snowcat, workload: Workload, profile: Profile, seed: Optional[int]):
    """The pinned CTI stream, explored in an order drawn from ``seed``
    (``None`` keeps the stream's own order, as ``repro campaign`` does)."""
    from repro import rng as rngmod

    ctis = snowcat.cti_stream(profile.ctis, threads=workload.threads)
    if seed is None:
        return ctis
    order = rngmod.split(seed, "campaign-bench:order").permutation(len(ctis))
    return [ctis[index] for index in order]


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class Outcome:
    """One campaign of a run."""

    seconds: float
    cpu_seconds: float
    digest: Dict[str, object]
    result_line: str
    sim_hours: float
    cts: int
    failed_cts: int
    resilience: Dict[str, float]
    problems: List[str] = field(default_factory=list)


def digest_of(explorer, result) -> Dict[str, object]:
    """What a campaign found, compactly: any change is a change in behaviour."""
    from repro.resilience.atomic import canonical_json, sha256_hex

    return {
        "races": result.total_races,
        "blocks": result.total_blocks,
        "executions": result.ledger.executions,
        "inferences": result.ledger.inferences,
        "race_set": sha256_hex(canonical_json(explorer.race_detector.state_dict())),
    }


def check_campaign(workload, explorer, result, ctis, journal_records) -> List[str]:
    """Invariants every correct campaign result satisfies."""
    config = explorer.config
    problems = []
    per_cti = result.per_cti
    if len(per_cti) != len(ctis):
        problems.append(f"{len(per_cti)} CTI stats for {len(ctis)} CTIs")
    executions = sum(stats.executions for stats in per_cti)
    if not executions == result.ledger.executions == len(result.history):
        problems.append(
            f"executions disagree: stats {executions}, ledger "
            f"{result.ledger.executions}, history {len(result.history)}"
        )
    if result.total_races != explorer.race_detector.total:
        problems.append("race curve does not end at the detector's count")
    if sum(stats.new_races for stats in per_cti) != result.total_races:
        problems.append("per-CTI new races do not sum to the total")
    for earlier, later in zip(result.history, result.history[1:]):
        if later[1] < earlier[1] or later[2] < earlier[2]:
            problems.append("race or block curve decreases")
            break
    for stats in per_cti:
        if stats.executions > config.execution_budget:
            problems.append("a CTI overran the execution budget")
        if stats.inferences > (config.inference_cap if workload.model else 0):
            problems.append("a CTI overran its inference cap")
    if workload.journal:
        committed = [
            record["stats"]
            for record in journal_records
            if record.get("c") == result.label and record.get("kind") == "cti"
        ]
        if [entry["executions"] for entry in committed] != [
            stats.executions for stats in per_cti
        ]:
            problems.append("the durable journal disagrees with the campaign")
    return problems


def run_campaign_once(
    snapshot: bytes,
    workload: Workload,
    profile: Profile,
    seed: Optional[int],
    tracer,
    workdir: str,
) -> Outcome:
    """One campaign on a fresh copy of the set-up snapshot."""
    from repro.core import run_campaign
    from repro.resilience.journal import (
        CampaignJournal,
        read_journal_tolerant,
        reset_journal,
    )

    snowcat, cascade = pickle.loads(snapshot)
    ctis = campaign_stream(snowcat, workload, profile, seed)
    if workload.model:
        explorer = snowcat.mlpct_explorer("S1", cascade_filter=cascade)
    else:
        explorer = snowcat.pct_explorer()
    journal = None
    journal_path = os.path.join(workdir, "campaign.journal")
    if workload.journal:
        reset_journal(journal_path)
        journal = CampaignJournal(journal_path)
    gc.collect()
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    try:
        with tracer.span("campaign"):
            result = run_campaign(explorer, ctis, journal=journal)
    finally:
        if journal is not None:
            journal.close()
    seconds = time.perf_counter() - started
    cpu_seconds = _cpu_seconds() - cpu_before
    records = read_journal_tolerant(journal_path)[0] if workload.journal else []
    resilience = dict(result.resilience or {})
    counts = tracer.counts
    return Outcome(
        seconds=seconds,
        cpu_seconds=cpu_seconds,
        digest=digest_of(explorer, result),
        result_line=(
            f"{result.label}: {result.total_races} races, "
            f"{result.ledger.executions} executions, "
            f"{result.ledger.total_hours:.2f} simulated hours"
        ),
        sim_hours=result.ledger.total_hours,
        cts=counts["execution.cts"],
        failed_cts=counts["execution.failed"],
        resilience=resilience,
        problems=check_campaign(workload, explorer, result, ctis, records),
    )


# -- metrics -------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, outcome: Outcome) -> Dict[str, float]:
    """Per-layer campaign metrics from one traced campaign."""
    own = tracer.self_times()
    counts = tracer.counts
    get = lambda layer: own.get(layer, 0.0)  # noqa: E731
    run_s = get("execution")
    infer_s = get("ml.infer")
    graphs = counts["ml.infer_graphs"]
    ms_per_ct = 1000.0 * _ratio(run_s, counts["execution.cts"])
    ms_per_graph = 1000.0 * _ratio(infer_s, graphs)
    return {
        "ml.infer_s": infer_s,
        "ml.infer_graphs": graphs,
        "ml.infer_batches": counts["ml.infer_batches"],
        "ml.infer_graphs_per_s": _ratio(graphs, infer_s),
        "ml.infer_ms_per_graph": ms_per_graph,
        "scoring.self_s": get("scoring"),
        "graphs.graph_for_s": get("graphs.graph_for"),
        "graphs.graph_for_calls": counts["graphs.graph_for_calls"],
        "strategies.select_s": get("strategies.select"),
        "strategies.accept_ratio": _ratio(
            counts["strategies.selected"], counts["strategies.scored"]
        ),
        "execution.run_s": run_s,
        "execution.cts": counts["execution.cts"],
        "execution.steps": counts["execution.steps"],
        "execution.steps_per_s": _ratio(counts["execution.steps"], run_s),
        "execution.ms_per_ct": ms_per_ct,
        "execution.failed": counts["execution.failed"],
        "races.observe_s": get("races.observe"),
        "races.productive_ratio": _ratio(
            counts["races.productive"], counts["races.observed"]
        ),
        "mlpct.propose_s": get("mlpct.propose"),
        "mlpct.candidates": counts["mlpct.candidates"],
        "mlpct.account_self_s": get("mlpct.account"),
        "mlpct.explore_self_s": get("mlpct.explore"),
        "filtermodel.score_s": get("filtermodel.score"),
        "filtermodel.reject_ratio": _ratio(
            counts["filtermodel.rejected"], counts["filtermodel.scored"]
        ),
        "resilience.journal_s": get("resilience.journal"),
        "resilience.retries": outcome.resilience.get("retries", 0),
        "resilience.fallbacks": outcome.resilience.get("fallbacks", 0),
        "trace.unattributed_ratio": _ratio(get("campaign"), tracer.total("campaign")),
        "paper.exec_infer_cost_ratio": _ratio(ms_per_ct, ms_per_graph),
    }


def setup_metrics(tracer) -> Dict[str, float]:
    own = tracer.self_times()
    counts = tracer.counts
    get = lambda layer: own.get(layer, 0.0)  # noqa: E731
    return {
        "kernel.build_s": get("kernel.build"),
        "fuzz.grow_s": get("fuzz.grow"),
        "fuzz.corpus_size": counts["fuzz.corpus_size"],
        "graphs.dataset_s": get("graphs.dataset"),
        "graphs.labeled": counts["graphs.labeled"],
        "ml.pretrain_s": get("ml.pretrain"),
        "ml.train_s": get("ml.train"),
        "ml.forward_s": get("ml.forward"),
        "ml.backward_s": get("ml.backward"),
        "ml.optimizer_s": get("ml.optimizer"),
        "ml.eval_s": get("ml.eval"),
        "ml.gradient_steps": counts["ml.gradient_steps"],
        "filtermodel.train_s": get("filtermodel.train"),
        "setup.unattributed_s": get("setup"),
    }


# -- receipt ---------------------------------------------------------------------------


def _source_digest() -> str:
    from repro.resilience.atomic import sha256_hex

    parts = []
    for path in sorted(SRC.rglob("*.py")):
        parts.append(path.relative_to(ROOT).as_posix())
        parts.append(sha256_hex(path.read_bytes()))
    return sha256_hex("\n".join(parts))


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def receipt(workload: Workload, profile: Profile, seed: int, ctis) -> Dict[str, object]:
    """Provenance of one result; ``profile`` must match for two results to
    be compared (see report.py)."""
    import numpy
    from repro.resilience.atomic import canonical_json, sha256_hex

    config = {"profile": asdict(profile), "workload": asdict(workload)}
    return {
        "profile": {
            "workload": workload.name,
            "config_digest": sha256_hex(canonical_json(config)),
            "nproc": os.cpu_count(),
            "blas_threads": {
                name: os.environ.get(name, "default")
                for name in BLAS_THREAD_VARS
            },
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "commit": _commit(),
        "source_digest": _source_digest(),
        "seed": seed,
        "inputs_digest": sha256_hex(
            canonical_json([[entry.sti.sti_id for entry in cti] for cti in ctis])
        ),
    }


# -- one run ---------------------------------------------------------------------------


@dataclass
class Run:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    digest: Dict[str, object]
    result_line: str
    receipt: Dict[str, object]
    #: Raw timings behind the medians: ``setup_s`` and ``campaign_s`` per
    #: repetition (untraced campaigns only).
    samples: Dict[str, List[float]]


def _judge(outcomes: Sequence[Outcome]) -> Tuple[bool, int, int]:
    """(correct, attempted, failed): each campaign is one attempt plus one
    per CT it executed; a failed CT, or a campaign that breaks an
    invariant or disagrees with the run's first digest, fails."""
    reference = outcomes[0].digest
    correct = True
    attempted = failed = 0
    for outcome in outcomes:
        bad = bool(outcome.problems) or outcome.digest != reference
        if bad:
            correct = False
            for problem in outcome.problems:
                print(f"problem: {problem}", file=sys.stderr)
            if outcome.digest != reference:
                print(
                    f"problem: digest {outcome.digest} != {reference}",
                    file=sys.stderr,
                )
        attempted += 1 + outcome.cts
        failed += int(bad) + outcome.failed_cts + int(
            outcome.resilience.get("quarantined", 0)
        )
    return correct, attempted, failed


def measure(
    workload: Workload, profile: Profile, seed: int, seconds: float, trace: bool
) -> Run:
    from spans import Tracer

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        setup_tracer = Tracer()
        setup_seconds = []
        with setup_tracer:
            if trace:
                wrap_setup(setup_tracer)
            for _ in range(1 if trace else workload.setups):
                deployment = None
                gc.collect()
                started = time.perf_counter()
                deployment = set_up(workload, profile, setup_tracer)
                setup_seconds.append(time.perf_counter() - started)
        snapshot = pickle.dumps(deployment)
        ctis = campaign_stream(deployment[0], workload, profile, seed)
        del deployment

        untraced: List[Outcome] = []
        traced: List[Tuple[Outcome, object]] = []
        spent = 0.0
        # Campaigns come whole, so stop at the count that lands closest to
        # ``seconds``. Traced runs pair each untraced campaign with a traced
        # one, alternating which goes first.
        while not untraced or spent + 0.5 * spent / len(untraced) < seconds:
            kinds = [False, True] if trace else [False]
            if len(untraced) % 2:
                kinds.reverse()
            for wrapped in kinds:
                tracer = Tracer()
                with tracer:
                    (wrap_campaign if wrapped else wrap_execution)(tracer)
                    outcome = run_campaign_once(
                        snapshot, workload, profile, seed, tracer, workdir
                    )
                spent += outcome.seconds
                if wrapped:
                    traced.append((outcome, tracer))
                else:
                    untraced.append(outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = untraced + [outcome for outcome, _ in traced]
    correct, attempted, failed = _judge(outcomes)
    first = outcomes[0]
    if trace:
        per_rep = [layer_metrics(tracer, outcome) for outcome, tracer in traced]
        metrics = {
            name: statistics.median(rep[name] for rep in per_rep)
            for name in per_rep[0]
        }
        metrics.update(setup_metrics(setup_tracer))
        metrics["trace.overhead_ratio"] = statistics.median(
            outcome.seconds for outcome, _ in traced
        ) / statistics.median(outcome.seconds for outcome in untraced)
    else:
        campaign_s = statistics.median(outcome.seconds for outcome in untraced)
        races = first.digest["races"]
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "campaign_s": campaign_s,
            "races_per_s": races / campaign_s,
            "cpu_s": statistics.median(outcome.cpu_seconds for outcome in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "races": races,
            "blocks": first.digest["blocks"],
            "races_per_sim_hour": races / first.sim_hours,
            "ok_ratio": 1.0 - failed / attempted,
        }
    return Run(
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        digest=first.digest,
        result_line=first.result_line,
        receipt=receipt(workload, profile, seed, ctis),
        samples={
            "setup_s": setup_seconds,
            "campaign_s": [outcome.seconds for outcome in untraced],
            "traced_campaign_s": [outcome.seconds for outcome, _ in traced],
        },
    )


def result_json(run: Run, trace: bool) -> str:
    units = metric_units("per_layer" if trace else "end_to_end")
    return json.dumps(
        {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                name: {"value": float(run.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def print_run(workload: Workload, run: Run, trace: bool) -> None:
    print("digest " + json.dumps({"workload": workload.name, **run.digest}, sort_keys=True))
    print("result_line " + run.result_line)
    print("receipt " + json.dumps(run.receipt, sort_keys=True))
    print("samples " + json.dumps(run.samples))
    if trace and run.metrics["ml.infer_graphs"]:
        metrics = run.metrics
        print(
            "cost_ratio {:.3f} ms per executed CT / {:.3f} ms per scored graph "
            "= {:.1f}x on wall clock (paper section 5.2.2: ~190x)".format(
                metrics["execution.ms_per_ct"],
                metrics["ml.infer_ms_per_graph"],
                metrics["paper.exec_infer_cost_ratio"],
            )
        )
    print(result_json(run, trace), flush=True)


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the benchmark runs on a few shared cores, where a
    # second BLAS thread (besides the pool workers) measures the scheduler.
    # Set before NumPy is imported; the receipt records the setting.
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    try:
        run = measure(workload, PROFILE, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print_run(workload, run, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
