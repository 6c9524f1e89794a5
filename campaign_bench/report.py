"""Read saved campaign-benchmark runs: compare two sets, or summarise one.

Each input file is the standard output of one ``run.py`` run (its last line
is the JSON result, an earlier ``receipt`` line names the profile)::

    python3 campaign_bench/report.py compare --base parent/*.log --head change/*.log
    python3 campaign_bench/report.py summary runs/*.log

``compare`` refuses (exit 2) to put results of different profiles side by
side: a workload's configuration digest, CPU count, BLAS thread setting,
Python or NumPy version must all match. For each workload and metric it
prints both medians, the change, and the verdict against the bound in
``BENCHMARK.json``.

``summary`` checks that every run of a workload printed the same result
digest, and prints the paper-ratio lines: §5.2.2's execution-to-inference
cost ratio per workload (from traced runs) and MLPCT against PCT on wall
clock (from untraced runs), each with its base.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class LoadedRun:
    def __init__(self, path: str) -> None:
        lines = Path(path).read_text().splitlines()
        if not lines:
            raise ValueError(f"{path}: empty output")
        self.path = path
        self.result = json.loads(lines[-1])
        tagged = {}
        for line in lines[:-1]:
            tag, _, rest = line.partition(" ")
            tagged[tag] = rest
        if "receipt" not in tagged or "digest" not in tagged:
            raise ValueError(f"{path}: no receipt or digest line")
        self.receipt = json.loads(tagged["receipt"])
        self.digest = json.loads(tagged["digest"])
        self.profile = self.receipt["profile"]
        self.workload = self.profile["workload"]
        self.traced = "trace.overhead_ratio" in self.result["metrics"]

    def value(self, metric: str) -> float:
        return float(self.result["metrics"][metric]["value"])


def _load(paths: Sequence[str]) -> Dict[tuple, List[LoadedRun]]:
    groups: Dict[tuple, List[LoadedRun]] = defaultdict(list)
    for path in paths:
        run = LoadedRun(path)
        groups[(run.workload, run.traced)].append(run)
    return groups


def _quartile_spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def compare(base_paths: Sequence[str], head_paths: Sequence[str]) -> int:
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, head = _load(base_paths), _load(head_paths)
    for key in sorted(set(base) & set(head)):
        profiles = {json.dumps(run.profile, sort_keys=True) for run in base[key] + head[key]}
        if len(profiles) > 1:
            print(
                f"refusing to compare {key[0]}: results come from different "
                f"profiles:\n  " + "\n  ".join(sorted(profiles)),
                file=sys.stderr,
            )
            return 2
    for key in sorted(set(base) & set(head)):
        workload, traced = key
        print(f"== {workload} ({'traced' if traced else 'end to end'}; "
              f"{len(base[key])} base runs, {len(head[key])} head runs)")
        for metric in base[key][0].result["metrics"]:
            old = [run.value(metric) for run in base[key]]
            new = [run.value(metric) for run in head[key]]
            old_median, new_median = statistics.median(old), statistics.median(new)
            change = (new_median - old_median) / abs(old_median) if old_median else 0.0
            worse = change > 0 if directions.get(metric) == "lower" else change < 0
            verdict = ""
            if metric in bounds:
                bound = bounds[metric]["bound"]
                if _quartile_spread(old) > bound:
                    verdict = "unresolved (base spread exceeds bound)"
                elif worse and abs(change) > bound:
                    verdict = f"WORSE than bound {bound:.0%}"
                else:
                    verdict = f"within bound {bound:.0%}"
            print(f"  {metric:28s} {old_median:14.4f} -> {new_median:14.4f} "
                  f"({change:+.1%}) {verdict}")
    return 0


def summary(paths: Sequence[str]) -> int:
    groups = _load(paths)
    status = 0
    by_workload: Dict[str, List[LoadedRun]] = defaultdict(list)
    for (workload, _), runs in groups.items():
        by_workload[workload].extend(runs)
    for workload, runs in sorted(by_workload.items()):
        per_seed: Dict[int, set] = defaultdict(set)
        for run in runs:
            per_seed[run.receipt["seed"]].add(json.dumps(run.digest, sort_keys=True))
        digests = set().union(*per_seed.values())
        for seed, seen in sorted(per_seed.items()):
            if len(seen) > 1:
                status = 1
                print(f"{workload}: seed {seed} gave {len(seen)} different "
                      f"digests: {sorted(seen)}")
        if len(digests) == 1:
            print(f"{workload}: one result digest across {len(runs)} runs "
                  f"and {len(per_seed)} seeds: {digests.pop()}")
        else:
            # The CTI order is drawn from the seed, and on mlpct-axes the
            # order changes the outcome (interrupt plans follow it).
            print(f"{workload}: {len(digests)} digests across {len(per_seed)} "
                  f"seeds, one per seed across {len(runs)} runs; races "
                  f"{sorted({run.digest['races'] for run in runs})}")
    for (workload, traced), runs in sorted(groups.items()):
        if not traced:
            continue
        ms_ct = statistics.median(run.value("execution.ms_per_ct") for run in runs)
        ms_graph = statistics.median(run.value("ml.infer_ms_per_graph") for run in runs)
        if ms_graph:
            print(f"cost ratio {workload}: {ms_ct:.3f} ms per executed CT / "
                  f"{ms_graph:.3f} ms per scored graph = {ms_ct / ms_graph:.1f}x "
                  f"(median of {len(runs)} traced runs; paper §5.2.2: ~190x)")
    pct, mlpct = groups.get(("pct", False)), groups.get(("mlpct", False))
    if pct and mlpct:
        def median(runs, metric):
            return statistics.median(run.value(metric) for run in runs)

        for metric, unit in (("campaign_s", "s"), ("races_per_s", "races/s"),
                             ("races", "races")):
            a, b = median(mlpct, metric), median(pct, metric)
            print(f"mlpct vs pct {metric}: {a:.3f} {unit} / {b:.3f} {unit} = "
                  f"{a / b:.2f}x (medians of {len(mlpct)} and {len(pct)} runs)")
    return status


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    compare_parser = commands.add_parser("compare")
    compare_parser.add_argument("--base", nargs="+", required=True)
    compare_parser.add_argument("--head", nargs="+", required=True)
    summary_parser = commands.add_parser("summary")
    summary_parser.add_argument("logs", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.base, args.head)
    return summary(args.logs)


if __name__ == "__main__":
    sys.exit(main())
