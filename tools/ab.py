"""Compare two source trees on the benchmark, in alternating pairs.

Runs `perfbench/run.py` unedited, one run at a time, from the root of
each tree, for the run length and on the workloads that the parent's
BENCHMARK.json declares: for every seed, each workload in turn (so the
workloads interleave), the parent and the change back to back.  The
side that goes first alternates from one pair to the next, starting
with the parent.  Each run's result (the last line of its stdout) is appended
to the log as one JSON line as soon as it ends, so a stopped series
keeps what it has.

    python3 tools/ab.py --parent ../parent --change . --seeds 3901-3910 \\
        --trace-seed 5 --log runs.jsonl --out BENCH_39.json

The output file gets three keys, and keeps every other key it already
holds (a description of the change, a claim, notes):

- "end_to_end": per workload and metric, each side's median, first and
  third quartiles and IQR (statistics.quantiles, inclusive method), the
  change's relative difference of medians in percent, the number of
  pairs in which the change read lower, and per side the failed and
  attempted operations summed over the runs and the runs whose outputs
  were not all correct;
- "traced_counts": with --trace-seed, one `--trace 1` run per side and
  workload, and every per-layer metric counted in count, bytes or
  ratio units, with the names of those that differ;
- "runs": every timed run, in the order it ran.

--summarize rebuilds the output from --log without running anything.
An A/A floor is the same series with two copies of one tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HOW = ("perfbench/run.py --trace 0 for BENCHMARK.json's run_seconds, unedited, in alternating "
       "parent/change pairs per workload (tools/ab.py), each side from its own tree, one run at a time")
COUNT_UNITS = {"count", "bytes", "ratio"}


def seeds(spec: str) -> list[int]:
    """"3901-3910" or "5,7,9" as a list of seeds."""
    if "-" in spec:
        lo, hi = map(int, spec.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in spec.split(",")]


def schedule(seed_list: list[int], workloads) -> list[tuple[int, str, str, str]]:
    """(seed, workload, side, first side) for every run, in running order."""
    out = []
    for i, seed in enumerate(seed_list):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            out += [(seed, workload, side, order[0]) for side in order]
    return out


def result(stdout: str) -> dict:
    """The JSON result on the last non-empty line of a run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    return result(done.stdout)


def record(side: str, workload: str, seed: int, first: str, trace: int, res: dict) -> dict:
    """One run as the log and the "runs" list keep it."""
    return {"side": side, "workload": workload, "seed": seed, "first": first, "trace": trace,
            "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {name: m["value"] for name, m in res["metrics"].items()},
            "units": {name: m["unit"] for name, m in res["metrics"].items()}}


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict]) -> dict:
    """The "end_to_end" entry from timed runs (trace 0)."""
    timed = [r for r in runs if r["trace"] == 0]
    table, failures = {}, {}
    for workload in dict.fromkeys(r["workload"] for r in timed):
        mine = [r for r in timed if r["workload"] == workload]
        by_side = {side: {r["seed"]: r for r in mine if r["side"] == side} for side in ("parent", "change")}
        paired = sorted(by_side["parent"].keys() & by_side["change"].keys())
        rows = {}
        for name in dict.fromkeys(n for r in mine for n in r["metrics"]):
            pairs = [(by_side["parent"][s]["metrics"].get(name), by_side["change"][s]["metrics"].get(name))
                     for s in paired]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            stats = {"parent": _quartiles([p for p, _ in pairs]), "change": _quartiles([c for _, c in pairs])}
            row = {}
            for side, (q1, med, q3) in stats.items():
                row.update({f"{side}_median": round(med, 4), f"{side}_q1": round(q1, 4),
                            f"{side}_q3": round(q3, 4), f"{side}_iqr": round(q3 - q1, 4)})
            parent_med, change_med = stats["parent"][1], stats["change"][1]
            row["change_pct"] = round(100 * (change_med - parent_med) / parent_med, 2) if parent_med else None
            row["change_lower_pairs"] = sum(c < p for p, c in pairs)
            row["pairs"] = len(pairs)
            rows[name] = row
        table[workload] = rows
        failures[workload] = {
            side: {"failed": sum(r["failed"] for r in by_side[side].values()),
                   "attempted": sum(r["attempted"] for r in by_side[side].values()),
                   "incorrect_runs": sum(not r["correct"] for r in by_side[side].values()),
                   "runs": len(by_side[side])}
            for side in ("parent", "change")}
    return {"table": table, "failures": failures}


def traced_counts(runs: list[dict]) -> dict:
    """Every count, bytes and ratio metric of the traced runs, per workload and side."""
    out = {}
    for r in runs:
        if r["trace"] != 1:
            continue
        counts = {n: v for n, v in r["metrics"].items() if r["units"].get(n) in COUNT_UNITS}
        out.setdefault(r["workload"], {})[r["side"]] = {"seed": r["seed"], "correct": r["correct"],
                                                         "counts": counts}
    for sides in out.values():
        if {"parent", "change"} <= sides.keys():
            p, c = sides["parent"]["counts"], sides["change"]["counts"]
            sides["differ"] = sorted(n for n in p.keys() | c.keys() if p.get(n) != c.get(n))
    return out


def write(out: Path, runs: list[dict]) -> None:
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["end_to_end"] = {"how": HOW, **summarize(runs)}
    if any(r["trace"] == 1 for r in runs):
        doc["traced_counts"] = traced_counts(runs)
    doc["runs"] = [{k: v for k, v in r.items() if k != "units"} for r in runs if r["trace"] == 0]
    out.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--seeds", type=seeds, help='"3901-3910" or "5,7,9"')
    parser.add_argument("--trace-seed", type=int, help="also one --trace 1 run per side and workload")
    parser.add_argument("--log", type=Path, required=True, help="JSON lines, appended as runs end")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--summarize", action="store_true", help="only rebuild --out from --log")
    args = parser.parse_args(argv)
    if not args.summarize:
        if args.parent is None or args.change is None or args.seeds is None:
            parser.error("--parent, --change and --seeds are needed to run")
        trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in bench["workloads"]]
        plan = [(s, w, side, first, 0) for s, w, side, first in schedule(args.seeds, workloads)]
        if args.trace_seed is not None:
            plan += [(args.trace_seed, w, side, "parent", 1) for w in workloads for side in trees]
        with args.log.open("a") as log:
            for seed, workload, side, first, trace in plan:
                res = run_once(trees[side], workload, seed, bench["run_seconds"], trace)
                log.write(json.dumps(record(side, workload, seed, first, trace, res)) + "\n")
                log.flush()
    runs = [json.loads(line) for line in args.log.read_text().splitlines() if line.strip()]
    write(args.out, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
