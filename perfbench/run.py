"""frcage benchmark: the CLI lifecycle on a narrow and a wide design.

    python3 perfbench/run.py --workload narrow-q2n8 --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout (the directory that holds
src/frcage and BENCHMARK.json).  With --trace 0 it runs every command
as `python -m frcage.cli` in a closed loop, one client and one child
at a time, for --seconds seconds, and reports the end-to-end metrics.
With --trace 1 it runs one pass of the same commands in-process
through perfbench/tracer.py, once untraced and once traced, and
reports the per-layer metrics.  Every output is checked by
perfbench/oracle.py.  The last line of stdout is the JSON result; the
line before it is a stamp of the run and its sample counts.  The full
record (samples, spans) goes to perfbench/_work/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracer

HERE = Path(__file__).resolve().parent

# sha256 of `construct --q Q --n N` output on the seed commit.  (2,2)
# and (2,3) serve the benchmark's own tests.
PINS = {
    (2, 2): "2d34cf938a216c14b4b12acaa15371b7755194bd623437c508ffe578d71c8a8b",
    (2, 3): "af2d2cba281fee42db847bbe33ae3f946f1f778523ceafc92310bab3e65e81a6",
    (2, 7): "5c32ec6a277609d3736cf2dbd3bf38a7a35cdc63b9d8ff83add31bdfdca9c90e",
    (2, 8): "5f7566883d3f1c3d731c90b3f4c465a3cde93ae9c5c74c0f0234b5d652889dd6",
    (13, 1): "d02c92d647320d69151f3f533dfe17d5ca156377b38274b617d311cac529d03d",
    (13, 2): "c7de78d3c5e7152162e934f9dcd4db50825584d8f34d9fd1342b06180850b279",
    (64, 1): "d71a068e6415dc3edabafdc8a7387ef6588abb4e55a4b7876cb82fd96aad9208",
}

ROLES = ("construct", "expand", "fill", "refuse", "verify", "verify_partial", "repair")
PASSES = 3  # passes a --trace 0 run always completes
# Repair requests per pass: 24 a run put the repair tail above the median.
REPAIRS = 8
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
HARD_LIMIT_S = 170  # a run must end within 180 s
# The reference child: a fixed Python program that, like a CLI command,
# starts an interpreter, allocates lists and a dict and round-trips JSON.
# It runs right after each timed child, and each sample is scaled by the
# reference times around it, so the speed the machine ran at in that
# moment drops out of the sample.  A probe inside the benchmark's own
# process does not track that speed.
REFERENCE_PROGRAM = (
    "import json\n"
    "rows = [list(range(i, i + 3)) for i in range(10000)]\n"
    "index = {i: tuple(r) for i, r in enumerate(rows)}\n"
    "json.loads(json.dumps(rows))\n"
)
# The reference child's time at the speed samples are scaled to; about
# its median on a 2-vCPU Intel Xeon VM under Python 3.11.
REFERENCE_NOMINAL_S = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    n: int
    expand_from: tuple[int, int]  # the design `expand` grows by one iteration


WORKLOADS = {
    w.name: w
    for w in (
        # k=3: three node pairs per chunk over 174,251 chunks, so per-chunk
        # work dominates (cage rounds, JSON, the chunk location index).
        Workload("narrow-q2n8", 2, 8, expand_from=(2, 7)),
        # k=65: 2,080 node pairs per chunk, so verify's pair scans dominate
        # and GF(64) costs show.  Every q=64 expansion is far over the
        # default edge cap, so `expand` grows (13,1): q=13 is the largest
        # q whose second iteration fits under it.  The two verifies take
        # most of a pass, so three passes fill a run.
        Workload("wide-q64n1", 64, 1, expand_from=(13, 1)),
    )
}


# Node and chunk counts in closed form, so the benchmark need not import
# the code it measures.
def p_n(q: int, n: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def num_chunks(q: int, n: int) -> int:
    return p_n(q, n + 1) * p_n(q, n) // (q + 1)


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mib: float
    stdout: str
    stderr: str


@dataclass
class Step:
    role: str
    args: list[str]
    check: object  # Child -> problem description or None
    output: Path | None = None

    def clear_output(self) -> None:
        """Remove the file a previous run wrote, so it cannot pass a check."""
        if self.output is not None:
            self.output.unlink(missing_ok=True)


class Abort(Exception):
    """A child outlived the run's time limit."""


class Session:
    """Runs CLI children one at a time in a work directory, checks each
    output and tallies attempts and failures."""

    def __init__(self, root: Path, work: Path, hard_deadline: float):
        self.work = work
        self.hard_deadline = hard_deadline
        path = [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "PYTHONHASHSEED": "0"}
        self.env.pop("FRC_MAX_EDGES", None)  # every command runs under the default cap
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mib = 0.0
        # (role, wall time, wall time of the reference child run after it)
        self.timeline: list[tuple[str, float, float]] = []
        self.reference: dict | None = None  # the (q, n) design, once a construct matched its pin
        self.holders: dict | None = None

    def file(self, name: str) -> Path:
        return self.work / name

    def spawn(self, argv: list[str]) -> Child:
        out, err = self.file("stdout"), self.file("stderr")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        fd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(0.0, self.hard_deadline - start))
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(fd)
        wall = time.perf_counter() - start
        if not ready:
            raise Abort(f"{' '.join(argv[1:])} ran past the run's time limit")
        return Child(
            code=os.waitstatus_to_exitcode(status),
            wall_s=wall,
            rss_mib=usage.ru_maxrss / 1024,
            stdout=out.read_text(),
            stderr=err.read_text(),
        )

    def cli(self, args: list[str]) -> Child:
        child = self.spawn([sys.executable, "-m", "frcage.cli", *args])
        self.peak_rss_mib = max(self.peak_rss_mib, child.rss_mib)
        return child

    def harness(self, args: list[str], traced: bool) -> tuple[Child, dict | None]:
        result = self.file("harness.json")
        result.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracer.py"), "--out", str(result)]
        child = self.spawn(argv + (["--trace"] if traced else []) + ["--", *args])
        return child, json.loads(result.read_text()) if result.exists() else None

    def timed(self, role: str, wall_s: float) -> None:
        """Record a sample and run the reference child after it."""
        ref = self.spawn([sys.executable, "-c", REFERENCE_PROGRAM])
        if ref.code != 0:
            raise RuntimeError(f"reference child exited {ref.code}: {ref.stderr.strip()[-200:]}")
        self.timeline.append((role, wall_s, ref.wall_s))

    def tally(self, role: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{role}: {problem}")

    # -- the commands of one workload --------------------------------------

    def setup(self, wl: Workload) -> None:
        """Fresh work directory plus the design `expand` starts from."""
        start = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        q0, n0 = wl.expand_from
        base = self.file("base.json")
        child = self.cli(["construct", "--q", str(q0), "--n", str(n0), "-o", str(base)])
        elapsed = time.perf_counter() - start
        self.tally("setup", self._digest(child, base, (q0, n0)))
        self.timed("setup", elapsed)

    def lifecycle(self, wl: Workload, rng: random.Random) -> list[Step]:
        """One pass: construct, expand, fill, the over-cap expand, verify
        on the full design, half the seeded repairs, verify on the filled
        design and the other half of the repairs.  The seed
        picks U within 1/64 of (u_prev, u) around its first quarter, so
        the work of verifying the filled design is nearly the same on
        every seed, and small enough that three passes fit in a run."""
        q, n = wl.q, wl.n
        u, u_prev = num_chunks(q, n), num_chunks(q, n - 1)
        width = (u - u_prev) // 64
        fill_u = u_prev + (u - u_prev) // 4 - width + rng.randrange(2 * width + 1)
        nodes = [rng.randrange(p_n(q, n + 1)) for _ in range(REPAIRS)]
        design, filled, refused = self.file("design.json"), self.file("filled.json"), self.file("refused.json")
        grown = self.file("grown.json")
        q0, n0 = wl.expand_from

        def construct(child):
            problem = self._digest(child, design, (q, n))
            if problem is None and self.reference is None:
                self.reference = json.loads(design.read_text())
                self.holders = oracle.holders_index(self.reference["nodes"])
            return problem

        def fill(child):
            if child.code != 0 or not filled.exists():
                return f"fill exited {child.code} and left {'a' if filled.exists() else 'no'} file"
            if self.reference is None:
                return "no pinned design to check against"
            return oracle.check_fill(self.reference, filled.read_text(), fill_u)

        def refuse(child):
            return oracle.check_refusal(child.code, child.stderr, refused.exists())

        def repair(node):
            def check(child):
                if self.reference is None:
                    return "no pinned design to check against"
                return oracle.check_repair(self.reference["nodes"], self.holders, node,
                                           child.code, child.stdout)
            return Step("repair", ["repair", "-i", str(design), "--node", str(node)], check)

        short = [
            Step("construct", ["construct", "--q", str(q), "--n", str(n), "-o", str(design)],
                 construct, design),
            Step("expand", ["expand", "-i", str(self.file("base.json")), "-o", str(grown)],
                 lambda child: self._digest(child, grown, (q0, n0 + 1)), grown),
            Step("fill", ["fill", "-i", str(design), "--chunks", str(fill_u), "-o", str(filled)],
                 fill, filled),
            Step("refuse", ["expand", "-i", str(design), "-o", str(refused)], refuse, refused),
        ]
        verify = Step("verify", ["verify", "-i", str(design)],
                      lambda child: oracle.check_verify(child.code, child.stdout, complete=True))
        verify_partial = Step("verify_partial", ["verify", "-i", str(filled)],
                              lambda child: oracle.check_verify(child.code, child.stdout, complete=False))
        half = len(nodes) // 2
        return (short + [verify] + [repair(g) for g in nodes[:half]]
                + [verify_partial] + [repair(g) for g in nodes[half:]])

    def _digest(self, child: Child, path: Path, qn: tuple[int, int]) -> str | None:
        if child.code != 0:
            return f"exited {child.code}: {child.stderr.strip()[-200:]}"
        if not path.exists():
            return "exited 0 but wrote no file"
        return oracle.check_digest(path.read_bytes(), PINS[qn])

    # -- the two kinds of run ------------------------------------------------

    def measure(self, wl: Workload, rng: random.Random, seconds: float) -> None:
        """Closed loop of CLI children for `seconds`, each followed by a
        reference child that scales its sample.  The first PASSES passes
        always complete, so every command has that many samples;
        after them, a command starts only if its last duration and its
        reference still fit before the deadline."""
        last: dict[str, float] = {}  # each role's last time plus its reference's
        deadline = time.perf_counter() + seconds
        passes, ran = 0, True
        while ran:
            ran = False
            for step in self.lifecycle(wl, rng):
                if passes >= PASSES and time.perf_counter() + last[step.role] > deadline:
                    continue
                step.clear_output()
                child = self.cli(step.args)
                self.tally(step.role, step.check(child))
                self.timed(step.role, child.wall_s)
                last[step.role] = child.wall_s + self.timeline[-1][2]
                ran = True
            passes += 1

    def trace_pass(self, wl: Workload, rng: random.Random) -> list[dict]:
        """One pass with every command run in-process, untraced and then
        traced; returns what tracer.layer_metrics reads."""
        commands = []
        for step in self.lifecycle(wl, rng):
            step.clear_output()
            plain, plain_result = self.harness(step.args, traced=False)
            self.tally(step.role, step.check(plain) or _harness_problem(plain, plain_result))
            step.clear_output()
            child, result = self.harness(step.args, traced=True)
            self.tally(step.role + " (traced)", step.check(child) or _harness_problem(child, result))
            if plain_result is not None and result is not None:
                commands.append({"role": step.role, "traced": result,
                                 "untraced_s": plain_result["main_s"], "rss_mib": child.rss_mib})
        return commands

    def startup(self) -> float:
        """Median wall time of the trivial `bounds` command."""
        times = []
        for _ in range(STARTUP_REPEATS):
            child = self.cli(["bounds", "--k", "3", "--l", "7"])
            self.tally("startup", oracle.check_bounds(child.code, child.stdout, 3, 7))
            times.append(child.wall_s)
        return statistics.median(times)


def _harness_problem(child: Child, result: dict | None) -> str | None:
    if result is None:
        return f"harness wrote no result: {child.stderr.strip()[-200:]}"
    if result["exit"] != child.code:
        return f"harness exit {child.code} != cli exit {result['exit']}"
    return None


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    that percentile; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def scaled_samples(timeline: list[tuple[str, float, float]]) -> dict[str, list[float]]:
    """Each sample's wall time scaled to REFERENCE_NOMINAL_S by the median
    time of the reference children of the five nearest samples (two on
    each side), which tracks the machine's speed better than the one
    reference child of a long command."""
    refs = [ref for _, _, ref in timeline]
    out: dict[str, list[float]] = defaultdict(list)
    for i, (role, wall_s, _) in enumerate(timeline):
        out[role].append(wall_s * REFERENCE_NOMINAL_S / statistics.median(refs[max(0, i - 2):i + 3]))
    return out


def end_to_end(timeline: list[tuple[str, float, float]], peak_rss_mib: float):
    """Medians of the run's scaled samples, the repair tail and peak RSS;
    and what the stamp shows about them."""
    samples = scaled_samples(timeline)
    out = {f"{role}_s": statistics.median(samples[role]) for role in (*ROLES, "setup")}
    out["repair_tail_s"], pct = tail(samples["repair"])
    out["peak_rss_mib"] = peak_rss_mib
    return out, {
        "reference_s": statistics.median(ref for _, _, ref in timeline),
        "samples": {role: len(samples[role]) for role in (*ROLES, "setup")},
        "repair_tail_percentile": pct,
    }


def source_stamp(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "frcage_commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def result_metrics(declared: list[dict], measured: dict[str, float]) -> tuple[dict, list[str]]:
    """The declared metrics that were measured, each with its unit, and
    the names of those that were not."""
    metrics = {spec["name"]: {"value": measured[spec["name"]], "unit": spec["unit"]}
               for spec in declared if spec["name"] in measured}
    return metrics, [spec["name"] for spec in declared if spec["name"] not in measured]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "frcage" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of an frcage checkout "
              "(src/frcage/cli.py and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    start = time.perf_counter()
    session = Session(root, HERE / "_work" / f"{tag}-{os.getpid()}", start + HARD_LIMIT_S)
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, **source_stamp(root),
              "load1_before": os.getloadavg()[0]}
    measured: dict[str, float] = {}
    shown: dict = {}
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            session.setup(wl)
        if args.trace:
            startup_s = session.startup()
            commands = session.trace_pass(wl, rng)
            measured = tracer.layer_metrics(commands, startup_s)
            record["spans"] = {f"{i}.{c['role']}": c["traced"]["spans"] for i, c in enumerate(commands)}
        else:
            session.measure(wl, rng, args.seconds)
            measured, shown = end_to_end(session.timeline, session.peak_rss_mib)
            record["timeline"] = session.timeline
    except Abort as exc:
        session.tally("timeout", str(exc))
    finally:
        shutil.rmtree(session.work, ignore_errors=True)
    record["load1_after"] = os.getloadavg()[0]
    record["wall_s"] = time.perf_counter() - start

    metrics, missing = result_metrics(declared, measured)
    record.update(shown, metrics=metrics, missing=missing, problems=session.problems)
    (HERE / "_work" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    # A metric that is not measured (say, a traced function was renamed)
    # is reported as missing; only the output checks decide `correct`.
    for name in missing:
        print(f"perfbench: metric {name} was not measured", file=sys.stderr)
    for problem in session.problems[:20]:
        print(f"FAILED {problem}")
    stamp = {k: record[k] for k in ("frcage_commit", "python", "nproc", "load1_before", "load1_after",
                                    "wall_s", *shown)}
    print("stamp " + json.dumps(stamp))
    print(json.dumps({
        "correct": not session.problems,
        "attempted": max(1, session.attempted),
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
