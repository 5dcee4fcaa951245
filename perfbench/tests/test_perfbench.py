"""The benchmark's own checks, run on small designs.

Each correctness check is shown to accept a real CLI output and to
flag a corrupted one, so the gate cannot pass vacuously.  The traced
pass is shown to give the same work counts on every run.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracle
import run
import tracer

ROOT = Path(__file__).resolve().parents[2]
MINI = run.Workload("mini-q2n3", 2, 3, expand_from=(2, 2))
COUNT_UNITS = ("count", "bytes", "ratio")


@pytest.fixture
def session(tmp_path):
    s = run.Session(ROOT, tmp_path / "work", time.perf_counter() + 170)
    # (2,3) needs 465 edges and (2,4) 1,953, so this cap refuses only
    # the mini workload's over-cap expand
    s.env["FRC_MAX_EDGES"] = "1000"
    s.setup(MINI)
    return s


def construct(session, q=2, n=3):
    path = session.file(f"d{q}_{n}.json")
    child = session.cli(["construct", "--q", str(q), "--n", str(n), "-o", str(path)])
    assert child.code == 0
    return path


def swap_slots(rows):
    """Exchange one chunk between nodes 7 and 8.  Replica counts stay
    right, but the table is no longer the construction's, and two
    nodes now share two chunks."""
    a = next(c for c in rows[7] if c not in rows[8])
    b = next(c for c in rows[8] if c not in rows[7])
    rows[7][rows[7].index(a)] = b
    rows[8][rows[8].index(b)] = a


def test_digest_flags_swapped_slot(session):
    path = construct(session)
    assert oracle.check_digest(path.read_bytes(), run.PINS[(2, 3)]) is None
    payload = json.loads(path.read_text())
    swap_slots(payload["nodes"])
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    assert oracle.check_digest(data, run.PINS[(2, 3)]) is not None


def test_fill_check_flags_swapped_slot(session):
    path = construct(session)
    reference = json.loads(path.read_text())
    filled = session.file("filled.json")
    child = session.cli(["fill", "-i", str(path), "--chunks", "150", "-o", str(filled)])
    assert child.code == 0
    assert oracle.check_fill(reference, filled.read_text(), 150) is None
    assert oracle.check_fill(reference, filled.read_text(), 149) is not None
    payload = json.loads(filled.read_text())
    swap_slots(payload["nodes"])
    assert oracle.check_fill(reference, json.dumps(payload), 150) is not None


def test_verify_check_flags_swapped_slot(session):
    path = construct(session)
    child = session.cli(["verify", "-i", str(path)])
    assert oracle.check_verify(child.code, child.stdout, complete=True) is None
    assert oracle.check_verify(child.code, child.stdout, complete=False) is not None
    payload = json.loads(path.read_text())
    swap_slots(payload["nodes"])
    path.write_text(json.dumps(payload))
    child = session.cli(["verify", "-i", str(path)])
    assert oracle.check_verify(child.code, child.stdout, complete=True) is not None


def test_repair_check_flags_bad_plans(session):
    path = construct(session)
    rows = json.loads(path.read_text())["nodes"]
    holders = oracle.holders_index(rows)
    child = session.cli(["repair", "-i", str(path), "--node", "9"])
    assert oracle.check_repair(rows, holders, 9, child.code, child.stdout) is None
    assert oracle.check_repair(rows, holders, 8, child.code, child.stdout) is not None
    good = json.loads(child.stdout)

    def flagged(edit):
        plan = json.loads(json.dumps(good))
        edit(plan["assignments"])
        return oracle.check_repair(rows, holders, 9, 0, json.dumps(plan)) is not None

    def duplicate_helper(a):
        a[1][1] = a[0][1]

    def failed_node_helps(a):
        a[0][1] = 9

    def helper_lacks_chunk(a):
        a[0][1] = next(g for g in range(len(rows)) if a[0][0] not in rows[g])

    assert flagged(duplicate_helper)
    assert flagged(failed_node_helps)
    assert flagged(helper_lacks_chunk)
    assert flagged(lambda a: a.pop())
    assert oracle.check_repair(rows, holders, 9, 2, child.stdout) is not None


def test_repair_check_counts_present_slots_only(session):
    path = construct(session)
    rows = json.loads(path.read_text())["nodes"]
    filled = session.file("filled.json")
    session.cli(["fill", "-i", str(path), "--chunks", "100", "-o", str(filled)])
    partial = json.loads(filled.read_text())["nodes"]
    node = next(g for g, row in enumerate(partial) if None in row)
    child = session.cli(["repair", "-i", str(filled), "--node", str(node)])
    holders = oracle.holders_index(partial)
    assert oracle.check_repair(partial, holders, node, child.code, child.stdout) is None
    assert oracle.check_repair(rows, oracle.holders_index(rows), node,
                               child.code, child.stdout) is not None


def test_refusal_check(session):
    path = construct(session)
    out = session.file("refused.json")
    child = session.cli(["expand", "-i", str(path), "-o", str(out)])
    assert oracle.check_refusal(child.code, child.stderr, out.exists()) is None
    child = session.cli(["expand", "-i", str(path), "-o", str(out), "--max-edges", "5000"])
    assert oracle.check_refusal(child.code, child.stderr, out.exists()) is not None
    assert oracle.check_refusal(2, "NotCanonical: no", False) is not None


def test_measure_passes_every_check(session):
    session.measure(MINI, random.Random(3), seconds=1)
    assert session.failed == 0, session.problems
    metrics, shown = run.end_to_end(session.timeline, session.peak_rss_mib)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert all(v > 0 for v in metrics.values())
    assert all(shown["samples"][role] >= run.PASSES for role in run.ROLES)
    assert shown["samples"]["repair"] >= run.PASSES * run.REPAIRS


def test_samples_are_scaled_by_nearby_reference_children():
    nominal = run.REFERENCE_NOMINAL_S
    timeline = [("a", 1.0, nominal), ("b", 2.0, nominal), ("a", 3.0, 2 * nominal),
                ("b", 4.0, 2 * nominal), ("a", 5.0, 2 * nominal)]
    samples = run.scaled_samples(timeline)
    # windows of reference times: [1, 1, 2], [1, 1, 2, 2], [1, 1, 2, 2, 2],
    # [1, 2, 2, 2] and [2, 2, 2] times the nominal one
    assert samples["a"] == pytest.approx([1.0, 3.0 / 2, 5.0 / 2])
    assert samples["b"] == pytest.approx([2.0 / 1.5, 4.0 / 2])


def test_missing_metric_is_not_a_wrong_output():
    declared = [{"name": "a_s", "unit": "s"}, {"name": "b_s", "unit": "s"}]
    metrics, missing = run.result_metrics(declared, {"a_s": 1.5})
    assert metrics == {"a_s": {"value": 1.5, "unit": "s"}}
    assert missing == ["b_s"]


def test_traced_counts_repeat_exactly(session):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    counts = [m["name"] for m in declared if m["unit"] in COUNT_UNITS]

    def traced(seed):
        commands = session.trace_pass(MINI, random.Random(seed))
        assert session.failed == 0, session.problems
        metrics = tracer.layer_metrics(commands, startup_s=0.1)
        assert sorted(metrics) == sorted(m["name"] for m in declared)
        return commands, {name: metrics[name] for name in counts}

    commands, first = traced(5)
    _, second = traced(5)
    assert first == second
    _, other_seed = traced(6)
    # the fill output's size, hence json_bytes, depends on the seeded U
    del first["design.json_bytes"], other_seed["design.json_bytes"]
    assert first == other_seed
    assert first["verify.scan_redundancy"] == 2.0
    assert first["cli.verify_partial.chunk_locations_calls"] == 3

    expand = next(c for c in commands if c["role"] == "expand")["traced"]["spans"]
    parents = {expand[s["parent"]]["name"] for s in expand if s["name"] == "cage.build_scaled_cage"}
    assert parents == {"design.expand"}


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "narrow-q2n8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
