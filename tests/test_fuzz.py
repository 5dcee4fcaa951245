"""Seeded mutation fuzz of design files through the CLI.

Each mutant of a small complete or partially filled design file is run
through `verify`, `repair`, `fill` and `expand`.  Every run must exit
0, 1 or 2 without an exception escaping, an exit 2 must name its
error, and `verify` may call a table sound only when the oracles in
helpers.py, reading the raw rows, agree.
"""

import json
import random

import pytest

from frcage import (
    build_scaled_cage, chunks_per_iteration, partial_fill, to_json, to_storage_design,
)
from frcage.cli import main
from frcage.errors import FrcageError
import helpers

DESIGNS = [(2, 3), (3, 2), (4, 1)]
MUTANTS = 120
ERROR_NAMES = {cls.__name__ for cls in (FrcageError, *FrcageError.__subclasses__())}


def _slot(rng, rows):
    g = rng.randrange(len(rows))
    return g, rng.randrange(len(rows[g])) if rows[g] else None


def _swap_in_row(rng, p):
    g, i = _slot(rng, p["nodes"])
    if i is not None:
        j = rng.randrange(len(p["nodes"][g]))
        row = p["nodes"][g]
        row[i], row[j] = row[j], row[i]


def _swap_across_rows(rng, p):
    (g, i), (h, j) = _slot(rng, p["nodes"]), _slot(rng, p["nodes"])
    if i is not None and j is not None:
        p["nodes"][g][i], p["nodes"][h][j] = p["nodes"][h][j], p["nodes"][g][i]


def _blank(rng, p):
    g, i = _slot(rng, p["nodes"])
    if i is not None:
        p["nodes"][g][i] = None


def _duplicate(rng, p):
    g, i = _slot(rng, p["nodes"])
    if i is not None:
        row = p["nodes"][g]
        row[i] = row[rng.randrange(len(row))]


def _insert(rng, p):
    g, i = _slot(rng, p["nodes"])
    value = rng.choice([-1, True, 1.0, p["header"]["num_chunks"] + rng.randrange(3)])
    if i is not None and rng.random() < 0.5:
        p["nodes"][g][i] = value
    else:
        p["nodes"][g].insert(rng.randrange(len(p["nodes"][g]) + 1), value)


def _edit_number(rng, p):
    header = p["header"]
    if rng.random() < 0.7:
        table = header
        key = rng.choice(["q", "n", "k", "l", "num_nodes", "num_chunks"])
    else:
        table = header["field"]
        key = rng.choice(["p", "m", "primitive", "modulus"])
    if key == "modulus":
        modulus = table[key]
        modulus[rng.randrange(len(modulus))] += rng.choice([-1, 1])
    else:
        table[key] += rng.choice([-1, 1, 2, 10**9])


MUTATIONS = [_swap_in_row, _swap_across_rows, _blank, _duplicate, _insert, _edit_number]


def _sound(payload, header) -> tuple[bool, bool]:
    """(complete, ok) by the oracles: the header is the unmutated one
    (the row count and length fix (q, n)), rows hold distinct chunk
    ids, every present chunk has k holders, no two nodes share two
    chunks, and a complete table covers every node pair."""
    h, rows = payload["header"], payload["nodes"]
    present = [[c for c in row if c is not None] for row in rows]
    complete = all(len(p) == len(row) for p, row in zip(present, rows))
    holders = helpers.holders_from_rows(present, h["num_chunks"])
    counts = helpers.pair_cover_counts(holders)
    v = len(rows)
    ok = (
        h == header
        and all(len(set(p)) == len(p) for p in present)
        and all(len(hs) in ((h["k"],) if complete else (0, h["k"])) for hs in holders)
        and max(counts.values(), default=0) <= 1
        and (not complete or len(counts) == v * (v - 1) // 2)
    )
    return complete, ok


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.split(":", 1)[0] in ERROR_NAMES, (argv, err)
    return code, out


@pytest.mark.parametrize("q, n", DESIGNS)
def test_mutants_fail_named_and_never_pass_falsely(q, n, tmp_path, capsys):
    rng = random.Random(7000 + 10 * q + n)
    full = to_storage_design(build_scaled_cage(q, n))
    u_tilde = rng.randrange(chunks_per_iteration(q, n - 1) + 1, full.num_chunks)
    bases = [json.loads(to_json(sd)) for sd in (full, partial_fill(full, u_tilde))]
    path, out_path = tmp_path / "m.json", tmp_path / "out.json"
    verdicts = set()
    for t in range(MUTANTS):
        base = bases[t % 2]
        payload = json.loads(json.dumps(base))
        for mutate in rng.sample(MUTATIONS, rng.choice([1, 1, 2, 3])):
            mutate(rng, payload)
        path.write_text(json.dumps(payload))

        code, out = _run(capsys, "verify", "-i", str(path))
        verdicts.add(code)
        if code != 2:
            report = json.loads(out)
            passed = report["all_ok"] if report["complete"] else report["partial_invariants_ok"]
            assert passed == (code == 0)
            if passed:
                assert _sound(payload, base["header"]) == (report["complete"], True), payload
        node = str(rng.randrange(len(payload["nodes"]) + 1))
        _run(capsys, "repair", "-i", str(path), "--node", node,
             "--policy", rng.choice(["lowest", "round-robin"]))
        _run(capsys, "fill", "-i", str(path), "--chunks", str(u_tilde), "-o", str(out_path))
        _run(capsys, "expand", "-i", str(path), "-o", str(out_path), "--max-edges", "5000")
    assert verdicts == {0, 1, 2}


def test_sound_oracle_reads_the_rows():
    payload = json.loads(to_json(to_storage_design(build_scaled_cage(2, 2))))
    header = json.loads(json.dumps(payload["header"]))
    assert _sound(payload, header) == (True, True)
    payload["header"]["q"] = 3
    assert _sound(payload, header) == (True, False)
    payload["header"]["q"] = 2
    rows = payload["nodes"]
    a, b = (next(c for c in rows[x] if c not in rows[y]) for x, y in ((7, 8), (8, 7)))
    rows[7][rows[7].index(a)], rows[8][rows[8].index(b)] = b, a
    assert _sound(payload, header) == (True, False)
