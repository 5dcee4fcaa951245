"""Bounds and brute-force oracles."""

import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from frcage import (
    BlockCollection,
    BipartiteDesign,
    InvalidDegrees,
    build_scaled_cage,
    check_partial_invariants,
    check_steiner_exact,
    chunk_locations,
    chunks_per_iteration,
    girth_at_least_six,
    moore_bounds,
    partial_fill,
    to_storage_design,
    verify_design,
)
from conftest import GOLDEN_S237, GOLDEN_S239
import helpers


def test_moore_bounds_values():
    bp = moore_bounds(3, 3)
    assert (bp.v_min, bp.u_min) == (7, 7)
    bp = moore_bounds(3, 7)
    assert (bp.v_min, bp.u_min) == (15, 35)
    bp = moore_bounds(4, 4)
    assert (bp.v_min, bp.u_min) == (13, 13)


def test_moore_bounds_non_integral():
    bp = moore_bounds(3, 5)
    assert bp.u_min == Fraction(55, 3)
    assert bp.u_min_ceil == 19
    assert bp.v_min == 11


def test_moore_bounds_rejects_bad_degrees():
    with pytest.raises(InvalidDegrees):
        moore_bounds(4, 3)
    with pytest.raises(InvalidDegrees):
        moore_bounds(1, 5)


# ---------------------------------------------------------------------------
# girth
# ---------------------------------------------------------------------------

def test_girth_on_constructions():
    ok, w = girth_at_least_six(build_scaled_cage(3, 1))
    assert ok and w is None
    ok, w = girth_at_least_six(helpers.incidence_from_blocks(GOLDEN_S239, 9))
    assert ok and w is None


def test_girth_duplicate_block_witness():
    blocks = GOLDEN_S237 + [GOLDEN_S237[0]]
    d = helpers.incidence_from_blocks(blocks, 7)
    ok, w = girth_at_least_six(d)
    assert not ok
    x1, y1, x2, y2 = w
    assert x1 != x2 and y1 != y2
    for x in (x1, x2):
        assert y1 in d.x_neighbors[x] and y2 in d.x_neighbors[x]


def test_girth_matches_naive_enumerator():
    designs = [
        build_scaled_cage(2, 1),
        build_scaled_cage(3, 1),
        build_scaled_cage(2, 2),
        helpers.incidence_from_blocks(GOLDEN_S239, 9),
        helpers.incidence_from_blocks(GOLDEN_S237 + [GOLDEN_S237[3]], 7),
        helpers.incidence_from_blocks([[0, 1, 2], [0, 1, 3]], 4),
    ]
    for d in designs:
        assert d.u <= 40
        assert girth_at_least_six(d)[0] == helpers.naive_no_four_cycles(d)


# ---------------------------------------------------------------------------
# Steiner exactness
# ---------------------------------------------------------------------------

def test_steiner_exact_golden_tables():
    ok, w = check_steiner_exact(BlockCollection(9, 3, tuple(map(tuple, GOLDEN_S239))))
    assert ok and w is None
    ok, w = check_steiner_exact(BlockCollection(7, 3, tuple(map(tuple, GOLDEN_S237))))
    assert ok and w is None


def test_steiner_exact_missing_block_witness():
    blocks = tuple(tuple(b) for b in GOLDEN_S239[:-1])  # drop the last block
    ok, w = check_steiner_exact(BlockCollection(9, 3, blocks))
    assert not ok
    assert w == (6, 7, 0)


def test_steiner_exact_doubled_pair_witness():
    blocks = tuple(map(tuple, GOLDEN_S237)) + ((0, 1, 5),)
    ok, w = check_steiner_exact(BlockCollection(7, 3, blocks))
    assert not ok
    assert w == (0, 1, 2)


def test_steiner_matches_independent_counter():
    for blocks, v in [(GOLDEN_S239, 9), (GOLDEN_S237, 7), (GOLDEN_S239[:-1], 9)]:
        bc = BlockCollection(v, 3, tuple(map(tuple, blocks)))
        assert check_steiner_exact(bc)[0] == helpers.is_steiner_exact(blocks, v)


# ---------------------------------------------------------------------------
# composite report
# ---------------------------------------------------------------------------

def test_verify_design_on_scaled_cage():
    rep = verify_design(build_scaled_cage(2, 2))
    assert rep.all_ok
    assert rep.witnesses == {}


def test_verify_design_on_regular_cage_q5():
    d = build_scaled_cage(5, 1)
    assert d.u == d.v == 31
    rep = verify_design(d)
    assert rep.all_ok


def test_verify_design_missing_edge():
    d = build_scaled_cage(2, 1)
    mutated = list(d.x_neighbors)
    mutated[0] = mutated[0][:-1]  # drop one edge
    broken = BipartiteDesign(
        q=2, n=1, k=3, l=3, u=7, v=7,
        x_neighbors=tuple(mutated),
    )
    rep = verify_design(broken)
    assert not rep.degrees_ok
    assert not rep.all_ok
    assert "degree" in rep.witnesses


def test_verify_design_s239_is_tight():
    # S(2,3,9) meets the (k=3, l=4) bounds with equality
    d = helpers.incidence_from_blocks(GOLDEN_S239, 9, q=None, n=None)
    assert verify_design(d).all_ok


def test_verify_design_incomplete_cover():
    # girth-6 and regular, but three element pairs are never covered
    blocks = [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]]
    rep = verify_design(helpers.incidence_from_blocks(blocks, 6))
    assert rep.girth_ok and rep.degrees_ok
    assert not rep.steiner_exact
    assert not rep.bounds_tight
    assert rep.witnesses["pair"] == (0, 5, 0)


def test_report_dict_shape():
    rep = verify_design(build_scaled_cage(2, 1))
    d = rep.as_dict()
    assert d["all_ok"] is True
    assert set(d) == {"girth_ok", "degrees_ok", "steiner_exact", "bounds_tight", "all_ok", "witnesses"}


def test_steiner_block_repeating_an_element():
    # every pair of distinct elements is covered once, but one block is
    # the element 0 three times
    blocks = tuple(map(tuple, GOLDEN_S237)) + ((0, 0, 0),)
    assert check_steiner_exact(BlockCollection(7, 3, blocks)) == (False, (0, 0, 3))


def test_verify_design_wide_regular_cage_time():
    d = build_scaled_cage(64, 1)
    t0 = time.perf_counter()
    assert verify_design(d).all_ok
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# witness parity with dict-based pair scans
# ---------------------------------------------------------------------------

# The dict-counting scans the pair kernel replaced, kept as the
# reference its witnesses must match exactly.

def ref_girth(d):
    seen = {}
    for c, ys in enumerate(d.x_neighbors):
        for a, b in combinations(sorted(ys), 2):
            code = a * d.v + b
            if code in seen:
                return False, (seen[code], a, c, b)
            seen[code] = c
    return True, None


def ref_steiner(bc):
    counts = {}
    for block in bc.blocks:
        for pair in combinations(sorted(block), 2):
            counts[pair] = counts.get(pair, 0) + 1
    total = bc.num_elements * (bc.num_elements - 1) // 2
    if len(counts) == total and all(c == 1 for c in counts.values()):
        return True, None
    for a in range(bc.num_elements):
        for b in range(a + 1, bc.num_elements):
            c = counts.get((a, b), 0)
            if c != 1:
                return False, (a, b, c)
    raise AssertionError("inconsistent pair counts")


def ref_partial(sd):
    detail = {}
    ok = True
    for g, row in enumerate(sd.nodes):
        present = [c for c in row if c is not None]
        if len(set(present)) != len(present):
            ok = False
            detail["duplicate_slot"] = (g,)
            break
    if ok:
        for c, holders in enumerate(chunk_locations(sd)):
            if holders and len(holders) != sd.k:
                ok = False
                detail["replicas"] = (c, len(holders))
                break
    if ok:
        seen = {}
        for c, holders in enumerate(chunk_locations(sd)):
            for i in range(len(holders)):
                for j in range(i + 1, len(holders)):
                    pair = (holders[i], holders[j])
                    if pair in seen:
                        ok = False
                        detail["overlap"] = (pair[0], pair[1], seen[pair], c)
                        break
                    seen[pair] = c
                if not ok:
                    break
            if not ok:
                break
    return ok, detail


def mutate(rng, rows, drop):
    """1-3 edits of a table of rows: swap two slots, copy one slot over
    another, repeat a row's element inside it, or blank a slot (drop it,
    or set it to None)."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randint(1, 3)):
        r1, r2 = rng.randrange(len(rows)), rng.randrange(len(rows))
        if not rows[r1] or not rows[r2]:
            continue
        i, j = rng.randrange(len(rows[r1])), rng.randrange(len(rows[r2]))
        op = rng.choice(("swap", "swap", "copy", "repeat", "blank"))
        if op == "swap":
            rows[r1][i], rows[r2][j] = rows[r2][j], rows[r1][i]
        elif op == "copy":
            rows[r2][j] = rows[r1][i]
        elif op == "repeat":
            rows[r1][i] = rng.choice(rows[r1])
        elif drop:
            del rows[r1][i]
        else:
            rows[r1][i] = None
    return rows


PARITY_DESIGNS = [(2, 2), (3, 2), (4, 1)]


@pytest.mark.parametrize("q,n", PARITY_DESIGNS)
def test_girth_and_steiner_witness_parity(q, n):
    d = build_scaled_cage(q, n)
    rng = random.Random(1000 * q + n)
    failures = 0
    for _ in range(300):
        blocks = tuple(tuple(b) for b in mutate(rng, d.x_neighbors, drop=True))
        m = BipartiteDesign(q=q, n=n, k=d.k, l=d.l, u=d.u, v=d.v, x_neighbors=blocks)
        want = ref_girth(m)
        assert girth_at_least_six(m) == want, blocks
        failures += not want[0]
        bc = BlockCollection(d.v, d.k, blocks)
        assert check_steiner_exact(bc) == ref_steiner(bc), blocks
    assert failures > 100


def test_girth_witness_parity_on_repeated_elements():
    cases = [
        ([[0, 0], [0, 0]], 1),
        ([[1, 1], [0, 1, 1]], 2),
        ([[0, 2, 2], [1, 2]], 3),
        ([[3, 1, 1, 1]], 4),
        ([[0, 1], [2, 2], [0, 1]], 3),
        ([[2, 2], [0, 1, 2], [1, 2, 2]], 3),
        ([[0, 1], [0, 0], [0, 0]], 2),
    ]
    for blocks, v in cases:
        d = BipartiteDesign(q=None, n=None, k=2, l=2, u=len(blocks), v=v,
                            x_neighbors=tuple(map(tuple, blocks)))
        assert girth_at_least_six(d) == ref_girth(d), blocks


@pytest.mark.parametrize("q,n", PARITY_DESIGNS)
def test_partial_invariants_witness_parity(q, n):
    full = to_storage_design(build_scaled_cage(q, n))
    u_prev = chunks_per_iteration(q, n - 1)
    rng = random.Random(2000 * q + n)
    kinds = set()
    for _ in range(300):
        sd = full
        if rng.random() < 0.5:
            sd = partial_fill(full, rng.randint(u_prev + 1, full.num_chunks))
        if rng.random() < 0.8:
            sd = replace(sd, nodes=tuple(map(tuple, mutate(rng, sd.nodes, drop=False))))
        want = ref_partial(sd)
        assert check_partial_invariants(sd) == want, sd.nodes
        kinds.update(want[1])
    assert kinds == {"duplicate_slot", "replicas", "overlap"}
