"""Bounds and brute-force oracles."""

import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from frcage import (
    BlockCollection,
    InvalidDegrees,
    InvalidDesign,
    build_scaled_cage,
    check_partial_invariants,
    check_steiner_exact,
    chunk_locations,
    chunks_per_iteration,
    girth_at_least_six,
    moore_bounds,
    partial_fill,
    repair_plan,
    verify_design,
)
from frcage.verify import _cover_walk, _pair_walk
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
    for k, l in ((3.0, 7.5), (3, 7.0), (3.0, 7), (True, 7)):
        with pytest.raises(InvalidDegrees):
            moore_bounds(k, l)


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
    ok, w = check_steiner_exact(BlockCollection(9, tuple(map(tuple, GOLDEN_S239))))
    assert ok and w is None
    ok, w = check_steiner_exact(BlockCollection(7, tuple(map(tuple, GOLDEN_S237))))
    assert ok and w is None


def test_steiner_exact_missing_block_witness():
    blocks = tuple(tuple(b) for b in GOLDEN_S239[:-1])  # drop the last block
    ok, w = check_steiner_exact(BlockCollection(9, blocks))
    assert not ok
    assert w == (6, 7, 0)


def test_steiner_exact_doubled_pair_witness():
    blocks = tuple(map(tuple, GOLDEN_S237)) + ((0, 1, 5),)
    ok, w = check_steiner_exact(BlockCollection(7, blocks))
    assert not ok
    assert w == (0, 1, 2)


def test_steiner_matches_independent_counter():
    for blocks, v in [(GOLDEN_S239, 9), (GOLDEN_S237, 7), (GOLDEN_S239[:-1], 9)]:
        bc = BlockCollection(v, tuple(map(tuple, blocks)))
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
    broken = replace(d, nodes=helpers.incidence_from_blocks(mutated, 7).nodes)
    rep = verify_design(broken)
    assert not rep.degrees_ok
    assert not rep.all_ok
    assert rep.witnesses["degree"] == ("x", 0, 2)
    # every chunk has 3 holders, but node 1 holds one chunk where l = 2
    rep = verify_design(helpers.incidence_from_blocks([[0, 1, 2], [0, 3, 4]], 5))
    assert rep.witnesses["degree"] == ("y", 1, 1)


def test_verify_design_names_a_row_that_repeats_a_chunk():
    # Node 1 holds chunk c twice in place of b, and node h, which shares
    # only c with node 1, holds b in place of c: every chunk still has k
    # holders and every row l slots, so only the repeat is a defect.
    d = build_scaled_cage(2, 2)
    rows = [list(row) for row in d.nodes]
    c, b = rows[1][0], rows[1][1]
    h = next(g for g in d.x_neighbors[c] if g != 1)
    rows[1][1] = c
    rows[h][rows[h].index(c)] = b
    rep = verify_design(replace(d, nodes=tuple(map(tuple, rows))))
    assert not rep.degrees_ok
    assert rep.witnesses["degree"] == ("x", c, d.k - 1)


def test_verify_design_refuses_a_partial_table():
    part = partial_fill(build_scaled_cage(2, 2), 30)
    with pytest.raises(InvalidDesign, match="partially filled"):
        verify_design(part)


def test_verify_design_s239_is_tight():
    # S(2,3,9) meets the (k=3, l=4) bounds with equality
    d = helpers.incidence_from_blocks(GOLDEN_S239, 9)
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
    assert check_steiner_exact(BlockCollection(7, blocks)) == (False, (0, 0, 3))


def test_steiner_memory_follows_the_largest_id():
    # element 2 lies in no block, so the walk stops there, not at num_elements
    tracemalloc.start()
    try:
        assert check_steiner_exact(BlockCollection(10**6, ((0, 1),))) == (False, (0, 2, 0))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


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
    if ok:
        holders = chunk_locations(sd)
        blank = [c for c in range(len(holders)) if not holders[c]]
        later = [c for c in range(len(holders)) if holders[c] and blank and c > blank[0]]
        if later:
            ok = False
            detail["blank_gap"] = (blank[0], later[0])
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
        m = replace(d, nodes=helpers.incidence_from_blocks(blocks, d.v).nodes)
        want = ref_girth(m)
        assert girth_at_least_six(m) == want, blocks
        failures += not want[0]
        bc = BlockCollection(d.v, blocks)
        assert check_steiner_exact(bc) == ref_steiner(bc), blocks
    assert failures > 100


def test_steiner_witness_parity_above_the_largest_id():
    rng = random.Random(2020)
    fano = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))
    cases = [(fano, v) for v in range(7, 12)]
    for _ in range(2000):
        span = rng.randrange(1, 9)
        blocks = tuple(
            tuple(rng.randrange(span) for _ in range(rng.randrange(5))) for _ in range(rng.randrange(12))
        )
        top = max((a for b in blocks for a in b), default=-1)
        cases.append((blocks, top + rng.randrange(3, 9)))
    for blocks, v in cases:
        bc = BlockCollection(v, blocks)
        assert check_steiner_exact(bc) == ref_steiner(bc), (blocks, v)


def test_girth_witness_parity_on_repeated_elements():
    cases = [
        ([[0, 0], [0, 0]], 1),
        ([[1, 1], [0, 1, 1]], 2),
        ([[0, 2, 2], [1, 2]], 3),
        ([[3, 1, 1, 1]], 4),
        ([[0, 1], [2, 2], [0, 1]], 3),
        ([[2, 2], [0, 1, 2], [1, 2, 2]], 3),
        ([[0, 1], [0, 0], [0, 0]], 2),
        # a single descending pass over the rows would name (0, 2) here
        ([[0, 3], [0, 0, 2, 3]], 4),
    ]
    for blocks, v in cases:
        d = helpers.incidence_from_blocks(blocks, v)
        assert girth_at_least_six(d) == ref_girth(d), blocks


def test_witness_parity_on_random_repeats():
    rng = random.Random(2121)
    repeats = 0
    for _ in range(2000):
        blocks = [[rng.randrange(8) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 6))]
        repeats += any(len(set(b)) != len(b) for b in blocks)
        d = helpers.incidence_from_blocks(blocks, 8)
        assert girth_at_least_six(d) == ref_girth(d), blocks
        bc = BlockCollection(8, tuple(map(tuple, blocks)))
        assert check_steiner_exact(bc) == ref_steiner(bc), blocks
    assert repeats > 1000


def test_steiner_witness_memory_on_a_long_block():
    # each row's suffix mask is held once: in seen, not also in the row list
    block = tuple(range(20000)) + (0,)
    tracemalloc.start()
    try:
        assert check_steiner_exact(BlockCollection(20000, (block,))) == (False, (0, 1, 2))
        assert tracemalloc.get_traced_memory()[1] < 80 * 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q,n", PARITY_DESIGNS)
def test_partial_invariants_witness_parity(q, n):
    full = build_scaled_cage(q, n)
    u_prev = chunks_per_iteration(q, n - 1)
    rng = random.Random(2000 * q + n)
    kinds = set()
    for _ in range(300):
        sd = full
        if rng.random() < 0.5:
            sd = partial_fill(full, rng.randint(u_prev + 1, full.u))
        if rng.random() < 0.8:
            sd = replace(sd, nodes=tuple(map(tuple, mutate(rng, sd.nodes, drop=False))))
        want = ref_partial(sd)
        assert check_partial_invariants(sd) == want, sd.nodes
        kinds.update(want[1])
    assert kinds == {"duplicate_slot", "replicas", "overlap"}


# ---------------------------------------------------------------------------
# the cover walk decides; the witness walk only names the defect
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kept", [1, 2])
def test_partial_invariants_name_a_chunk_short_of_replicas(kept):
    # every other chunk keeps its k replicas, so only chunk 5's count is wrong
    full = build_scaled_cage(2, 2)
    drop = set(full.x_neighbors[5][kept:])
    sd = replace(full, nodes=tuple(
        tuple(None if c == 5 and g in drop else c for c in row) for g, row in enumerate(full.nodes)
    ))
    assert check_partial_invariants(sd) == (False, {"replicas": (5, kept)})


def test_partial_invariants_blank_gap():
    full = build_scaled_cage(2, 2)
    assert check_partial_invariants(partial_fill(full, 30)) == (True, {})
    gap = replace(full, nodes=tuple(
        tuple(None if c == 30 else c for c in row) for row in full.nodes
    ))
    assert check_partial_invariants(gap) == (False, {"blank_gap": (30, 31)})
    assert ref_partial(gap) == (False, {"blank_gap": (30, 31)})


def test_out_of_range_ids_raise():
    for bad in (-1, 3, None):
        blocks = ((0, bad), (1, 2))
        with pytest.raises(InvalidDesign, match=r"not an id in \[0, 3\)"):
            check_steiner_exact(BlockCollection(3, blocks))
    # a huge id is refused before 1 << id is built, which takes 12.5 MB for 10**8 and
    # more memory than there is for 2**40
    for bad in (10**8, 2**40, 2**63, -1, -2**63):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidDesign, match=r"not an id in \[0, 3\)"):
                check_steiner_exact(BlockCollection(3, ((0, 1, bad),)))
            assert tracemalloc.get_traced_memory()[1] < 2**20, bad
        finally:
            tracemalloc.stop()
    # every one-slot edit to chunk id -1 or u; -1 used to wrap to chunk u-1
    sd = build_scaled_cage(2, 2)
    for g, row in enumerate(sd.nodes):
        for s in range(sd.l):
            for bad in (-1, sd.u):
                nodes = list(sd.nodes)
                nodes[g] = row[:s] + (bad,) + row[s + 1:]
                edited = replace(sd, nodes=tuple(nodes))
                for check in (lambda: repair_plan(edited, g), lambda: verify_design(edited),
                              lambda: check_partial_invariants(edited)):
                    with pytest.raises(InvalidDesign, match=f"row {g} holds"):
                        check()


def assert_cover_walk_decides(blocks, v):
    """The cover walk passes exactly when the witness walk finds no
    repeated pair and no block repeats an element (so a lone [2, 2],
    which repeats no pair, still goes to the witness walk)."""
    once, pairs = _cover_walk(blocks, v)
    masks = [0] * v
    first = next(_pair_walk(blocks, masks), None)  # runs to the end when no pair repeats
    assert once == (first is None and not any(m >> a & 1 for a, m in enumerate(masks))), blocks
    assert pairs == sum(len(b) * (len(b) - 1) // 2 for b in blocks)
    return once, pairs


@pytest.mark.parametrize("q,n", PARITY_DESIGNS)
def test_cover_walk_verdict_on_mutants(q, n):
    d = build_scaled_cage(q, n)
    assert assert_cover_walk_decides(d.x_neighbors, d.v)[0]
    rng = random.Random(1000 * q + n)  # the corpus of the witness-parity test
    verdicts = set()
    for _ in range(300):
        blocks = tuple(tuple(b) for b in mutate(rng, d.x_neighbors, drop=True))
        once, pairs = assert_cover_walk_decides(blocks, d.v)
        steiner = once and pairs == d.v * (d.v - 1) // 2
        assert steiner == ref_steiner(BlockCollection(d.v, blocks))[0], blocks
        verdicts.add((once, steiner))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_cover_walk_verdict_on_repeated_elements():
    cases = [
        ([[0, 0], [0, 0]], 1),
        ([[1, 1], [0, 1, 1]], 2),
        ([[0, 2, 2], [1, 2]], 3),
        ([[3, 1, 1, 1]], 4),
        ([[0, 1], [2, 2], [0, 1]], 3),
        ([[2, 2], [0, 1, 2], [1, 2, 2]], 3),
        ([[0, 1], [0, 0], [0, 0]], 2),
        ([[2, 2]], 3),
        ([[0, 1], [2, 2]], 3),
    ]
    for blocks, v in cases:
        assert not assert_cover_walk_decides(tuple(map(tuple, blocks)), v)[0]
    # an element that no block holds (a node left empty by a fill) is
    # not a defect
    assert assert_cover_walk_decides(((0, 1),), 3) == (True, 1)
    # two copies alone repeat nothing: the witness walk clears them
    d = helpers.incidence_from_blocks([[0, 1], [2, 2]], 3)
    assert girth_at_least_six(d) == ref_girth(d) == (True, None)
