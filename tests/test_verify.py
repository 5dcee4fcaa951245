"""Bounds and brute-force oracles."""

import json
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from frcage import (
    BlockCollection,
    FieldMeta,
    InvalidDegrees,
    InvalidDesign,
    InvalidParameter,
    ResourceLimit,
    StorageDesign,
    build_scaled_cage,
    check_partial_invariants,
    check_steiner_exact,
    chunk_locations,
    chunks_per_iteration,
    from_json,
    girth_at_least_six,
    moore_bounds,
    p_n,
    partial_fill,
    to_json,
    verify_design,
)
import frcage.verify as verify_mod
from frcage.cage import _sketch
from frcage.verify import _cover_walk, _first_repeat, _pair_walk
from conftest import GOLDEN_S237, GOLDEN_S239
import helpers
from helpers import replace


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


def test_bounds_tight_matches_a_fraction_oracle():
    # verify_design decides bounds_tight in integers; the oracle compares
    # Fractions, with v and u on the bound and one off either side.  The
    # header alone decides it, and empty rows of l > 0 slots fail
    # creation's row checks, so each table is a sketch: header checks only
    tight = 0
    for k in range(1, 6):
        for l in range(9):
            v_min = 1 + l * (k - 1)
            u_min = l + Fraction(l * (l - 1) * (k - 1), k)
            for v in range(max(v_min - 1, 1), v_min + 2):
                for u in range(max(int(u_min) - 1, 0), min(int(u_min) + 3, v * l + 1)):
                    sd = _sketch(q=0, n=0, k=k, l=l, v=v, u=u, nodes=((),) * v,
                                 field_meta=FieldMeta(2, 1, (0, 1), 1), construction="hand-built")
                    rep = verify_design(sd)
                    want = l >= k >= 2 and v == v_min and Fraction(u) == u_min
                    assert rep.bounds_tight is want, (k, l, v, u)
                    assert rep.witnesses.get("bounds") == (None if want else (v, u))
                    tight += want
    assert tight == 16  # the (k, l) with l >= k >= 2 and k | l(l-1)(k-1)


# ---------------------------------------------------------------------------
# girth
# ---------------------------------------------------------------------------

def test_girth_on_constructions():
    ok, w = girth_at_least_six(build_scaled_cage(3, 1))
    assert ok and w is None
    ok, w = girth_at_least_six(helpers.incidence_from_blocks(GOLDEN_S239, 9))
    assert ok and w is None


# A hand-built table whose chunks have unequal holder counts, or whose
# nodes hold unequal chunk counts, cannot be made, so the 4-cycle
# witness is checked on arbitrary blocks through _first_repeat, the
# walk that girth_at_least_six runs over x_neighbors.

def test_girth_duplicate_block_witness():
    blocks = GOLDEN_S237 + [GOLDEN_S237[0]]
    w = _first_repeat(blocks, 7)
    assert w is not None
    x1, y1, x2, y2 = w
    assert x1 != x2 and y1 != y2
    for x in (x1, x2):
        assert y1 in blocks[x] and y2 in blocks[x]


def test_girth_matches_naive_enumerator():
    cases = [(build_scaled_cage(q, n).x_neighbors, p_n(q, n + 1)) for q, n in ((2, 1), (3, 1), (2, 2))]
    cases += [
        (GOLDEN_S239, 9),
        (GOLDEN_S237 + [GOLDEN_S237[3]], 7),
        ([[0, 1, 2], [0, 1, 3]], 4),
    ]
    for blocks, v in cases:
        assert len(blocks) <= 40
        assert (_first_repeat(blocks, v) is None) == helpers.naive_no_four_cycles(blocks)
    assert girth_at_least_six(build_scaled_cage(2, 2)) == (True, None)


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
    # a dropped edge leaves its node a slot short, so the table is refused
    # where it is made; a chunk that no node holds is the one degree defect
    # a table can carry
    d = build_scaled_cage(2, 1)
    g = d.x_neighbors[0][-1]
    with pytest.raises(InvalidDesign, match=f"^node {g} has 2 slots, expected 3$"):
        replace(d, nodes=d.nodes[:g] + (d.nodes[g][1:],) + d.nodes[g + 1:])
    rep = verify_design(replace(d, construction="hand-built", u=8))
    assert not rep.degrees_ok
    assert not rep.all_ok
    assert rep.witnesses["degree"] == ("x", 7, 0)


def test_verify_design_names_a_bad_chunk_after_good_ones():
    # the x-side degree witness is the first chunk without k holders, not
    # chunk 0: here chunk 5, which no node holds once ids 5 and up move up one
    d = build_scaled_cage(2, 1)
    nodes = tuple(tuple(c + (c >= 5) for c in row) for row in d.nodes)
    rep = verify_design(replace(d, construction="hand-built", u=8, nodes=nodes))
    assert (rep.degrees_ok, rep.witnesses["degree"]) == (False, ("x", 5, 0))


def test_verify_design_names_a_row_that_repeats_a_chunk():
    # Node 1 holds chunk c twice in place of b, and node h, which shares
    # only c with node 1, holds b in place of c: every chunk still has k
    # holders and every row l slots, so only the repeat is a defect.  It is
    # named where the table is made or loaded, before verify_design runs.
    d = build_scaled_cage(2, 2)
    rows = [list(row) for row in d.nodes]
    c, b = rows[1][0], rows[1][1]
    h = next(g for g in d.x_neighbors[c] if g != 1)
    rows[1][1] = c
    rows[h][rows[h].index(c)] = b
    nodes = tuple(tuple(sorted(row)) for row in rows)
    assert Counter(c for row in nodes for c in row) == dict.fromkeys(range(d.u), d.k)
    with pytest.raises(InvalidDesign, match="^node 1 repeats a chunk id$"):
        replace(d, nodes=nodes)
    payload = json.loads(to_json(d))
    payload["nodes"] = [list(row) for row in nodes]
    with pytest.raises(InvalidDesign, match="^node 1 repeats a chunk id$"):
        from_json(json.dumps(payload))


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
    assert list(d) == ["girth_ok", "degrees_ok", "steiner_exact", "bounds_tight", "all_ok", "witnesses"]


def test_steiner_block_repeating_an_element():
    # every pair of distinct elements is covered once, but one block is
    # the element 0 three times
    blocks = tuple(map(tuple, GOLDEN_S237)) + ((0, 0, 0),)
    assert check_steiner_exact(BlockCollection(7, blocks)) == (False, (0, 0, 3))


def test_steiner_names_a_repeated_element_other_than_0():
    # {0, 1} covers the one pair; the block (1, 1) repeats element 1 once
    assert check_steiner_exact(BlockCollection(2, ((0, 1), (1, 1)))) == (False, (1, 1, 1))


def test_steiner_refuses_sparse_blocks_over_the_mask_budget(monkeypatch):
    # the masks follow num_elements, not the largest id: 10**6 elements are over the
    # default cap's budget, and the refusal comes before any mask is built
    monkeypatch.delenv("FRC_MAX_EDGES", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="pair masks on 1000000 elements"):
            check_steiner_exact(BlockCollection(10**6, ((0, 1),)))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_every_pair_check_follows_one_mask_budget(monkeypatch):
    # v**3 <= cap**2: at cap 64, 16 elements reach a verdict (16**3 == 64**2) and 17 do not
    monkeypatch.setenv("FRC_MAX_EDGES", "64")
    for v in (16, 17):
        blocks = tuple((a,) for a in range(v))
        table = helpers.incidence_from_blocks(blocks, v)
        checks = (lambda: check_steiner_exact(BlockCollection(v, blocks)),
                  lambda: girth_at_least_six(table), lambda: check_partial_invariants(table))
        if v == 16:
            assert [check() for check in checks] == [(False, (0, 1, 0)), (True, None), (True, {})]
        else:
            for check in checks:
                with pytest.raises(ResourceLimit, match="pair masks on 17 elements"):
                    check()
    # a cap that is no integer is named as such, not taken for a bad id
    monkeypatch.setenv("FRC_MAX_EDGES", "abc")
    with pytest.raises(InvalidParameter, match="FRC_MAX_EDGES must be an integer"):
        check_steiner_exact(BlockCollection(3000, ((0, 1),)))
    # a cap below 1 refuses every build, so it sets no pair budget either
    monkeypatch.setenv("FRC_MAX_EDGES", "-1000000")
    with pytest.raises(InvalidParameter, match="FRC_MAX_EDGES must be at least 1"):
        check_steiner_exact(BlockCollection(100, ((0, 1),)))


def test_verify_design_wide_regular_cage_time():
    d = build_scaled_cage(64, 1)
    t0 = time.perf_counter()
    assert verify_design(d).all_ok
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# witness parity with dict-based pair scans
# ---------------------------------------------------------------------------

# The dict-counting scans the pair kernel replaced, kept as the
# reference its witnesses must match exactly.  The girth witness is
# compared on arbitrary blocks (see girth below); check_partial_invariants
# on tables, which creation keeps regular.

def girth(blocks, v):
    """What girth_at_least_six gives a table whose x_neighbors are blocks."""
    w = _first_repeat(blocks, v)
    return w is None, w


def ref_girth(blocks, v):
    seen = {}
    for c, ys in enumerate(blocks):
        for a, b in combinations(sorted(ys), 2):
            code = a * v + b
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


def mutate(rng, rows):
    """1-3 edits of a list of blocks: swap two slots, copy one slot over
    another, repeat a block's element inside it, or drop a slot."""
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
        else:
            del rows[r1][i]
    return rows


def move(rng, rows, u):
    """1-3 edits of a table's rows that keep each row's length and each
    chunk's replica count, every row then sorted again: swap the slots of
    two rows (an id or a blank moves; skipped where a row would repeat an
    id), or swap a present id with any id in [0, u) in every row."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randint(1, 3)):
        r1, r2 = rng.sample(range(len(rows)), 2)
        i, j = rng.randrange(len(rows[r1])), rng.randrange(len(rows[r2]))
        a, b = rows[r1][i], rows[r2][j]
        if rng.random() < 0.2 and a is not None:
            b = rng.randrange(u)
            rows = [[{a: b, b: a}.get(c, c) for c in row] for row in rows]
        elif (b is None or b not in rows[r1]) and (a is None or a not in rows[r2]):
            rows[r1][i], rows[r2][j] = b, a
    return [sorted(c for c in row if c is not None) + [None] * row.count(None) for row in rows]


PARITY_DESIGNS = [(2, 2), (3, 2), (4, 1)]


@pytest.mark.parametrize("q,n", PARITY_DESIGNS)
def test_girth_and_steiner_witness_parity(q, n):
    d = build_scaled_cage(q, n)
    rng = random.Random(1000 * q + n)
    failures = 0
    for _ in range(300):
        blocks = tuple(tuple(b) for b in mutate(rng, d.x_neighbors))
        want = ref_girth(blocks, d.v)
        assert girth(blocks, d.v) == want, blocks
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
        assert girth(blocks, v) == ref_girth(blocks, v), blocks


def test_witness_parity_on_random_repeats():
    rng = random.Random(2121)
    repeats = 0
    for _ in range(2000):
        blocks = [[rng.randrange(8) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 6))]
        repeats += any(len(set(b)) != len(b) for b in blocks)
        assert girth(blocks, 8) == ref_girth(blocks, 8), blocks
        bc = BlockCollection(8, tuple(map(tuple, blocks)))
        assert check_steiner_exact(bc) == ref_steiner(bc), blocks
    assert repeats > 1000


def test_steiner_witness_memory_on_a_long_block(monkeypatch):
    # each row's suffix mask is held once: in seen, not also in the row list
    block = tuple(range(20000)) + (0,)
    monkeypatch.delenv("FRC_MAX_EDGES", raising=False)
    with pytest.raises(ResourceLimit):  # 20,000**3 is over the default cap squared
        check_steiner_exact(BlockCollection(20000, (block,)))
    monkeypatch.setenv("FRC_MAX_EDGES", "3000000")
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
            sd = replace(sd, nodes=tuple(map(tuple, move(rng, sd.nodes, sd.u))))
        want = ref_partial(sd)
        assert check_partial_invariants(sd) == want, sd.nodes
        kinds.update(want[1])
    assert kinds == {"overlap", "blank_gap"}


# ---------------------------------------------------------------------------
# the cover walk decides; the witness walk only names the defect
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kept", [1, 2])
def test_partial_invariants_name_a_chunk_short_of_replicas(kept):
    # every other chunk keeps its k replicas, so only chunk 5's count is wrong.
    # Creation refuses such a table; a sketch (header checks only) still
    # reaches the witness, which stays for the tracer's pinned count.
    full = build_scaled_cage(2, 2)
    drop = set(full.x_neighbors[5][kept:])
    fields = {**full._asdict(), "nodes": tuple(
        tuple(None if c == 5 and g in drop else c for c in row) for g, row in enumerate(full.nodes)
    )}
    with pytest.raises(InvalidDesign, match=f"^chunk 5 has {kept} replicas, expected 3$"):
        StorageDesign(**fields)
    assert check_partial_invariants(_sketch(**fields)) == (False, {"replicas": (5, kept)})


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
    # every one-slot edit to chunk id -1 or u is refused where the table is
    # made: out of range where the row still ascends, else out of order
    sd = build_scaled_cage(2, 2)
    for g, row in enumerate(sd.nodes):
        for s in range(sd.l):
            for bad in (-1, sd.u):
                nodes = list(sd.nodes)
                nodes[g] = row[:s] + (bad,) + row[s + 1:]
                ascends = s == (0 if bad < 0 else sd.l - 1)
                message = f"row {g} holds an id out of range" if ascends else f"node {g} does not list"
                with pytest.raises(InvalidDesign, match=f"^{message}"):
                    replace(sd, nodes=tuple(nodes))


def test_out_of_range_ids_raise_on_either_side_of_the_bit_table_cutoff():
    # at most _BIT_TABLE_MAX elements, the walk's padded table refuses; above, the largest-id
    # scan does: either way with the same message, and no bitmask built from the bad id
    for v in (3, 2047, 2048, 2049):
        for bad in (v, 2 * v - 1, 2 * v, -1, -v, -v - 1, -2 * v, -2 * v - 1, 2**63, -2**63,
                    None, 1.0, "1"):
            tracemalloc.start()
            try:
                with pytest.raises(InvalidDesign, match=rf"not an id in \[0, {v}\)"):
                    check_steiner_exact(BlockCollection(v, ((0, 1, bad),)))
                assert tracemalloc.get_traced_memory()[1] < 2**20, (v, bad)
            finally:
                tracemalloc.stop()
    for v in (2048, 2049):
        assert check_steiner_exact(BlockCollection(v, ((0, 1),))) == (False, (0, 2, 0))
    with pytest.raises(InvalidDesign, match=r"not an id in \[0, -1\)"):
        check_steiner_exact(BlockCollection(-1, ((0, 1),)))
    for v in (3.0, True):
        with pytest.raises(InvalidParameter, match="num_elements must be an integer"):
            check_steiner_exact(BlockCollection(v, ()))


class _NoLargestIdScan:
    @staticmethod
    def from_iterable(_):
        raise AssertionError("the largest-id scan ran")


def test_steiner_scans_for_the_largest_id_only_above_the_cutoff(monkeypatch):
    monkeypatch.setattr(verify_mod, "chain", _NoLargestIdScan)
    assert check_steiner_exact(BlockCollection(7, tuple(map(tuple, GOLDEN_S237)))) == (True, None)
    assert check_steiner_exact(BlockCollection(2048, ((0, 1),))) == (False, (0, 2, 0))
    # more elements, or a negative num_elements, still take the scan
    for v in (2049, -1):
        with pytest.raises(AssertionError, match="largest-id scan"):
            check_steiner_exact(BlockCollection(v, ((0, 1),)))
    # a num_elements that is no int is refused before the scan
    for v in (3.0, True):
        with pytest.raises(InvalidParameter, match="num_elements must be an integer"):
            check_steiner_exact(BlockCollection(v, ((0, 1),)))


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
        blocks = tuple(tuple(b) for b in mutate(rng, d.x_neighbors))
        once, pairs = assert_cover_walk_decides(blocks, d.v)
        steiner = once and pairs == d.v * (d.v - 1) // 2
        assert steiner == ref_steiner(BlockCollection(d.v, blocks))[0], blocks
        verdicts.add((once, steiner))
    assert verdicts == {(True, True), (True, False), (False, False)}


REPEATED_ELEMENT_CASES = [
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


def test_cover_walk_verdict_on_repeated_elements():
    for blocks, v in REPEATED_ELEMENT_CASES:
        assert not assert_cover_walk_decides(tuple(map(tuple, blocks)), v)[0]
    # an element that no block holds (a node left empty by a fill) is
    # not a defect
    assert assert_cover_walk_decides(((0, 1),), 3) == (True, 1)
    # two copies alone repeat nothing: the witness walk clears them
    assert girth([[0, 1], [2, 2]], 3) == ref_girth([[0, 1], [2, 2]], 3) == (True, None)


def _cover_walk_outcomes():
    """What the cover walk decides and what the checks built on it
    report: on the witness-parity mutant corpus, on blocks that repeat
    an element, and on blocks holding an id out of range."""
    out = []
    cases = []
    for q, n in PARITY_DESIGNS:
        d = build_scaled_cage(q, n)
        rng = random.Random(1000 * q + n)
        cases += [(tuple(tuple(b) for b in mutate(rng, d.x_neighbors)), d.v)
                  for _ in range(300)]
    cases += [(tuple(map(tuple, blocks)), v) for blocks, v in REPEATED_ELEMENT_CASES]
    for blocks, v in cases:
        out.append((_cover_walk(blocks, v), girth(blocks, v),
                    check_steiner_exact(BlockCollection(v, blocks))))
    for bad in (-1, -2**63, 2**63, None):
        for blocks in (((0, bad), (1, 2)), ((0, 1, bad),)):
            with pytest.raises(InvalidDesign) as exc:
                check_steiner_exact(BlockCollection(3, blocks))
            out.append((bad, str(exc.value)))
    return out


def test_cover_walk_bit_table_and_shift_agree(monkeypatch):
    # every set of at most _BIT_TABLE_MAX elements takes the table; -1 sends all to the shift
    table = _cover_walk_outcomes()
    monkeypatch.setattr(verify_mod, "_BIT_TABLE_MAX", -1)
    shift = _cover_walk_outcomes()
    assert table == shift
    assert len(shift) == 3 * 300 + len(REPEATED_ELEMENT_CASES) + 8
    assert {once for (once, _), _, _ in shift[:-8]} == {True, False}
