"""Storage semantics: transpose, growth, partial fill, repair, files."""

import hashlib
import json
import time
from dataclasses import replace

import pytest

import frcage.cage
import frcage.design
from frcage import (
    FieldMeta,
    InvalidDesign,
    NoSurvivingReplica,
    NodeOutOfRange,
    NotCanonical,
    OutOfRange,
    ResourceLimit,
    StorageDesign,
    build_scaled_cage,
    check_partial_invariants,
    chunk_locations,
    chunks_per_iteration,
    expand,
    field_new,
    from_json,
    partial_fill,
    repair_plan,
    to_csv,
    to_json,
    verify_design,
)
from conftest import GOLDEN_S237, GOLDEN_S2315_T, GOLDEN_S239
import helpers


def test_table_q2_n2_golden():
    sd = build_scaled_cage(2, 2)
    assert [list(r) for r in sd.nodes] == GOLDEN_S2315_T
    assert (sd.v, sd.u, sd.k, sd.l) == (15, 35, 3, 7)


def test_table_q2_n1_golden():
    sd = build_scaled_cage(2, 1)
    assert [list(r) for r in sd.nodes] == GOLDEN_S237
    assert (sd.v, sd.u, sd.k) == (7, 7, 3)


def test_storage_design_keeps_its_field():
    sd = build_scaled_cage(4, 1)
    assert sd.field_meta == FieldMeta.of(field_new(4))


def test_field_is_built_once_per_q(monkeypatch):
    built = []

    def counting(q):
        built.append(q)
        return field_new(q)

    frcage.cage._field.cache_clear()
    monkeypatch.setattr(frcage.cage, "field_new", counting)
    sd = build_scaled_cage(3, 2)
    partial_fill(sd, 20)
    from_json(to_json(expand(build_scaled_cage(3, 1))))
    assert built == [3]


def test_in_memory_header_is_checked():
    sd = build_scaled_cage(2, 1)
    t0 = time.perf_counter()
    with pytest.raises(InvalidDesign, match="cannot describe"):
        partial_fill(replace(sd, q=3, n=10**7), 3)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(InvalidDesign, match="expected 7 nodes"):
        StorageDesign(q=2, n=1, k=3, l=3, v=7, u=7, nodes=sd.nodes[1:], field_meta=sd.field_meta)


def test_slot_count_identity():
    for q, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        sd = build_scaled_cage(q, n)
        assert sum(len(r) for r in sd.nodes) == sd.k * sd.u
        assert sd.l * sd.v == sd.k * sd.u


# ---------------------------------------------------------------------------
# chunk-location index
# ---------------------------------------------------------------------------

def test_chunk_locations_computed_once():
    sd = build_scaled_cage(2, 2)
    assert chunk_locations(sd) is chunk_locations(sd)
    assert sd.x_neighbors is chunk_locations(sd)


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2)])
def test_chunk_locations_match_rows(q, n):
    full = build_scaled_cage(q, n)
    u_prev = chunks_per_iteration(q, n - 1)
    for sd in (full, partial_fill(full, u_prev + 1), partial_fill(full, full.u - 3)):
        rows = [[c for c in row if c is not None] for row in sd.nodes]
        assert chunk_locations(sd) == helpers.holders_from_rows(rows, sd.u)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_expand_q2_keeps_prefixes():
    old = build_scaled_cage(2, 1)
    new = expand(old)
    assert (new.v, new.u, new.k, new.l) == (15, 35, 3, 7)
    for g, row in enumerate(old.nodes):
        assert new.nodes[g][: old.l] == row
    assert new == build_scaled_cage(2, 2)


def test_expand_restriction_equals_old_exactly():
    for q in (2, 3):
        old = build_scaled_cage(q, 1)
        new = expand(old)
        restricted = tuple(new.nodes[g][: old.l] for g in range(old.v))
        assert restricted == old.nodes
        assert to_json(old) == to_json(build_scaled_cage(q, 1))


def test_expand_q3_result_verifies():
    new = expand(build_scaled_cage(3, 1))
    assert (new.v, new.u) == (40, 130)
    assert verify_design(new).all_ok


def test_expand_rejects_tampered_design():
    sd = build_scaled_cage(2, 1)
    rows = list(sd.nodes)
    rows[1], rows[2] = rows[2], rows[1]
    tampered = StorageDesign(
        q=sd.q, n=sd.n, k=sd.k, l=sd.l, v=sd.v, u=sd.u,
        nodes=tuple(rows), field_meta=sd.field_meta,
    )
    with pytest.raises(NotCanonical):
        expand(tampered)


def _swap_first_rows(nodes):
    return (nodes[1], nodes[0]) + nodes[2:]


def _set_slot(sd, i, value):
    """sd with slot i of node 0 rewritten as `value`."""
    row = sd.nodes[0]
    return replace(sd, nodes=(row[:i] + (value,) + row[i + 1:],) + sd.nodes[1:])


# Creating a table whose header does not match its (q, n) or its rows
# raises InvalidDesign, before expand is called.  A slot that only
# compares equal to chunk 1, or an id past the last chunk, is named as
# a malformed row.
@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda sd: replace(sd, nodes=_swap_first_rows(sd.nodes)), NotCanonical),
        (lambda sd: replace(sd, field_meta=replace(sd.field_meta, primitive=sd.q - 2)),
         InvalidDesign),
        (lambda sd: replace(sd, field_meta=FieldMeta.of(field_new(sd.q + 2))), InvalidDesign),
        (lambda sd: replace(sd, l=sd.l + 1), InvalidDesign),
        (lambda sd: replace(sd, nodes=sd.nodes[:-1]), InvalidDesign),
        (lambda sd: replace(sd, nodes=sd.nodes[:-1], v=sd.v - 1), InvalidDesign),
        (lambda sd: replace(sd, u=sd.u + 1), InvalidDesign),
        (lambda sd: _set_slot(sd, 1, True), InvalidDesign),
        (lambda sd: _set_slot(sd, 1, 1.0), InvalidDesign),
        (lambda sd: _set_slot(sd, sd.l - 1, sd.u), InvalidDesign),
    ],
    ids=["swapped-row", "primitive", "field", "l", "truncated", "truncated-header", "u",
         "true-slot", "float-slot", "id-u"],
)
def test_expand_rejects_non_prefix(edit, error):
    for q, n in ((2, 1), (3, 2)):
        with pytest.raises(error):
            expand(edit(build_scaled_cage(q, n)))


def test_over_cap_expand_builds_nothing(monkeypatch):
    big = build_scaled_cage(2, 8)
    small = build_scaled_cage(2, 2)
    swapped = replace(big, nodes=_swap_first_rows(big.nodes))

    def boom(q):
        raise AssertionError(f"GF({q}) built for a refused expand")

    frcage.cage._field.cache_clear()
    monkeypatch.setattr(frcage.cage, "field_new", boom)
    with pytest.raises(ResourceLimit):
        expand(big)
    # a table that is both non-canonical and over the cap is refused on the cap
    with pytest.raises(ResourceLimit):
        expand(swapped)
    with pytest.raises(ResourceLimit):
        expand(small, max_edges=400)  # (2, 3) needs 465 edges


def test_expand_rejects_foreign_provenance():
    sd = build_scaled_cage(2, 1)
    foreign = StorageDesign(
        q=sd.q, n=sd.n, k=sd.k, l=sd.l, v=sd.v, u=sd.u,
        nodes=sd.nodes, field_meta=sd.field_meta,
        construction="hand-built",
    )
    with pytest.raises(NotCanonical):
        expand(foreign)


def test_partial_fill_rejects_foreign_provenance():
    # (q, n) of a hand-built table are not checked, so fill
    # must not compute its window from them
    sd = build_scaled_cage(2, 1)
    for foreign in (
        replace(sd, construction="hand-built"),
        replace(sd, construction="hand-built", q=3, n=10**7),
        replace(sd, version="0"),
    ):
        with pytest.raises(NotCanonical):
            partial_fill(foreign, 3)


def test_expand_rejects_partial():
    sd = build_scaled_cage(2, 2)
    with pytest.raises(NotCanonical):
        expand(partial_fill(sd, 20))


def test_expansion_chain_q2():
    sizes = {1: (7, 7), 2: (15, 35), 3: (31, 155)}
    sd = build_scaled_cage(2, 1)
    for n in (2, 3):
        sd = expand(sd)
        assert (sd.v, sd.u) == sizes[n]


# ---------------------------------------------------------------------------
# partial fill
# ---------------------------------------------------------------------------

def test_partial_fill_blanks_high_ids():
    full = build_scaled_cage(2, 2)
    part = partial_fill(full, 30)
    present = {c for row in part.nodes for c in row if c is not None}
    assert present == set(range(30))
    locs = chunk_locations(part)
    for c in range(30):
        assert len(locs[c]) == 3
    for c in range(30, 35):
        assert locs[c] == ()
    ok, detail = check_partial_invariants(part)
    assert ok, detail
    # slot positions survive blanking
    for g, row in enumerate(part.nodes):
        for s, c in enumerate(row):
            if c is not None:
                assert full.nodes[g][s] == c


def test_partial_fill_monotone():
    full = build_scaled_cage(2, 2)
    a, b = partial_fill(full, 10), partial_fill(full, 20)
    for ra, rb in zip(a.nodes, b.nodes):
        for ca, cb in zip(ra, rb):
            if ca is not None:
                assert cb == ca


def test_partial_fill_boundaries():
    full = build_scaled_cage(2, 2)
    assert partial_fill(full, 35) == full
    with pytest.raises(OutOfRange):
        partial_fill(full, 7)
    with pytest.raises(OutOfRange):
        partial_fill(full, 36)
    # a float or bool is no chunk count, even where it equals one
    for u_tilde in (30.5, 30.0, True):
        with pytest.raises(OutOfRange, match="integer"):
            partial_fill(full, u_tilde)


@pytest.mark.parametrize("bad", [-1, 35])
def test_partial_fill_refuses_ids_out_of_range(bad):
    # -1 < 30 would be kept and 35 blanked; either way the rows are not
    # a (2,2) table, and the result could not be reloaded
    full = build_scaled_cage(2, 2)
    rows = [list(row) for row in full.nodes]
    rows[3][0] = bad
    with pytest.raises(InvalidDesign, match="out of range"):
        partial_fill(replace(full, nodes=tuple(map(tuple, rows))), 30)


def test_partial_fill_steiner_on_present_chunks():
    full = build_scaled_cage(2, 2)
    for u_tilde in (8, 12, 21, 34):
        part = partial_fill(full, u_tilde)
        present_blocks = [
            [c for c in row if c is not None] for row in part.nodes
        ]
        counts = helpers.pair_cover_counts(present_blocks)
        assert all(v <= 1 for v in counts.values())


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def test_repair_plan_golden_example():
    sd = build_scaled_cage(2, 1)
    plan = repair_plan(sd, 0)
    assert plan.assignments == ((0, 1), (1, 3), (2, 5))


def test_repair_plan_s239():
    sd = helpers.storage_from_rows(GOLDEN_S239, num_chunks=9, k=4)
    plan = repair_plan(sd, 10)  # node {3, 4, 5}
    helpers_used = [h for _, h in plan.assignments]
    assert len(plan.assignments) == 3
    assert len(set(helpers_used)) == 3
    locs = chunk_locations(sd)
    for c, h in plan.assignments:
        assert h in locs[c] and h != 10


def test_repair_plan_all_nodes_distinct_helpers():
    for q, n in [(2, 2), (3, 1), (3, 2)]:
        sd = build_scaled_cage(q, n)
        for g in range(sd.v):
            plan = repair_plan(sd, g)
            hs = [h for _, h in plan.assignments]
            assert len(hs) == sd.l
            assert len(set(hs)) == len(hs)
            assert g not in hs


def test_repair_plan_round_robin():
    sd = build_scaled_cage(2, 2)
    plan = repair_plan(sd, 0)
    hs = [h for _, h in plan.assignments]
    assert len(set(hs)) == len(hs)
    locs = chunk_locations(sd)
    for c, h in plan.assignments:
        assert h in locs[c] and h != 0
    assert repair_plan(sd, 0) == plan  # deterministic
    # the helper is the failed node's successor on the chunk's holder ring
    for part in (sd, partial_fill(sd, 20)):
        holders = helpers.holders_from_rows(part.nodes, part.u)
        for g in range(part.v):
            for c, h in repair_plan(part, g).assignments:
                assert h == helpers.ring_successor(holders[c], g)


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (4, 2), (8, 1)])
def test_round_robin_spreads_repair_load(q, n):
    sd = build_scaled_cage(q, n)
    # over all single-node failures every node serves exactly l requests
    loads = helpers.helper_loads(sd)
    assert max(loads) == min(loads) == sd.l
    u_prev = chunks_per_iteration(q, n - 1)
    for u_tilde in (u_prev + 1, (u_prev + sd.u) // 2):
        part = partial_fill(sd, u_tilde)
        loads = helpers.helper_loads(part)
        assert max(loads) <= sd.l
        assert loads == [sum(c is not None for c in row) for row in part.nodes]


def test_repair_plan_on_partial_design():
    part = partial_fill(build_scaled_cage(2, 2), 10)
    plan = repair_plan(part, 1)
    lost = [c for c in part.nodes[1] if c is not None]
    assert [c for c, _ in plan.assignments] == lost


def test_repair_plan_errors():
    sd = build_scaled_cage(2, 1)
    with pytest.raises(NodeOutOfRange):
        repair_plan(sd, 7)
    with pytest.raises(NodeOutOfRange):
        repair_plan(sd, -1)
    # True == 1 and 1.0 == 1, but neither is a node id
    for failed in (True, False, 1.0, 1.5):
        with pytest.raises(NodeOutOfRange, match="integer"):
            repair_plan(sd, failed)
    with pytest.raises(TypeError):  # the ring successor is the only rule
        repair_plan(sd, 0, policy="lowest")
    toy = helpers.storage_from_rows([[0]], num_chunks=1, k=1)
    with pytest.raises(NoSurvivingReplica):
        repair_plan(toy, 0)
    # nodes 0 and 1 share two chunks, so node 1 would help twice
    shared = helpers.storage_from_rows([[0, 1], [0, 1], [2, 3], [2, 3]], num_chunks=4, k=2)
    with pytest.raises(InvalidDesign):
        repair_plan(shared, 0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip():
    for q, n in [(2, 1), (2, 2), (3, 2)]:
        sd = build_scaled_cage(q, n)
        text = to_json(sd)
        assert from_json(text) == sd
        assert to_json(from_json(text)) == text


def test_from_json_takes_utf8_bytes():
    for sd in (build_scaled_cage(2, 2), partial_fill(build_scaled_cage(2, 2), 12)):
        assert from_json(to_json(sd).encode()) == sd


def test_json_roundtrip_partial():
    part = partial_fill(build_scaled_cage(2, 2), 12)
    text = to_json(part)
    assert "null" in text
    assert from_json(text) == part


def test_json_header_fields():
    sd = build_scaled_cage(2, 2)
    payload = json.loads(to_json(sd))
    h = payload["header"]
    assert h["q"] == 2 and h["n"] == 2 and h["k"] == 3 and h["l"] == 7
    assert h["field"] == {"p": 2, "m": 1, "modulus": [0, 1], "primitive": 1}
    assert h["version"] == "1"


# sha256 of the construct JSON, pinned on the output of the original
# polynomial-arithmetic GF(q); a field or cage change that moves any
# byte of a design fails here.
CONSTRUCT_SHA256 = {
    # the bases of the benchmark's narrow and wide expand, as perfbench/run.py pins them
    (2, 2): "2d34cf938a216c14b4b12acaa15371b7755194bd623437c508ffe578d71c8a8b",
    (2, 3): "af2d2cba281fee42db847bbe33ae3f946f1f778523ceafc92310bab3e65e81a6",
    (2, 7): "5c32ec6a277609d3736cf2dbd3bf38a7a35cdc63b9d8ff83add31bdfdca9c90e",
    (13, 1): "d02c92d647320d69151f3f533dfe17d5ca156377b38274b617d311cac529d03d",
    (2, 8): "5f7566883d3f1c3d731c90b3f4c465a3cde93ae9c5c74c0f0234b5d652889dd6",
    (3, 5): "63df14bc8789b08c1f3e359c0690b6c5b035aca0ab00ea882bd34a2a32a13f00",
    (4, 4): "1f5a85e51300d4553edde4cffc9c24707d1988afba68dcf83937fbab6a9a225b",
    (64, 1): "d71a068e6415dc3edabafdc8a7387ef6588abb4e55a4b7876cb82fd96aad9208",
    (13, 2): "c7de78d3c5e7152162e934f9dcd4db50825584d8f34d9fd1342b06180850b279",
    (9, 2): "cbd672e0726c34d02dc4e9419b7747b863f4297198df34eba0fe26071f36afeb",
    (81, 1): "c44993e19199b5735e16c3bb232c2cbdd439c6a7fb0d2316d4e8207c9373bfb1",
    (7, 3): "284a9dd80c530ce772eeb75ca2d8c387ae95ab305d0c0da63227131a01eff461",
    (16, 2): "4638a25251ec8a6361d3927ac274c98930dd89beb733cccef9779e1fe3b51ea0",
    (5, 2): "3d24aa22c93c110fefe5e490d027e2b0d543c1ddbd33a61fe824a316ba487c02",
    (8, 2): "f0efdcaf8fb36f82e1553dc4368491d78b30995678314ba83ddea851ae864f53",
    (32, 1): "c222aad59603d09596cfafa80707c1d0805f24e5224533fc9015e1ce82a69d15",
    # extension fields of odd characteristic, where e_s - e_i != e_s + e_i
    (25, 1): "04f0794a2b137a5321d3299b51bbc75733035a1bf9d61c0c503458ececca356b",
    (27, 1): "b4ee0d54c3925687ffe3711d9d4fabe57591b7a92fc22087979b09dc37f18a34",
    (49, 1): "d1a3bac1ce9889bf71460e96aeb7d745612eda06fbcad059d5cc209b01189f88",
}


@pytest.mark.parametrize("q, n", sorted(CONSTRUCT_SHA256))
def test_construct_json_is_pinned(q, n):
    text = to_json(build_scaled_cage(q, n, max_edges=10**7))  # (7,3), (16,2) pass the 10**6 default
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCT_SHA256[(q, n)]


def test_from_json_rejects_garbage():
    with pytest.raises(InvalidDesign):
        from_json("not json")
    with pytest.raises(InvalidDesign):
        from_json("{}")
    # JSON text is UTF-8 (RFC 8259); a lone surrogate is not UTF-8 either
    text = to_json(build_scaled_cage(2, 2)).encode()
    for bad in (text[:99] + b"\xff" + text[99:], text.replace(b'"1"', b'"\xed\xa0\x80"')):
        with pytest.raises(InvalidDesign, match="cannot parse JSON"):
            from_json(bad)
    # nesting deeper than json.loads recurses
    for deep in ("[" * 1000 + "]" * 1000, '{"a":' * 1000 + "0" + "}" * 1000):
        for form in (deep, deep.encode()):
            with pytest.raises(InvalidDesign, match="cannot parse JSON"):
                from_json(form)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p["nodes"][0].__setitem__(1, True),
        lambda p: p["nodes"][0].__setitem__(1, 1.0),
        lambda p: p["nodes"][0].__setitem__(1, 1.9),
        lambda p: p["nodes"][0].__setitem__(1, "1"),
        lambda p: p["nodes"].__setitem__(0, 5),
        lambda p: p["nodes"].__setitem__(0, "abc"),
        lambda p: p["header"].__setitem__("q", 2.0),
        lambda p: p["header"].__setitem__("num_chunks", 7.0),
        lambda p: p["header"]["field"].__setitem__("p", 2.9),
        lambda p: p["header"]["field"].__setitem__("modulus", [0, "1"]),
    ],
    ids=["slot-true", "slot-1.0", "slot-1.9", "slot-str", "row-int", "row-str",
         "q-float", "u-float", "p-float", "modulus-str"],
)
def test_from_json_rejects_non_integers(edit):
    payload = json.loads(to_json(build_scaled_cage(2, 1)))
    edit(payload)
    with pytest.raises(InvalidDesign):
        from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "row, error",
    [([0, 1, 7], "out of range"), ([-1, 1, 2], "out of range"), ([0, 1, 1], "repeats"),
     ([0, 2, 1], "node 0 does not list its chunk ids in ascending order"),
     # a row that both repeats and descends is named for the repeat
     ([2, 1, 1], "repeats"), ([None, 1, 1], "repeats"), ([1, None, 0], "ascending order")],
)
def test_from_json_rejects_bad_slots(row, error):
    payload = json.loads(to_json(build_scaled_cage(2, 1)))
    payload["nodes"][0] = row
    with pytest.raises(InvalidDesign, match=error):
        from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("q", 3, "gives"),
        ("q", 1, "cannot describe"),
        ("n", 1, "gives"),
        ("n", 0, "cannot describe"),
        ("k", 4, "gives"),
        ("l", 8, "gives"),
        ("num_nodes", 16, "expected 16 nodes"),
        ("num_chunks", 36, "gives"),
        ("p", 3, "field metadata"),
        ("m", 2, "field metadata"),
        ("modulus", [1, 1], "field metadata"),
        ("primitive", 0, "field metadata"),
    ],
)
def test_from_json_checks_header_against_q_and_n(key, value, error):
    payload = json.loads(to_json(build_scaled_cage(2, 2)))
    header = payload["header"]
    (header if key in header else header["field"])[key] = value
    with pytest.raises(InvalidDesign, match=error):
        from_json(json.dumps(payload))


def test_from_json_header_q_must_be_a_prime_power():
    # q = 6, n = 1 asks for k = l = 7 over 43 nodes and 43 chunks
    payload = json.loads(to_json(build_scaled_cage(2, 1)))
    payload["header"].update(q=6, k=7, l=7, num_nodes=43, num_chunks=43)
    payload["nodes"] = [list(range(7))] * 43
    with pytest.raises(InvalidDesign, match="not a prime power"):
        from_json(json.dumps(payload))


def test_hand_built_header_is_not_checked():
    # 12 nodes of 3 slots match no (q, n); only the canonical header is checked
    sd = helpers.storage_from_rows(GOLDEN_S239, num_chunks=9, k=4)
    assert from_json(to_json(sd)) == sd
    payload = json.loads(to_json(sd))
    payload["header"]["construction"] = frcage.cage.CONSTRUCTION
    with pytest.raises(InvalidDesign, match="gives"):
        from_json(json.dumps(payload))


@pytest.mark.parametrize("num_chunks", [-1, 22, 10**9])
def test_hand_built_num_chunks_is_bounded_by_the_slots(num_chunks):
    # 7 nodes of 3 slots hold at most 21 chunks
    sd = replace(build_scaled_cage(2, 1), construction="hand-built")
    assert from_json(to_json(replace(sd, u=21))).u == 21
    payload = json.loads(to_json(sd))
    payload["header"]["num_chunks"] = num_chunks
    t0 = time.perf_counter()
    with pytest.raises(InvalidDesign, match="num_chunks"):
        from_json(json.dumps(payload))
    with pytest.raises(InvalidDesign, match="num_chunks"):
        replace(sd, u=num_chunks)
    assert time.perf_counter() - t0 < 1.0


def test_from_json_rejects_bad_replication():

    sd = build_scaled_cage(2, 1)
    payload = json.loads(to_json(sd))
    payload["nodes"][0][0] = 3  # chunk 3 gains a 4th replica, chunk 0 loses one
    with pytest.raises(InvalidDesign):
        from_json(json.dumps(payload))


def test_csv_layout():
    sd = build_scaled_cage(2, 1)
    lines = to_csv(sd).splitlines()
    assert lines[0] == "0,0,1,2"
    assert lines[1] == "1,0,3,6"
    assert len(lines) == 7
    part = partial_fill(build_scaled_cage(2, 2), 8)
    assert ",," in to_csv(part)  # blanked slots stay visible


def test_chunks_per_iteration():
    assert chunks_per_iteration(2, 0) == 1
    assert chunks_per_iteration(2, 1) == 7
    assert chunks_per_iteration(2, 2) == 35
    assert chunks_per_iteration(3, 2) == 130
