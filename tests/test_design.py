"""Storage semantics: transpose, growth, partial fill, repair, files."""

import hashlib
import json
import re
import time
import tracemalloc
from itertools import chain

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
from helpers import replace


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
    # n = 1.0 or True equals 1, but to_json would write it as 1.0 or true
    for changes in ({"q": 2.0}, {"n": 1.0}, {"n": True}):
        with pytest.raises(InvalidDesign, match="^malformed design payload: expected an integer"):
            replace(sd, **changes)


def _mistyped(value, kind: str):
    """A value of another type than `value`'s: a float, a bool, the
    other of int and str (of tuple and list, or FieldMeta and a plain
    tuple, for a container), or None."""
    if kind in ("bool", "none"):
        return True if kind == "bool" else None
    if type(value) is int:
        return float(value) if kind == "float" else str(value)
    if type(value) is str:
        return 1.0 if kind == "float" else 1
    if kind == "float":
        return 1.0
    return list(value) if type(value) is tuple else tuple(value)


@pytest.mark.parametrize("kind", ["float", "bool", "swap", "none"])
@pytest.mark.parametrize("place", helpers.TYPED_PLACES)
def test_every_place_is_typed_where_the_table_is_made(place, kind):
    # 2.0 == 2 and True == 1, but json.dumps writes 2.0 and true, which from_json
    # refuses; so a table holding either is refused when made, not when written
    canonical = build_scaled_cage(2, 1)
    hand_built = helpers.storage_from_rows([[0, 1], [0, 2], [1, 2]], num_chunks=3, k=2)
    for base in (canonical, hand_built):
        value = helpers.value_at(base, place)
        bad = _mistyped(value, kind)
        fields = helpers.with_value(base, place, bad)
        for make in (lambda: StorageDesign(**fields), lambda: base._replace(**fields)):
            with pytest.raises(InvalidDesign) as refused:
                make()
            if type(value) in (int, str):
                name = "an integer" if type(value) is int else "a string"
                assert str(refused.value) == f"malformed design payload: expected {name}, got {bad!r}"
            else:
                assert str(refused.value).startswith("malformed design payload: ")


def test_a_made_table_is_refused_as_its_file_would_be():
    # json.dumps writes each of these headers as it is, and from_json refuses the
    # file; making the table gives the same refusal, in the same words
    sd = build_scaled_cage(2, 1)
    hand = replace(sd, construction="hand-built")
    for base, place, bad in [(sd, "k", 3.0), (sd, "l", 3.0), (sd, "u", 7.0), (sd, "v", 7.0),
                             (sd, "version", 1), (sd, "construction", 1), (hand, "u", 7.0),
                             (sd, "p", 2.0), (hand, "primitive", True)]:
        with pytest.raises(InvalidDesign) as made:
            StorageDesign(**helpers.with_value(base, place, bad))
        payload = json.loads(to_json(base))
        header = payload["header"]
        key = {"u": "num_chunks", "v": "num_nodes"}.get(place, place)
        (header["field"] if key in FieldMeta._fields else header)[key] = bad
        with pytest.raises(InvalidDesign) as loaded:
            from_json(json.dumps(payload))
        assert str(made.value) == str(loaded.value), place
    # containers a load always builds: made by hand, each is refused, not a bare error later
    for changes in ({"field_meta": None}, {"nodes": 5}, {"nodes": None}, {"nodes": tuple(range(7))},
                    {"nodes": [list(r) for r in sd.nodes]}):
        with pytest.raises(InvalidDesign, match="^malformed design payload: "):
            replace(hand, **changes)
    # every row defect, made directly and by _replace, on a canonical and a hand-built table
    triangle = helpers.storage_from_rows([[0, 1], [0, 2], [1, 2]], num_chunks=3, k=2)
    for base in (sd, hand, triangle, build_scaled_cage(8, 1)):  # (8, 1): to_json's k >= 9 side
        for edit, message in ROW_DEFECTS:
            rows = [list(row) for row in base.nodes]
            edit(rows, base.u)
            fields = {**base._asdict(), "nodes": tuple(map(tuple, rows))}
            payload = json.loads(to_json(base))
            payload["nodes"] = rows
            with pytest.raises(InvalidDesign) as loaded:
                from_json(json.dumps(payload))
            assert re.match(message.format(k=base.k, less=base.k - 1, more=base.k + 1),
                            str(loaded.value)), (base, rows)
            for make in (lambda: StorageDesign(**fields), lambda: base._replace(nodes=fields["nodes"])):
                with pytest.raises(InvalidDesign) as made:
                    make()
                assert str(made.value) == str(loaded.value), (base, rows)


def _move_replica(rows, up: bool) -> None:
    """Move one replica of a row's chunk c to an id e the row lacks, and
    sort the row: e > c where up (c is left with k-1 replicas), else
    e < c (e gets k+1); either way the smaller of the two is named."""
    for row in rows:
        for c in row:
            e = next((e for e in sorted({*chain(*rows)} - {*row}) if (e > c) == up), None)
            if e is not None:
                row[row.index(c)] = e
                row.sort()
                return


def _set(g: int, i: int, value):
    """An edit that writes value (or value(rows, u)) to slot i of row g."""
    return lambda rows, u: rows[g].__setitem__(i, value(rows, u) if callable(value) else value)


# (edit of the rows, the refusal it gets, k filled in), one per row defect; row 1
# of each table holds two ids or more
ROW_DEFECTS = [
    (lambda rows, u: rows[1].pop(), r"^node 1 has \d+ slots, expected \d+$"),
    (lambda rows, u: rows[1].append(u - 1), r"^node 1 has \d+ slots, expected \d+$"),
    *[(_set(1, 1, bad), "^node 1 has a slot that is neither an integer nor null$")
      for bad in (True, 1.0, "1", [1])],
    (_set(1, 1, lambda rows, u: rows[1][0]), "^node 1 repeats a chunk id$"),
    (lambda rows, u: rows[1].reverse(), "^node 1 does not list its chunk ids in ascending order$"),
    (_set(1, 0, -1), r"^row 1 holds an id out of range \[0, \d+\)$"),
    (_set(1, -1, lambda rows, u: u), r"^row 1 holds an id out of range \[0, \d+\)$"),
    (lambda rows, u: _move_replica(rows, up=True), r"^chunk \d+ has {less} replicas, expected {k}$"),
    (lambda rows, u: _move_replica(rows, up=False), r"^chunk \d+ has {more} replicas, expected {k}$"),
]


def test_records_are_tuples():
    sd = build_scaled_cage(2, 1)
    assert tuple(sd) == (2, 1, 3, 3, 7, 7, sd.nodes, sd.field_meta, "1", sd.construction)
    assert sd.field_meta == (2, 1, (0, 1), 1) and sd.field_meta._asdict()["primitive"] == 1
    assert repair_plan(sd, 0) == (0, ((0, 1), (1, 3), (2, 5)))
    # _replace builds a new table: nothing computed on the old one carries over
    sd.x_neighbors
    assert "x_neighbors" not in vars(replace(sd, construction="hand-built"))
    for name in ("q", "x_neighbors", "is_complete", "other"):
        with pytest.raises(AttributeError):
            setattr(sd, name, ())


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
    # a (2,2) table, and the result could not be reloaded.  The row still
    # ascends, and the table is refused where it is made.
    full = build_scaled_cage(2, 2)
    rows = [list(row) for row in full.nodes]
    rows[3][0 if bad < 0 else -1] = bad
    with pytest.raises(InvalidDesign, match=r"^row 3 holds an id out of range \[0, 35\)$"):
        partial_fill(replace(full, nodes=tuple(map(tuple, rows))), 30)


@pytest.mark.parametrize("bad", [-1, 35])
def test_unchecked_tables_are_range_checked_before_fill_and_repair(bad):
    # creation range-checks a table's ids and names the row, so neither
    # function meets such a table; a built table is not checked again, and
    # neither function builds its index
    full = build_scaled_cage(2, 2)
    rows = [list(row) for row in full.nodes]
    rows[3][0 if bad < 0 else -1] = bad
    for base in (full, replace(full, construction="hand-built")):
        with pytest.raises(InvalidDesign, match=r"^row 3 holds an id out of range \[0, 35\)$"):
            replace(base, nodes=tuple(map(tuple, rows)))
    partial_fill(full, 30)
    repair_plan(full, 3)
    assert "x_neighbors" not in vars(full)


def test_a_refused_expand_names_a_row_defect_as_a_load_does():
    # the CLI's expand parses a file with the header checks alone, so a table
    # whose rows are not the canonical prefix is named by creation's row
    # checks, in the words from_json gives the same file; well-formed rows
    # that differ from the prefix are NotCanonical
    payload = json.loads(to_json(build_scaled_cage(2, 2)))
    for edit, _ in ROW_DEFECTS:
        rows = [list(row) for row in GOLDEN_S2315_T]
        edit(rows, 35)
        text = json.dumps({**payload, "nodes": rows})
        with pytest.raises(InvalidDesign) as loaded:
            from_json(text)
        with pytest.raises(InvalidDesign) as refused:
            expand(frcage.design._parse(text))
        assert str(refused.value) == str(loaded.value), rows
    text = json.dumps({**payload, "nodes": _swap_first_rows(tuple(payload["nodes"]))})
    with pytest.raises(NotCanonical):
        expand(frcage.design._parse(text))
    assert from_json(text).nodes[0] == tuple(GOLDEN_S2315_T[1])


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2)])
def test_partial_fill_output_passes_the_row_checks(q, n):
    # prefixes of checked rows pass every row check, so partial_fill makes its
    # output with none; they still pass, and its index and invariants are
    # those of its reload
    full = build_scaled_cage(q, n)
    for u_tilde in (chunks_per_iteration(q, n - 1) + 1, full.u - 1, full.u):
        part = partial_fill(full, u_tilde)
        assert StorageDesign(*part) == part
        reloaded = from_json(to_json(part))
        assert part.x_neighbors == reloaded.x_neighbors
        assert check_partial_invariants(part) == check_partial_invariants(reloaded) == (True, {})


def _dumps_reference(sd):
    """The canonical text through json.dumps alone."""
    header = {"version": sd.version, "construction": sd.construction, "q": sd.q, "n": sd.n,
              "k": sd.k, "l": sd.l, "num_nodes": sd.v, "num_chunks": sd.u,
              "field": sd.field_meta._asdict()}
    payload = {"header": header, "nodes": sd.nodes}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _hand_built(k, u, rows):
    base = replace(build_scaled_cage(2, 1), construction="hand-built")
    return replace(base, k=k, l=len(rows[0]) if rows else 0, v=len(rows), u=u, nodes=rows)


def test_to_json_matches_json_dumps_on_both_sides_of_the_cutoff(monkeypatch):
    # k >= 9 and complete: rows are joined from one string per id; else json.dumps writes them
    tables = [
        _hand_built(9, 0, ((), (), ())),
        _hand_built(11, 11, ((10,),) * 11),  # one id, with two digits
        _hand_built(10, 12, ((1, 10),) * 10),
        _hand_built(9, 12, ((0, 11),) * 9 + ((3, 10),) * 9),
        _hand_built(9, 0, ()),
        _hand_built(9, 12, ((0, None),) * 9),
        _hand_built(8, 12, ((0, 1, 2),) * 8),
    ]
    for q, n in ((2, 3), (8, 1), (9, 1), (13, 1)):
        full = build_scaled_cage(q, n)
        tables += [full, from_json(to_json(full)), partial_fill(full, chunks_per_iteration(q, n - 1) + 1),
                   partial_fill(full, full.u - 1)]
    dumped = []
    real = json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: dumped.append("nodes" in obj) or real(obj, **kw))
    for sd in tables:
        dumped.clear()
        assert to_json(sd) == _dumps_reference(sd), sd
        assert dumped[0] is not (sd.k >= 9 and sd.v > 0 and sd.is_complete), sd
    assert {sd.k >= 9 and sd.v > 0 and sd.is_complete for sd in tables} == {True, False}


@pytest.mark.parametrize("q, n", [(13, 2), (64, 1)])
def test_to_json_peak_stays_near_its_text(q, n):
    # json.dumps peaked at 3.55 times the text on (64,1): it keeps a part per slot
    sd = build_scaled_cage(q, n)
    tracemalloc.start()
    try:
        text = to_json(sd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text), peak / len(text)


def test_partial_fill_steiner_on_present_chunks():
    full = build_scaled_cage(2, 2)
    for u_tilde in (8, 12, 21, 34):
        part = partial_fill(full, u_tilde)
        present_blocks = [
            [c for c in row if c is not None] for row in part.nodes
        ]
        counts = helpers.pair_cover_counts(present_blocks)
        assert all(v <= 1 for v in counts.values())


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (4, 2)])
def test_partial_fill_matches_a_per_slot_oracle(q, n):
    built = build_scaled_cage(q, n)
    loaded = from_json(to_json(built))
    for u_tilde in range(chunks_per_iteration(q, n - 1) + 1, built.u + 1):
        want = tuple(tuple(c if c < u_tilde else None for c in row) for row in built.nodes)
        for full in (built, loaded):
            assert partial_fill(full, u_tilde).nodes == want, u_tilde


@pytest.mark.parametrize("edit", ["swap", "repeat"])
def test_partial_fill_refuses_a_row_out_of_order(edit):
    # ids in range, so only the order of row 3 is wrong; from_json would
    # refuse the filled table, and the input is refused where it is made
    full = build_scaled_cage(2, 2)
    rows = [list(row) for row in full.nodes]
    if edit == "swap":
        rows[3][0], rows[3][1] = rows[3][1], rows[3][0]
        message = "does not list its chunk ids in ascending order"
    else:
        rows[3][1] = rows[3][0]
        message = "repeats a chunk id"
    with pytest.raises(InvalidDesign, match=f"^node 3 {message}$"):
        partial_fill(replace(full, nodes=tuple(map(tuple, rows))), 30)


def test_from_json_records_completeness():
    full = build_scaled_cage(2, 3)
    # a hand-built table whose one blank sits in its last row
    tail = helpers.storage_from_rows([[0, 1], [2, 3], [4, None]], num_chunks=6, k=1)
    texts = [to_json(full), to_json(partial_fill(full, 36)), to_json(partial_fill(full, 100)),
             to_json(tail), to_json(build_scaled_cage(8, 1))]
    for text in texts:
        sd = from_json(text)
        assert "is_complete" in vars(sd)  # recorded by the load, not computed on use
        assert sd.is_complete == (not any(None in row for row in sd.nodes)) == ("null" not in text)


def test_a_filled_load_records_u_holder_lists():
    # ids above the largest present one, and a blank id below it, are held by no node
    full = build_scaled_cage(2, 3)
    sd = from_json(to_json(partial_fill(full, 100)))
    assert vars(sd)["x_neighbors"] == full.x_neighbors[:100] + ((),) * 55
    assert len(sd.x_neighbors) == sd.u == 155
    gap = helpers.storage_from_rows([[0, 1], [2, None], [4, None]], num_chunks=6, k=1)
    assert vars(from_json(to_json(gap)))["x_neighbors"] == ((0,), (0,), (1,), (), (2,), ())


def test_load_names_row_defects_then_range_then_replicas():
    # every row's length, slot type and order come before the first row
    # holding an id out of range, and that before the replica counts
    payload = json.loads(to_json(build_scaled_cage(2, 2)))  # u = 35
    rows = payload["nodes"]
    rows[1][0] = -1  # rows 1 and 4 still ascend
    rows[4][-1] = 70
    rows[9][:2] = rows[9][1::-1]
    rows[12][3] = 1.0
    del rows[13][-1]
    steps = [
        (9, "node 9 does not list its chunk ids in ascending order"),
        (12, "node 12 has a slot that is neither an integer nor null"),
        (13, "node 13 has 6 slots, expected 7"),
        (1, r"row 1 holds an id out of range \[0, 35\)"),
        (4, r"row 4 holds an id out of range \[0, 35\)"),
    ]
    for g, message in steps:
        with pytest.raises(InvalidDesign, match=f"^{message}$"):
            from_json(json.dumps(payload))
        rows[g] = list(GOLDEN_S2315_T[g])
    rows[4][-1] = 26  # chunk 25 loses a replica to chunk 26
    with pytest.raises(InvalidDesign, match="^chunk 25 has 2 replicas, expected 3$"):
        from_json(json.dumps(payload))
    rows[4][-1] = 25
    assert from_json(json.dumps(payload)) == build_scaled_cage(2, 2)


def test_build_and_creation_record_completeness():
    # the build records it by construction; creation's row checks record it
    # too, and pass on the build's rows
    for q, n in [(2, 3), (3, 2), (8, 1)]:
        sd = build_scaled_cage(q, n)
        assert vars(sd)["is_complete"] is True
        fresh = replace(sd, construction="hand-built")
        assert vars(fresh)["is_complete"] is True
        assert vars(replace(partial_fill(sd, sd.u - 1)))["is_complete"] is False


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


@pytest.mark.parametrize("key, value", [
    ("version", 1), ("version", None), ("version", ["1"]),
    ("construction", ["layered-mols-expansion"]), ("construction", 0), ("construction", True),
])
def test_from_json_header_strings_must_be_json_strings(key, value):
    # str() would take 1 for the canonical "1" and name a table "['layered-mols-expansion']"
    built = build_scaled_cage(2, 1)
    for sd in (built, replace(built, construction="hand-built")):
        payload = json.loads(to_json(sd))
        payload["header"][key] = value
        with pytest.raises(InvalidDesign, match="malformed design payload: expected a string"):
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
