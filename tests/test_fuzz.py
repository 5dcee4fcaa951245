"""Seeded mutation fuzz of design files through the CLI, and of
in-memory tables through the library.

Each mutant of a small complete or partially filled design file is run
through `verify`, `repair`, `fill` and `expand`.  Every run must exit
0, 1 or 2 without an exception escaping, an exit 2 must name its
error, and `verify` may call a table sound only when the oracles in
helpers.py, reading the raw rows, agree.

Each byte mutant of the (2,3) file has 1 to 3 raw edits, so it also
reaches the decoder and the JSON parser: it runs through `verify`,
`repair`, `fill`, `expand` and `export` under the same exit rules.

Each library mutant is a table with one header field or one slot
edited by _replace.  Every public function that takes a
table must return or raise a FrcageError, within a second.  A slot set,
unseeded, to 1.0, "1", [1], True or False must raise one from every
such function; the same value in a header field, a field-metadata
member or a row container must be refused when the table is made,
unless it has that place's type.
"""

import hashlib
import json
import random
import time

import pytest

from frcage import (
    FieldMeta,
    InvalidDesign,
    StorageDesign,
    build_scaled_cage,
    check_partial_invariants,
    chunks_per_iteration,
    expand,
    field_new,
    from_json,
    girth_at_least_six,
    partial_fill,
    repair_plan,
    to_csv,
    to_dot,
    to_json,
    verify_design,
)
from frcage import design
from frcage.cage import CONSTRUCTION
from frcage.cli import main
from frcage.errors import FrcageError
import helpers
from helpers import replace

DESIGNS = [(2, 3), (3, 2), (4, 1)]
MUTANTS = 120
# Mutants whose `verify` must reach exit 1, so the checks behind the
# verdict are fuzzed and not only the refusal to load.
MIN_VERDICT_FAILURES = 20
ERROR_NAMES = {cls.__name__ for cls in (FrcageError, *FrcageError.__subclasses__())}


def _slot(rng, rows):
    g = rng.randrange(len(rows))
    return g, rng.randrange(len(rows[g])) if rows[g] else None


def _ascending(row):
    row.sort(key=lambda c: (c is None, c))


def _swap_in_row(rng, p):
    g, i = _slot(rng, p["nodes"])
    if i is not None:
        j = rng.randrange(len(p["nodes"][g]))
        row = p["nodes"][g]
        row[i], row[j] = row[j], row[i]


def _swap_across_rows(rng, p):
    """Swap two slots between rows, then sort both rows (blanks last)
    as a node's row is written; unsorted, the file is refused on load."""
    (g, i), (h, j) = _slot(rng, p["nodes"]), _slot(rng, p["nodes"])
    if i is not None and j is not None:
        p["nodes"][g][i], p["nodes"][h][j] = p["nodes"][h][j], p["nodes"][g][i]
        _ascending(p["nodes"][g])
        _ascending(p["nodes"][h])


def _trade(rng, p):
    """Trade a chunk each of two rows holds and the other does not,
    then sort both: rows still ascend and every replica count holds."""
    g, h = rng.sample(range(len(p["nodes"])), 2)
    a, b = p["nodes"][g], p["nodes"][h]
    mine = [c for c in a if c is not None and c not in b]
    theirs = [c for c in b if c is not None and c not in a]
    if mine and theirs:
        c, d = rng.choice(mine), rng.choice(theirs)
        a[a.index(c)], b[b.index(d)] = d, c
        _ascending(a)
        _ascending(b)


def _relabel(rng, p):
    """Swap two chunk ids everywhere, then sort every row."""
    c, d = rng.sample(range(p["header"]["num_chunks"]), 2)
    swap = {c: d, d: c}
    for row in p["nodes"]:
        row[:] = [swap.get(x, x) for x in row]
        _ascending(row)


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


# Kinds that keep every row ascending, so the file loads unless a
# replica count breaks; half the mutants draw only from these.
ORDERED = [_swap_across_rows, _trade, _relabel]
MUTATIONS = [_swap_in_row, *ORDERED, _blank, _duplicate, _insert, _edit_number]


def _sound(payload, header) -> tuple[bool, bool]:
    """(complete, ok) by the oracles: the header is the unmutated one
    (the row count and length fix (q, n)), each row's chunk ids
    strictly ascend, every present chunk has k holders, the blank
    chunks are the largest ids, no two nodes share two chunks, and a
    complete table covers every node pair."""
    h, rows = payload["header"], payload["nodes"]
    present = [[c for c in row if c is not None] for row in rows]
    complete = all(len(p) == len(row) for p, row in zip(present, rows))
    holders = helpers.holders_from_rows(present, h["num_chunks"])
    counts = helpers.pair_cover_counts(holders)
    v = len(rows)
    blank = [c for c, hs in enumerate(holders) if not hs]
    ok = (
        h == header
        and all(p == sorted(set(p)) for p in present)
        and all(len(hs) in ((h["k"],) if complete else (0, h["k"])) for hs in holders)
        and blank == list(range(len(holders) - len(blank), len(holders)))
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


def _file_mutants(q, n):
    """The seeded corpus of design-file mutants: yields (base, payload,
    node, u_tilde), where base is the complete or the filled (q, n)
    payload that was mutated, and node and u_tilde are the arguments
    for repair and fill."""
    rng = random.Random(7000 + 10 * q + n)
    full = build_scaled_cage(q, n)
    u_tilde = rng.randrange(chunks_per_iteration(q, n - 1) + 1, full.u)
    bases = [json.loads(to_json(sd)) for sd in (full, partial_fill(full, u_tilde))]
    for t in range(MUTANTS):
        base = bases[t % 2]
        payload = json.loads(json.dumps(base))
        kinds = ORDERED if t % 4 >= 2 else MUTATIONS
        for mutate in rng.sample(kinds, rng.choice([1, 1, 2, 3])):
            mutate(rng, payload)
        yield base, payload, str(rng.randrange(len(payload["nodes"]) + 1)), u_tilde


@pytest.mark.parametrize("q, n", DESIGNS)
def test_mutants_fail_named_and_never_pass_falsely(q, n, tmp_path, capsys):
    path, out_path = tmp_path / "m.json", tmp_path / "out.json"
    verdicts, failures = set(), 0
    for base, payload, node, u_tilde in _file_mutants(q, n):
        path.write_text(json.dumps(payload))

        code, out = _run(capsys, "verify", "-i", str(path))
        verdicts.add(code)
        failures += code == 1
        if code != 2:
            report = json.loads(out)
            passed = report["all_ok"] if report["complete"] else report["partial_invariants_ok"]
            assert passed == (code == 0)
            if passed:
                assert _sound(payload, base["header"]) == (report["complete"], True), payload
        _run(capsys, "repair", "-i", str(path), "--node", node)
        _run(capsys, "fill", "-i", str(path), "--chunks", str(u_tilde), "-o", str(out_path))
        _run(capsys, "expand", "-i", str(path), "-o", str(out_path), "--max-edges", "5000")
    assert verdicts == {0, 1, 2}
    assert failures >= MIN_VERDICT_FAILURES


def _edge_ids(base):
    """Copies of base with -1 in a row's first present slot, or u or 2u in
    its last, so the row still ascends: in the first, a middle and the
    last row that holds a chunk."""
    u = base["header"]["num_chunks"]
    rows = [g for g, row in enumerate(base["nodes"]) if any(c is not None for c in row)]
    for g in (rows[0], rows[len(rows) // 2], rows[-1]):
        present = [i for i, c in enumerate(base["nodes"][g]) if c is not None]
        for value, i in ((-1, present[0]), (u, present[-1]), (2 * u, present[-1])):
            payload = json.loads(json.dumps(base))
            payload["nodes"][g][i] = value
            yield payload


def _load_corpus(q, n):
    """The file mutants, then the edge-id copies of the complete and of
    the filled base."""
    corpus = list(_file_mutants(q, n))
    payloads = [payload for _, payload, _, _ in corpus]
    for base in (corpus[0][0], corpus[1][0]):
        payloads += _edge_ids(base)
    return payloads


def _load_and_lazy_index(payload):
    """(outcome, lazy) for one file: outcome is the load's error message,
    or the index the load recorded; lazy is the same for a table made
    from the parsed fields (creation's refusal, or the index it builds
    on first use).  None where the header is refused."""
    try:
        parsed = design._parse(json.dumps(payload))
    except FrcageError:
        return None, None
    try:
        lazy = parsed._replace().x_neighbors
    except FrcageError as exc:
        lazy = str(exc)
    try:
        loaded = design.from_json(json.dumps(payload))
    except FrcageError as exc:
        return str(exc), lazy
    return vars(loaded)["x_neighbors"], lazy


@pytest.mark.parametrize("q, n", DESIGNS)
def test_a_load_records_the_index_a_lazy_build_gives(q, n):
    # the load builds the index from the rows it has just checked, and
    # creation runs the same row checks before the lazy build: the same
    # refusal, or the same holders
    indexed = refused = 0
    for payload in _load_corpus(q, n):
        outcome, lazy = _load_and_lazy_index(payload)
        if outcome is None:
            continue
        assert outcome == lazy, payload
        if isinstance(outcome, str):
            refused += 1
            continue
        present = [[c for c in row if c is not None] for row in payload["nodes"]]
        assert outcome == helpers.holders_from_rows(present, payload["header"]["num_chunks"])
        indexed += 1
    assert indexed >= 40 and refused >= 2 * 3 * 3


# sha256 of from_json's outcome on each file of _load_corpus, one line per file: the
# error's name and message, or "ok".  Pinned so that every load message,
# and which of a file's defects it names first, stays as it is.
LOAD_OUTCOMES_SHA256 = {
    (2, 3): "96364ebb0dab441cb8579df571c07ca574a5fab37423af5ce2560c31accaffe5",
    (3, 2): "75e0bc460ce2c2dcf967a3130be31c87b34604118b0ba2fa88caa6d325320688",
    (4, 1): "26cd4914a6a838f84e4ee8f51713c8b91b461f48c6a909e28b295ef58a9fd67d",
}


@pytest.mark.parametrize("q, n", DESIGNS)
def test_load_messages_and_their_order_are_pinned(q, n):
    lines = []
    for payload in _load_corpus(q, n):
        try:
            from_json(json.dumps(payload))
            lines.append("ok")
        except FrcageError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LOAD_OUTCOMES_SHA256[q, n]


def test_sound_oracle_reads_the_rows():
    payload = json.loads(to_json(build_scaled_cage(2, 2)))
    header = json.loads(json.dumps(payload["header"]))
    assert _sound(payload, header) == (True, True)
    payload["header"]["q"] = 3
    assert _sound(payload, header) == (True, False)
    payload["header"]["q"] = 2
    rows = payload["nodes"]
    a, b = (next(c for c in rows[x] if c not in rows[y]) for x, y in ((7, 8), (8, 7)))
    rows[7][rows[7].index(a)], rows[8][rows[8].index(b)] = b, a
    assert _sound(payload, header) == (True, False)
    rows[7][rows[7].index(b)], rows[8][rows[8].index(a)] = a, b
    rows[3][0], rows[3][6] = rows[3][6], rows[3][0]
    assert _sound(payload, header) == (True, False)
    rows[3].sort()
    partial = json.loads(to_json(partial_fill(build_scaled_cage(2, 2), 34)))
    assert _sound(partial, header) == (False, True)
    for row in partial["nodes"]:
        row[:] = [None if c == 30 else c for c in row]
    assert _sound(partial, header) == (False, False)


BYTE_MUTANTS = 300
TOKENS = [b"\xff", b"[" * 3000, b"9" * 5000, b"NaN", b"-1", b"null", b'"', b"{", b"]", b",0"]


def _byte_edit(rng, data: bytes) -> bytes:
    """One bit flipped, a token inserted, a few bytes deleted, or a truncation."""
    kind = rng.choice(["flip", "insert", "delete", "truncate"])
    i = rng.randrange(len(data))
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]
    if kind == "insert":
        return data[:i] + rng.choice(TOKENS) + data[i:]
    if kind == "delete":
        return data[:i] + data[i + rng.randrange(1, 8):]
    return data[:i]


def test_byte_mutants_exit_0_1_or_2_named(tmp_path, capsys):
    rng = random.Random(11023)
    base = to_json(build_scaled_cage(2, 3)).encode()
    path, out_path = tmp_path / "m.json", tmp_path / "out.json"
    codes = []
    for t in range(BYTE_MUTANTS):
        data = base
        for _ in range(rng.randint(1, 3)):
            data = _byte_edit(rng, data)
        path.write_bytes(data)
        runs = [
            ["verify"], ["repair", "--node", str(rng.randrange(32))],
            ["fill", "--chunks", str(rng.randrange(36, 156))],
            ["expand", "--max-edges", "5000", "-o", str(out_path)],
            ["export", "--format", rng.choice(["csv", "dot"]), "-o", str(out_path)],
        ]
        mutant_codes = [_run(capsys, argv[0], "-i", str(path), *argv[1:])[0] for argv in runs]
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            assert mutant_codes == [2] * 5, (t, data)
        codes += mutant_codes
    assert {0, 2} <= set(codes)


LIBRARY_DESIGNS = [(2, 2), (3, 1), (2, 3)]
LIBRARY_MUTANTS = 200


def _edit_header(rng, sd):
    name = rng.choice(["q", "n", "k", "l", "v", "u", "field_meta", "version", "construction"])
    if name == "field_meta":
        value = FieldMeta.of(field_new(rng.choice([2, 3, 4])))
    elif name == "version":
        value = "0"
    elif name == "construction":
        value = CONSTRUCTION if sd.construction == "hand-built" else "hand-built"
    else:
        value = getattr(sd, name) + rng.choice([-1, 1, 2, 10**9])
    return replace(sd, **{name: value})


def _edit_slot(rng, sd):
    """-1, an id >= u, None, a repeat of another slot, a drop, or a swap
    with a slot of any row."""
    rows = [list(row) for row in sd.nodes]
    g = rng.randrange(len(rows))
    i = rng.randrange(len(rows[g]))
    kind = rng.choice(["low", "high", "blank", "repeat", "drop", "swap"])
    if kind == "drop":
        del rows[g][i]
    elif kind == "swap":
        h = rng.randrange(len(rows))
        j = rng.randrange(len(rows[h]))
        rows[g][i], rows[h][j] = rows[h][j], rows[g][i]
    else:
        rows[g][i] = {
            "low": -1, "high": sd.u + rng.randrange(3), "blank": None,
            "repeat": rows[g][rng.randrange(len(rows[g]))],
        }[kind]
    return replace(sd, nodes=tuple(map(tuple, rows)))


# a float or bool node id or count is refused, even where it equals an int
NUMBER_KINDS = (int, float, bool, lambda x: x + 0.5)


def _entry_points(rng, sd):
    node = rng.choice(NUMBER_KINDS)(rng.randrange(-1, sd.v + 1))
    u_tilde = rng.choice(NUMBER_KINDS)(rng.randrange(sd.u + 2))
    return [
        ("verify_design", lambda: verify_design(sd)),
        ("girth_at_least_six", lambda: girth_at_least_six(sd)),
        ("check_partial_invariants", lambda: check_partial_invariants(sd)),
        ("repair_plan", lambda: repair_plan(sd, node)),
        ("expand", lambda: expand(sd)),
        ("partial_fill", lambda: partial_fill(sd, u_tilde)),
        ("json", lambda: from_json(to_json(sd))),
        ("to_csv", lambda: to_csv(sd)),
        ("to_dot", lambda: to_dot(sd)),
    ]


def _returns_or_names_its_error(what, call):
    t0 = time.perf_counter()
    try:
        call()
    except FrcageError:
        pass
    except Exception as exc:
        raise AssertionError(f"{what}: {type(exc).__name__}: {exc}") from exc
    assert time.perf_counter() - t0 < 1.0, what


@pytest.mark.parametrize("q, n", LIBRARY_DESIGNS)
def test_library_mutants_return_or_raise_named_errors(q, n):
    rng = random.Random(9000 + 10 * q + n)
    canonical = build_scaled_cage(q, n)
    bases = [canonical, replace(canonical, construction="hand-built")]
    for t in range(LIBRARY_MUTANTS):
        edit = _edit_header if rng.random() < 0.3 else _edit_slot
        try:
            mutant = edit(rng, bases[t % 2])
        except FrcageError:
            continue
        for name, call in _entry_points(rng, mutant):
            _returns_or_names_its_error((name, mutant), call)


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2), (8, 1)])
@pytest.mark.parametrize("bad", [1.0, "1", [1], True, False],
                         ids=["float", "str", "list", "true", "false"])
def test_library_slots_that_are_no_integer_raise_named_errors(q, n, bad):
    # 1.0 indexes no list, "1" and [1] order against no int, and True and
    # False index as chunks 1 and 0; put in a first, middle or last slot,
    # each is refused where the table is made, naming its node, so no
    # function ever reads it as a chunk id
    built = build_scaled_cage(q, n)
    for base in (built, replace(built, construction="hand-built")):
        for g, i in ((0, 0), (0, 1), (base.v // 2, base.l // 2), (base.v - 1, base.l - 1)):
            rows = [list(row) for row in base.nodes]
            rows[g][i] = bad
            with pytest.raises(InvalidDesign, match=f"^node {g} has a slot that is neither an integer nor null$"):
                replace(base, nodes=tuple(map(tuple, rows)))
        # the same value in every typed place of the header and the containers: a table is
        # made only where the value has the place's type, every function then returns or
        # names its error, and to_json writes a file that from_json loads as the same table
        for place in helpers.TYPED_PLACES:
            fields = helpers.with_value(base, place, bad)
            typed = type(bad) is type(helpers.value_at(base, place))
            for make in (lambda: StorageDesign(**fields), lambda: base._replace(**fields)):
                try:
                    sd = make()
                except InvalidDesign:
                    assert not typed, place
                    continue
                assert typed, place
                for name, call in _entry_points(random.Random(place), sd):
                    _returns_or_names_its_error((name, place), call)
                assert from_json(to_json(sd)) == sd
