"""Command-line behavior: exit codes, files, determinism."""

import gc
import hashlib
import json
import os
import random
import stat
import threading
import time
import tracemalloc

import pytest

from frcage import (
    build_scaled_cage, chunks_per_iteration, to_json, verify_design,
)
from frcage import cage, cli, design
from frcage.cli import main
from frcage.errors import InvalidDesign
from conftest import GOLDEN_MOLS_Q3
import helpers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _corrupt(path):
    """Trade a replica of chunk 11 for one of chunk 14 on a (2,2) file,
    keeping rows ascending: replica counts stay intact, but nodes 7 and
    8 now share two chunks."""
    payload = json.loads(path.read_text())
    rows = payload["nodes"]
    rows[7][rows[7].index(11)] = 14
    rows[8][rows[8].index(14)] = 11
    rows[7].sort()
    rows[8].sort()
    path.write_text(json.dumps(payload))


def test_construct_and_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "d.json"
    code, out, err = run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    assert code == 0 and err == ""
    code, out, _ = run(capsys, "verify", "-i", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True and report["complete"] is True
    # file-based report matches the in-memory one
    in_mem = verify_design(build_scaled_cage(2, 2))
    assert {k: report[k] for k in ("girth_ok", "degrees_ok", "steiner_exact", "bounds_tight")} == {
        "girth_ok": in_mem.girth_ok,
        "degrees_ok": in_mem.degrees_ok,
        "steiner_exact": in_mem.steiner_exact,
        "bounds_tight": in_mem.bounds_tight,
    }


def test_construct_stdout_deterministic(capsys):
    code1, out1, _ = run(capsys, "construct", "--q", "3", "--n", "1")
    code2, out2, _ = run(capsys, "construct", "--q", "3", "--n", "1")
    assert code1 == code2 == 0
    assert out1 == out2


def test_construct_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "construct", "--q", "6", "--n", "1")
    assert code == 2
    assert "NotPrimePower" in err


def test_verify_detects_corruption(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    _corrupt(path)
    code, out, _ = run(capsys, "verify", "-i", str(path))
    assert code == 1
    assert json.loads(out)["all_ok"] is False


def test_expand_cli(tmp_path, capsys):
    small = tmp_path / "small.json"
    big = tmp_path / "big.json"
    run(capsys, "construct", "--q", "2", "--n", "1", "-o", str(small))
    code, _, err = run(capsys, "expand", "-i", str(small), "-o", str(big))
    assert code == 0, err
    payload = json.loads(big.read_text())
    assert payload["header"]["n"] == 2 and payload["header"]["num_nodes"] == 15


def test_good_expand_skips_the_row_checks(tmp_path, monkeypatch):
    # A table equal to its canonical prefix, every slot an int, passes
    # the row checks, so expand neither runs them nor builds the
    # location index.  (13,1) runs the q + 1 = 14 group columns.
    def boom(sd):
        raise AssertionError("a good expand ran the row checks")

    monkeypatch.setattr(design, "_validate", boom)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    for q, n in ((2, 6), (13, 1)):
        old.write_text(to_json(build_scaled_cage(q, n)))
        assert main(["expand", "-i", str(old), "-o", str(new)]) == 0
        assert new.read_text() == to_json(build_scaled_cage(q, n + 1)), (q, n)
    # Traced peak of (2,6) -> (2,7) under pytest: 8.04 MiB while the
    # loaded index lived through the (2,7) build, 7.42 MiB once it was
    # dropped, 7.30 MiB now that it is never built.
    old.write_text(to_json(build_scaled_cage(2, 6)))
    tracemalloc.start()
    try:
        assert main(["expand", "-i", str(old), "-o", str(new)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.75 * 2**20, peak


def test_refused_expand_names_the_cap_first(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    payload = json.loads(path.read_text())
    payload["nodes"][0], payload["nodes"][1] = payload["nodes"][1], payload["nodes"][0]
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "expand", "-i", str(path))
    assert code == 2 and err.startswith("NotCanonical:")
    # (2, 3) needs 465 edges: the cap is checked before the table is compared
    code, _, err = run(capsys, "expand", "-i", str(path), "--max-edges", "400")
    assert code == 2 and err.startswith("ResourceLimit:")


def _q2n2_file(tmp_path, capsys, edit=None, name="d.json"):
    """A (2,2) design file, with `edit` applied to its payload."""
    path = tmp_path / name
    run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    payload = json.loads(path.read_text())
    if edit is not None:
        edit(payload)
    path.write_text(json.dumps(payload))
    return path


def _swap_row3(payload):
    row = payload["nodes"][3]
    row[0], row[6] = row[6], row[0]


def test_over_cap_expand_is_refused_before_the_rows(tmp_path, capsys, monkeypatch):
    # (2, 3) needs 465 edges; the refusal order is JSON, header,
    # provenance, completeness, cap, then, after the build, the prefix
    # compare, whose refusal names a bad row before it says NotCanonical
    path = _q2n2_file(tmp_path, capsys, _swap_row3)
    good = _q2n2_file(tmp_path, capsys, name="good.json")
    code, out, err = run(capsys, "expand", "-i", str(path), "--max-edges", "400")
    assert (code, out) == (2, "") and err.startswith("ResourceLimit:"), err
    code, out, err = run(capsys, "expand", "-i", str(path))
    assert (code, out) == (2, "") and err.startswith("InvalidDesign: node 3 does not list"), err

    def boom(*args, **kwargs):
        raise AssertionError("an over-cap expand checked or indexed the rows")

    monkeypatch.setattr(design, "_validate", boom)
    monkeypatch.setattr(cage, "_transpose", boom)
    for p in (path, good):
        code, out, err = run(capsys, "expand", "-i", str(p), "--max-edges", "400")
        assert (code, out) == (2, "") and err.startswith("ResourceLimit:"), err


def test_over_cap_expand_checks_provenance_first(tmp_path, capsys):
    hand = _q2n2_file(tmp_path, capsys, lambda p: p["header"].update(construction="hand-built"))
    code, out, err = run(capsys, "expand", "-i", str(hand), "--max-edges", "400")
    assert (code, out) == (2, "") and err.startswith("NotCanonical: unknown provenance"), err

    full, part = _q2n2_file(tmp_path, capsys, name="full.json"), tmp_path / "part.json"
    assert run(capsys, "fill", "-i", str(full), "--chunks", "30", "-o", str(part))[0] == 0
    code, out, err = run(capsys, "expand", "-i", str(part), "--max-edges", "400")
    assert (code, out) == (2, "") and err.startswith("NotCanonical: partially filled"), err


def _slot_mutant(rng, rows, kind, u):
    """Edit one slot of `rows` (JSON node lists) in place, or swap two
    whole rows."""
    if kind == "rows":
        g, h = rng.sample(range(len(rows)), 2)
        rows[g], rows[h] = rows[h], rows[g]
        return
    if kind == "true":  # True == 1, so put it where chunk 1 was
        g = rng.choice([g for g, row in enumerate(rows) if 1 in row])
        rows[g][rows[g].index(1)] = True
        return
    row = rng.choice(rows)
    i = rng.randrange(len(row))
    j = rng.choice([j for j in range(len(row)) if j != i])
    if kind == "drop":
        del row[i]
    elif kind == "swap":
        row[i], row[j] = row[j], row[i]
    else:
        row[i] = {"low": -1, "high": u, "float": float(row[i]), "str": str(row[i]),
                  "list": [row[i]], "repeat": row[j]}[kind]


SLOT_KINDS = ["low", "high", "true", "float", "str", "list", "repeat", "swap", "drop", "rows"]


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2)])
def test_expand_refuses_as_from_json_names(tmp_path, capsys, q, n):
    # Expand names a bad row or replica count as loading does, and calls
    # a well-formed table that differs from the canonical one NotCanonical.
    rng = random.Random(1700 + q)
    base = to_json(build_scaled_cage(q, n))
    path = tmp_path / "m.json"
    errors = set()
    for t in range(60):
        payload = json.loads(base)
        kind = SLOT_KINDS[t % len(SLOT_KINDS)]
        _slot_mutant(rng, payload["nodes"], kind, payload["header"]["num_chunks"])
        path.write_text(json.dumps(payload))
        try:
            design.from_json(path.read_bytes())
            want = f"NotCanonical: design does not match the canonical (q={q}, n={n}) construction"
        except InvalidDesign as exc:
            want = f"InvalidDesign: {exc}"
        errors.add(want.split(":")[0])
        code, out, err = run(capsys, "expand", "-i", str(path))
        assert (code, out, err) == (2, "", want + "\n"), (kind, payload["nodes"])
    assert errors == {"InvalidDesign", "NotCanonical"}


def test_failed_write_keeps_old_output(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.json"
    run(capsys, "construct", "--q", "2", "--n", "1", "-o", str(path))
    before = path.read_bytes()
    real_open = open

    class HalfWriter:
        """Writes half of the text, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda *a, **kw: HalfWriter(real_open(*a, **kw)), raising=False)
    code, _, err = run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    assert code == 2 and "No space left" in err
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["d.json"]

    monkeypatch.undo()
    code, _, _ = run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(tmp_path / "no" / "d.json"))
    assert code == 2
    assert [p.name for p in tmp_path.iterdir()] == ["d.json"]


def test_write_follows_symlinks_and_pipes(tmp_path, capsys):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old")
    link.symlink_to(real)
    code, out, _ = run(capsys, "construct", "--q", "2", "--n", "1")
    assert run(capsys, "construct", "--q", "2", "--n", "1", "-o", str(link))[0] == 0
    assert link.is_symlink() and real.read_text() == out

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(capsys, "construct", "--q", "2", "--n", "1", "-o", str(fifo))[0] == 0
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [out]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.json", "real.json"]


def test_fill_and_repair_cli(tmp_path, capsys):
    path = tmp_path / "d.json"
    filled = tmp_path / "filled.json"
    run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    code, _, _ = run(capsys, "fill", "-i", str(path), "--chunks", "30", "-o", str(filled))
    assert code == 0
    payload = json.loads(filled.read_text())
    assert any(c is None for row in payload["nodes"] for c in row)
    code, out, _ = run(capsys, "verify", "-i", str(filled))
    assert code == 0
    assert json.loads(out)["complete"] is False

    small = tmp_path / "small.json"
    run(capsys, "construct", "--q", "2", "--n", "1", "-o", str(small))
    code, out, _ = run(capsys, "repair", "-i", str(small), "--node", "0")
    assert code == 0
    plan = json.loads(out)
    assert plan["failed_node"] == 0
    assert plan["assignments"] == [[0, 1], [1, 3], [2, 5]]


def test_fill_out_of_range(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    code, _, err = run(capsys, "fill", "-i", str(path), "--chunks", "7")
    assert code == 2
    assert "OutOfRange" in err


def test_bounds_cli(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "3", "--l", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["v_min"] == 15 and payload["u_min"] == "35"
    code, _, err = run(capsys, "bounds", "--k", "4", "--l", "3")
    assert code == 2 and "InvalidDegrees" in err


# sha256 of `mols` stdout (text, then --json).  generate_mols reads the
# grids back from the cage's group columns, so these pin that view.
MOLS_SHA256 = {
    4: ("ac8419e575b273cb2d0c7c68c97c7c7c363c63a7c23538646529ad0016f6d67a",
        "6995b7afc43ae04685a6884d8cab22d74ed929d7664fb36cd017197432df48b2"),
    9: ("a56cd44616e3246e7b92faaa5568b469122ec91b0bb711d302f53d5aa24f12e4",
        "68f4de976dd0bc09d361837f9ac6d3b3549f1406bfb413e2b038cc0d9194c3d3"),
    16: ("a4c03f4e9257d4c6cdb6f72109da2a6d2b97bd034bae6a2bc99dd828465ae4a5",
         "56b1e0e0f436b75c5990e081c8badfc7c326ec62dcfae592368dcb0dc26d5e80"),
}


def test_mols_cli(capsys):
    code, out, _ = run(capsys, "mols", "--q", "3")
    assert code == 0
    assert out == "\n".join(
        f"L({m}):\n" + "".join(" ".join(map(str, row)) + "\n" for row in cells)
        for m, cells in enumerate(GOLDEN_MOLS_Q3)
    )
    code, out, _ = run(capsys, "mols", "--q", "3", "--json")
    assert json.loads(out) == GOLDEN_MOLS_Q3
    for q, digests in MOLS_SHA256.items():
        for extra, want in zip(([], ["--json"]), digests):
            code, out, _ = run(capsys, "mols", "--q", str(q), *extra)
            assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == want, (q, extra)


def test_mols_is_capped_before_the_field_is_built(capsys, monkeypatch):
    monkeypatch.delenv("FRC_MAX_EDGES", raising=False)
    t0 = time.perf_counter()
    code, _, err = run(capsys, "mols", "--q", "997")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and err.startswith("ResourceLimit:")
    code, out, _ = run(capsys, "mols", "--q", "64", "--json")
    assert code == 0 and len(json.loads(out)) == 64
    monkeypatch.setenv("FRC_MAX_EDGES", "26")
    code, _, err = run(capsys, "mols", "--q", "3")
    assert code == 2 and err.startswith("ResourceLimit:")


@pytest.mark.parametrize("argv", [
    ("construct", "--q", "9" * 1500, "--n", "1"),  # q**3 edges
    ("mols", "--q", "9" * 1500),  # q**3 cells
    ("bounds", "--k", "3", "--l", "9" * 2200),  # u_min ~ l**2
], ids=["construct", "mols", "bounds"])
def test_results_past_the_digit_limit_exit_2(capsys, argv):
    # each input parses, but a number derived from it is past Python's
    # 4,300-digit int-to-str limit
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "") and err.startswith("ResourceLimit:")
    assert "Traceback" not in err


def test_export_cli(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(capsys, "construct", "--q", "2", "--n", "1", "-o", str(path))
    code, out, _ = run(capsys, "export", "-i", str(path), "--format", "dot")
    assert code == 0
    assert out.startswith("graph") and "y0 -- x0;" in out
    code, out, _ = run(capsys, "export", "-i", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "0,0,1,2"


def test_export_dot_refuses_a_filled_design(tmp_path, capsys):
    path, filled = tmp_path / "d.json", tmp_path / "f.json"
    run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    run(capsys, "fill", "-i", str(path), "--chunks", "30", "-o", str(filled))
    code, out, err = run(capsys, "export", "-i", str(filled), "--format", "dot")
    assert (code, out) == (2, "") and err.startswith("InvalidDesign:")
    code, out, _ = run(capsys, "export", "-i", str(filled), "--format", "csv")
    assert code == 0 and ",," in out


def test_env_edge_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRC_MAX_EDGES", "10")
    code, _, err = run(capsys, "construct", "--q", "2", "--n", "1")
    assert code == 2 and "ResourceLimit" in err
    # explicit flag wins over the environment
    code, _, _ = run(capsys, "construct", "--q", "2", "--n", "1", "--max-edges", "1000")
    assert code == 0


def test_over_cap_construct_is_refused_fast(capsys):
    # 2**61 - 1 is a prime: the cap is checked before q is factored
    for q in (512, 2**61 - 1):
        t0 = time.perf_counter()
        code, _, err = run(capsys, "construct", "--q", str(q), "--n", "1")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and "ResourceLimit" in err
    code, _, err = run(capsys, "construct", "--q", "1", "--n", "1")
    assert code == 2 and err.startswith("NotPrimePower:")


def test_bad_parameters_exit_2_named(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, "construct", "--q", "2", "--n", "0")
    assert code == 2 and err.startswith("InvalidParameter:")

    path = tmp_path / "d.json"
    run(capsys, "construct", "--q", "2", "--n", "1", "-o", str(path))
    payload = json.loads(path.read_text())
    payload["header"]["n"] = 0
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "fill", "-i", str(path), "--chunks", "3")
    assert code == 2 and err.startswith("InvalidDesign:")  # refused on load

    monkeypatch.setenv("FRC_MAX_EDGES", "abc")
    code, _, err = run(capsys, "construct", "--q", "2", "--n", "1")
    assert code == 2 and err.startswith("InvalidParameter:")


def test_header_must_match_q_and_n(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.json"
    run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    payload = json.loads(path.read_text())
    payload["header"]["q"] = 3
    path.write_text(json.dumps(payload))

    def boom(*args, **kwargs):
        raise AssertionError("expand built a design for a refused file")

    monkeypatch.setattr(cli.design_mod, "build_scaled_cage", boom)
    for argv in (["verify"], ["expand"], ["expand", "--max-edges", "10"], ["repair", "--node", "0"]):
        code, out, err = run(capsys, *argv, "-i", str(path))
        assert (code, out) == (2, "") and err.startswith("InvalidDesign:"), argv

    # absurd headers are bounded by the row count before p_n or GF(q) is computed
    for key, value in (("n", 10**9), ("q", 2**61 - 1)):
        payload = json.loads(to_json(build_scaled_cage(2, 2)))
        payload["header"][key] = value
        path.write_text(json.dumps(payload))
        t0 = time.perf_counter()
        code, _, err = run(capsys, "verify", "-i", str(path))
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and err.startswith("InvalidDesign:"), key


def test_repair_has_no_policy_flag(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(capsys, "construct", "--q", "2", "--n", "1", "-o", str(path))
    with pytest.raises(SystemExit) as exc:
        main(["repair", "-i", str(path), "--node", "0", "--policy", "lowest"])
    assert exc.value.code == 2


def _refused_fast(capsys, tmp_path, text, error, *argvs):
    """Each command refuses the design file `text` on its own: exit 2,
    no output, a named error and no traceback, in under 1 s."""
    path = tmp_path / "d.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    for argv in argvs:
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv, "-i", str(path))
        assert time.perf_counter() - t0 < 1.0, argv
        assert (code, out) == (2, "") and err.startswith(error + ":"), (argv, err)
        assert "Traceback" not in err


def _q2n1_payload():
    return json.loads(to_json(build_scaled_cage(2, 1)))


@pytest.mark.parametrize("key", ["slot", "q"])
def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys, key):
    payload = _q2n1_payload()
    if key == "slot":
        payload["nodes"][0][0] = 123456789
    else:
        payload["header"]["q"] = 123456789
    text = json.dumps(payload).replace("123456789", "9" * 5000)
    _refused_fast(capsys, tmp_path, text, "InvalidDesign",
                  ["verify"], ["repair", "--node", "0"], ["fill", "--chunks", "3"])


@pytest.mark.parametrize("edit", ["not_utf8", "deep"])
def test_undecodable_or_deep_files_exit_2(tmp_path, capsys, edit):
    # JSON text is UTF-8 whatever the locale, and json.loads recurses once per level
    if edit == "not_utf8":
        text = to_json(build_scaled_cage(2, 3)).encode()
        text = text[: len(text) // 2] + b"\xff" + text[len(text) // 2 :]
    else:
        text = b"[" * 1000 + b"]" * 1000
    _refused_fast(capsys, tmp_path, text, "InvalidDesign",
                  ["verify"], ["repair", "--node", "0"], ["fill", "--chunks", "100"],
                  ["expand"], ["export", "--format", "csv"])


def test_hand_built_num_chunks_is_bounded(tmp_path, capsys):
    payload = _q2n1_payload()
    payload["header"].update(construction="hand-built", num_chunks=10**9)
    _refused_fast(capsys, tmp_path, json.dumps(payload), "InvalidDesign",
                  ["verify"], ["repair", "--node", "0"], ["export", "--format", "csv"])


@pytest.mark.parametrize("q, n", [(3, 10**7), (1000003, 10**4)])
def test_fill_refuses_hand_built_tables(tmp_path, capsys, q, n):
    payload = _q2n1_payload()
    payload["header"].update(construction="hand-built", q=q, n=n)
    _refused_fast(capsys, tmp_path, json.dumps(payload), "NotCanonical", ["fill", "--chunks", "3"])


def test_rows_must_ascend(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    payload = json.loads(path.read_text())
    row = payload["nodes"][3]
    row[0], row[6] = row[6], row[0]
    path.write_text(json.dumps(payload))
    for argv in (["verify"], ["expand"], ["repair", "--node", "0"]):
        code, out, err = run(capsys, *argv, "-i", str(path))
        assert code == 2 and out == "", argv
        assert err.startswith("InvalidDesign: node 3 does not list"), argv


def test_verify_flags_a_blank_gap(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    payload = json.loads(path.read_text())
    for row in payload["nodes"]:
        row[:] = [None if c == 30 else c for c in row]
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", "-i", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["partial_invariants_ok"] is False
    assert report["witnesses"] == {"blank_gap": [30, 31]}


def test_repair_rejects_nodes_sharing_two_chunks(tmp_path, capsys):
    path = tmp_path / "d.json"
    sd = helpers.storage_from_rows([[0, 1], [0, 1], [2, 3], [2, 3]], num_chunks=4, k=2)
    path.write_text(to_json(sd))
    code, out, err = run(capsys, "repair", "-i", str(path), "--node", "0")
    assert code == 2 and out == ""
    assert err.startswith("InvalidDesign:")


def test_missing_file(capsys):
    code, _, err = run(capsys, "verify", "-i", "/nonexistent/nope.json")
    assert code == 2
    assert err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--q", "2"])  # missing --n
    assert exc.value.code == 2


def test_main_restores_the_collector(tmp_path, capsys, monkeypatch):
    path, bad = tmp_path / "d.json", tmp_path / "bad.json"
    run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    bad.write_text(path.read_text())
    _corrupt(bad)
    cases = [
        (0, ["verify", "-i", str(path)]),
        (1, ["verify", "-i", str(bad)]),
        (2, ["construct", "--q", "6", "--n", "1"]),
        (2, ["verify", "-i", str(tmp_path / "missing.json")]),
    ]
    assert gc.isenabled()
    for code, argv in cases:
        assert run(capsys, *argv)[0] == code, argv
        assert gc.isenabled(), argv
    gc.disable()
    try:
        for code, argv in cases:
            assert run(capsys, *argv)[0] == code, argv
            assert not gc.isenabled(), argv
    finally:
        gc.enable()
    # the collector is off while the command itself runs
    seen = []
    monkeypatch.setattr(cli, "_cmd_bounds", lambda args: seen.append(gc.isenabled()) or 0)
    assert run(capsys, "bounds", "--k", "3", "--l", "3")[0] == 0
    assert seen == [False] and gc.isenabled()


def _cyclic_garbage(tmp_path, q, n):
    """Objects gc.collect() finds after each command's handler runs
    with the collector off, by command."""
    full, partial, out = (tmp_path / f"{name}-{q}-{n}.json" for name in ("full", "partial", "out"))
    u_tilde = (chunks_per_iteration(q, n - 1) + chunks_per_iteration(q, n)) // 2
    commands = {
        "construct": ["construct", "--q", str(q), "--n", str(n), "-o", str(full)],
        "fill": ["fill", "-i", str(full), "--chunks", str(u_tilde), "-o", str(partial)],
        "verify": ["verify", "-i", str(full)],
        "verify_partial": ["verify", "-i", str(partial)],
        "expand": ["expand", "-i", str(full), "-o", str(out)],
        "repair": ["repair", "-i", str(full), "--node", "1"],
    }
    counts = {}
    gc.disable()
    try:
        for name, argv in commands.items():
            args = cli._build_parser().parse_args(argv)
            gc.collect()
            assert args.func(args) == 0, argv
            counts[name] = gc.collect()
    finally:
        gc.enable()
    return counts


# main runs commands with the collector paused; that is safe only while
# a command's cyclic garbage stays fixed as the design grows.
@pytest.mark.parametrize("small, large", [((2, 3), (2, 5)), ((3, 2), (3, 3))], ids=["q2", "q3"])
def test_commands_make_no_cyclic_garbage_that_grows(small, large, tmp_path):
    assert _cyclic_garbage(tmp_path, *small) == _cyclic_garbage(tmp_path, *large)
