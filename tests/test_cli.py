"""Command-line behavior: exit codes, files, determinism."""

import json
import os
import stat
import threading
import time

import pytest

from frcage import build_scaled_cage, incidence_design, to_json, to_storage_design, verify_design
from frcage import cli
from frcage.cli import main
from conftest import GOLDEN_MOLS_Q3
import helpers


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_and_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "d.json"
    code, out, err = run(capsys, "construct", "--q", "2", "--n", "2", "-o", str(path))
    assert code == 0 and err == ""
    code, out, _ = run(capsys, "verify", "-i", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True and report["complete"] is True
    # file-based report matches the in-memory one
    in_mem = verify_design(incidence_design(to_storage_design(build_scaled_cage(2, 2))))
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
    payload = json.loads(path.read_text())
    # trade one replica of chunk 11 for one of chunk 14: replication
    # counts stay intact but two nodes now share two chunks
    rows = payload["nodes"]
    rows[7][rows[7].index(11)] = 14
    rows[8][rows[8].index(14)] = 11
    path.write_text(json.dumps(payload))
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


def test_mols_cli(capsys):
    code, out, _ = run(capsys, "mols", "--q", "3")
    assert code == 0
    assert "L(1):" in out
    assert "0 1 2" in out
    code, out, _ = run(capsys, "mols", "--q", "3", "--json")
    assert json.loads(out) == GOLDEN_MOLS_Q3


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


def test_export_cli(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(capsys, "construct", "--q", "2", "--n", "1", "-o", str(path))
    code, out, _ = run(capsys, "export", "-i", str(path), "--format", "dot")
    assert code == 0
    assert out.startswith("graph") and "y0 -- x0;" in out
    code, out, _ = run(capsys, "export", "-i", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "0,0,1,2"


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
        payload = json.loads(to_json(to_storage_design(build_scaled_cage(2, 2))))
        payload["header"][key] = value
        path.write_text(json.dumps(payload))
        t0 = time.perf_counter()
        code, _, err = run(capsys, "verify", "-i", str(path))
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and err.startswith("InvalidDesign:"), key


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
