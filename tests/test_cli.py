import csv
import json

import numpy as np
import pytest

from qptsweep import cli, ising


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_spectrum_run(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "n_spins": 64, "g_grid": {"start": 0.0, "stop": 1.0, "num": 101},
    })
    code = cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    rows = read_csv(tmp_path / "out" / "spectrum.csv")
    assert len(rows) == 1 + 64 * 101
    # spot value E(pi/64, 1/2) = 2 sin(pi/128)
    for r in rows[1:]:
        if abs(float(r[1]) - np.pi / 64) < 1e-12 and float(r[2]) == 0.5:
            assert float(r[3]) == pytest.approx(2.0 * np.sin(np.pi / 128.0), abs=1e-12)
            break
    else:
        pytest.fail("spot row not found")


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"study": "gap_law", "n_list": [8, 16, 32, 64]})
    assert cli.main(["scaling", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "7"]) == 0
    assert cli.main(["scaling", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "7"]) == 0
    a = (tmp_path / "a" / "scaling_gap_law.csv").read_bytes()
    b = (tmp_path / "b" / "scaling_gap_law.csv").read_bytes()
    assert a == b


def test_config_errors_exit_1(tmp_path):
    assert cli.main(["scaling", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    bad = write_config(tmp_path, "bad.json", {"study": "unknown_study"})
    assert cli.main(["scaling", "--config", bad, "--out", str(tmp_path / "o")]) == 1
    empty = write_config(tmp_path, "empty.json", {"model": "ising_ring", "n_list": []})
    assert cli.main(["ed", "--config", empty, "--out", str(tmp_path / "o")]) in (1,)


def test_mismatched_experiment_rejected(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"experiment": "spectrum", "n_spins": 8})
    assert cli.main(["ed", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_ed_run_with_parity(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": "ising_ring", "n_list": [4],
        "g_grid": {"start": 0.0, "stop": 1.0, "num": 5}, "m": 2,
    })
    assert cli.main(["ed", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "ed.csv")
    assert rows[0] == ["model", "n_spins", "g", "level", "energy", "parity", "residual"]
    assert len(rows) == 1 + 5 * 2


def test_sweep_run(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "n_spins": 16, "T_list": [20.0, 40.0], "schedule": "linear",
    })
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert len(rows) == 3
    p20, p40 = float(rows[1][4]), float(rows[2][4])
    assert p40 < p20


def test_sweep_flags_rows_failing_certificates(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "c.json", {
        "n_spins": 16, "T_list": [20.0], "ka_list": [0.19634954084936207, 0.5890486225480862],
    })
    monkeypatch.setattr(ising, "_default_steps", lambda total_time: 16)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "coarse")]) == 2
    doc = json.loads((tmp_path / "coarse" / "sweep.json").read_text())
    assert doc["nonconverged"] == 2

    # a non-finite certificate is a failure too
    monkeypatch.undo()
    magnus = ising.magnus4_modes

    def nan_defect(*args):
        u, v, defect = magnus(*args)
        return u, v, np.full_like(defect, np.nan)

    monkeypatch.setattr(ising, "magnus4_modes", nan_defect)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "nan")]) == 2


def test_sweep_unknown_schedule_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"n_spins": 16, "T_list": [20.0], "schedule": "cubic"})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "cubic" in err and "\n" not in err


def test_response_run(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "n_spins": 32, "T": 100.0, "channel": "uniform_x",
        "omega_grid": [0.4, 0.6], "ka_list": [float(np.pi / 32)],
    })
    assert cli.main(["response", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "response.csv")
    assert rows[0][:7] == ["channel", "n_spins", "ka", "kpa", "omega", "regime", "method"]
    assert len(rows) == 3


def test_grover_run_with_probe(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "n_list": [4, 6], "T": 50.0, "coupling": 0.01,
        "bath": {"kind": "dirac_comb", "omega0": [-0.25], "weight": [1.0]},
    })
    assert cli.main(["grover", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "grover.csv")
    assert len(rows) == 3
    assert float(rows[1][3]) > 0.0


def test_manifest_hash_tracks_config(tmp_path):
    cfg1 = write_config(tmp_path, "c1.json", {"study": "gap_law", "n_list": [8, 16, 32, 64]})
    cfg2 = write_config(tmp_path, "c2.json", {"study": "gap_law", "n_list": [8, 16, 32, 128]})
    cli.main(["scaling", "--config", cfg1, "--out", str(tmp_path / "a")])
    cli.main(["scaling", "--config", cfg2, "--out", str(tmp_path / "b")])
    ma = json.loads((tmp_path / "a" / "scaling_gap_law.manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "scaling_gap_law.manifest.json").read_text())
    assert ma["config_sha256"] != mb["config_sha256"]


def test_json_mirror_roundtrip(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"study": "gap_law", "n_list": [8, 16, 32, 64]})
    cli.main(["scaling", "--config", cfg, "--out", str(tmp_path / "out")])
    doc = json.loads((tmp_path / "out" / "scaling_gap_law.json").read_text())
    rows = read_csv(tmp_path / "out" / "scaling_gap_law.csv")
    for jrow, crow in zip(doc["rows"], rows[1:]):
        assert float(crow[1]) == jrow[1]
    assert doc["fits"]["gap_law"]["exponent"] == pytest.approx(-1.0, abs=0.02)
