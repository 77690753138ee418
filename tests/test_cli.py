import csv
import json
import math

import numpy as np
import pytest

from qptsweep import cli, grover, ising


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


@pytest.mark.parametrize("subcommand,doc", [
    ("sweep", {"n_spins": 16, "T_list": [20.0], "ka_list": [4.0]}),
    ("sweep", {"n_spins": 16, "T_list": [20.0], "schedule": "frozen"}),
    ("spectrum", {"n_spins": 15}),
    ("ed", {"model": "ising_ring", "n_list": [16]}),
], ids=["sweep_ka_above_pi", "sweep_frozen_without_g", "spectrum_odd_n", "ed_n_too_large"])
def test_bad_physics_input_exits_1_with_one_line(tmp_path, capsys, subcommand, doc):
    cfg = write_config(tmp_path, "c.json", doc)
    assert cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_threads_flag_accepted_and_ignored(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"study": "gap_law", "n_list": [8, 16, 32, 64]})
    assert cli.main(["scaling", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "4"]) == 0
    manifest = json.loads((tmp_path / "out" / "scaling_gap_law.manifest.json").read_text())
    assert "threads" not in manifest


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def test_json_mirror_is_strict_with_nan_cells(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "n_list": [4, 6], "T": 50.0, "bath": {"kind": "thermal_bosonic"},
    })
    assert cli.main(["grover", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "grover.csv")
    assert rows[1][3] == "nan"  # the CSV keeps nan
    text = (tmp_path / "out" / "grover.json").read_text()
    doc = json.loads(text, parse_constant=_reject_constant)
    col = doc["columns"].index("error_probability")
    assert [row[col] for row in doc["rows"]] == [None, None]


def test_grover_warns_why_error_probability_is_nan(tmp_path, caplog):
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, "c.json", {
        "n_list": [4, 6], "T": 50.0, "bath": {"kind": "thermal_bosonic"},
    })
    with caplog.at_level("WARNING", logger="qptsweep"):
        assert cli.main(["grover", "--config", cfg, "--out", out]) == 0
    warnings = [r for r in caplog.records if r.name == "qptsweep" and r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "only for dirac_comb" in warnings[0].getMessage()
    caplog.clear()
    cfg = write_config(tmp_path, "d.json", {
        "n_list": [4], "T": 50.0, "bath": {"kind": "dirac_comb", "omega0": [0.5], "weight": [1.0]},
    })
    with caplog.at_level("WARNING", logger="qptsweep"):
        assert cli.main(["grover", "--config", cfg, "--out", out]) == 0
    assert not [r for r in caplog.records if r.name == "qptsweep"]


def test_grover_nonconverged_rows_exit_2(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "c.json", {
        "n_list": [4, 6, 8], "T": 50.0,
        "bath": {"kind": "dirac_comb", "omega0": [0.5], "weight": [1.0]},
    })
    # every grid gives a new value, so no doubling ever agrees
    monkeypatch.setattr(grover, "_amplitude_fixed_grid", lambda params, omega, n: float(n))
    assert cli.main(["grover", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    doc = json.loads((tmp_path / "out" / "grover.json").read_text())
    assert doc["nonconverged"] == len(doc["rows"]) == 3


@pytest.mark.parametrize("subcommand,doc", [
    ("spectrum", {"n_spins": 8, "g_grid": {"start": 0.0, "stop": 1.0, "num": 0}}),
    ("spectrum", {"n_spins": 8, "g_grid": {"start": 1.0, "stop": 0.0, "num": 5}}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x",
                  "omega_grid": {"start": 0.5, "stop": 0.5, "num": 0}}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x",
                  "omega_grid": {"start": 0.6, "stop": 0.4, "num": 3}}),
], ids=["spectrum_num_0", "spectrum_descending", "response_num_0", "response_descending"])
def test_linspace_grid_checked_like_list_grid(tmp_path, capsys, subcommand, doc):
    cfg = write_config(tmp_path, "c.json", doc)
    assert cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# The emit oracle: the per-cell CSV formatter and the indented JSON mirror
# that cli.emit wrote before it formatted rows with one %-format each.
def _oracle_fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    if isinstance(x, (np.floating,)):
        return "%.17g" % float(x)
    return str(x)


def _oracle_json_value(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    x = float(x)
    return x if math.isfinite(x) else None


def _oracle_csv(bundle):
    lines = [",".join(bundle.columns)]
    for row in bundle.rows:
        lines.append(",".join(_oracle_fmt(x) for x in row))
    return ("\n".join(lines) + "\n").encode()


def _oracle_json(bundle):
    doc = {
        "columns": bundle.columns,
        "rows": [[_oracle_json_value(x) for x in row] for row in bundle.rows],
        "fits": {k: {kk: _oracle_json_value(v) for kk, v in fit.items()}
                 for k, fit in bundle.fits.items()},
        "nonconverged": bundle.nonconverged,
    }
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)


def _loaded(text):
    """The document in ``text`` as canonical JSON, so that 1 and 1.0, or 0.0
    and -0.0, differ; a bool reads as the int the oracle wrote for it."""
    def norm(x):
        if isinstance(x, bool):
            return int(x)
        if isinstance(x, list):
            return [norm(v) for v in x]
        if isinstance(x, dict):
            return {k: norm(v) for k, v in x.items()}
        return x

    return json.dumps(norm(json.loads(text, parse_constant=_reject_constant)), sort_keys=True)


MIXED_ROWS = [
    [3, np.int64(-7), 0.1, np.float64(2.0 / 3.0), "a b", True, False],
    [0, np.int64(2**40), -0.0, np.float64(5e-324), "x", False, True],
    [-1, np.int64(0), float("nan"), np.float64("inf"), "", True, True],
    [2**70, np.int64(1), float("-inf"), np.float64(-0.0), "nan", False, False],
    [1, 2, 1e300, np.float64(-1e-300), "y", True, False],
    ["mixed", 1.5, 2, np.float64(3.0), np.int64(4), 5e-324, float("nan")],
    [np.float32(0.1), np.bool_(True), np.int32(-3), 1, 2.0, "z", np.float64("-inf")],
]
MIXED_COLUMNS = ["c0", "c1", "c2", "c3", "c4", "c5", "c6"]


@pytest.mark.parametrize("rows,fits", [
    (MIXED_ROWS, {"fit": {"exponent": -1.0, "prefactor": float("nan")},
                  "other": {"rate": np.float64("inf"), "r_squared": np.float64(0.5)}}),
    (MIXED_ROWS[:2] + MIXED_ROWS[4:5], {"fit": {"exponent": np.float64(-1.25)}}),
    ([[1, 0.5, "s"], [2, -0.0, "t"], [3, 5e-324, "u"]], {"fit": {"exponent": -0.0}}),
    ([[1, float("nan"), "s"], [2, float("inf"), "t"]], {"fit": {"r_squared": float("nan")}}),
    ([], {"fit": {"exponent": float("-inf")}}),
], ids=["non_finite_cells_and_fits", "finite_numpy_ints", "finite_plain", "plain_non_finite",
        "no_rows"])
def test_emit_matches_oracle(tmp_path, rows, fits):
    columns = MIXED_COLUMNS[:len(rows[0])] if rows else ["only"]
    bundle = cli.ResultBundle(name="t", columns=columns, rows=rows, fits=fits, nonconverged=3)
    config = cli.ExperimentConfig(experiment="spectrum", params={})
    csv_path = cli.emit(bundle, tmp_path, config, walltime=0.0)
    assert csv_path.read_bytes() == _oracle_csv(bundle)
    text = (tmp_path / "t.json").read_text()
    assert "\n" not in text
    assert _loaded(text) == _loaded(_oracle_json(bundle))
    manifest = (tmp_path / "t.manifest.json").read_text()
    assert json.loads(manifest)["experiment"] == "spectrum" and "\n" in manifest


def test_spectrum_csv_matches_oracle_writer(tmp_path, monkeypatch):
    bundles = []
    real_emit = cli.emit

    def keep(bundle, *args, **kwargs):
        bundles.append(bundle)
        return real_emit(bundle, *args, **kwargs)

    monkeypatch.setattr(cli, "emit", keep)
    cfg = write_config(tmp_path, "c.json", {
        "n_spins": 16, "g_grid": {"start": 0.0, "stop": 1.0, "num": 11},
    })
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    (bundle,) = bundles
    assert (tmp_path / "out" / "spectrum.csv").read_bytes() == _oracle_csv(bundle)
    assert _loaded((tmp_path / "out" / "spectrum.json").read_text()) == _loaded(_oracle_json(bundle))
