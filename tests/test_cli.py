import csv
import gc
import json
import math
import os
import subprocess
import sys
import textwrap
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qptsweep import cli, exact, grover, ising, response, schedules


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


def test_ed_block_solve_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "model": "ising_ring", "n_list": [12], "g_grid": [0.25, 0.5, 0.75],
    })
    for out in ("a", "b"):
        # the second run rebuilds the symmetry tables as a fresh process would
        exact._orbits.cache_clear()
        exact._sector.cache_clear()
        assert cli.main(["ed", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    a = (tmp_path / "a" / "ed.csv").read_bytes()
    assert len(read_csv(tmp_path / "a" / "ed.csv")) == 1 + 3 * 4
    assert a == (tmp_path / "b" / "ed.csv").read_bytes()


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
    # the certified Magnus grid goes last, after the columns it joined
    assert rows[0] == ["n_spins", "ka", "T", "schedule", "excitation_probability",
                       "norm_defect", "endpoint_error", "adiabatic_mismatch", "n_grid"]
    for row, total_time in zip(rows[1:], (20.0, 40.0)):
        end = ising.integrate_bogoliubov(float(row[1]), schedules.make_schedule("linear", total_time))
        assert int(row[8]) == end.n_grid <= ising._default_steps(total_time)


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


@pytest.mark.parametrize("channel", ["uniform_x", "nonuniform_x", "single_site_z"])
def test_evenly_spaced_omega_grid_takes_the_all_omega_path(tmp_path, monkeypatch, channel):
    calls = []

    def counting(*args, _inner=response.stream_filon):
        calls.append(args[1])
        return _inner(*args)

    monkeypatch.setattr(response, "stream_filon", counting)
    base = {"n_spins": 16, "T": 20.0, "channel": channel, "ka_list": [float(np.pi / 16)]}

    def run(name, code=0, **extra):
        cfg = write_config(tmp_path, f"{name}.json", {**base, **extra})
        assert cli.main(["response", "--config", cfg, "--out", str(tmp_path / name)]) == code
        count = len(calls)
        calls.clear()
        return count

    # a linspace grid, and a list that is evenly spaced to rounding
    assert run("linspace", omega_grid={"start": -0.5, "stop": 2.5, "num": 7}) == 0
    assert run("even_list", omega_grid=[-0.4 + 0.2 * i for i in range(5)]) == 0
    # an endpoint correction (uniform_x alone takes one), an uneven list and a
    # single frequency stay per frequency
    even = {"start": -0.5, "stop": 2.5, "num": 7}
    if channel == "uniform_x":
        assert run("endpoint_order", omega_grid=even, endpoint_order=2) > 0
    else:
        assert run("endpoint_order", code=1, omega_grid=even, endpoint_order=2) == 0
    assert run("uneven", omega_grid=[-0.2, 0.01, 0.08, 1.0]) > 0
    assert run("single", omega_grid=[0.5]) > 0


@pytest.mark.parametrize("grid", ["even", "uneven", "single"])
@pytest.mark.parametrize("kind", response.CHANNEL_KINDS)
def test_response_rows_are_amplitudes_on_grid(tmp_path, kind, grid):
    n, ka, kpa = 16, float(np.pi / 16), float(3 * np.pi / 16)
    spec = {"even": {"start": -0.5, "stop": 2.5, "num": 5}, "uneven": [-0.2, 0.01, 0.08, 1.0],
            "single": [0.5]}[grid]
    doc = {"n_spins": n, "T": 20.0, "channel": kind, "omega_grid": spec, "ka_list": [ka]}
    if kind == "nonuniform_x":
        doc["kpa"] = kpa
    else:
        kpa = ka
    cfg = write_config(tmp_path, "c.json", doc)
    assert cli.main(["response", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "response.csv")[1:]
    omegas = cli._grid(spec, "omega_grid")
    sched = cli._make_schedule(doc, n_spins=n)
    values, errors, converged = response.amplitudes_on_grid(kind, ka, kpa, omegas, n, sched)
    assert [float(r[4]) for r in rows] == omegas.tolist()
    assert [complex(float(r[7]), float(r[8])) for r in rows] == values.tolist()
    assert [float(r[10]) for r in rows] == errors.tolist()
    assert [int(r[11]) for r in rows] == converged.astype(int).tolist()
    if grid != "uneven":
        return
    # the per-frequency functions give the same values
    for omega, value in zip(omegas, values):
        if kind == "uniform_x":
            assert value == response.amplitude_direct_uniform(ka, omega, sched).value
        elif kind == "nonuniform_x":
            assert value == response.amplitude_direct_nonuniform(ka, kpa, omega, n, sched).value
        else:
            b = response.amplitude_bitflip(ka, omega, sched)
            want = b.a1 + b.a2
            assert abs(value.real - want.real) <= np.spacing(abs(want.real))
            assert abs(value.imag - want.imag) <= np.spacing(abs(want.imag))


@pytest.mark.parametrize("extra,message", [
    ({"endpoint_order": 3}, "0, 1 or 2"),
    ({"endpoint_order": 2.7}, "0, 1 or 2"),
    ({"endpoint_order": -1}, "0, 1 or 2"),
    ({"endpoint_order": True}, "0, 1 or 2"),
    ({"endpoint_order": "2"}, "0, 1 or 2"),
    ({"endpoint_order": 1, "channel": "nonuniform_x"}, "only to the uniform_x"),
    ({"endpoint_order": 2, "channel": "single_site_z"}, "only to the uniform_x"),
], ids=["three", "fraction", "negative", "bool", "string", "nonuniform", "single_site"])
def test_response_endpoint_order_checked(tmp_path, capsys, extra, message):
    cfg = write_config(tmp_path, "c.json", {
        "n_spins": 16, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5],
        "ka_list": [float(np.pi / 16)], **extra,
    })
    assert cli.main(["response", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and message in err and "\n" not in err


@pytest.mark.parametrize("channel,order", [
    ("uniform_x", 0), ("uniform_x", 1), ("uniform_x", 2.0), ("single_site_z", 0),
])
def test_response_endpoint_order_accepts_whole_orders(tmp_path, channel, order):
    cfg = write_config(tmp_path, "c.json", {
        "n_spins": 16, "T": 20.0, "channel": channel, "omega_grid": [0.5],
        "ka_list": [float(np.pi / 16)], "endpoint_order": order,
    })
    assert cli.main(["response", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_grover_run_with_probe(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "n_list": [4, 6], "T": 50.0, "coupling": 0.01,
        "bath": {"kind": "dirac_comb", "omega0": [-0.25], "weight": [1.0]},
    })
    assert cli.main(["grover", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "grover.csv")
    assert len(rows) == 3
    assert float(rows[1][3]) > 0.0


def test_scaling_mixed_gap_reaches_n_60(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"study": "mixed_gap", "n_list": [54, 56, 58, 60]})
    assert cli.main(["scaling", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "scaling_mixed_gap.csv")
    assert [int(row[0]) for row in rows[1:]] == [54, 56, 58, 60]


def test_manifest_hash_tracks_config(tmp_path):
    cfg1 = write_config(tmp_path, "c1.json", {"study": "gap_law", "n_list": [8, 16, 32, 64]})
    cfg2 = write_config(tmp_path, "c2.json", {"study": "gap_law", "n_list": [8, 16, 32, 128]})
    cli.main(["scaling", "--config", cfg1, "--out", str(tmp_path / "a")])
    cli.main(["scaling", "--config", cfg2, "--out", str(tmp_path / "b")])
    ma = json.loads((tmp_path / "a" / "scaling_gap_law.manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "scaling_gap_law.manifest.json").read_text())
    assert ma["config_sha256"] != mb["config_sha256"]


def test_manifest_records_machine_facts(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"study": "gap_law", "n_list": [8, 16, 32, 64]})
    assert cli.main(["scaling", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "scaling_gap_law.manifest.json").read_text())
    assert manifest["nproc"] >= 1
    assert manifest["python_version"] == "%d.%d.%d" % sys.version_info[:3]
    assert manifest["scipy_version"] and manifest["numpy_version"] == np.__version__


_IMPORT_GUARD = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    import qptsweep.cli as cli

    def slow():
        return sorted(m for m in sys.modules if m.startswith(("scipy.interpolate", "scipy.optimize")))

    loaded = {"import": slow()}
    tmp = Path(sys.argv[1])
    runs = {
        "spectrum": {"n_spins": 8, "g_grid": [0.0, 0.5, 1.0]},
        "sweep": {"n_spins": 8, "schedule": "linear", "T_list": [5.0], "ka_list": [0.39269908169872414]},
        "sweep_adapted": {"n_spins": 8, "schedule": "gap_adapted", "T_list": [5.0],
                          "ka_list": [0.39269908169872414]},
        "response": {"n_spins": 16, "T": 20.0, "channel": "uniform_x", "endpoint_order": 2,
                     "omega_grid": [0.5], "ka_list": [0.19634954084936207]},
        "scaling": {"study": "mixed_gap", "n_list": [4, 6, 8, 10], "coarse_points": 9},
    }
    for name, doc in runs.items():
        cfg = tmp / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        code = cli.main([name.split("_")[0], "--config", str(cfg), "--out", str(tmp / name)])
        loaded[name] = slow() if code == 0 else f"exit {code}"
    # the tabulated bath still interpolates; it imports scipy.interpolate itself
    tabulated = cli.bath.load_tabulated([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
    print(json.dumps(loaded), cli.bath.evaluate(tabulated, 0.5))
""")


def _fresh_python(code, *args):
    """Run ``python -c code *args`` in a fresh interpreter that imports this qptsweep."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)


def test_slow_scipy_modules_stay_off_the_import_path(tmp_path):
    # a fresh interpreter: pytest itself (and other tests) may import scipy.optimize
    proc = _fresh_python(_IMPORT_GUARD, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    doc, tabulated = proc.stdout.rsplit(" ", 1)
    assert float(tabulated) == pytest.approx(2.0)
    loaded = json.loads(doc)
    assert set(loaded) == {"import", "spectrum", "sweep", "sweep_adapted", "response", "scaling"}
    assert all(mods == [] for mods in loaded.values()), loaded


def test_import_freezes_the_import_time_heap():
    proc = _fresh_python(
        "import gc, numpy\n"
        "before = gc.get_freeze_count(), len(gc.get_objects())\n"
        "import qptsweep.cli\n"
        "print(*before, gc.get_freeze_count())"
    )
    assert proc.returncode == 0, proc.stderr
    frozen_before, numpy_tracked, frozen = map(int, proc.stdout.split())
    # the objects of numpy's import and of qptsweep's own are frozen, and only at import
    assert frozen_before == 0
    assert frozen > numpy_tracked


def test_garbage_made_after_import_is_still_collected():
    class Node:
        pass

    node = Node()
    node.self = node
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("subcommand, doc", [
    ("spectrum", {"n_spins": 8, "g_grid": [0.0, 0.25, 0.5, 0.75, 1.0]}),
    ("sweep", {"n_spins": 8, "schedule": "linear", "T_list": [10.0]}),
])
def test_fresh_process_exit_writes_what_main_writes(tmp_path, subcommand, doc):
    # the real exit path: frozen objects must not cost a flush or a close at shutdown
    cfg = write_config(tmp_path, "c.json", doc)
    code = cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / "inproc")])
    argv = [subcommand, "--config", cfg, "--out", str(tmp_path / "fresh")]
    proc = _fresh_python(f"import sys; from qptsweep.cli import main; sys.exit(main({argv!r}))")
    assert proc.returncode == code, proc.stderr
    for name in (f"{subcommand}.csv", f"{subcommand}.json"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "inproc" / name).read_bytes()


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
    ("spectrum", {"n_spins": 8, "g_grid": [0.25, 0.5, 1.5]}),
    ("spectrum", {"n_spins": 8, "g_grid": [0.0, float("nan")]}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x",
                  "omega_grid": [0.4, float("nan")], "ka_list": [0.19634954084936207]}),
    ("sweep", {"n_spins": 16, "T_list": [20.0], "ka_list": []}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5],
                  "ka_list": []}),
    ("scaling", {"study": "mixed_gap", "n_list": [4, 6, 8, 10, 10], "coarse_points": 9}),
    ("ed", {"model": "ising_ring", "n_list": [6], "g_grid": [0.5], "m": 2.5}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_z", "omega_grid": [0.5]}),
    ("scaling", {"study": "mixed_gap", "n_list": [58, 60, 62], "coarse_points": 9}),
], ids=["sweep_ka_above_pi", "sweep_frozen_without_g", "spectrum_odd_n", "ed_n_too_large",
        "spectrum_g_above_1", "spectrum_nan_g", "response_nan_omega", "sweep_empty_ka_list",
        "response_empty_ka_list", "mixed_gap_repeated_n", "ed_fractional_m",
        "response_unknown_channel", "mixed_gap_n_above_60"])
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


def test_bitflip_nonconverged_rows_exit_2(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "c.json", {
        "n_spins": 8, "T": 50.0, "channel": "single_site_z", "omega_grid": [0.3, 0.5],
    })
    monkeypatch.setattr(response, "refine", lambda *args: (0j, 1.0, False))
    assert cli.main(["response", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    with open(tmp_path / "out" / "response.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["converged"] for row in rows] == ["0", "0"]
    doc = json.loads((tmp_path / "out" / "response.json").read_text())
    assert doc["nonconverged"] == len(doc["rows"]) == 2


@pytest.mark.parametrize("subcommand,doc", [
    ("spectrum", {"n_spins": 8, "g_grid": {"start": 0.0, "stop": 1.0, "num": 0}}),
    ("spectrum", {"n_spins": 8, "g_grid": {"start": 1.0, "stop": 0.0, "num": 5}}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x",
                  "omega_grid": {"start": 0.5, "stop": 0.5, "num": 0}}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x",
                  "omega_grid": {"start": 0.6, "stop": 0.4, "num": 3}}),
    ("spectrum", {"n_spins": 8, "g_grid": {"start": float("nan"), "stop": 1.0, "num": 5}}),
    ("spectrum", {"n_spins": 8, "g_grid": {"start": 0.0, "stop": float("nan"), "num": 1}}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x",
                  "omega_grid": {"start": 0.4, "stop": float("inf"), "num": 3}}),
], ids=["spectrum_num_0", "spectrum_descending", "response_num_0", "response_descending",
        "spectrum_nan_start", "spectrum_nan_stop_num_1", "response_inf_stop"])
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


_EDGE_FLOATS = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
    2.0**63, -(2.0**63), 9.2233720368547748e18, 1.7976931348623157e308, 0.1,
]
_EDGE_INTS = [0, -1, 1, 2**63 - 1, -(2**63), 2**63 - 2, -(2**63) + 1, 2**53 + 1]


def _column(values, edges):
    """Every edge value, then many repeats of a few values drawn with them."""
    def build(drawn):
        pool, picks = drawn[0] + edges, drawn[1]
        return edges + [pool[i % len(pool)] for i in picks]

    return st.tuples(st.lists(values, max_size=4), st.lists(st.integers(0, 15), max_size=80)).map(build)


_FLOAT_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    # any bit pattern: subnormals and NaN payloads of either sign
    st.integers(-(2**63), 2**63 - 1).map(lambda b: float(np.int64(b).view(np.float64))),
)
_INT_VALUES = st.integers(-(2**63), 2**63 - 1)


@given(floats=_column(_FLOAT_VALUES, _EDGE_FLOATS), ints=_column(_INT_VALUES, _EDGE_INTS))
def test_array_column_texts_match_per_cell_rule(floats, ints):
    for col in (np.array(floats, dtype=np.float64), np.array(ints, dtype=np.int64)):
        assert list(cli._texts(col, cli._csv_text)) == [_oracle_fmt(x) for x in col]
        assert list(cli._texts(col, cli._json_text)) == [
            json.dumps(_oracle_json_value(x)) for x in col
        ]


def test_spectrum_bytes_match_oracle(tmp_path):
    # -0.0 and 0.0 are distinct cells: a cache keyed on values would merge them
    grid = [-0.0, 0.0, 0.0, 0.5, 1.0]
    cfg = write_config(tmp_path, "c.json", {"n_spins": 8, "g_grid": grid})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    momenta = ising.momentum_grid(ising.ChainParams(8))
    rows = [
        [8, float(ka), float(g), float(e)]
        for g in grid for ka, e in zip(momenta, ising.dispersion(momenta, g))
    ]
    oracle = types.SimpleNamespace(columns=["n_spins", "ka", "g", "energy"], rows=rows)
    assert (tmp_path / "out" / "spectrum.csv").read_bytes() == _oracle_csv(oracle)
    doc = {
        "columns": oracle.columns, "fits": {}, "nonconverged": 0,
        "rows": [[_oracle_json_value(x) for x in row] for row in rows],
    }
    expected = json.dumps(doc, sort_keys=True, allow_nan=False, separators=(",", ":"))
    assert (tmp_path / "out" / "spectrum.json").read_text() == expected
    assert ",-0," in (tmp_path / "out" / "spectrum.csv").read_text()
    assert ",-0.0," in expected
