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

from qptsweep import _kernels, cli, exact, grover, ising, response, schedules


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def assert_same_text(got, want):
    """``got == want`` for two long texts (str or bytes), failing with the first
    differing offset and about 200 characters around it: pytest's own diff of a
    1 MB mismatch takes minutes."""
    if got == want:
        return
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(i - 100, 0)
    pytest.fail(f"texts differ at offset {i} of {len(got)} and {len(want)}:\n"
                f"got  {got[lo:i + 100]!r}\nwant {want[lo:i + 100]!r}", pytrace=False)


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

    def counting(*args, _inner=_kernels.stream_filon):
        calls.append(args[1])
        return _inner(*args)

    monkeypatch.setattr(_kernels, "stream_filon", counting)
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
    sched = schedules.make_schedule("linear", doc["T"], n_spins=n)
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


def test_manifest_records_affinity_and_emit_seconds(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    cfg = write_config(tmp_path, "c.json", {"n_spins": 8, "g_grid": [0.0, 0.5]})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "spectrum.manifest.json").read_text())
    assert manifest["nproc"] == 1
    assert manifest["emit_s"] >= 0.0


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


_INT_COLUMNS = {"n_spins", "level", "n_grid", "converged", "n_qubits", "dim"}
_STR_COLUMNS = {"model", "schedule", "channel", "regime", "method"}


def test_json_mirror_roundtrip(tmp_path):
    # every mirror cell is its CSV cell read back: an int or a string as written, a float
    # bit for bit (-0.0 too) and nan or +-inf as null
    runs = [
        ("spectrum", "spectrum", {"n_spins": 8, "g_grid": [-0.0, 0.0, 0.5, 1.0]}),
        ("response", "response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x",  # all omega at once
                                  "omega_grid": {"start": 0.3, "stop": 0.6, "num": 4}}),
        ("response", "response", {"n_spins": 16, "T": 20.0, "channel": "single_site_z",  # per omega
                                  "omega_grid": [0.3, 0.35, 0.5]}),
        ("sweep", "sweep", {"n_spins": 16, "T_list": [20.0]}),
        ("ed", "ed", {"model": "ising_ring", "n_list": [6], "g_grid": [0.0, 0.5], "m": 2}),
        ("grover", "grover", {"n_list": [4], "T": 50.0, "bath": {"kind": "thermal_bosonic"}}),
        ("scaling", "scaling_gap_law", {"study": "gap_law", "n_list": [8, 16, 32, 64]}),
    ]
    kinds = set()
    for i, (subcommand, name, config) in enumerate(runs):
        out = tmp_path / str(i)
        cfg = write_config(tmp_path, f"{i}.json", config)
        assert cli.main([subcommand, "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / f"{name}.json").read_text(), parse_constant=_reject_constant)
        header, *rows = read_csv(out / f"{name}.csv")
        assert doc["columns"] == header and len(doc["rows"]) == len(rows) > 0
        for jrow, crow in zip(doc["rows"], rows):
            assert len(jrow) == len(crow)
            for column, j, c in zip(header, jrow, crow):
                if column in _INT_COLUMNS:
                    assert type(j) is int and str(j) == c
                elif column in _STR_COLUMNS:
                    assert j == c
                elif j is None:
                    assert c in ("nan", "inf", "-inf")
                else:
                    assert type(j) is float
                    assert np.float64(j).view(np.int64) == np.float64(float(c)).view(np.int64)
                kinds.add(c if c in ("nan", "-0", "0") else type(j).__name__)
        if name == "scaling_gap_law":
            assert doc["fits"]["gap_law"]["exponent"] == pytest.approx(-1.0, abs=0.02)
    assert {"nan", "-0", "0", "float", "int", "str"} <= kinds


@pytest.mark.parametrize("subcommand,doc", [
    ("sweep", {"n_spins": 16, "T_list": [20.0], "ka_list": [4.0]}),
    ("sweep", {"n_spins": 16, "T_list": [20.0], "schedule": "frozen"}),
    ("spectrum", {"n_spins": 15}),
    ("ed", {"model": "ising_ring", "n_list": [16]}),
    ("spectrum", {"n_spins": 8, "g_grid": [0.25, 0.5, 1.5]}),
    ("spectrum", {"n_spins": 8, "g_grid": [0.0, float("nan")]}),
    # 1 - 2g rounds to 1 as at g = 0, so this g shares the energies of g = 0
    ("spectrum", {"n_spins": 8, "g_grid": [-1e-300, 0.0, 0.5]}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x",
                  "omega_grid": [0.4, float("nan")], "ka_list": [0.19634954084936207]}),
    ("sweep", {"n_spins": 16, "T_list": [20.0], "ka_list": []}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5],
                  "ka_list": []}),
    ("scaling", {"study": "mixed_gap", "n_list": [4, 6, 8, 10, 10], "coarse_points": 9}),
    ("ed", {"model": "ising_ring", "n_list": [6], "g_grid": [0.5], "m": 2.5}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_z", "omega_grid": [0.5]}),
    ("scaling", {"study": "mixed_gap", "n_list": [58, 60, 62], "coarse_points": 9}),
    # a scalar where a list is required
    ("ed", {"model": "ising_ring", "n_list": 5}),
    ("sweep", {"n_spins": 16, "T_list": 20}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5],
                  "ka_list": 0.2}),
    ("grover", {"n_list": [4], "T": 50.0, "bath": 5}),
    # a key the run does not read
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5],
                  "coupling": 0.5}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "single_site_z", "omega_grid": [0.5],
                  "kpa": 0.5}),
    ("sweep", {"n_spins": 16, "T_list": [20.0], "g_frozen": 0.5}),
    ("scaling", {"study": "gap_law", "n_list": [8, 16, 32, 64], "coarse_points": 9}),
    ("grover", {"n_list": [4], "T": 50.0,
                "bath": {"kind": "dirac_comb", "omega0": [0.5], "weight": [1.0], "beta": 1.0}}),
    # a sweep time or a momentum that is not a finite number
    ("sweep", {"n_spins": 16, "T_list": [float("inf")]}),
    ("response", {"n_spins": 16, "T": float("inf"), "channel": "uniform_x", "omega_grid": [0.5]}),
    ("response", {"n_spins": 16, "T": float("nan"), "channel": "uniform_x", "omega_grid": [0.5]}),
    ("sweep", {"n_spins": 16, "T_list": [20.0], "ka_list": [float("nan")]}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5],
                  "ka_list": [float("nan")]}),
    # a sweep time that is a bool or not a number, a chain length that is not whole
    ("sweep", {"n_spins": 16, "T_list": [True]}),
    ("sweep", {"n_spins": 16, "T_list": ["20"]}),
    ("grover", {"n_list": [4], "T": True}),
    ("response", {"n_spins": 16, "T": "20", "channel": "uniform_x", "omega_grid": [0.5]}),
    ("spectrum", {"n_spins": 8.5}),
    ("sweep", {"n_spins": 16.5, "T_list": [20.0]}),
    ("response", {"n_spins": True, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5]}),
    # a value of the wrong type: a fraction where a whole number is read, a bool where a number is
    ("ed", {"model": "ising_ring", "n_list": [4.5]}),
    ("grover", {"n_list": [4.5], "T": 50.0}),
    ("scaling", {"study": "gap_law", "n_list": [8.5, 16, 32, 64]}),
    ("scaling", {"study": "near_gap_table", "n_list": [32.5, 64, 128, 256]}),
    ("scaling", {"study": "mixed_gap", "n_list": [4, 6, 8, 10], "coarse_points": 9.7}),
    ("scaling", {"study": "mixed_gap", "n_list": [4, 6, 8, 10], "coarse_points": True}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "nonuniform_x", "omega_grid": [0.5],
                  "kpa": True}),
    ("grover", {"n_list": [4], "T": 50.0, "coupling": True}),
    ("grover", {"n_list": [4], "T": 50.0, "bath": {"theta": True}}),
    ("grover", {"n_list": [4], "T": 50.0, "bath": {"kind": "dirac_comb", "omega0": True, "weight": 1.0}}),
    ("spectrum", {"n_spins": 8, "g_grid": [True, 1]}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x", "omega_grid": [True, 2]}),
    ("sweep", {"n_spins": 16, "T_list": [20.0], "ka_list": [True]}),
    # a chain that ising.ChainParams forbids, a number beyond float range, a coupling that is
    # not a finite nonnegative number, and a grover schedule other than linear
    ("sweep", {"n_spins": 0, "T_list": [20.0]}),
    ("sweep", {"n_spins": 3, "T_list": [5.0]}),
    ("sweep", {"n_spins": -4, "T_list": [5.0]}),
    ("response", {"n_spins": 0, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5]}),
    ("response", {"n_spins": 3, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5]}),
    ("response", {"n_spins": -4, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5]}),
    ("grover", {"n_list": [4], "T": 10**400}),
    ("grover", {"n_list": [4], "T": 50.0, "coupling": float("nan")}),
    ("grover", {"n_list": [4], "T": 50.0, "coupling": float("inf")}),
    ("grover", {"n_list": [4], "T": 50.0, "schedule": "gap_adapted"}),
    ("grover", {"n_list": [4], "T": 50.0, "schedule": "gap_squared_adapted"}),
    # a mode without a Bogoliubov pair at g = 1/2, and a chain too long for pi/N to be a float
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5], "ka_list": [0.0]}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "single_site_z", "omega_grid": [0.5],
                  "ka_list": [0.0]}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "nonuniform_x", "omega_grid": [0.5],
                  "ka_list": [0.0]}),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "nonuniform_x", "omega_grid": [0.5], "kpa": 0.0}),
    ("sweep", {"n_spins": 2 * 10**400, "T_list": [5.0]}),
    ("response", {"n_spins": 2 * 10**400, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5]}),
    # a bath parameter that is NaN, or infinite where only omega_c and beta may be
    ("grover", {"n_list": [4], "T": 50.0, "bath": {"omega_c": float("nan")}}),
    ("grover", {"n_list": [4], "T": 50.0, "bath": {"omega_ph": float("nan")}}),
    ("grover", {"n_list": [4], "T": 50.0, "bath": {"epsilon": float("inf")}}),
    ("grover", {"n_list": [4], "T": 50.0, "bath": {"kind": "dirac_comb", "omega0": 1.0, "weight": float("nan")}}),
    ("grover", {"n_list": [4], "T": 50.0, "bath": {"kind": "dirac_comb", "omega0": 1.0, "weight": float("inf")}}),
    ("grover", {"n_list": [4], "T": 50.0, "bath": {"kind": "dirac_comb", "omega0": float("nan"), "weight": 1.0}}),
    ("grover", {"n_list": [4], "T": 50.0, "bath": {"kind": "dirac_comb", "omega0": float("inf"), "weight": 1.0}}),
], ids=["sweep_ka_above_pi", "sweep_unknown_schedule", "spectrum_odd_n", "ed_n_too_large",
        "spectrum_g_above_1", "spectrum_nan_g", "spectrum_g_below_0_folded_into_0",
        "response_nan_omega", "sweep_empty_ka_list",
        "response_empty_ka_list", "mixed_gap_repeated_n", "ed_fractional_m",
        "response_unknown_channel", "mixed_gap_n_above_60", "ed_scalar_n_list",
        "sweep_scalar_T_list", "response_scalar_ka_list", "grover_scalar_bath",
        "response_unread_coupling", "response_kpa_without_nonuniform_x",
        "sweep_unread_key", "gap_law_unread_coarse_points", "grover_unread_bath_key",
        "sweep_infinite_T", "response_infinite_T", "response_nan_T", "sweep_nan_ka", "response_nan_ka",
        "sweep_bool_T", "sweep_string_T", "grover_bool_T", "response_string_T", "spectrum_fractional_n",
        "sweep_fractional_n", "response_bool_n", "ed_fractional_n", "grover_fractional_n",
        "gap_law_fractional_n", "near_gap_table_fractional_n", "mixed_gap_fractional_coarse_points",
        "mixed_gap_bool_coarse_points", "response_bool_kpa", "grover_bool_coupling", "grover_bool_theta",
        "dirac_comb_bool_omega0", "spectrum_bool_g", "response_bool_omega", "sweep_bool_ka",
        "sweep_zero_n", "sweep_odd_n", "sweep_negative_n", "response_zero_n", "response_odd_n",
        "response_negative_n", "grover_T_beyond_float", "grover_nan_coupling", "grover_infinite_coupling",
        "grover_gap_adapted", "grover_gap_squared_adapted", "response_uniform_x_zero_ka",
        "response_single_site_z_zero_ka", "response_nonuniform_x_zero_ka", "response_zero_kpa",
        "sweep_n_beyond_float", "response_n_beyond_float", "thermal_nan_omega_c", "thermal_nan_omega_ph",
        "thermal_infinite_epsilon", "dirac_comb_nan_weight", "dirac_comb_infinite_weight", "dirac_comb_nan_omega0",
        "dirac_comb_infinite_omega0"])
def test_bad_physics_input_exits_1_with_one_line(tmp_path, capsys, subcommand, doc):
    cfg = write_config(tmp_path, "c.json", doc)
    assert cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand,doc,computes", [
    ("sweep", {"n_spins": 16, "T_list": [20.0, 20], "g_frozen": 0.5}, (ising, "integrate_bogoliubov")),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5],
                  "ka_list": [0.2, 0.4], "kpa": 0.6}, (response, "amplitudes_on_grid")),
    ("grover", {"n_list": [4], "T": 50.0, "coupling": 0.01, "bath": 5}, (grover, "error_estimate")),
    ("sweep", {"n_spins": 16, "T_list": [20.0, float("inf")]}, (ising, "integrate_bogoliubov")),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "uniform_x", "omega_grid": [0.5],
                  "ka_list": [0.2, float("nan")]}, (response, "amplitudes_on_grid")),
    ("ed", {"model": "ising_ring", "n_list": [6, 4.5]}, (exact, "build_hamiltonian")),
    ("scaling", {"study": "gap_law", "n_list": [8, 16, 32, 64.5]}, (ising, "global_min_gap")),
    ("grover", {"n_list": [4], "T": 50.0, "bath": {"theta": True}}, (grover, "error_estimate")),
    ("response", {"n_spins": 16, "T": 20.0, "channel": "single_site_z", "omega_grid": [0.5],
                  "ka_list": [0.2, 0.0]}, (response, "amplitudes_on_grid")),
], ids=["sweep", "response", "grover", "sweep_last_T_infinite", "response_last_ka_nan",
        "ed_last_n_fractional", "gap_law_last_n_fractional", "grover_bool_bath_key", "response_last_ka_zero"])
def test_config_is_checked_before_any_computation(tmp_path, monkeypatch, subcommand, doc, computes):
    def computed(*args, **kwargs):
        raise AssertionError("computed before the config was checked")

    monkeypatch.setattr(*computes, computed)
    cfg = write_config(tmp_path, "c.json", doc)
    assert cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 1


# a valid config for each table of cli._KEYS: (subcommand, config, the key of the
# object that holds the table's keys, or None for the config itself)
_TABLE_BASES = {
    "spectrum": ("spectrum", {"n_spins": 8}, None),
    "ed": ("ed", {"model": "ising_ring", "n_list": [4]}, None),
    "sweep": ("sweep", {"n_spins": 8, "T_list": [5.0]}, None),
    "response": ("response", {"n_spins": 8, "T": 5.0, "channel": "uniform_x", "omega_grid": [0.5]}, None),
    ("channel", "nonuniform_x"): (
        "response", {"n_spins": 8, "T": 5.0, "channel": "nonuniform_x", "omega_grid": [0.5]}, None),
    "grover": ("grover", {"n_list": [4], "T": 20.0}, None),
    "bath": ("grover", {"n_list": [4], "T": 20.0, "bath": {}}, "bath"),
    ("kind", "thermal_bosonic"): (
        "grover", {"n_list": [4], "T": 20.0, "bath": {"kind": "thermal_bosonic"}}, "bath"),
    ("kind", "tabulated"): (
        "grover", {"n_list": [4], "T": 20.0, "bath": {"kind": "tabulated", "path": "f.csv"}}, "bath"),
    ("kind", "dirac_comb"): (
        "grover", {"n_list": [4], "T": 20.0, "bath": {"kind": "dirac_comb", "omega0": 0.5, "weight": 1.0}},
        "bath"),
    "scaling": ("scaling", {"study": "gap_law", "n_list": [8, 16, 32, 64]}, None),
    ("study", "gap_law"): ("scaling", {"study": "gap_law", "n_list": [8, 16, 32, 64]}, None),
    ("study", "near_gap_table"): ("scaling", {"study": "near_gap_table", "n_list": [8, 16, 32, 64]}, None),
    ("study", "mixed_gap"): (
        "scaling", {"study": "mixed_gap", "n_list": [4, 6, 8, 10], "coarse_points": 9}, None),
    "linspace": ("spectrum", {"n_spins": 8, "g_grid": {"start": 0.0, "stop": 1.0, "num": 3}}, "g_grid"),
}
_TABLE_KEYS = [(table, key) for table in cli._KEYS for key in cli._KEYS[table]]


def _table_id(table):
    return table if isinstance(table, str) else "=".join(table)


def test_every_table_has_a_valid_base_config(tmp_path, monkeypatch):
    assert set(_TABLE_BASES) == set(cli._KEYS)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.csv").write_text("0.0,1.0\n1.0,2.0\n")
    for i, (subcommand, doc, _) in enumerate(_TABLE_BASES.values()):
        cfg = write_config(tmp_path, f"c{i}.json", doc)
        assert cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / f"out{i}")]) == 0, doc


@pytest.mark.parametrize("table,key", _TABLE_KEYS, ids=[f"{_table_id(t)}-{k}" for t, k in _TABLE_KEYS])
def test_every_config_key_rejects_a_bool(tmp_path, capsys, table, key):
    subcommand, doc, holder = _TABLE_BASES[table]
    doc = json.loads(json.dumps(doc))
    (doc[holder] if holder else doc)[key] = True
    cfg = write_config(tmp_path, "c.json", doc)
    assert cli.main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


_README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_tables():
    """{caption: {key: default cell}} of every key table in the README: a
    table whose header starts with ``| key |``, captioned by the first bold
    text of the nearest line above it that starts in bold."""
    lines = _README.read_text().splitlines()
    tables = {}
    for i, line in enumerate(lines):
        if line.startswith("| key |"):
            caption = next(lines[j] for j in range(i - 1, -1, -1) if lines[j].startswith("**"))
            rows = lines[i + 2:]
            rows = rows[:next((j for j, row in enumerate(rows) if not row.startswith("|")), len(rows))]
            cells = [row.strip("| ").split(" | ") for row in rows]
            tables[caption.split("**")[1]] = {c[0].strip("`"): c[2] for c in cells}
    return tables


def test_readme_names_every_config_key_with_its_default():
    tables = _readme_tables()
    for table, keys in cli._KEYS.items():
        caption = f"`{table}`" if isinstance(table, str) else f"`{table[0]}` = `{table[1]}`"
        assert caption in tables, caption
        documented = tables[caption]
        assert set(documented) == set(keys), caption
        for key, (_, default) in keys.items():
            if default is cli._REQUIRED:
                assert documented[key] == "required", (caption, key)
            elif default is None:  # the runner's or the library's default, in words
                assert documented[key] not in ("", "required"), (caption, key)
            else:
                assert documented[key] == f"`{json.dumps(default)}`", (caption, key)


def _readme_headers():
    """{table: CSV header} of the README's columns table."""
    lines = _README.read_text().splitlines()
    start = lines.index("| table | one row per | header |") + 2
    rows = lines[start:start + next(j for j, row in enumerate(lines[start:]) if not row.startswith("|"))]
    return {cells[0].strip("`"): cells[2].strip("`") for cells in (row.strip("| ").split(" | ") for row in rows)}


# a small config of every table, by subcommand
_SMALL_RUNS = [
    ("spectrum", {"n_spins": 4, "g_grid": [0.5]}),
    ("ed", {"model": "ising_ring", "n_list": [4], "g_grid": [0.5], "m": 2}),
    ("sweep", {"n_spins": 4, "T_list": [2.0]}),
    ("response", {"n_spins": 8, "T": 5.0, "channel": "uniform_x", "omega_grid": [0.5]}),
    ("grover", {"n_list": [4], "T": 5.0}),
    ("scaling", {"study": "gap_law", "n_list": [8, 16, 32, 64]}),
    ("scaling", {"study": "near_gap_table", "n_list": [8, 16, 32, 64]}),
    ("scaling", {"study": "mixed_gap", "n_list": [4, 6, 8, 10], "coarse_points": 5}),
]


def test_readme_names_every_csv_header(tmp_path):
    headers, seen = _readme_headers(), []
    for i, (subcommand, doc) in enumerate(_SMALL_RUNS):
        out = tmp_path / f"out{i}"
        assert cli.main([subcommand, "--config", write_config(tmp_path, f"{i}.json", doc), "--out", str(out)]) == 0
        (csv_path,) = out.glob("*.csv")
        seen.append(csv_path.stem)
        assert csv_path.read_text().split("\n", 1)[0] == headers[csv_path.stem], csv_path.stem
    assert seen == list(headers)


def test_readme_example_configs_run(tmp_path):
    # the ```json blocks under "Example configs", up to the next section
    section = _README.read_text().split("Example configs", 1)[1].split("\n## ", 1)[0]
    docs = [json.loads(block.split("```", 1)[0]) for block in section.split("```json\n")[1:]]
    assert [doc["experiment"] for doc in docs] == ["spectrum", "scaling", "response"]
    headers = _readme_headers()
    for i, doc in enumerate(docs):
        out = tmp_path / f"out{i}"
        assert cli.main([doc["experiment"], "--config", write_config(tmp_path, f"{i}.json", doc),
                         "--out", str(out)]) == 0
        (csv_path,) = out.glob("*.csv")
        assert csv_path.read_text().split("\n", 1)[0] == headers[csv_path.stem]


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
    monkeypatch.setattr(grover, "filon_integral", lambda env, phase, dt: 1.0 / dt)
    assert cli.main(["grover", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    doc = json.loads((tmp_path / "out" / "grover.json").read_text())
    assert doc["nonconverged"] == len(doc["rows"]) == 3


def test_bitflip_nonconverged_rows_exit_2(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "c.json", {
        "n_spins": 8, "T": 50.0, "channel": "single_site_z", "omega_grid": [0.3, 0.5],
    })
    monkeypatch.setattr(
        response, "refine", lambda *args: (np.zeros(1, dtype=complex), np.ones(1), np.zeros(1, dtype=bool))
    )
    assert cli.main(["response", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    with open(tmp_path / "out" / "response.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["converged"] for row in rows] == ["0", "0"]
    doc = json.loads((tmp_path / "out" / "response.json").read_text())
    assert doc["nonconverged"] == len(doc["rows"]) == 2


def test_near_gap_table_nonconverged_rows_exit_2(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "c.json", {"study": "near_gap_table", "n_list": [8, 16, 32, 64]})
    monkeypatch.setattr(  # the N = 64 bound of each of the three schedules is not certified
        response, "amplitude_bound_near_gap",
        lambda ka, sched: response.AmplitudeResult(value=1.0 + 0j, quad_error=1.0, converged=ka > 0.06),
    )
    assert cli.main(["scaling", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    doc = json.loads((tmp_path / "out" / "scaling_near_gap_table.json").read_text())
    assert doc["nonconverged"] == 3 and len(doc["rows"]) == 12


@pytest.mark.parametrize("channel,omegas", [
    ("uniform_x", [0.5]), ("single_site_z", [0.3, 0.35, 0.5]), ("nonuniform_x", [0.5]),
])
def test_per_frequency_nonconverged_rows_exit_2(tmp_path, monkeypatch, channel, omegas):
    # a single or uneven omega grid takes filon_refined per frequency, whose
    # failed certificate must reach each row and the exit code
    cfg = write_config(tmp_path, "c.json", {
        "n_spins": 8, "T": 20.0, "channel": channel, "omega_grid": omegas,
    })
    monkeypatch.setattr(response, "filon_refined", lambda *args: (0j, 1.0, False))
    assert cli.main(["response", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    with open(tmp_path / "out" / "response.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["converged"] for row in rows] == ["0"] * len(omegas)
    doc = json.loads((tmp_path / "out" / "response.json").read_text())
    assert doc["nonconverged"] == len(doc["rows"]) == len(omegas)


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
    ("spectrum", {"n_spins": 8, "g_grid": {"start": 0.0, "stop": 1.0, "num": 2.5}}),
    ("spectrum", {"n_spins": 8, "g_grid": {"start": 0.0, "stop": 1.0, "num": True}}),
    ("spectrum", {"n_spins": 8, "g_grid": {"start": 0.0, "stop": 1.0, "num": "3"}}),
], ids=["spectrum_num_0", "spectrum_descending", "response_num_0", "response_descending",
        "spectrum_nan_start", "spectrum_nan_stop_num_1", "response_inf_stop",
        "spectrum_fractional_num", "spectrum_bool_num", "spectrum_string_num"])
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


def _oracle_rows(bundle):
    """The table's rows, with a factored column (values, index) expanded to values[index]."""
    return zip(*(col[0][col[1]] if isinstance(col, tuple) else col for col in bundle.data))


def _oracle_csv(bundle):
    lines = [",".join(bundle.columns)]
    for row in _oracle_rows(bundle):
        lines.append(",".join(_oracle_fmt(x) for x in row))
    return ("\n".join(lines) + "\n").encode()


def _oracle_json(bundle):
    doc = {
        "columns": bundle.columns,
        "rows": [[_oracle_json_value(x) for x in row] for row in _oracle_rows(bundle)],
        "fits": {k: {kk: _oracle_json_value(v) for kk, v in fit.items()}
                 for k, fit in bundle.fits.items()},
        "nonconverged": bundle.nonconverged,
    }
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)


def _oracle_mirror_cell(x):
    """A row cell of the mirror: str and bool as JSON, an int as str(), a float as its CSV
    text with ".0" after an integral one and null for a non-finite one."""
    if isinstance(x, (str, bool)):
        return json.dumps(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        return "null"
    text = "%.17g" % x
    return text if "." in text or "e" in text else text + ".0"


def _oracle_mirror(columns, rows, fits, nonconverged):
    """The compact mirror, byte for byte: the head as json.dumps writes it, then the rows."""
    head = json.dumps({
        "columns": columns, "nonconverged": nonconverged,
        "fits": {k: {kk: _oracle_json_value(v) for kk, v in fit.items()} for k, fit in fits.items()},
    }, sort_keys=True, allow_nan=False, separators=(",", ":"))
    body = ",".join("[" + ",".join(map(_oracle_mirror_cell, row)) + "]" for row in rows)
    return head[:-1] + ',"rows":[' + body + "]}"


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
    assert all(isinstance(col, tuple) for col in bundle.data)  # every column factored
    assert (tmp_path / "out" / "spectrum.csv").read_bytes() == _oracle_csv(bundle)
    assert _loaded((tmp_path / "out" / "spectrum.json").read_text()) == _loaded(_oracle_json(bundle))


_EDGE_FLOATS = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
    2.0**63, -(2.0**63), 9.2233720368547748e18, 1.7976931348623157e308, 0.1,
    1e16, -1e16, 2.0**53, 1e17,  # the largest integral %.17g texts without an exponent, and the first with
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
    for values in (np.array(floats, dtype=np.float64), np.array(ints, dtype=np.int64)):
        index = np.arange(len(values), dtype=np.int32)[::-1]  # read in an order unlike theirs
        for sep in (",", ""):  # a column's cells, and the last column's
            texts = cli._cell_texts(values, sep)
            csv_texts = [_oracle_fmt(x) for x in values[index]]
            assert list(texts[index]) == [t + sep for t in csv_texts]
            cli._mirror_texts(texts, values, sep)
            for x, csv_text, text in zip(values[index].tolist(), csv_texts, texts[index]):
                assert text.endswith(sep)
                text = text[:len(text) - len(sep)]
                if isinstance(x, float) and not math.isfinite(x):
                    assert text == "null"
                    continue
                # the CSV's digits, with ".0" where they alone would read as an int
                assert text in (csv_text, csv_text + ".0")
                y = json.loads(text)
                assert type(y) is type(x) and (y == x if isinstance(x, int) else
                                               np.float64(y).view(np.int64) == np.float64(x).view(np.int64))


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
# one partial block, and tables that end one row before, on and one row after a block
# boundary past the first block
@pytest.mark.parametrize("n", [1, 2 * cli._BLOCK - 1, 2 * cli._BLOCK, 2 * cli._BLOCK + 1, 4 * cli._BLOCK + 1])
def test_block_writer_matches_oracle(tmp_path, n, reverse):
    # float64 and int64 factored columns and list columns; NaN, +-inf and -0.0 end
    # the first and the last column and fill the last row, where the JSON's final "," is cut
    rng = np.random.default_rng(n)
    edges = np.array([-0.0, np.inf, -np.inf, np.nan])
    data = {
        "a": rng.choice([0.1, -2.5, 1e300, 5e-324, 0.0, 2.0 / 3.0], n),
        "b": [["s", 3, -0.5, 2**70, float("nan")][i % 5] for i in range(n - 1)] + [float("-inf")],
        "c": rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64),
        "d": rng.standard_normal(n),
    }
    for name in "ad":
        data[name][-min(n, 4):] = edges[-min(n, 4):]
    data["a"][-1] = -0.0
    rows = np.arange(n, dtype=np.int32)
    for name in "acd":  # one value per row, "c" stored and read back to front
        data[name] = (data[name][::-1].copy(), rows[::-1]) if name == "c" else (data[name], rows)
    # factored: values with repeats and both zeros, read in an order unlike theirs
    values = np.array([0.0, -0.0, 2.0 / 3.0, np.nan, 0.0, -7.0])
    data["e"] = (values, rng.integers(0, len(values), n).astype(np.int32))
    data["f"] = (np.array([-(2**63)]), np.broadcast_to(np.int32(0), (n,)))
    columns = sorted(data, reverse=reverse)
    bundle = cli.ResultBundle(name="t", columns=columns, data=[data[c] for c in columns],
                              fits={"fit": {"exponent": -0.0}}, nonconverged=1)
    cli.emit(bundle, tmp_path, cli.ExperimentConfig(experiment="spectrum", params={}), walltime=0.0)
    assert_same_text((tmp_path / "t.csv").read_bytes(), _oracle_csv(bundle))
    text = (tmp_path / "t.json").read_text()
    assert_same_text(text, _oracle_mirror(bundle.columns, _oracle_rows(bundle), bundle.fits, bundle.nonconverged))
    assert _loaded(text) == _loaded(_oracle_json(bundle))


_THREE_ROWS = (np.zeros(1), np.zeros(3, dtype=np.int32))  # a good factored column


@pytest.mark.parametrize("kwargs", [
    {"rows": [[1, 2.0], [3]]},
    {"rows": [[1, 2.0], [3, 4.0, 5.0]]},
    {"data": [[0.0, 0.0, 0.0]]},
    {"data": [[0.0, 0.0, 0.0], [1, 2]]},
    {"data": [np.zeros(3, dtype=np.float32), _THREE_ROWS]},
    {"data": [np.zeros(3), _THREE_ROWS]},
    {"data": [(np.zeros(2), np.zeros(3, dtype=np.int64)), _THREE_ROWS]},
    {"data": [(np.zeros(2), np.array([0, 2, 1], dtype=np.int32)), _THREE_ROWS]},
    {"data": [(np.zeros(2), np.array([0, -1, 1], dtype=np.int32)), _THREE_ROWS]},
    {"data": [(np.zeros(2), np.zeros(4, dtype=np.int32)), _THREE_ROWS]},
    {"data": [_THREE_ROWS, (np.zeros(2, dtype=np.float32), np.zeros(3, dtype=np.int32))]},
    {"data": [_THREE_ROWS, ([0.0, 1.0], np.zeros(3, dtype=np.int32))]},
], ids=["short_row", "long_row", "too_few_columns", "unequal_columns", "float32_column",
        "flat_array_column", "int64_index", "index_past_values", "negative_index", "factored_rows_mismatch",
        "float32_values", "list_values"])
def test_ragged_table_is_rejected(kwargs):
    with pytest.raises(ValueError):
        cli.ResultBundle(name="t", columns=["x", "y"], **kwargs)


_SIGNED_ZEROS = [-0.0, 0.0, 0.0, 0.5, 1.0]


@pytest.mark.parametrize("grid", [
    _SIGNED_ZEROS,
    [0.05, 0.2, 0.35, 0.6, 0.9],
    [0.0, 0.125, 0.25, 0.75, 0.875, 1.0],  # g and 1 - g, both exact
    [0.25 - 2**-54, 0.75],  # |1 - 2g| is 0.5 + 2**-53 and 0.5: one ulp apart
    {"start": 0.0, "stop": 1.0, "num": 401},
], ids=["signed_zeros", "asymmetric", "mirror_pairs", "one_ulp_apart", "linspace_401"])
def test_spectrum_bytes_match_oracle(tmp_path, grid):
    # each row against dispersion at its own g: -0.0 and 0.0 are distinct cells, and a
    # fold that shares energies between g and 1 - g must not merge what differs by an ulp
    cfg = write_config(tmp_path, "c.json", {"n_spins": 8, "g_grid": grid})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    momenta = ising.momentum_grid(ising.ChainParams(8))
    rows = [
        [8, float(ka), float(g), float(e)]
        for g in (np.linspace(**grid) if isinstance(grid, dict) else grid)
        for ka, e in zip(momenta, ising.dispersion(momenta, g))
    ]
    oracle = types.SimpleNamespace(columns=["n_spins", "ka", "g", "energy"], data=[list(c) for c in zip(*rows)])
    assert_same_text((tmp_path / "out" / "spectrum.csv").read_bytes(), _oracle_csv(oracle))
    doc = {
        "columns": oracle.columns, "fits": {}, "nonconverged": 0,
        "rows": [[_oracle_json_value(x) for x in row] for row in rows],
    }
    text = (tmp_path / "out" / "spectrum.json").read_text()
    expected = _oracle_mirror(oracle.columns, rows, {}, 0)
    assert_same_text(text, expected)
    assert _loaded(text) == _loaded(json.dumps(doc))
    if grid is _SIGNED_ZEROS:
        assert ",-0," in (tmp_path / "out" / "spectrum.csv").read_text()
        assert ",-0.0," in expected
