"""Tests of the benchmark's own machinery: span arithmetic, lookup-site
patching and the output checks."""

import json

import checks
import layers
import run
from tracer import self_times


def test_self_time_subtracts_union_of_children():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping, union 5)
    # and [9, 12] (clipped to 1); grandchild [2, 3] under the first child
    spans = [
        [0, None, "root", 0.0, 10.0, {}],
        [1, 0, "a", 1.0, 4.0, {}],
        [2, 0, "b", 3.0, 6.0, {}],
        [3, 1, "leaf", 2.0, 3.0, {}],
        [4, 0, "c", 9.0, 12.0, {}],
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_traced_response_records_quadrature_calls(tmp_path):
    inv = {"kind": "cli", "subcommand": "response", "config": {
        "n_spins": 8, "T": 5.0, "channel": "uniform_x", "omega_grid": [0.5], "ka_list": [0.39269908169872414],
    }}
    res = run.run_invocation(inv, tmp_path / "inv", seed=0, trace=True)
    assert res["exit"] == 0
    metrics = layers.summarize([res["spans"]], sweep_rows=0)
    assert metrics["kernels.filon_integral.calls"] > 0
    assert metrics["response.amplitude_direct_uniform.calls"] == 1
    assert metrics["response.filon_calls_per_amplitude"] == 2.0


def test_corrupted_rows_count_as_failed(tmp_path):
    gap_law = {"kind": "cli", "subcommand": "scaling", "config": {"study": "gap_law", "n_list": [8, 16]}}
    (tmp_path / "scaling_gap_law.csv").write_text(
        "n_spins,min_gap\n8,0.78036128806451141\n16,0.5\n"  # row 16 corrupted
    )
    tally = checks.check(gap_law, tmp_path, {})
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)

    reference = json.loads((run.BENCH / "reference" / "ed_scaling.json").read_text())
    ed = {"kind": "cli", "subcommand": "ed", "config": {
        "model": "ising_ring", "n_list": [10], "g_grid": [0.5], "m": 2}}
    good = reference["ed"]["ising_ring|10|0.5|1"]
    ground = checks.ising_ground_energy(10, 0.5)
    rows = ["model,n_spins,g,level,energy,parity,residual",
            f"ising_ring,10,0.5,0,{ground!r},1.0,1e-12",
            f"ising_ring,10,0.5,1,{good['energy'] + 1e-4!r},{good['parity']},1e-12"]
    (tmp_path / "ed.csv").write_text("\n".join(rows) + "\n")
    tally = checks.check(ed, tmp_path, reference)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
