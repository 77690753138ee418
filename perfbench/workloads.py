"""The four benchmark workloads as lists of invocations.

An invocation is one fresh process: either ``qptsweep.cli.main`` on a
subcommand and config, or a library call that the CLI has no subcommand
for.  The seed only shuffles invocation order and order-free list entries,
so every seed does the same work and the committed references stay keyed
by parameter values.  NOTES.md gives
the reason for each config.
"""

import math
import random

WORKLOADS = ("mode_sweep", "response_spectrum", "ed_scaling", "table_emit")

PI = math.pi


def _cli(subcommand, config):
    return {"kind": "cli", "subcommand": subcommand, "config": config}


def _mode_sweep():
    return [
        _cli("sweep", {
            "n_spins": 64, "schedule": "linear", "T_list": [20.0, 100.0],
            "ka_list": [PI / 64, 3 * PI / 64, 5 * PI / 64],
        }),
        _cli("sweep", {
            "n_spins": 64, "schedule": "gap_adapted", "T_list": [50.0], "ka_list": [PI / 64],
        }),
    ]


def _response_spectrum():
    omega16 = [-0.4 + 0.2 * i for i in range(16)]  # -0.4 .. 2.6, all four regimes
    return [
        _cli("response", {
            "n_spins": 256, "T": 5000.0, "channel": "uniform_x", "endpoint_order": 2,
            "omega_grid": omega16, "ka_list": [PI / 256, 3 * PI / 256],
        }),
        _cli("response", {
            "n_spins": 128, "T": 2000.0, "channel": "single_site_z",
            "omega_grid": [-0.2, 0.01, 0.08, 1.0], "ka_list": [PI / 128],
        }),
        _cli("response", {
            "n_spins": 128, "T": 2000.0, "channel": "nonuniform_x", "kpa": 3 * PI / 128,
            "omega_grid": [-0.2, 0.01, 0.08, 1.0], "ka_list": [PI / 128],
        }),
        _cli("grover", {
            "n_list": [6, 8, 10, 12, 14, 16], "T": 2000.0,
            "bath": {"kind": "dirac_comb", "omega0": [0.25, 0.5, 1.0, 2.0],
                     "weight": [1.0, 1.0, 1.0, 1.0]},
        }),
        _cli("scaling", {"study": "near_gap_table", "n_list": [32, 64, 128, 256]}),
        # the criterion 12 shape; total_error is the only path into bath.integrate_abs
        {"kind": "total_error", "channels": ["uniform_x", "single_site_z"],
         "n_list": [32, 64, 128, 256], "coupling": 0.01},
    ]


def _ed_scaling():
    return [
        _cli("scaling", {"study": "mixed_gap", "n_list": [4, 6, 8, 10, 12], "coarse_points": 13}),
        _cli("ed", {"model": "ising_ring", "n_list": [10, 12], "g_grid": [0.25, 0.5, 0.75]}),
        # g=0 stays: N=12 fails there with ARPACK error -9 (a known defect)
        _cli("ed", {"model": "mixed_grover_ising", "n_list": [10, 12],
                    "g_grid": {"start": 0.0, "stop": 1.0, "num": 6}}),
    ]


def _table_emit():
    return [
        _cli("spectrum", {"n_spins": 512, "g_grid": {"start": 0.0, "stop": 1.0, "num": 401}}),
        _cli("response", {
            "n_spins": 64, "T": 50.0, "channel": "uniform_x",
            "omega_grid": {"start": -0.5, "stop": 2.5, "num": 101},
            "ka_list": [PI / 64, 3 * PI / 64, 5 * PI / 64, 7 * PI / 64],
        }),
        _cli("scaling", {"study": "gap_law", "n_list": [8, 16, 32, 64, 128, 256, 512, 1024]}),
    ]


# config keys whose entries may be listed in any order without changing the work
_ORDER_FREE = ("T_list", "ka_list", "n_list")


def build(name, seed):
    """Invocations of workload ``name`` for ``seed``, in the order to run them."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    invocations = {
        "mode_sweep": _mode_sweep,
        "response_spectrum": _response_spectrum,
        "ed_scaling": _ed_scaling,
        "table_emit": _table_emit,
    }[name]()
    for inv in invocations:
        cfg = inv.get("config", inv)
        for key in _ORDER_FREE:
            if key in cfg:
                rng.shuffle(cfg[key])
    rng.shuffle(invocations)
    return invocations
