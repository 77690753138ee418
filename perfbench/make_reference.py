"""Regenerate the committed reference values in ``reference/``.

    PYTHONPATH=src python3 perfbench/make_reference.py

Each number the CLI prints without a closed-form oracle is recomputed here
through the library at a tighter tolerance than the CLI default (or with
twice the integration steps, or a finer quadrature), so the reference is
more accurate than the rows it checks.  The exception is the ``ed``
levels: they come from the same eigensolver call as the CLI's, exact to its
residual bound, so that reference is the seed's own output.  Run it only
when a change is meant to move the numbers, and say so.
"""

import functools
import json
import math
import os

import numpy as np

import checks
import workloads
from child import total_error_rows
from qptsweep import bath, exact, grover, ising, response, schedules

REF_TOL = 1e-6  # response quadrature; CLI default 1e-3
GROVER_REF_TOL = 1e-6  # CLI default 1e-4
ABS_POINTS = 2**18 + 1  # bath.integrate_abs trapezoid; CLI default 4097
N_MAX = 2**22
key = checks.key
_grid = checks.grid


def _sweep(cfg, ref):
    for T in cfg["T_list"]:
        sched = schedules.make_schedule(cfg["schedule"], float(T), n_spins=cfg["n_spins"])
        steps = 2 * ising._default_steps(float(T))
        for ka in cfg["ka_list"]:
            ref[key(cfg["schedule"], T, ka)] = {
                "excitation_probability": ising.excitation_probability_mode(ka, sched, steps=steps),
                "adiabatic_mismatch": ising.adiabatic_mismatch(ka, sched, steps=steps),
            }


def _response(cfg, ref):
    n = cfg["n_spins"]
    sched = schedules.make_schedule("linear", float(cfg["T"]))
    for ka in cfg["ka_list"]:
        for w in _grid(cfg["omega_grid"]):
            if cfg["channel"] == "single_site_z":
                b = response.amplitude_bitflip(ka, w, sched, rel_tol=REF_TOL, n_max=N_MAX)
                value, kpa = b.a1 + b.a2, ka
            elif cfg["channel"] == "nonuniform_x":
                kpa = cfg["kpa"]
                value = response.amplitude_direct_nonuniform(
                    ka, kpa, w, n, sched, rel_tol=REF_TOL, n_max=N_MAX).value
            else:
                kpa = ka
                value = response.amplitude_direct_uniform(
                    ka, w, sched, rel_tol=REF_TOL, n_max=N_MAX,
                    endpoint_order=cfg.get("endpoint_order", 0)).value
            ref[key(cfg["channel"], n, ka, kpa, w)] = {
                "re": value.real, "im": value.imag, "regime": response.classify_regime(w, ka),
            }


def _grover(cfg, ref):
    sched = schedules.make_schedule("linear", float(cfg["T"]))
    sf = bath.dirac_probe(cfg["bath"]["omega0"], cfg["bath"]["weight"])
    for n in cfg["n_list"]:
        params = grover.GroverParams(n_qubits=n, coupling=0.01, schedule=sched, spectral_function=sf)
        # error_probability for a dirac comb, with the grid cap raised
        total = sum(
            wt * abs(grover.amplitude_omega(params, w0, rel_tol=GROVER_REF_TOL, n_max=N_MAX)[0]) ** 2
            for w0, wt in zip(*sf.probes)
        )
        ref[key(n)] = {
            "error_probability": params.coupling**2 * total,
            "error_estimate": grover.error_estimate(params),
        }


def _near_gap_table(cfg, ref):
    for kind in ("linear", "gap_adapted", "gap_squared_adapted"):
        for n in cfg["n_list"]:
            gap_min = ising.global_min_gap(ising.ChainParams(n))
            T = {"linear": gap_min**-2.0, "gap_adapted": n * math.log(n)}.get(kind, float(n))
            sched = schedules.make_schedule(kind, float(T), n_spins=n)
            bound = response.amplitude_bound_near_gap(math.pi / n, sched, n_points=4 * 16384 + 1)
            ref[key(kind, n)] = {"T": float(T), "bound": bound.modulus}


def _mixed_gap(cfg, ref):
    for n in cfg["n_list"]:
        ref[key(n)] = {"min_even_gap": exact.minimal_even_gap(
            "mixed_grover_ising", n, coarse_points=cfg["coarse_points"], refine_tol=1e-9)}


def _ed(cfg, ref):
    for n in cfg["n_list"]:
        for g in _grid(cfg["g_grid"]):
            ham = exact.build_hamiltonian(cfg["model"], n, g)
            try:
                spec = exact.low_spectrum(ham, 4, resolve_parity=True)
                # a wider window shows which levels sit in a degenerate multiplet,
                # whose parity labels are basis-ambiguous
                wide = exact.low_spectrum(ham, 8, resolve_parity=True).eigenvalues
            except exact.NonConvergenceError:
                continue  # no reference: checks.py falls back on its analytic oracles
            for level, (e, p) in enumerate(zip(spec.eigenvalues, spec.parity_labels)):
                ref[key(cfg["model"], n, g, level)] = {
                    "energy": float(e), "parity": float(p),
                    "degenerate": int(np.sum(np.abs(wide - e) < checks.DEGENERATE)) > 1,
                }


def _total_error(inv, ref):
    # total_error reaches bath.integrate_abs through this name; the CLI's
    # 4097-point trapezoid is within 1.4e-8 (relative) of this one
    coarse = response.integrate_abs
    response.integrate_abs = functools.partial(coarse, n_points=ABS_POINTS)
    try:
        rows = total_error_rows(inv)
    finally:
        response.integrate_abs = coarse
    for kind, n, total in rows:
        ref[key(kind, n)] = {"total": total}


def build(name):
    ref = {}
    for inv in workloads.build(name, 0):
        cfg = inv.get("config", inv)
        section = checks.section(inv)
        part = ref.setdefault(section, {})
        if inv["kind"] == "total_error":
            _total_error(inv, part)
        elif inv["subcommand"] == "sweep":
            _sweep(cfg, part)
        elif inv["subcommand"] == "response":
            _response(cfg, part)
        elif inv["subcommand"] == "grover":
            _grover(cfg, part)
        elif inv["subcommand"] == "ed":
            _ed(cfg, part)
        elif cfg.get("study") == "near_gap_table":
            _near_gap_table(cfg, part)
        elif cfg.get("study") == "mixed_gap":
            _mixed_gap(cfg, part)
        # spectrum and gap_law rows have closed-form oracles
    return {k: dict(sorted(v.items())) for k, v in sorted(ref.items()) if v}


def main():
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
    os.makedirs(out_dir, exist_ok=True)
    for name in workloads.WORKLOADS:
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(build(name), fh, indent=1)
            fh.write("\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
