"""End-to-end acceptance suite.

One test per criterion; ``pytest -v`` prints one pass/fail line each.  Every
test also prints its measured numbers so a failure is diagnosable from the
log alone.
"""

import json

import numpy as np
import pytest

from qptsweep import bath, cli, exact, grover, ising, response, schedules
from qptsweep.fitting import fit_exponential, fit_power_law


def report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_spectrum_oracle_equivalence():
    worst = 0.0
    for n in (2, 4, 6, 8, 10):
        p = ising.ChainParams(n)
        for g in np.linspace(0.0, 1.0, 11):
            diff = abs(
                exact.even_parity_ground_energy("ising_ring", n, float(g))
                - ising.ground_energy_analytic(p, float(g))
            )
            worst = max(worst, diff)
    report("01 spectrum oracle", worst < 1e-9, f"max |E0_ED - E0_analytic| = {worst:.3e} (< 1e-9)")


def test_criterion_02_gap_law():
    worst = 0.0
    for n in (2, 4, 6, 8, 10):
        ed_gap = exact.gap("ising_ring", n, 0.5)
        worst = max(worst, abs(ed_gap - 4.0 * np.sin(np.pi / (2.0 * n))))
    ns = np.array([2**k for k in range(3, 11)], dtype=float)
    gaps = np.array([ising.global_min_gap(ising.ChainParams(int(n))) for n in ns])
    fit = fit_power_law(ns, gaps)
    ok = worst < 1e-9 and abs(fit.exponent + 1.0) < 0.02
    report("02 gap law", ok, f"ED diff {worst:.3e} (<1e-9); exponent {fit.exponent:.4f} (-1.00±0.02)")


def _dense_grover_gap(n, g):
    # from the dense matrix, independent of grover's two-level reduction (exact._grover_solve)
    levels = np.linalg.eigvalsh(exact.build_hamiltonian("grover", n, g).matrix)
    return float(levels[1] - levels[0])


def test_criterion_03_grover_gap():
    worst = 0.0
    for n in (2, 4, 6, 8, 10):
        dim = 2**n
        for g in np.linspace(0.0, 1.0, 101):
            worst = max(worst, abs(_dense_grover_gap(n, float(g)) - grover.grover_gap(float(g), dim)))
    mins = [abs(_dense_grover_gap(n, 0.5) - 2.0 ** (-n / 2.0)) for n in (2, 4, 6, 8, 10)]
    ok = worst < 1e-10 and max(mins) < 1e-10
    report("03 grover gap", ok, f"max closed-form diff {worst:.3e} (<1e-10); min-gap diff {max(mins):.3e}")


def test_criterion_04_mixed_first_order_signature():
    n_list = [4, 6, 8, 10, 12]
    fit, gaps = exact.mixed_gap_scaling(n_list, coarse_points=25)
    ising_gaps = np.array([ising.global_min_gap(ising.ChainParams(n)) for n in n_list])
    pfit = fit_power_law(np.asarray(n_list, float), ising_gaps)
    ok = fit.exponent < 0.0 and fit.r_squared > 0.98 and abs(pfit.exponent + 1.0) < 0.05
    report(
        "04 mixed-vs-ising gap closing", ok,
        f"mixed rate {fit.exponent:.3f} r2 {fit.r_squared:.4f} (>0.98); "
        f"ising power {pfit.exponent:.3f} (≈ -1)",
    )


def test_criterion_05_ode_vs_adiabatic():
    ka = 3.0 * np.pi / 64.0
    mism, norms = [], []
    for T in (50.0, 100.0, 200.0, 400.0):
        sched = schedules.make_schedule("linear", T)
        mism.append(ising.adiabatic_mismatch(ka, sched))
        norms.append(ising.integrate_bogoliubov(ka, sched).norm_defect)
    ok = all(np.diff(mism) < 0.0) and mism[-1] < 0.05 and max(norms) < 1e-9
    report(
        "05 ODE vs adiabatic", ok,
        f"mismatch {['%.4f' % m for m in mism]} (monotone, <0.05 at T=400); "
        f"norm defect {max(norms):.2e} (<1e-9)",
    )


def test_criterion_06_saddle_point_validity():
    ka, w = np.pi / 64.0, 0.4
    mis = []
    for T in (2500.0, 5000.0):
        q = response.amplitude_direct_uniform(ka, w, schedules.make_schedule("linear", T), rel_tol=1e-5)
        s = response.amplitude_saddle_uniform(w, ka, schedules.make_schedule("linear", T))
        mis.append(abs(s.modulus - q.modulus) / q.modulus)
    ok = mis[1] < 0.25 and mis[1] < mis[0]
    report("06 saddle validity", ok, f"modulus mismatch {mis[0]:.3%} -> {mis[1]:.3%} (<25%, improving)")


def test_criterion_07_sub_gap_suppression():
    ka = np.pi / 8.0
    rate, mods = response.suppression_rate_uniform(ka, 0.0, [100.0, 150.0, 200.0, 250.0])
    target = 0.5 * ka**2
    ok = abs(rate - target) / target < 0.25
    report("07 sub-gap suppression", ok, f"rate {rate:.4f} vs (ka)^2/2 = {target:.4f} (within 25%)")


def test_criterion_08_negative_frequency_suppression():
    ka = np.pi / 8.0
    rate, mods = response.suppression_rate_uniform(ka, -0.2, [60.0, 100.0, 140.0])
    bound = np.pi * ka**2 / 32.0  # factor-2 relaxation of pi (ka)^2/16
    ok = all(np.diff(mods) < 0.0) and rate >= bound
    report("08 negative-omega suppression", ok, f"rate {rate:.4f} >= {bound:.4f} (contour/2 bound)")


def _near_gap_bounds(kind, n_list):
    vals = []
    for n in n_list:
        gap_min = ising.global_min_gap(ising.ChainParams(n))
        if kind == "linear":
            T = gap_min**-2.0
        elif kind == "gap_adapted":
            T = n * np.log(n)
        else:
            T = float(n)
        sched = schedules.make_schedule(kind, float(T), n_spins=n)
        vals.append(response.amplitude_bound_near_gap(np.pi / n, sched).modulus)
    return np.asarray(vals)


def test_criterion_09_table_near_gap_column():
    ns = np.array([32, 64, 128, 256], dtype=float)
    b_lin = _near_gap_bounds("linear", [32, 64, 128, 256])
    b_ga = _near_gap_bounds("gap_adapted", [32, 64, 128, 256])
    b_g2 = _near_gap_bounds("gap_squared_adapted", [32, 64, 128, 256])
    # linear row carries the frequency factor omega*ln: normalize it away
    e_lin = fit_power_law(ns, b_lin / ((2.0 * np.pi / ns) * np.log(ns))).exponent
    e_ga = fit_power_law(ns, b_ga).exponent  # T = N ln N leaves pure N scaling
    e_g2 = fit_power_law(ns, b_g2).exponent
    ok = abs(e_lin - 2.0) < 0.1 and abs(e_ga - 1.0) < 0.15 and abs(e_g2 - 1.0) < 0.1
    report(
        "09 near-gap scaling table", ok,
        f"exponents linear {e_lin:.3f} (2.0±0.1), gap-adapted {e_ga:.3f} (1.0±0.15), "
        f"gap^2-adapted {e_g2:.3f} (1.0±0.1)",
    )


def test_criterion_10_bitflip_table_linear_row():
    ns = np.array([32, 64, 128, 256], dtype=float)
    amps = []
    for n in (32, 64, 128, 256):
        T = ising.global_min_gap(ising.ChainParams(n)) ** -2.0
        sched = schedules.make_schedule("linear", float(T))
        b = response.amplitude_bitflip(np.pi / n, 0.6, sched)
        amps.append((abs(b.a1) + b.a2_bound) / np.sqrt(n))
    exp = fit_power_law(ns, np.asarray(amps)).exponent
    ok = abs(exp - 1.5) < 0.15
    report("10 bitflip scaling", ok, f"assembled per-mode exponent {exp:.3f} (1.5±0.15)")


def test_criterion_11_grover_scalability_dichotomy():
    sched = schedules.make_schedule("linear", 100.0)
    slopes = {}
    for eta in (0.0, 0.5, 1.0, 2.0):
        sf = bath.SpectralFunction(kind="thermal_bosonic", theta=0.5, epsilon=eta)
        dims, ests = [], []
        for n in (6, 8, 10, 12):
            p = grover.GroverParams(n_qubits=n, coupling=0.01, schedule=sched, spectral_function=sf)
            dims.append(float(p.dim))
            ests.append(grover.error_estimate(p))
        slopes[eta] = np.polyfit(np.log(dims), np.log(ests), 1)[0]
    ok = all(abs(s - (1.0 - eta) / 2.0) < 0.05 for eta, s in slopes.items())
    detail = ", ".join(f"eta={e}: {s:.3f}" for e, s in slopes.items())
    report("11 grover scalability", ok, f"slopes {{{detail}}} vs (1-eta)/2 ±0.05")


def test_criterion_12_ising_total_error_growth():
    ch = response.Channel(kind="uniform_x", coupling=0.01)
    n_list = (32, 64, 128, 256)
    gap32 = ising.global_min_gap(ising.ChainParams(32))
    warm = bath.SpectralFunction(
        kind="thermal_bosonic", theta=0.5, epsilon=1.0, omega_c=2.0, beta=1.0 / gap32
    )
    hi = 0.9 * ising.global_min_gap(ising.ChainParams(256)) / 3.0
    w = np.linspace(0.0, hi, 101)
    cold = bath.load_tabulated(np.column_stack([w, np.sin(np.pi * w / hi) ** 2]))
    warm_tot, cold_tot = [], []
    for n in n_list:
        T = ising.global_min_gap(ising.ChainParams(n)) ** -2.0
        sched = schedules.make_schedule("linear", float(T))
        warm_tot.append(response.total_error(ch, sched, warm, n)[0])
        cold_tot.append(response.total_error(ch, sched, cold, n)[0])
    cold_tot = np.asarray(cold_tot)
    variation = (cold_tot.max() - cold_tot.min()) / cold_tot.min()
    ok = all(np.diff(warm_tot) > 0.0) and variation < 0.2
    report(
        "12 total-error growth", ok,
        f"warm totals {['%.3g' % t for t in warm_tot]} strictly increasing; "
        f"cold variation {variation:.3%} (<20%)",
    )


def test_criterion_13_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"study": "near_gap_table", "n_list": [32, 64, 128, 256]}))
    for d in ("a", "b"):
        code = cli.main([
            "scaling", "--config", str(cfg), "--out", str(tmp_path / d), "--seed", "42",
        ])
        assert code == 0
    a = (tmp_path / "a" / "scaling_near_gap_table.csv").read_bytes()
    b = (tmp_path / "b" / "scaling_near_gap_table.csv").read_bytes()
    report("13 determinism", a == b, f"CSV payloads byte-identical ({len(a)} bytes)")
