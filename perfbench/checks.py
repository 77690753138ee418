"""Output checks: every output row against a physics oracle or a committed
reference.

One operation is one expected output row.  A row fails when it is missing
(also when its process exited 1), when its own certificate failed, or when
it contradicts its oracle or reference; only the last also makes the run
incorrect, because a failed certificate is the program reporting honestly
that it could not compute the row.  NOTES.md gives the reason for each
tolerance below.
"""

import csv
import json
import math
import os

import numpy as np

SPECTRUM_ABS = 1e-11  # closed-form dispersion, energies <= 2
ED_GROUND_ABS = 1e-9  # acceptance criterion 01 bound
ED_REF_REL = 1e-8  # the ED residual bound
DEGENERATE = 1e-6  # parity labels are compared only outside degenerate multiplets
NORM_DEFECT_MAX = 1e-9  # acceptance criterion 05 bound
ENDPOINT_ERROR_MAX = 1e-6  # Richardson estimate of the sweep endpoint; the seed gives <= 2e-8
SWEEP_ABS = 1e-6  # excitation probability and mismatch vs the 2x-step reference
RESPONSE_REL, RESPONSE_ABS = 1e-3, 1e-10  # CLI rel_tol is 1e-3, reference 1e-6
GROVER_REL = 1e-3  # CLI rel_tol is 1e-4 on the amplitude, reference 1e-6
TABLE_REL = 1e-6  # phase-free bounds and total errors, vs references on finer grids
MIXED_GAP_REL = 1e-3  # brute-force minimum located to xatol 1e-6 in g
CLOSED_FORM_REL = 1e-12  # gap_law, Grover min gap


def key(*parts):
    return "|".join(f"{p:.12g}" if isinstance(p, float) else str(p) for p in parts)


def section(inv):
    """Reference section (and CSV stem) of an invocation."""
    if inv["kind"] == "total_error":
        return "total_error"
    if inv["subcommand"] == "scaling":
        return f"scaling_{inv['config'].get('study', 'gap_law')}"
    return inv["subcommand"]


def grid(spec):
    """The values of a CLI grid spec: a list or {start, stop, num}."""
    if isinstance(spec, dict):
        return [float(x) for x in np.linspace(spec["start"], spec["stop"], int(spec["num"]))]
    return [float(x) for x in spec]


def _close(value, ref, rel, abs_=0.0):
    return math.isfinite(value) and abs(value - ref) <= rel * abs(ref) + abs_


def ising_ground_energy(n, g):
    """-(1/2) sum_k E_k(g) over the half-integer momenta (2m+1)pi/N."""
    ka = (2 * np.arange(-n // 2, n // 2) + 1) * np.pi / n
    return float(-np.sum(np.sqrt(1.0 - 4.0 * g * (1.0 - g) * np.cos(ka / 2.0) ** 2)))


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.problems = []

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.problems.extend(other.problems)

    def verdict(self, name, state):
        """Count one expected row: ``ok``, ``missing``, ``flagged`` or ``wrong``."""
        self.attempted += 1
        if state != "ok":
            self.failed += 1
            self.wrong += state == "wrong"
            if len(self.problems) < 20:
                self.problems.append(f"{state}: {name}")


def _read_csv(path):
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check(inv, out_dir, reference):
    """Tally of the rows one invocation wrote into ``out_dir``."""
    sec = section(inv)
    tally = Tally()
    if sec == "spectrum":
        _check_spectrum(inv["config"], out_dir, tally)
        return tally
    ref = reference.get(sec, {})
    if sec == "total_error":
        path = os.path.join(out_dir, "total_error.json")
        rows = []
        if os.path.exists(path):
            with open(path) as fh:
                rows = json.load(fh)
        got = {key(c, n): t for c, n, t in rows}
        expected = [key(c, n) for c in inv["channels"] for n in inv["n_list"]]

        def judge(k, total):
            return "ok" if _close(total, ref[k]["total"], TABLE_REL) else "wrong"
    else:
        cfg = inv["config"]
        rows = _read_csv(os.path.join(out_dir, f"{sec}.csv"))
        expected, row_key, judge = _RULES[sec](cfg, ref)
        got = {}
        for row in rows:
            k = row_key(row)
            if k is not None:
                got[k] = row
    for k in expected:
        if k not in got:
            state = "missing"
        else:
            try:
                state = judge(k, got[k])
            except KeyError:
                state = "wrong"  # no reference value: regenerate the reference
        tally.verdict(f"{sec} {k}", state)
    for k in got.keys() - set(expected):
        tally.wrong += 1
        tally.problems.append(f"unexpected: {sec} {k}")
    return tally


def _check_spectrum(cfg, out_dir, tally):
    n = int(cfg["n_spins"])
    g_grid = np.asarray(grid(cfg["g_grid"]))
    expected = n * len(g_grid)
    path = os.path.join(out_dir, "spectrum.csv")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) if os.path.exists(path) else np.zeros((0, 4))
    ka, g, energy = data[:, 1], data[:, 2], data[:, 3]
    m = np.rint((ka * n / np.pi - 1.0) / 2.0 + n / 2)
    gi = np.clip(np.rint(np.interp(g, g_grid, np.arange(len(g_grid)))), 0, len(g_grid) - 1).astype(int)
    with np.errstate(invalid="ignore"):
        oracle = 2.0 * np.sqrt(1.0 - 4.0 * g * (1.0 - g) * np.cos(ka / 2.0) ** 2)
    good = (
        (data[:, 0] == n) & (m >= 0) & (m < n)
        & (np.abs(ka - (2.0 * (m - n / 2) + 1.0) * np.pi / n) < 1e-12)
        & (np.abs(g - g_grid[gi]) < 1e-12)
        & (np.abs(energy - oracle) <= SPECTRUM_ABS)
    )
    distinct = len(np.unique(gi[good] * n + m[good].astype(int)))
    bad = int(np.count_nonzero(~good))
    tally.attempted += expected
    tally.failed += expected - distinct
    tally.wrong += bad
    if bad:
        tally.problems.append(f"wrong: {bad} spectrum rows off the closed-form dispersion")
    if expected - distinct - bad > 0:
        tally.problems.append(f"missing: {expected - distinct - bad} spectrum rows")


def _sweep_rules(cfg, ref):
    expected = [key(cfg["schedule"], float(T), float(ka)) for T in cfg["T_list"] for ka in cfg["ka_list"]]

    def row_key(r):
        return key(r["schedule"], float(r["T"]), float(r["ka"]))

    def judge(k, r):
        # sweep never flags a row itself, so the certificate is applied here
        err = float(r["endpoint_error"])
        if not (float(r["norm_defect"]) <= NORM_DEFECT_MAX and math.isfinite(err)
                and err <= ENDPOINT_ERROR_MAX):
            return "flagged"
        ok = all(_close(float(r[c]), ref[k][c], 0.0, SWEEP_ABS)
                 for c in ("excitation_probability", "adiabatic_mismatch"))
        return "ok" if ok else "wrong"

    return expected, row_key, judge


def _response_rules(cfg, ref):
    ch, n = cfg["channel"], int(cfg["n_spins"])
    expected = [
        key(ch, n, float(ka), float(cfg["kpa"]) if ch == "nonuniform_x" else float(ka), w)
        for ka in cfg["ka_list"] for w in grid(cfg["omega_grid"])
    ]

    def row_key(r):
        return key(r["channel"], int(r["n_spins"]), float(r["ka"]), float(r["kpa"]), float(r["omega"]))

    def judge(k, r):
        if r["converged"] != "1":
            return "flagged"
        want = ref[k]
        err = abs(complex(float(r["re"]), float(r["im"])) - complex(want["re"], want["im"]))
        ok = err <= RESPONSE_REL * math.hypot(want["re"], want["im"]) + RESPONSE_ABS
        return "ok" if ok and r["regime"] == want["regime"] else "wrong"

    return expected, row_key, judge


def _grover_rules(cfg, ref):
    expected = [key(int(n)) for n in cfg["n_list"]]

    def row_key(r):
        return key(int(r["n_qubits"]))

    def judge(k, r):
        n = int(r["n_qubits"])
        if int(r["dim"]) != 2**n or not _close(float(r["min_gap"]), 2.0 ** (-n / 2), CLOSED_FORM_REL):
            return "wrong"
        p = float(r["error_probability"])
        if math.isnan(p):
            return "flagged"
        ok = (_close(p, ref[k]["error_probability"], GROVER_REL)
              and _close(float(r["error_estimate"]), ref[k]["error_estimate"], CLOSED_FORM_REL))
        return "ok" if ok else "wrong"

    return expected, row_key, judge


def _ed_rules(cfg, ref):
    model = cfg["model"]
    g_grid = grid(cfg["g_grid"])
    m = int(cfg.get("m", 4))
    expected = [key(model, int(n), g, lvl) for n in cfg["n_list"] for g in g_grid for lvl in range(m)]

    def row_key(r):
        if int(r["level"]) < 0:
            return None  # the row the CLI writes for a failed solve
        return key(r["model"], int(r["n_spins"]), float(r["g"]), int(r["level"]))

    def oracle(n, g, lvl):
        """(energy, parity or None) from closed forms where they exist."""
        if model == "ising_ring" and lvl == 0:
            return ising_ground_energy(n, g), 1.0
        if model == "mixed_grover_ising" and g == 0.0:
            # H = 1 - |s><s|: the uniform state at 0, everything else at 1
            return (0.0, 1.0) if lvl == 0 else (1.0, None)
        return None

    def judge(k, r):
        n, g, lvl = int(r["n_spins"]), float(r["g"]), int(r["level"])
        if not float(r["residual"]) <= 1e-8:
            return "flagged"
        energy, parity = float(r["energy"]), float(r["parity"])
        exact = oracle(n, g, lvl)
        if exact is not None:
            ok = _close(energy, exact[0], 0.0, ED_GROUND_ABS) and exact[1] in (None, parity)
            return "ok" if ok else "wrong"
        want = ref[k]
        ok = _close(energy, want["energy"], ED_REF_REL, ED_REF_REL)
        if not want["degenerate"] and parity != want["parity"]:
            ok = False
        return "ok" if ok else "wrong"

    return expected, row_key, judge


def _near_gap_rules(cfg, ref):
    kinds = ("linear", "gap_adapted", "gap_squared_adapted")
    expected = [key(kind, int(n)) for kind in kinds for n in cfg["n_list"]]

    def row_key(r):
        return key(r["schedule"], int(r["n_spins"]))

    def judge(k, r):
        ok = (_close(float(r["T"]), ref[k]["T"], CLOSED_FORM_REL)
              and _close(float(r["bound"]), ref[k]["bound"], TABLE_REL))
        return "ok" if ok else "wrong"

    return expected, row_key, judge


def _gap_law_rules(cfg, ref):
    expected = [key(int(n)) for n in cfg["n_list"]]

    def row_key(r):
        return key(int(r["n_spins"]))

    def judge(k, r):
        n = int(r["n_spins"])
        ok = _close(float(r["min_gap"]), 4.0 * math.sin(math.pi / (2.0 * n)), CLOSED_FORM_REL)
        return "ok" if ok else "wrong"

    return expected, row_key, judge


def _mixed_gap_rules(cfg, ref):
    expected = [key(int(n)) for n in cfg["n_list"]]

    def row_key(r):
        return key(int(r["n_spins"]))

    def judge(k, r):
        ok = _close(float(r["min_even_gap"]), ref[k]["min_even_gap"], MIXED_GAP_REL)
        return "ok" if ok else "wrong"

    return expected, row_key, judge


_RULES = {
    "sweep": _sweep_rules,
    "response": _response_rules,
    "grover": _grover_rules,
    "ed": _ed_rules,
    "scaling_near_gap_table": _near_gap_rules,
    "scaling_gap_law": _gap_law_rules,
    "scaling_mixed_gap": _mixed_gap_rules,
}
