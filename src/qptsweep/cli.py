"""Experiment orchestration and the ``qptsweep`` command-line interface.

Subcommands ``spectrum``, ``ed``, ``sweep``, ``response``, ``grover`` and
``scaling`` each read a JSON config, run a deterministic parameter sweep and
emit CSV (17-significant-digit floats), a JSON mirror and a manifest
recording the config hash.  Exit codes: 0 full success, 2 partial
(nonconverged rows present), 1 config/I-O error.
"""

import argparse
import gc
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__, bath, exact, grover, ising, response, schedules
# fit_exponential is unused here, but the traced benchmark (perfbench/layers.py) looks it up here
from .fitting import fit_exponential, fit_power_law  # noqa: F401

# Interpreter shutdown forces collections over the ~41k objects these imports made: 58 of the
# 73 ms each process spent after main() on a 2-core VM.  Frozen, they are never walked again.
gc.freeze()

EXPERIMENTS = ("spectrum", "ed", "sweep", "response", "grover", "scaling")

log = logging.getLogger("qptsweep")


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict
    seed: int = 0

    @classmethod
    def load(cls, path, experiment):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        declared = raw.pop("experiment", experiment)
        if declared != experiment:
            raise ConfigError(f"config is for {declared!r}, invoked as {experiment!r}")
        return cls(experiment=experiment, params=raw)

    def canonical(self):
        doc = {"experiment": self.experiment, "seed": self.seed, **self.params}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def sha256(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()


class ResultBundle:
    """One result table and its fits, held column by column.

    Give the table either as ``rows`` (a list of row lists) or as ``data``:
    one list or 1-d numpy array per column, in the order of ``columns``.  A
    numpy column must be float64 or int64.
    """

    def __init__(self, name, columns, rows=None, fits=None, nonconverged=0, data=None):
        self.name = name
        self.columns = columns
        if rows is not None:
            data = [list(col) for col in zip(*rows)] if rows else [[] for _ in columns]
        self.data = data
        self.fits = {} if fits is None else fits
        self.nonconverged = nonconverged

    @property
    def rows(self):
        return [list(row) for row in zip(*self.data)]


def _grid(spec, name):
    """Accept an explicit list or a {start, stop, num} linspace description;
    either must give a nonempty ascending grid of finite values."""
    if isinstance(spec, dict):
        try:
            start, stop, num = float(spec["start"]), float(spec["stop"]), int(spec["num"])
        except KeyError as exc:
            raise ConfigError(f"{name} needs start/stop/num, got {spec}") from exc
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"{name} start and stop must be finite, got {spec}")
        arr = np.linspace(start, stop, num)
    else:
        arr = np.asarray(spec, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise ConfigError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} entries must be finite, got {spec}")
    if np.any(np.diff(arr) < 0):
        raise ConfigError(f"{name} must be sorted ascending")
    return arr


def _require(params, *keys):
    missing = [k for k in keys if k not in params]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    for k in keys:
        if isinstance(params[k], (list, tuple)) and len(params[k]) == 0:
            raise ConfigError(f"config key {k!r} must be a nonempty list")


def _ka_list(params, n_spins):
    """The config's ``ka_list`` in its given order, or [pi/N] when it is absent."""
    if params.get("ka_list") is None:
        return np.array([np.pi / n_spins])
    _require(params, "ka_list")
    return np.asarray(params["ka_list"], dtype=float)


def _make_schedule(params, n_spins=None, T=None):
    if T is None:
        _require(params, "T")
        T = params["T"]
    return schedules.make_schedule(
        params.get("schedule", "linear"), float(T), n_spins=n_spins,
        g_frozen=params.get("g_frozen"),
    )


def _run_spectrum(cfg):
    p = cfg.params
    _require(p, "n_spins")
    n = int(p["n_spins"])
    g_grid = _grid(p.get("g_grid", {"start": 0.0, "stop": 1.0, "num": 101}), "g_grid")
    momenta = ising.momentum_grid(ising.ChainParams(n))
    energies = ising.dispersion(momenta, g_grid[:, None])  # one row of momenta per g
    data = [
        np.full(energies.size, n), np.tile(momenta, len(g_grid)),
        np.repeat(g_grid, len(momenta)), energies.ravel(),
    ]
    return ResultBundle(name="spectrum", columns=["n_spins", "ka", "g", "energy"], data=data)


def _run_ed(cfg):
    p = cfg.params
    _require(p, "model", "n_list")
    model = p["model"]
    g_grid = _grid(p.get("g_grid", {"start": 0.0, "stop": 1.0, "num": 21}), "g_grid")
    m = p.get("m", 4)
    if isinstance(m, bool) or not isinstance(m, (int, float)) or not float(m).is_integer():
        raise ConfigError(f"m must be a whole number of levels, got {m!r}")
    parity = model in ("ising_ring", "mixed_grover_ising")
    rows, bad = [], 0
    for n in p["n_list"]:
        for g in g_grid:
            try:
                ham = exact.build_hamiltonian(model, int(n), float(g))
                spec = exact.low_spectrum(ham, int(m), resolve_parity=parity)
            except exact.NonConvergenceError:
                bad += 1
                rows.append([model, int(n), float(g), -1, np.nan, 0.0, np.nan])
                continue
            for lvl, e in enumerate(spec.eigenvalues):
                par = spec.parity_labels[lvl] if spec.parity_labels is not None else 0.0
                rows.append(
                    [model, int(n), float(g), lvl, float(e), float(par), float(spec.residuals[lvl])]
                )
    return ResultBundle(
        name="ed",
        columns=["model", "n_spins", "g", "level", "energy", "parity", "residual"],
        rows=rows,
        nonconverged=bad,
    )


# Certificates a sweep row must pass: the criterion 05 bound on the norm
# defect and a bound on the difference between the last two Magnus grids.
NORM_DEFECT_MAX = 1e-9
ENDPOINT_ERROR_MAX = 1e-6


def _run_sweep(cfg):
    p = cfg.params
    _require(p, "n_spins", "T_list")
    n = int(p["n_spins"])
    ka_list = _ka_list(p, n)
    rows, bad = [], 0
    for T in p["T_list"]:
        sched = _make_schedule(p, n_spins=n, T=T)
        end = ising.integrate_bogoliubov(ka_list, sched)
        # written so that NaN fails the comparison and counts as bad
        ok = (end.norm_defect <= NORM_DEFECT_MAX) & (end.endpoint_error <= ENDPOINT_ERROR_MAX)
        bad += int(np.count_nonzero(~ok))
        per_mode = zip(
            ka_list, end.excitation_probability(), end.norm_defect, end.endpoint_error,
            end.adiabatic_mismatch(), end.n_grid,
        )
        for ka, pexc, defect, err, mis, steps in per_mode:
            rows.append([
                n, float(ka), float(T), sched.kind,
                float(pexc), float(defect), float(err), float(mis), int(steps),
            ])
    return ResultBundle(
        name="sweep",
        columns=[
            "n_spins", "ka", "T", "schedule", "excitation_probability",
            "norm_defect", "endpoint_error", "adiabatic_mismatch", "n_grid",
        ],
        rows=rows,
        nonconverged=bad,
    )


def _run_response(cfg):
    p = cfg.params
    _require(p, "n_spins", "T", "omega_grid", "channel")
    n = int(p["n_spins"])
    kind = p["channel"]
    if kind not in response.CHANNEL_KINDS:
        raise ConfigError(f"channel must be one of {response.CHANNEL_KINDS}, got {kind!r}")
    sched = _make_schedule(p, n_spins=n)
    omega_grid = _grid(p["omega_grid"], "omega_grid")
    order = p.get("endpoint_order", 0)
    if isinstance(order, bool) or order not in (0, 1, 2):
        raise ConfigError(f"endpoint_order must be 0, 1 or 2, got {order!r}")
    rows = []
    for ka in _ka_list(p, n).tolist():
        kpa = float(p.get("kpa", ka)) if kind == "nonuniform_x" else ka
        values, errors, oks = response.amplitudes_on_grid(
            kind, ka, kpa, omega_grid, n, sched, int(order)
        )
        rows += [
            [kind, n, ka, kpa, w, response.classify_regime(w, ka), "quadrature",
             v.real, v.imag, abs(v), err, int(ok)]
            for w, v, err, ok in zip(omega_grid.tolist(), values.tolist(), errors.tolist(),
                                     oks.tolist())
        ]
    bad = sum(not row[-1] for row in rows)
    return ResultBundle(
        name="response",
        columns=[
            "channel", "n_spins", "ka", "kpa", "omega", "regime", "method",
            "re", "im", "modulus", "quad_error", "converged",
        ],
        rows=rows,
        nonconverged=bad,
    )


def _bath_from_config(p):
    spec = p.get("bath")
    if spec is None:
        return None
    kind = spec.get("kind", "thermal_bosonic")
    if kind == "thermal_bosonic":
        return bath.SpectralFunction(
            kind=kind,
            theta=float(spec.get("theta", 0.5)),
            omega_ph=float(spec.get("omega_ph", 1.0)),
            epsilon=float(spec.get("epsilon", 1.0)),
            omega_c=float(spec.get("omega_c", np.inf)),
            beta=float(spec.get("beta", np.inf)),
        )
    if kind == "tabulated":
        _require(spec, "path")
        return bath.load_tabulated(spec["path"])
    if kind == "dirac_comb":
        _require(spec, "omega0", "weight")
        return bath.dirac_probe(spec["omega0"], spec["weight"])
    raise ConfigError(f"unknown bath kind {kind!r}")


def _run_grover(cfg):
    p = cfg.params
    _require(p, "n_list", "T")
    sf = _bath_from_config(p)
    coupling = float(p.get("coupling", 0.01))
    sched = _make_schedule(p)
    if sf is not None and sf.kind != "dirac_comb":
        log.warning(
            "grover: error_probability is computed only for dirac_comb baths; "
            "it is left as nan for the %s bath", sf.kind,
        )
    rows, bad = [], 0
    for n in p["n_list"]:
        params = grover.GroverParams(n_qubits=int(n), coupling=coupling, schedule=sched, spectral_function=sf)
        est = grover.error_estimate(params) if sf else np.nan
        err = np.nan
        if sf is not None and sf.kind == "dirac_comb":
            try:
                err = grover.error_probability(params)
            except grover.QuadratureError:
                bad += 1
        rows.append([int(n), params.dim, params.min_gap, err, est])
    return ResultBundle(
        name="grover",
        columns=["n_qubits", "dim", "min_gap", "error_probability", "error_estimate"],
        rows=rows,
        nonconverged=bad,
    )


def _run_scaling(cfg):
    p = cfg.params
    study = p.get("study", "gap_law")
    rows, fits = [], {}
    if study == "gap_law":
        n_list = [int(n) for n in p.get("n_list", [8, 16, 32, 64, 128, 256, 512, 1024])]
        gaps = [ising.global_min_gap(ising.ChainParams(n)) for n in n_list]
        rows = [[n, g] for n, g in zip(n_list, gaps)]
        fit = fit_power_law(np.asarray(n_list, float), np.asarray(gaps))
        fits["gap_law"] = {"exponent": fit.exponent, "prefactor": fit.prefactor, "r_squared": fit.r_squared}
        columns = ["n_spins", "min_gap"]
    elif study == "near_gap_table":
        n_list = [int(n) for n in p.get("n_list", [32, 64, 128, 256])]
        columns = ["schedule", "n_spins", "T", "bound"]
        for kind in ("linear", "gap_adapted", "gap_squared_adapted"):
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
                b = response.amplitude_bound_near_gap(np.pi / n, sched).modulus
                vals.append(b)
                rows.append([kind, n, float(T), b])
            ns = np.asarray(n_list, float)
            vals = np.asarray(vals)
            if kind == "linear":
                fit = fit_power_law(ns, vals / ((2 * np.pi / ns) * np.log(ns)))
            else:
                fit = fit_power_law(ns, vals)
            fits[kind] = {"exponent": fit.exponent, "r_squared": fit.r_squared}
    elif study == "mixed_gap":
        n_list = [int(n) for n in p.get("n_list", [4, 6, 8, 10])]
        fit, gaps = exact.mixed_gap_scaling(n_list, coarse_points=int(p.get("coarse_points", 41)))
        rows = [[n, g] for n, g in gaps.items()]
        fits["mixed_gap"] = {"rate": fit.exponent, "r_squared": fit.r_squared}
        columns = ["n_spins", "min_even_gap"]
    else:
        raise ConfigError(f"unknown scaling study {study!r}")
    return ResultBundle(name=f"scaling_{study}", columns=columns, rows=rows, fits=fits)


_RUNNERS = {
    "spectrum": _run_spectrum,
    "ed": _run_ed,
    "sweep": _run_sweep,
    "response": _run_response,
    "grover": _run_grover,
    "scaling": _run_scaling,
}


def _json_value(x):
    """Strict-JSON form of a cell: str, bool and int as they are, non-finite floats as null."""
    if isinstance(x, (str, bool)):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    x = float(x)
    return x if math.isfinite(x) else None


def _csv_text(x):
    """A cell as CSV text: floats with 17 significant digits, others as str()."""
    return "%.17g" % x if isinstance(x, (float, np.floating)) else str(x)


def _json_text(x):
    """A cell as strict JSON text: the text of ``_json_value(x)``."""
    if isinstance(x, (str, bool)):
        return json.dumps(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    return repr(x) if math.isfinite(x) else "null"


def _texts(col, cell):
    """The text of every cell of one column.

    A list column goes through ``cell`` cell by cell.  A numpy column is
    formatted once per distinct bit pattern and gathered back; keying on
    bits keeps -0.0 apart from 0.0.
    """
    if not isinstance(col, np.ndarray):
        return list(map(cell, col))
    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    distinct = np.array(list(map(cell, keys.view(col.dtype).tolist())), dtype=object)
    return distinct[inverse]


_BLOCK = 8192  # rows joined into one string per write


def _write_rows(fh, row, texts, sep):
    """Write the rows of the column ``texts``, each through the %-format
    ``row`` and separated by ``sep``, one block of rows per write."""
    n = len(texts[0]) if texts else 0
    for lo in range(0, n, _BLOCK):
        block = sep.join(map(row.__mod__, zip(*(t[lo:lo + _BLOCK] for t in texts))))
        fh.write(block if lo == 0 else sep + block)


def _write_csv(path, bundle):
    """CSV of the bundle: floats with 17 significant digits (%.17g), every
    other cell as str().  Each column becomes its cell texts once (see
    ``_texts``), then each row is joined by one %-format."""
    texts = [_texts(col, _csv_text) for col in bundle.data]
    with open(path, "w") as fh:
        fh.write(",".join(bundle.columns) + "\n")
        _write_rows(fh, ",".join(["%s"] * len(texts)) + "\n", texts, "")


def _write_json(path, bundle):
    """Compact strict JSON mirror with sorted keys; non-finite floats are null.

    ``columns``, ``fits`` and ``nonconverged`` sort before ``rows``, so the
    document is their encoding followed by the rows, written like the CSV.
    """
    head = json.dumps(
        {
            "columns": bundle.columns,
            "fits": {k: {kk: _json_value(v) for kk, v in fit.items()} for k, fit in bundle.fits.items()},
            "nonconverged": bundle.nonconverged,
        },
        sort_keys=True, allow_nan=False, separators=(",", ":"),
    )
    texts = [_texts(col, _json_text) for col in bundle.data]
    with open(path, "w") as fh:
        fh.write(head[:-1] + ',"rows":[')
        _write_rows(fh, "[" + ",".join(["%s"] * len(texts)) + "]", texts, ",")
        fh.write("]}")


def emit(bundle, out_dir, config, walltime):
    """Write CSV + JSON mirror + manifest; returns the CSV path.

    Both tables are written column by column (see ``_texts``); the CSV
    texts are released before the JSON texts are built.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{bundle.name}.csv"
    _write_csv(csv_path, bundle)
    _write_json(out / f"{bundle.name}.json", bundle)
    manifest = {
        "config_sha256": config.sha256(),
        "experiment": config.experiment,
        "seed": config.seed,
        "qptsweep_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": "%d.%d.%d" % sys.version_info[:3],
        "nproc": os.cpu_count(),
        "walltime_s": walltime,
    }
    (out / f"{bundle.name}.manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return csv_path


def run(config, out_dir):
    """Execute one experiment; returns (bundle, exit_code)."""
    t0 = time.monotonic()
    bundle = _RUNNERS[config.experiment](config)
    emit(bundle, out_dir, config, walltime=time.monotonic() - t0)
    return bundle, (2 if bundle.nonconverged else 0)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="qptsweep", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--threads", type=int, help=argparse.SUPPRESS)  # accepted, ignored
        sp.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.load(args.config, args.experiment)
        config.seed = args.seed
        _, code = run(config, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
