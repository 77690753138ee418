"""Experiment orchestration and the ``qptsweep`` command-line interface.

Subcommands ``spectrum``, ``ed``, ``sweep``, ``response``, ``grover`` and
``scaling`` each read a JSON config, run a deterministic parameter sweep and
emit CSV (17-significant-digit floats), a JSON mirror whose numbers are the
CSV's texts (null for a non-finite float, ``.0`` after an integral one) and a
manifest recording the config hash, the versions, the CPUs and the seconds
the run and the write took.  Exit codes: 0 full success, 2 partial
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


def _n_rows(col):
    """The rows of a column: a list, or a factored pair (values, index)."""
    return len(col[1]) if isinstance(col, tuple) else len(col)


def _bad_column(col):
    """Whether ``col`` is neither a list nor a factored pair of float64 or int64
    values and an int32 index that points within them."""
    if not isinstance(col, tuple):
        return not isinstance(col, list)
    values, index = col
    return (not isinstance(values, np.ndarray) or values.dtype not in (np.float64, np.int64)
            or not isinstance(index, np.ndarray) or index.dtype != np.int32
            or len(index) and not 0 <= index.min() <= index.max() < len(values))


class ResultBundle:
    """One result table and its fits, held column by column.

    Give the table either as ``rows`` (a list of row lists) or as ``data``:
    one column per entry of ``columns``, each a list or factored as a pair
    (values, index) whose row i holds values[index[i]]: float64 or int64
    values and an int32 index.  ``emit`` formats factored values as given,
    once each, so a runner that wants a value formatted once stores it once.
    A ragged table raises ValueError.
    """

    def __init__(self, name, columns, rows=None, fits=None, nonconverged=0, data=None):
        self.name = name
        self.columns = columns
        if rows is not None:  # strict: a row of another length raises ValueError
            data = [list(col) for col in zip(*rows, strict=True)] if rows else [[] for _ in columns]
        if len(data) != len(columns) or len(set(map(_n_rows, data))) > 1 or any(map(_bad_column, data)):
            raise ValueError(f"{name}: need {len(columns)} columns of one length, each a list or"
                             " float64 or int64 values with an int32 index within them")
        self.data = data
        self.fits = {} if fits is None else fits
        self.nonconverged = nonconverged


def _value(value, spec, what):
    """``value`` read by ``spec``: ``int`` a whole number, as int; ``float`` any number,
    as float; ``str`` or ``dict`` a value of that type; a tuple one of its choices;
    ``[spec]`` a nonempty list of ``spec``; any other spec is a reader of its own,
    such as ``_grid``, called as ``spec(value, what)``.  A bool is never a number."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if spec is int and number and value % 1 == 0 or spec is float and number:
        try:
            return spec(value)
        except OverflowError:  # an integer beyond the largest float
            raise ConfigError(f"{what} is too large for a float: {value.bit_length()} bits") from None
    if spec in (str, dict) and isinstance(value, spec):
        return value
    if isinstance(spec, tuple) and not isinstance(value, bool) and value in spec:
        return spec[spec.index(value)]  # 2.0 reads as the choice 2
    if isinstance(spec, list) and isinstance(value, list) and value:
        return [_value(v, spec[0], f"{what} entry") for v in value]
    if not isinstance(spec, (type, tuple, list)):
        return spec(value, what)
    want = ((", ".join(map(repr, spec[:-1])) + " or " if spec[:-1] else "") + repr(spec[-1])
            if isinstance(spec, tuple)
            else "a nonempty list" if isinstance(spec, list)
            else {int: "a whole number", float: "a number", str: "a string", dict: "a JSON object"}[spec])
    raise ConfigError(f"{what} must be {want}, got {value!r}")


def _grid(spec, name):
    """Accept an explicit list or a {start, stop, num} linspace description;
    either must give a nonempty ascending grid of finite values."""
    if isinstance(spec, dict):
        start, stop, num = _read(spec, _KEYS["linspace"]).values()
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"{name} start and stop must be finite, got {spec}")
        arr = np.linspace(start, stop, num)
    else:
        arr = np.asarray(_value(spec, [float], name))
    if len(arr) == 0:
        raise ConfigError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} entries must be finite, got {spec}")
    if np.any(np.diff(arr) < 0):
        raise ConfigError(f"{name} must be sorted ascending")
    return arr


def _probes(value, what):
    """A dirac_comb ``omega0`` or ``weight``: a number or a nonempty list of numbers."""
    return _value(value, [float] if isinstance(value, list) else float, what)


_REQUIRED = "required"  # the default of a key that the config must give
_SCHEDULE = {"schedule": (schedules.KINDS, "linear")}

# {key: (spec, default)} of each subcommand, a bath, a linspace grid, and each value of a key that brings
# more keys in: a scaling study, a response channel, a bath kind.  A key whose default is None takes the
# runner's default when left out.  The library calls that take the values check their ranges.
_KEYS = {
    "spectrum": {"n_spins": (int, _REQUIRED), "g_grid": (_grid, {"start": 0.0, "stop": 1.0, "num": 101})},
    "ed": {"model": (exact.MODELS, _REQUIRED), "n_list": ([int], _REQUIRED),
           "g_grid": (_grid, {"start": 0.0, "stop": 1.0, "num": 21}), "m": (int, 4)},
    "sweep": {"n_spins": (int, _REQUIRED), "T_list": ([float], _REQUIRED), "ka_list": ([float], None),
              **_SCHEDULE},
    "response": {"n_spins": (int, _REQUIRED), "T": (float, _REQUIRED), "omega_grid": (_grid, _REQUIRED),
                 "channel": (response.CHANNEL_KINDS, _REQUIRED), "endpoint_order": ((0, 1, 2), 0),
                 "ka_list": ([float], None), **_SCHEDULE},
    ("channel", "nonuniform_x"): {"kpa": (float, None)},
    # linear alone: an adapted kind follows the Ising chain's gap, not Grover's
    "grover": {"n_list": ([int], _REQUIRED), "T": (float, _REQUIRED), "bath": (dict, None),
               "coupling": (float, 0.01), "schedule": (("linear",), "linear")},
    "linspace": {"start": (float, _REQUIRED), "stop": (float, _REQUIRED), "num": (int, _REQUIRED)},
    "bath": {"kind": (bath.KINDS, "thermal_bosonic")},
    ("kind", "thermal_bosonic"): dict.fromkeys(  # a parameter left out keeps SpectralFunction's default
        ("theta", "omega_ph", "epsilon", "omega_c", "beta"), (float, None)),
    ("kind", "tabulated"): {"path": (str, _REQUIRED)},
    ("kind", "dirac_comb"): {"omega0": (_probes, _REQUIRED), "weight": (_probes, _REQUIRED)},
    "scaling": {"study": (("gap_law", "near_gap_table", "mixed_gap"), "gap_law")},
    ("study", "gap_law"): {"n_list": ([int], [8, 16, 32, 64, 128, 256, 512, 1024])},
    ("study", "near_gap_table"): {"n_list": ([int], [32, 64, 128, 256])},
    ("study", "mixed_gap"): {"n_list": ([int], [4, 6, 8, 10]), "coarse_points": (int, 41)},
}


def _read(params, keys):
    """Every value of the config object ``params`` read by the table ``keys``, before any
    computation: {key: value} of each key given or with a default other than None.  A value
    ``v`` of a key ``k`` that names a table ``_KEYS[k, v]`` brings that table's keys in.
    A missing key and a key that no table reads are rejected."""
    out, tables = {}, [keys]
    for table in tables:
        missing = [k for k, (_, default) in table.items() if default is _REQUIRED and k not in params]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        read = {k: _value(params.get(k, default), spec, k)
                for k, (spec, default) in table.items() if k in params or default is not None}
        out.update(read)
        tables += [_KEYS[k, v] for k, v in read.items() if isinstance(v, str) and (k, v) in _KEYS]
    unread = sorted(set(params) - set(out))
    if unread:
        raise ConfigError(f"config keys {unread} are not read by this run")
    return out


def _run_spectrum(cfg):
    p = _read(cfg.params, _KEYS["spectrum"])
    n, g_grid = p["n_spins"], p["g_grid"]
    momenta = ising.momentum_grid(ising.ChainParams(n))
    rows, half, g_index = n * len(g_grid), n // 2, np.arange(len(g_grid), dtype=np.int32)
    # E_k is even in ka and depends on g only through |1 - 2g|, both bit for bit, so the
    # energies are computed on the ka > 0 half, momenta[half:], once per distinct |1 - 2g|
    # at its first g (a g < 0 of the ascending grid comes first in its class, so dispersion
    # still rejects it); mode k at g reads mode |2k - (n - 1)| // 2 of g's class
    _, first, fold = np.unique(np.abs(1.0 - 2.0 * g_grid), return_index=True, return_inverse=True)
    energies = ising.dispersion(momenta[half:], g_grid[first, None])
    mirror = (np.abs(np.arange(1 - n, n, 2)) // 2).astype(np.int32)
    data = [
        (np.array([n]), np.broadcast_to(np.int32(0), (rows,))),  # one value, and no copy per row
        (momenta, np.tile(np.arange(n, dtype=np.int32), len(g_grid))),
        (g_grid, np.repeat(g_index, n)),
        (energies.ravel(), (fold.astype(np.int32)[:, None] * half + mirror).ravel()),
    ]
    return ResultBundle(name="spectrum", columns=["n_spins", "ka", "g", "energy"], data=data)


def _run_ed(cfg):
    p = _read(cfg.params, _KEYS["ed"])
    model, m = p["model"], p["m"]
    parity = model in ("ising_ring", "mixed_grover_ising")
    rows, bad = [], 0
    for n in p["n_list"]:
        for g in p["g_grid"]:
            try:
                ham = exact.build_hamiltonian(model, n, float(g))
                spec = exact.low_spectrum(ham, m, resolve_parity=parity)
            except exact.NonConvergenceError:
                bad += 1
                rows.append([model, n, float(g), -1, np.nan, 0.0, np.nan])
                continue
            for lvl, e in enumerate(spec.eigenvalues):
                par = spec.parity_labels[lvl] if spec.parity_labels is not None else 0.0
                rows.append([model, n, float(g), lvl, float(e), float(par), float(spec.residuals[lvl])])
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
    p = _read(cfg.params, _KEYS["sweep"])
    n = ising.ChainParams(p["n_spins"]).n_spins
    ka_list = ising._check_ka(p.get("ka_list", [np.pi / n]))
    rows, bad = [], 0
    # every T checked first
    for sched in [schedules.make_schedule(p["schedule"], T, n_spins=n) for T in p["T_list"]]:
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
                n, float(ka), sched.T, sched.kind,
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
    p = _read(cfg.params, _KEYS["response"])
    n, kind, omega_grid = ising.ChainParams(p["n_spins"]).n_spins, p["channel"], p["omega_grid"]
    sched = schedules.make_schedule(p["schedule"], p["T"], n_spins=n)
    # every mode checked first; only a nonuniform_x config reads kpa
    ka_list = [response._check_mode(ka) for ka in p.get("ka_list", [np.pi / n])]
    if "kpa" in p:
        response._check_mode(p["kpa"])
    rows = []
    for ka in ka_list:
        kpa = p.get("kpa", ka)
        values, errors, oks = response.amplitudes_on_grid(
            kind, ka, kpa, omega_grid, n, sched, p["endpoint_order"]
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


def _bath_from_config(obj):
    b = _read(obj, _KEYS["bath"])
    kind = b.pop("kind")
    if kind == "thermal_bosonic":
        return bath.SpectralFunction(kind=kind, **b)
    if kind == "tabulated":
        return bath.load_tabulated(b["path"])
    return bath.dirac_probe(b["omega0"], b["weight"])


def _run_grover(cfg):
    p = _read(cfg.params, _KEYS["grover"])
    sf = _bath_from_config(p["bath"]) if "bath" in p else None
    sched = schedules.make_schedule(p["schedule"], p["T"])
    if sf is not None and sf.kind != "dirac_comb":
        log.warning(
            "grover: error_probability is computed only for dirac_comb baths; "
            "it is left as nan for the %s bath", sf.kind,
        )
    rows, bad = [], 0
    for n in p["n_list"]:
        params = grover.GroverParams(n_qubits=n, coupling=p["coupling"], schedule=sched, spectral_function=sf)
        est = grover.error_estimate(params) if sf else np.nan
        err = np.nan
        if sf is not None and sf.kind == "dirac_comb":
            try:
                err = grover.error_probability(params)
            except grover.QuadratureError:
                bad += 1
        rows.append([n, params.dim, params.min_gap, err, est])
    return ResultBundle(
        name="grover",
        columns=["n_qubits", "dim", "min_gap", "error_probability", "error_estimate"],
        rows=rows,
        nonconverged=bad,
    )


def _run_scaling(cfg):
    p = _read(cfg.params, _KEYS["scaling"])
    study, n_list = p["study"], p["n_list"]
    rows, fits, bad = [], {}, 0
    if study == "gap_law":
        gaps = [ising.global_min_gap(ising.ChainParams(n)) for n in n_list]
        rows = [[n, g] for n, g in zip(n_list, gaps)]
        fit = fit_power_law(np.asarray(n_list, float), np.asarray(gaps))
        fits["gap_law"] = {"exponent": fit.exponent, "prefactor": fit.prefactor, "r_squared": fit.r_squared}
        columns = ["n_spins", "min_gap"]
    elif study == "near_gap_table":
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
                bound = response.amplitude_bound_near_gap(np.pi / n, sched)
                bad += not bound.converged
                vals.append(bound.modulus)
                rows.append([kind, n, float(T), bound.modulus])
            ns = np.asarray(n_list, float)
            vals = np.asarray(vals)
            if kind == "linear":
                fit = fit_power_law(ns, vals / ((2 * np.pi / ns) * np.log(ns)))
            else:
                fit = fit_power_law(ns, vals)
            fits[kind] = {"exponent": fit.exponent, "r_squared": fit.r_squared}
    else:  # mixed_gap
        fit, gaps = exact.mixed_gap_scaling(n_list, coarse_points=p["coarse_points"])
        rows = [[n, g] for n, g in gaps.items()]
        fits["mixed_gap"] = {"rate": fit.exponent, "r_squared": fit.r_squared}
        columns = ["n_spins", "min_even_gap"]
    return ResultBundle(name=f"scaling_{study}", columns=columns, rows=rows, fits=fits, nonconverged=bad)


_RUNNERS = {
    "spectrum": _run_spectrum,
    "ed": _run_ed,
    "sweep": _run_sweep,
    "response": _run_response,
    "grover": _run_grover,
    "scaling": _run_scaling,
}


def _json_value(x):
    """Strict-JSON form of a fit value, a float: non-finite as null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _csv_text(x):
    """A cell as CSV text: floats with 17 significant digits, others as str()."""
    return "%.17g" % x if isinstance(x, (float, np.floating)) else str(x)


def _json_number(text):
    """The mirror's text of a float whose CSV text is ``text``: null for nan and +-inf,
    else the same 17 digits, which read back to the same float, with ``.0`` after an
    integral text so that it reads as a float (``-0.0`` keeps its sign)."""
    if text[-1] in "nf":  # nan, inf, -inf: a finite %.17g text ends in a digit
        return "null"
    return text if "." in text or "e" in text else text + ".0"


def _json_cell(text, x):
    """The mirror's text of a list cell ``x`` whose CSV text is ``text``: str and bool as
    JSON, an int as its CSV text, anything else read as a float (np.bool_ as 1.0 or 0.0)."""
    if isinstance(x, (str, bool)):
        return json.dumps(x)
    if isinstance(x, (int, np.integer)):
        return text
    return _json_number(text if isinstance(x, (float, np.floating)) else "%.17g" % x)


_BLOCK = 4096  # rows joined into one string per write, and numpy cells formatted per pass


def _cell_texts(cells, sep):
    """The CSV text of each of ``cells`` followed by ``sep``: one %-format chosen
    from the dtype for numpy cells, each value formatted as given, ``_BLOCK``
    values at a time, ``_csv_text`` for a list."""
    if not isinstance(cells, np.ndarray):
        return np.array([_csv_text(x) + sep for x in cells], dtype=object)
    fmt = ("%.17g" if cells.dtype == np.float64 else "%d") + sep
    texts = np.empty(len(cells), dtype=object)
    for lo in range(0, len(cells), _BLOCK):
        texts[lo:lo + _BLOCK] = list(map(fmt.__mod__, cells[lo:lo + _BLOCK].tolist()))
    return texts


def _mirror_texts(texts, cells, sep):
    """Turn the CSV ``texts`` of ``cells`` from ``_cell_texts``, each ending in ``sep``,
    into the mirror's in place, ``_BLOCK`` at a time: list cells by ``_json_cell``, and
    numpy floats by ``_json_number``, which changes only a non-finite or integral value's
    text, so the other texts of a float column and an int column stay as they are."""
    for lo in range(0, len(texts), _BLOCK):
        block, part = texts[lo:lo + _BLOCK], cells[lo:lo + _BLOCK]  # block is a view
        if not isinstance(cells, np.ndarray):
            block[:] = [_json_cell(t.removesuffix(sep), x) + sep for t, x in zip(block.tolist(), part)]
        elif part.dtype == np.float64:
            for i in np.flatnonzero(np.isnan(part) | (part == np.trunc(part))).tolist():
                block[i] = _json_number(block[i].removesuffix(sep)) + sep


def _write_blocks(fh, columns, n, pre, end, cut):
    """Write ``n`` rows of ``columns``, (texts, index) pairs whose row i holds
    ``texts[index[i]]`` (``texts[i]`` where index is None), each row opened by
    ``pre`` and closed by ``end``, one block of ``_BLOCK`` rows per join; ``cut``
    drops the last character of the table.  A list table takes no fancy index:
    its first one faults in 68 kB of numpy."""
    buf = np.empty((min(n, _BLOCK), len(columns) + 2), dtype=object)
    buf[:, 0], buf[:, -1] = pre, end  # set once: the blocks fill the columns between
    for lo in range(0, n, _BLOCK):
        rows = buf[:min(_BLOCK, n - lo)]
        for j, (texts, index) in enumerate(columns, 1):
            rows[:, j] = texts[lo:lo + _BLOCK] if index is None else texts[index[lo:lo + _BLOCK]]
        block = "".join(rows.ravel().tolist())
        fh.write(block[:-1] if cut and lo + _BLOCK >= n else block)


def emit(bundle, out_dir, config, walltime):
    """Write CSV + JSON mirror + manifest; returns the CSV path.

    The CSV has floats as %.17g.  The mirror is compact strict JSON with sorted keys,
    and its ``rows`` sort last; its row cells are the CSV's texts turned in place
    (``_mirror_texts``): the same digits, which read back to the same floats, with
    ``.0`` after an integral float and null for a non-finite one.  So each value is
    formatted once, and the values of a factored column once each (``_cell_texts``);
    its rows pick their texts by index.  The manifest's ``emit_s`` is the seconds the
    two files took.
    """
    t0 = time.monotonic()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{bundle.name}.csv"
    head = json.dumps(
        {
            "columns": bundle.columns,
            "fits": {k: {kk: _json_value(v) for kk, v in fit.items()} for k, fit in bundle.fits.items()},
            "nonconverged": bundle.nonconverged,
        },
        sort_keys=True, allow_nan=False, separators=(",", ":"),
    )
    cells = [col if isinstance(col, tuple) else (col, None) for col in bundle.data]  # (cells, index)
    n, last = (_n_rows(bundle.data[0]) if bundle.data else 0), len(cells) - 1
    seps = [","] * last + [""]  # the row's end is written by _write_blocks
    columns = [(_cell_texts(values, sep), index) for (values, index), sep in zip(cells, seps)]
    with open(csv_path, "w") as fh:
        fh.write(",".join(bundle.columns) + "\n")
        _write_blocks(fh, columns, n, "", "\n", cut=False)
    for (texts, _), (values, _), sep in zip(columns, cells, seps):
        _mirror_texts(texts, values, sep)
    with open(out / f"{bundle.name}.json", "w") as fh:
        fh.write(head[:-1] + ',"rows":[')
        _write_blocks(fh, columns, n, "[", "],", cut=True)  # no "," after the last row
        fh.write("]}")
    manifest = {
        "config_sha256": config.sha256(),
        "experiment": config.experiment,
        "seed": config.seed,
        "qptsweep_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": "%d.%d.%d" % sys.version_info[:3],
        "nproc": len(os.sched_getaffinity(0)),
        "walltime_s": walltime,
        "emit_s": time.monotonic() - t0,
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
