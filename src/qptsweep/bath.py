"""Bath spectral functions f(omega).

Thermal bosonic family J(|w|)*[n_B(|w|) + step(w)] with the spectral density
J(w) = 2*theta*omega_ph^(1-eps)*w^eps*exp(-w/omega_c), plus tabulated custom
functions and a formal single-frequency probe.
"""

import csv
from dataclasses import dataclass

import numpy as np

from ._kernels import QuadratureError, nested_simpson

KINDS = ("thermal_bosonic", "tabulated", "dirac_comb")
_GRADING = 4  # power of the substitution that grades a window side at w = 0


@dataclass
class SpectralFunction:
    kind: str
    theta: float = 0.5
    omega_ph: float = 1.0
    epsilon: float = 1.0
    omega_c: float = np.inf
    beta: float = np.inf
    table: tuple | None = None  # (omega samples, f samples) for tabulated
    probes: tuple | None = None  # (omega0 array, weight array) for dirac_comb
    _interp: object = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "thermal_bosonic":
            # NaN fails every comparison
            if not (0.0 <= self.theta < np.inf and 0.0 < self.omega_ph < np.inf and 0.0 <= self.epsilon < np.inf):
                raise ValueError("need finite theta >= 0, omega_ph > 0 and epsilon >= 0")
            if not (self.omega_c > 0.0 and self.beta > 0.0):
                raise ValueError("need omega_c > 0 and beta > 0 (inf allowed)")


def spectral_density(sf, omega):
    """Bath spectral density J(w) = 2*theta*omega_ph^(1-eps)*w^eps*e^(-w/wc)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0.0):
        raise ValueError(f"omega must be nonnegative, got {omega!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        powered = np.where(omega > 0.0, omega ** sf.epsilon, 0.0 if sf.epsilon > 0.0 else 1.0)
        decay = np.exp(-omega / sf.omega_c) if np.isfinite(sf.omega_c) else np.ones_like(omega)
    val = 2.0 * sf.theta * sf.omega_ph ** (1.0 - sf.epsilon) * powered * decay
    return val if val.ndim else float(val)


def _thermal(sf, omega):
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    omega = np.atleast_1d(omega)
    out = np.zeros_like(omega)
    absw = np.abs(omega)
    pos = omega > 0.0
    zero = omega == 0.0

    if np.isinf(sf.beta):
        out[pos] = spectral_density(sf, absw[pos])
        # w <= 0 contributes nothing at zero temperature
    else:
        nz = ~zero
        j = spectral_density(sf, absw[nz])
        with np.errstate(over="ignore"):
            # expm1 overflow at large beta*|w| correctly yields occupancy 0
            occupancy = 1.0 / np.expm1(sf.beta * absw[nz])
        out[nz] = j * (occupancy + pos[nz].astype(float))
        if np.any(zero):
            if sf.epsilon < 1.0:
                raise ValueError(
                    f"thermal f(0) diverges for epsilon={sf.epsilon} < 1 at finite beta"
                )
            # classical limit J(|w|)/(beta*|w|): finite for eps=1, zero above
            if sf.epsilon == 1.0:
                out[zero] = 2.0 * sf.theta / sf.beta
    return out[0] if scalar else out


def evaluate(sf, omega):
    """Spectral function f(w); negative w handled per kind."""
    if sf.kind == "thermal_bosonic":
        return _thermal(sf, omega)
    if sf.kind == "tabulated":
        omega = np.asarray(omega, dtype=float)
        lo, hi = sf.table[0][0], sf.table[0][-1]
        inside = (omega >= lo) & (omega <= hi)
        out = np.where(inside, np.maximum(sf._interp(np.clip(omega, lo, hi)), 0.0), 0.0)
        return out if out.ndim else float(out)
    # dirac_comb is a formal measure; pointwise evaluation is zero a.e.
    omega = np.asarray(omega, dtype=float)
    out = np.zeros_like(omega)
    return out if out.ndim else float(out)


def load_tabulated(samples):
    """SpectralFunction from (omega, f) samples; zero outside the range.

    ``samples`` is a sequence of pairs or the path (str) of a two-column
    CSV (header row optional).  Every sample is finite, and every data row
    of the CSV is exactly two numbers; the first row that is not raises a
    ValueError naming its line.
    """
    if isinstance(samples, str):
        rows = []
        with open(samples, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                try:
                    values = [float(x) for x in row]
                except ValueError:
                    if not rows:
                        continue  # header row
                    values = []  # a later row that is not all numbers
                if len(values) != 2 or not np.all(np.isfinite(values)):
                    raise ValueError(
                        f"{samples}: line {reader.line_num} is not two finite numbers (omega, f): {','.join(row)}")
                rows.append(values)
        samples = rows
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("need at least two (omega, f) samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("omega and f samples must be finite")
    w, f = arr[:, 0], arr[:, 1]
    if np.any(np.diff(w) <= 0.0):
        raise ValueError("omega samples must be strictly ascending")
    if np.any(f < 0.0):
        raise ValueError("f samples must be nonnegative")
    # imported here: the only user of scipy.interpolate, which is slow to import
    from scipy.interpolate import PchipInterpolator

    sf = SpectralFunction(kind="tabulated", table=(w, f))
    sf._interp = PchipInterpolator(w, f)
    return sf


def dirac_probe(omega0, weight):
    """Formal measure weight * delta(w - omega0); vector arguments allowed."""
    omega0 = np.atleast_1d(np.asarray(omega0, dtype=float))
    weight = np.broadcast_to(np.asarray(weight, dtype=float), omega0.shape).copy()
    if not np.all(np.isfinite(omega0)):
        raise ValueError("probe frequencies must be finite")
    if not np.all((weight > 0.0) & (weight < np.inf)):  # NaN fails both comparisons
        raise ValueError("weights must be positive and finite")
    return SpectralFunction(kind="dirac_comb", probes=(omega0, weight))


def integrate_abs(sf, omega_lo, omega_hi, n_points=33):
    """Integrals of |f| over the windows [omega_lo, omega_hi], with their
    certificates; ``omega_lo`` and ``omega_hi`` are scalars or 1-d arrays.

    Returns (values, errors) of their shape, the errors relative.  A window
    with omega_hi <= omega_lo gives 0.  A dirac_comb sums its atoms in
    [lo, hi), exactly.  Otherwise the windows go through ``_abs_pieces``,
    from a first grid of ``n_points`` nodes.  A thermal f, not smooth at 0,
    is integrated on each side of 0 apart, and a side that ends at 0 is
    graded there, w = w_far u^_GRADING.  A tabulated f is integrated over
    the part of each window inside its table, with a first grid of at least
    as many intervals as the table has samples, so that no table interval
    falls between two nodes.  A window left uncertified on the finest grid
    raises ``QuadratureError``.
    """
    lo, hi = np.broadcast_arrays(np.asarray(omega_lo, dtype=float), np.asarray(omega_hi, dtype=float))
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    values = np.zeros(lo.shape)
    errors = np.zeros(lo.shape)
    if sf.kind == "dirac_comb":
        w0, wt = sf.probes
        inside = (w0 >= lo[:, None]) & (w0 < hi[:, None])
        values = np.where(hi > lo, inside @ wt, 0.0)
    else:
        n0 = n_points - 1
        if sf.kind == "thermal_bosonic":
            # each side is walked from its end nearest 0: the negative side
            # from hi down, the positive side from lo up
            neg_hi, pos_lo = np.minimum(hi, 0.0), np.maximum(lo, 0.0)
            keep = np.concatenate((neg_hi > lo, hi > pos_lo))
            edge = np.concatenate((neg_hi, pos_lo))
            span = np.concatenate((lo - neg_hi, hi - pos_lo))
            graded = edge == 0.0
        else:
            w = sf.table[0]
            lo, hi = np.maximum(lo, w[0]), np.minimum(hi, w[-1])
            keep, edge, span = hi > lo, lo, hi - lo
            graded = np.zeros(keep.shape, dtype=bool)
            n0 = max(n0, w.shape[0])
        pieces = np.zeros((2, keep.shape[0]))  # value and error of each piece
        for power, rows in ((1, keep & ~graded), (_GRADING, keep & graded)):
            if rows.any():
                pieces[:, rows] = _abs_pieces(sf, edge[rows], span[rows], power, n0)
        pieces = pieces.reshape(2, -1, values.shape[0])
        values = pieces[0].sum(axis=0)
        errors = pieces[1].max(axis=0)
    if not shape:
        return float(values[0]), float(errors[0])
    return values.reshape(shape), errors.reshape(shape)


def _abs_pieces(sf, edge, span, power, n0):
    """Integrals of |f| over w = edge + span*u^power, u from 0 to 1, for the
    1-d ``edge`` and ``span``, by one ``nested_simpson`` run on n0 intervals
    first; returns their values and relative errors.

    The integrand in u is |f(w)| |span| power u^(power-1).  Near 0 a thermal
    f goes as |w|^s: s = epsilon at zero temperature, where f jumps at 0 when
    epsilon = 0, and s = epsilon - 1 at finite beta.  From an edge at 0 that
    is u^(power(1+s)-1), which vanishes at u = 0 for power >= 2, whatever
    f(0) reads, and which Simpson's rule integrates at its full order h^4
    for every s >= 0 when power = 4; on w it converges only as h^(1+s).
    """

    def integrand(rows, x):
        t, jacobian = x
        w = edge[rows, None] + span[rows, None] * t
        if jacobian[0] != 0.0:
            return jacobian * np.abs(evaluate(sf, w))
        # the node u = 0 of a graded side adds 0 whatever f reads there, so f
        # is not evaluated there: at finite beta a sub-ohmic f(0) is infinite
        out = np.zeros(w.shape)
        out[:, 1:] = jacobian[1:] * np.abs(evaluate(sf, w[:, 1:]))
        return out

    vals, errs, ok = nested_simpson(
        lambda u: (u**power, power * u ** (power - 1)), integrand, edge.shape[0], n0
    )
    if not ok.all():
        bad = np.flatnonzero(~ok)[0]
        ends = sorted((edge[bad], edge[bad] + span[bad]))
        raise QuadratureError(f"integral of |f| over {ends} not certified")
    return np.abs(span) * vals, errs
