"""First-order-response spectral excitation amplitudes for the Ising chain.

Three decoherence channels, each written once, in the channel table
``_channel_terms``, as terms whose envelopes are products of the
instantaneous Bogoliubov pair (u_k, v_k) of ``ising.bogoliubov_pair``:

- uniform_x, lambda * sum_j S^x_j with S = sigma/2: one term,
  2 u_k v_k = 2g sin(ka)/E_k at phase rate 2E_k.  It is half the element
  <pair k|sum_j sigma^x_j|0> that exact diagonalization gives, and the
  +-k pair is one final state (tests/test_channel_oracle.py).
- nonuniform_x, a transverse coupling lambda_j S^x_j: one term per pair
  (ka, kpa), 2 u_k v_k'/N at phase rate 2E_k.  Exact diagonalization of
  sigma^x_0 gives the pair (k, -k') the element (1/N)|u_k v_k' + v_k u_k'|
  at rate E_k + E_k', so the term is exact at kpa = ka, the CLI's default,
  and only there.
- single_site_z, lambda * sigma^z on one site: per unit coupling/sqrt(N),
  a1 = i e^{-ika} v_k with no dynamical phase and a2 = e^{ika} u_k at
  phase rate 2E_k.

Each amplitude is evaluated by direct oscillatory quadrature, and bounded by
the asymptotic stationary-phase / phase-free-bound machinery, with
frequency-regime classification and total-error assembly.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import (
    QuadratureError, cumulative_simpson_uniform, default_n0, filon_integral, filon_refined,
    linear_fourier, nested_simpson, refine,
)
from .bath import integrate_abs
from .ising import ChainParams, bogoliubov_pair, dispersion
from .schedules import make_schedule

CHANNEL_KINDS = ("uniform_x", "nonuniform_x", "single_site_z")
REGIMES = ("intermediate", "near_gap", "sub_gap", "negative")

RHO = 3.0  # quantifies the ">>" separating the frequency regimes
_INITIAL_ENERGY = 2.0  # single-particle energy at g=0; "cold bath" cutoff
_OMEGA_FLOOR = -2.0  # lower end of the negative-frequency window of total_error
_COLLISION_TOL = 1e-6  # smallest saddle discriminant stationary phase resolves
_SADDLE_SAMPLES = 9  # frequencies sampled per intermediate window
_BOUND_FIRST = 65  # nodes of the first grid of a phase-free bound
_REL_TOL = 1e-3  # grid-doubling tolerance of the quadrature amplitudes
_N_MAX = 2**21  # largest quadrature grid, in intervals


@dataclass
class Channel:
    kind: str
    coupling: float

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"kind must be one of {CHANNEL_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.coupling < np.inf:  # NaN fails both comparisons
            raise ValueError(f"coupling must be nonnegative and finite, got {self.coupling}")


@dataclass
class AmplitudeResult:
    value: complex
    quad_error: float
    converged: bool
    validity: float | None = None  # saddle path: correction/leading ratio

    @property
    def modulus(self):
        return abs(self.value)


@dataclass
class BitflipAmplitudes:
    a1: complex  # Fourier-transform term (no dynamical phase)
    a2: complex  # oscillatory term, grows with T
    a2_bound: float  # phase-free bound on |a2|; exactly proportional to T
    a2_bound_error: float  # relative half-grid difference of a2_bound
    quad_error: float
    converged: bool


@dataclass
class RegimeBounds:
    """Frequency windows per regime for one mode; partition of (-inf, 2)."""

    negative: tuple
    sub_gap: tuple
    near_gap: tuple
    intermediate: tuple


def regime_bounds(ka):
    k2 = 2.0 * abs(ka)
    lo = k2 / RHO
    hi = min(RHO * k2, _INITIAL_ENERGY)
    return RegimeBounds(
        negative=(-np.inf, 0.0),
        sub_gap=(0.0, lo),
        near_gap=(lo, hi),
        intermediate=(hi, _INITIAL_ENERGY),
    )


def _check_mode(ka):
    """``ka`` if mode ka has a regime and a Bogoliubov pair at g = 1/2:
    0 < |ka| < pi, since sin(ka/2) = 0 leaves E_k = 0 there."""
    if not 0.0 < abs(ka) < np.pi:  # NaN fails both comparisons
        raise ValueError(f"ka must satisfy 0 < |ka| < pi, got {ka}")
    return ka


def classify_regime(omega, ka):
    """Frequency regime relative to the minimal pair gap 2|ka| of mode ka."""
    _check_mode(ka)
    if omega < 0.0:
        return "negative"
    k2 = 2.0 * abs(ka)
    if omega >= RHO * k2:
        return "intermediate"
    if omega >= k2 / RHO:
        return "near_gap"
    return "sub_gap"


def _channel_terms(kind, kpa, n_spins):
    """The channel table: channel ``kind`` as the (factor, integrand) terms
    of the module docstring.  A mode's amplitude per unit coupling is the sum
    over them of factor(ka) * int_0^T env e^{i(phase - w t)} dt, where
    (env, rate) = integrand(ka, g, E_k) at g = g(t), E_k = dispersion(ka, g),
    and the phase integrates the rate (none where it is None).  ka and g
    broadcast, so one call takes every mode on a (modes x nodes) grid.
    2 u_k v_k is written as beta_k/E_k, its exact value; nonuniform_x pairs
    ka with k' = ``kpa`` over N = ``n_spins``.
    """
    if kind == "uniform_x":
        return [(np.ones_like, lambda ka, g, e_k: (2.0 * g * np.sin(ka) / e_k, 2.0 * e_k))]
    if kind == "nonuniform_x":

        def pair(ka, g, e_k):
            e_kp = dispersion(kpa, g)
            env = 2.0 * bogoliubov_pair(ka, g, e_k)[0] * bogoliubov_pair(kpa, g, e_kp)[1] / n_spins
            return env, 2.0 * e_k

        return [(np.ones_like, pair)]
    return [
        (lambda ka: 1j * np.exp(-1j * ka), lambda ka, g, e_k: (bogoliubov_pair(ka, g, e_k)[1], None)),
        (lambda ka: np.exp(1j * ka), lambda ka, g, e_k: (bogoliubov_pair(ka, g, e_k)[0], 2.0 * e_k)),
    ]


_UNIFORM_TERM = _channel_terms("uniform_x", None, None)[0]


def _filon_terms(terms, ka, schedule, omega, rel_tol, n_max):
    """``_channel_integrals`` at frequency ``omega`` by ``filon_refined``
    (every phase rate is at most 2 ``_INITIAL_ENERGY``)."""
    return _channel_integrals(terms, ka, schedule, lambda nodes: filon_refined(
        nodes, schedule.T, omega, 2.0 * _INITIAL_ENERGY, filon_integral, rel_tol, n_max))


def _evenly_spaced(grid, total_time):
    """Whether ``grid`` is ascending with one step, to within 1e-9/total_time
    (a phase error of at most 1e-9 over [0, total_time])."""
    step = (grid[-1] - grid[0]) / max(len(grid) - 1, 1)
    even = grid[0] + step * np.arange(len(grid))
    return step > 0.0 and np.max(np.abs(grid - even)) * total_time <= 1e-9


def _fourier_on_grid(nodes, total_time, omegas):
    """int_0^T env e^{i(phase - w t)} dt at every w of the evenly spaced
    ``omegas``, certified per w; returns (values, errors, converged) arrays.

    ``nodes`` is a ``stream_filon`` nodes closure.  On n intervals the
    integrand's slow part h = env e^{i phase}, phase the cumulative Simpson
    integral of the rate (h = env without one), is sampled once, and
    ``linear_fourier`` integrates its linear interpolant against e^{-i w t}
    exactly for all w at once; that error is O(dt^2) in h alone.  ``refine``
    doubles the Richardson values R_n = (4 I_2n - I_n)/3 of those integrals
    I_n, each I_n computed once, so the certificate covers the value that
    is reported.  Since e^{-i w t} costs no points, the first grid resolves
    the phase rate 2 ``_INITIAL_ENERGY`` alone.
    """
    integrals = {}

    def integral(n):
        if n not in integrals:
            t = np.linspace(0.0, total_time, n + 1)
            env, rate = nodes(t)
            h = env if rate is None else env * np.exp(1j * cumulative_simpson_uniform(rate, t[1]))
            integrals[n] = linear_fourier(h, t[1], omegas)
        return integrals[n]

    def richardson(n, rows):
        return (4.0 * integral(2 * n)[rows] - integral(n)[rows]) / 3.0

    n0 = default_n0(total_time, 2.0 * _INITIAL_ENERGY)
    return refine(richardson, n0, _REL_TOL, _N_MAX // 2)


def _endpoint_correction(ka, omega, schedule, order):
    """Asymptotic boundary contribution of the uniform-channel integral.

    Integration by parts gives, at each endpoint, e^{i phi} * [F - gdot *
    dF/dg / (i phi') + ...] with F = env/(i phi') and phi' = 2E - omega.
    ``order`` 1 keeps F (the O(1) term), 2 adds the O(gdot) corner term,
    with dF/dg by a central difference of step 1e-5 clipped to [0, 1].
    """

    def f_and_rate(g):
        env, phase_rate = _UNIFORM_TERM[1](ka, g, dispersion(ka, g))
        rate = 1j * (phase_rate - omega)
        return env / rate, rate

    total = 0.0 + 0.0j
    for t_end, sign in ((schedule.T, 1.0), (0.0, -1.0)):
        g_end = schedule.g_of(t_end)
        gdot = schedule.rate(g_end)
        phase = -omega * t_end + 2.0 * schedule.phase_integral(ka, t_end)
        term, rate = f_and_rate(g_end)
        if order >= 2:
            lo = max(g_end - 1e-5, 0.0)
            hi = min(g_end + 1e-5, 1.0)
            dfdg = (f_and_rate(hi)[0] - f_and_rate(lo)[0]) / (hi - lo)
            term = term - gdot * dfdg / rate
        total += sign * np.exp(1j * phase) * term
    return total


def amplitude_direct_uniform(ka, omega, schedule, rel_tol=_REL_TOL, n_max=_N_MAX, endpoint_order=0):
    """Quadrature of the uniform-channel amplitude, per unit coupling.

    -i * int_0^T dt [2i*g*sin(ka)/E_k] * exp(i(-w*t + 2*int E_k)); the
    -i * i product makes the envelope real.

    ``endpoint_order`` > 0 subtracts the asymptotic boundary contributions
    of the sharp ramp (order 1: the O(1) endpoint term, equivalent to
    embedding the sweep in constant-g evolution; order 2: also the O(1/T)
    corner term from the gdot discontinuity), isolating the interior part
    that carries the adiabatic suppression.
    """

    ((value, err, ok),) = _filon_terms([_UNIFORM_TERM], ka, schedule, omega, rel_tol, n_max)
    if endpoint_order > 0:
        value = value - _endpoint_correction(ka, omega, schedule, endpoint_order)
    return AmplitudeResult(value=value, quad_error=err, converged=ok)


def suppression_rate_uniform(ka, omega, t_list):
    """Fitted exponential decay rate of the interior amplitude vs T.

    Uses endpoint-corrected quadrature (order 2, grid doubling to 1e-6
    relative) so the sharp-ramp corner contributions do not mask the
    adiabatic suppression; returns the (positive) rate of ln|amplitude|
    against T.
    """
    t_list = np.asarray(sorted(t_list), dtype=float)
    if len(t_list) < 2:
        raise ValueError("need at least two run-times")
    mods = []
    for T in t_list:
        res = amplitude_direct_uniform(
            ka, omega, make_schedule("linear", float(T)), rel_tol=1e-6, endpoint_order=2
        )
        mods.append(res.modulus)
    slope = np.polyfit(t_list, np.log(mods), 1)[0]
    return float(-slope), np.asarray(mods)


def _saddle_discriminant(omega, ka):
    """omega^2 - 16 sin^2(ka/2): the saddles are real where it is >= 0, and
    stationary phase resolves them where it is >= ``_COLLISION_TOL``."""
    return np.asarray(omega) ** 2 - 16.0 * np.sin(ka / 2.0) ** 2


def saddle_points_uniform(omega, ka):
    """Couplings g where the pair gap matches omega: 1/2 +- sqrt(disc)/(8cos(ka/2));
    ``omega`` may be an array."""
    disc = _saddle_discriminant(omega, ka)
    if np.any(disc < 0.0):
        raise ValueError(
            f"omega={omega} below the minimal pair gap of mode ka={ka}: complex saddles"
        )
    shift = np.sqrt(disc) / (8.0 * np.cos(ka / 2.0))
    return 0.5 + shift, 0.5 - shift


def _saddle_sum(omega, ka, schedule):
    """Stationary-phase sum of the uniform amplitude and its worst validity
    ratio at each frequency of the array ``omega``, every one resolved
    (discriminant at least ``_COLLISION_TOL``).

    Each real saddle g* (where 2*E_k = omega) contributes
    env(t*) * sqrt(2*pi/|phi''|) * exp(i*(phi(t*) + sign(phi'')*pi/4)).
    """
    g_plus, g_minus = saddle_points_uniform(omega, ka)
    chalf = np.cos(ka / 2.0) ** 2
    total = np.zeros(omega.shape, dtype=complex)
    worst = np.zeros(omega.shape)
    for g_star in (g_minus, g_plus):
        t_star = schedule.invert(g_star)
        gdot = schedule.rate(g_star)
        env = _UNIFORM_TERM[1](ka, g_star, omega / 2.0)[0]
        # d(2E)/dt at the saddle; E' (in g) = 8*cos^2(ka/2)*(2g-1)/E
        ddphase = 2.0 * gdot * 8.0 * chalf * (2.0 * g_star - 1.0) / (omega / 2.0)
        phase = -omega * t_star + 2.0 * schedule.phase_integral(ka, t_star)
        leading = env * np.sqrt(2.0 * np.pi / abs(ddphase))
        total += leading * np.exp(1j * (phase + np.sign(ddphase) * np.pi / 4.0))
        correction = gdot / (omega * np.sqrt(np.maximum(omega**2 - 4.0 * ka**2, 1e-300)))
        worst = np.maximum(worst, correction / np.maximum(abs(leading), 1e-300))
    return total, worst


def amplitude_saddle_uniform(omega, ka, schedule):
    """Stationary-phase evaluation of the uniform amplitude, per unit coupling
    (see ``_saddle_sum``)."""
    disc = _saddle_discriminant(omega, ka)
    if disc < _COLLISION_TOL:
        raise ValueError(
            f"discriminant {disc:.3e} below {_COLLISION_TOL}: saddles unresolved"
        )
    total, worst = _saddle_sum(np.array([float(omega)]), ka, schedule)
    worst_validity = float(worst[0])
    return AmplitudeResult(
        value=complex(total[0]), quad_error=np.nan, converged=worst_validity <= 1.0,
        validity=worst_validity,
    )


def _phase_free_bounds(schedule, ka, terms, n_points=_BOUND_FIRST):
    """The phase-free bound sum |factor(ka)| int_0^T |env| dt over the channel
    ``terms`` for every mode of the 1-d ``ka``, each integral by
    ``nested_simpson`` on t grids shared by all modes, the first of
    ``n_points`` nodes: (values, relative errors, converged) arrays."""
    values, errors, converged = 0.0, 0.0, True
    for factor, integrand in terms:
        integrals, err, ok = nested_simpson(
            lambda u: np.asarray(schedule.g_of(u * schedule.T), dtype=float),
            lambda rows, g: np.abs(integrand(ka[rows, None], g, dispersion(ka[rows, None], g))[0]),
            ka.shape[0], n_points - 1,
        )
        values = values + np.abs(factor(ka)) * (schedule.T * integrals)
        errors = np.maximum(errors, err)
        converged = converged & ok
    return values, errors, converged


def amplitude_bound_near_gap(ka, schedule, n_points=_BOUND_FIRST):
    """Phase-free bound int_0^T 2*g|sin(ka)|/E_k dt, per unit coupling, with
    the relative half-grid difference of ``_phase_free_bounds`` as its
    ``quad_error``; ``n_points`` sets the first grid."""
    value, err, ok = _phase_free_bounds(schedule, np.array([float(ka)]), [_UNIFORM_TERM], n_points)
    return AmplitudeResult(value=complex(value[0]), quad_error=float(err[0]), converged=bool(ok[0]))


def amplitude_direct_nonuniform(ka, kpa, omega, n_spins, schedule, rel_tol=_REL_TOL, n_max=_N_MAX):
    """Quadrature of the nonuniform-channel pair amplitude, per unit coupling:
    int dt (2 u_k v_k'/N) exp(i*(-w*t + 2*int E_k))."""
    terms = _channel_terms("nonuniform_x", kpa, n_spins)
    ((value, err, ok),) = _filon_terms(terms, ka, schedule, omega, rel_tol, n_max)
    return AmplitudeResult(value=value, quad_error=err, converged=ok)


def _channel_integrals(terms, ka, schedule, quadrature):
    """Each of the channel ``terms`` (``_channel_terms``) at mode ka as
    (factor * integral, error, converged), the integral by
    ``quadrature(nodes)``, nodes(t) giving the term's integrand at the times
    t as ``stream_filon`` reads it."""

    def nodes_of(integrand):
        def nodes(t):
            g = np.asarray(schedule.g_of(t), dtype=float)
            return integrand(ka, g, dispersion(ka, g))

        return nodes

    return [
        (factor(ka) * value, err, ok)
        for factor, integrand in terms
        for value, err, ok in [quadrature(nodes_of(integrand))]
    ]


def amplitude_bitflip(ka, omega, schedule, rel_tol=_REL_TOL, n_max=_N_MAX):
    """Single-site sigma_z channel amplitudes, per unit coupling/sqrt(N).

    a1 = i e^{-i ka} * int v_k e^{-i w t} dt carries no dynamical phase;
    a2 = e^{i ka} * int u_k e^{i(-wt + 2 int E)} dt.  ``a2_bound`` is the
    phase-free bound on |a2|, which grows exactly linearly in T for
    schedules with fixed g-profile; its relative half-grid difference is
    ``a2_bound_error``.  ``converged`` covers all three certificates.
    """
    terms = _channel_terms("single_site_z", None, None)
    (a1, err1, ok1), (a2, err2, ok2) = _filon_terms(terms, ka, schedule, omega, rel_tol, n_max)
    bound, bound_err, ok3 = _phase_free_bounds(schedule, np.array([float(ka)]), terms[1:])
    return BitflipAmplitudes(
        a1=a1, a2=a2, a2_bound=float(bound[0]), a2_bound_error=float(bound_err[0]),
        quad_error=max(err1, err2), converged=ok1 and ok2 and bool(ok3[0]),
    )


def amplitudes_on_grid(kind, ka, kpa, omegas, n_spins, schedule, endpoint_order=0):
    """One mode's amplitudes in channel ``kind``, per unit coupling, at every
    frequency of the ascending ``omegas``: (values, quad_errors, converged)
    arrays, an error the largest of its integrals' (``_channel_integrals``).
    ``endpoint_order`` (uniform_x alone) is ``amplitude_direct_uniform``'s.
    An evenly spaced grid with ``endpoint_order`` 0 takes ``_fourier_on_grid``
    for all frequencies at once; any other grid ``_filon_terms`` per
    frequency, uniform_x rows through ``amplitude_direct_uniform``.
    """
    if endpoint_order and kind != "uniform_x":
        raise ValueError(f"endpoint_order applies only to the uniform_x channel, not {kind!r}")
    m = len(omegas)
    values = np.zeros(m, dtype=complex)
    errors = np.zeros(m)
    converged = np.ones(m, dtype=bool)
    terms = _channel_terms(kind, kpa, n_spins)
    if endpoint_order == 0 and _evenly_spaced(omegas, schedule.T):
        runs = [(slice(None), _channel_integrals(
            terms, ka, schedule, lambda nodes: _fourier_on_grid(nodes, schedule.T, omegas)))]
    elif kind == "uniform_x":
        results = [amplitude_direct_uniform(ka, w, schedule, endpoint_order=endpoint_order) for w in omegas]
        runs = [(i, [(r.value, r.quad_error, r.converged)]) for i, r in enumerate(results)]
    else:
        runs = [(i, _filon_terms(terms, ka, schedule, w, _REL_TOL, _N_MAX)) for i, w in enumerate(omegas)]
    for i, integrals in runs:
        for value, err, ok in integrals:
            values[i] += value
            errors[i] = np.maximum(errors[i], err)
            converged[i] &= ok
    return values, errors, converged


def _saddle_samples(lo, hi):
    """The ``_SADDLE_SAMPLES`` frequencies of an intermediate window (lo, hi),
    evenly spaced from lo*1.01 to hi*0.99, or, where hi/lo < 1.01/0.99 would
    turn that range backwards and out of the window, from 1% of the width
    in from either end."""
    omegas = np.linspace(lo * 1.01, hi * 0.99, _SADDLE_SAMPLES)
    if omegas[0] >= omegas[-1]:
        omegas = lo + (hi - lo) * np.linspace(0.01, 0.99, _SADDLE_SAMPLES)
    return omegas


def _uniform_regime_estimate(regime, ka, schedule, window):
    """Per-regime modulus estimate for one uniform-channel mode, or None
    where its phase-free bound stands in: near the gap, and in an
    intermediate window where no saddle is resolved."""
    T = schedule.T
    if regime == "negative":
        # contour-deformation suppression rate pi*T*(ka)^2/16
        return np.exp(-np.pi * T * ka**2 / 16.0)
    if regime == "sub_gap":
        return np.exp(-T * ka**2 / 2.0)
    if regime == "near_gap":
        return None
    # intermediate: max saddle modulus over the window's samples
    omegas = _saddle_samples(*window)
    omegas = omegas[_saddle_discriminant(omegas, ka) >= _COLLISION_TOL]
    if not omegas.size:
        return None
    return float(np.max(np.abs(_saddle_sum(omegas, ka, schedule)[0])))


def total_error(channel, schedule, spectral_function, n_spins):
    """Regime-resolved bound on the total excitation amplitude.

    Sum over modes and regimes of (regime amplitude estimate) * int_regime
    |f| dw, scaled by the channel coupling.  A mode's phase-free bound is
    sum |factor| int |envelope| dt over its channel's terms
    (``_phase_free_bounds``).  Returns (total, breakdown) where breakdown
    maps regime -> summed contribution.  The window integrals and the
    phase-free bounds are certified to ``nested_simpson``'s tolerance; one
    that is not raises ``QuadratureError``.
    """
    ChainParams(n_spins)
    if channel.kind == "nonuniform_x":
        raise ValueError(
            "total_error supports uniform_x and single_site_z; the nonuniform "
            "channel is evaluated per pair via amplitude_direct_nonuniform"
        )
    lam = channel.coupling
    breakdown = {r: 0.0 for r in REGIMES}
    ka_positive = (2 * np.arange(n_spins // 2) + 1) * np.pi / n_spins
    terms = _channel_terms(channel.kind, None, n_spins)
    mode_bound, _, ok = _phase_free_bounds(schedule, ka_positive, terms)
    if not ok.all():
        raise QuadratureError(f"phase-free bound of mode ka={ka_positive[~ok][0]} not certified")

    if channel.kind == "uniform_x":
        # modes share windows: the negative one [_OMEGA_FLOOR, 0] always, and
        # one mode's near_gap window can be another's intermediate window
        windows, regimes = {}, []
        for i, ka in enumerate(ka_positive):
            bounds = regime_bounds(ka)
            for regime in REGIMES:
                lo, hi = getattr(bounds, regime)
                lo = max(lo, _OMEGA_FLOOR)
                if hi > lo:
                    regimes.append((i, regime, windows.setdefault((lo, hi), len(windows))))
        window_list = list(windows)
        lows, highs = np.array(window_list).T
        weights = integrate_abs(spectral_function, lows, highs)[0]
        for i, regime, j in regimes:
            if weights[j] != 0.0:
                amp = _uniform_regime_estimate(regime, ka_positive[i], schedule, window_list[j])
                breakdown[regime] += lam * (mode_bound[i] if amp is None else amp) * weights[j]
    else:
        # single_site_z: every mode near the gap, over one window; each |ka|
        # appears for both momentum signs
        weight = integrate_abs(spectral_function, _OMEGA_FLOOR, _INITIAL_ENERGY)[0]
        for bound in mode_bound:
            breakdown["near_gap"] += 2.0 * lam / np.sqrt(n_spins) * bound * weight
    return sum(breakdown.values()), breakdown
