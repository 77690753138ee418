"""Which layer functions the traced run wraps, and the per-layer metrics.

The layers are the modules of ``qptsweep``.  Functions are wrapped where
callers look them up: ``ising``, ``schedules``, ``response`` and
``grover`` bind the ``_kernels`` functions with ``from ._kernels import``,
so patching ``_kernels`` alone would record nothing.  Metric names use
``kernels`` for the ``_kernels`` module, because a metric name must start
with a letter.
"""

from tracer import self_times

RESPONSE_AMPLITUDES = (
    "amplitude_direct_uniform", "amplitude_direct_nonuniform", "amplitude_bitflip",
)
RESPONSE_FUNCTIONS = RESPONSE_AMPLITUDES + (
    "amplitude_bound_near_gap", "amplitude_saddle_uniform", "total_error",
)


def _points(args, kwargs):
    return {"points": len(args[0])}


def _filon(args, kwargs):
    env, phase = args[0], args[1]
    return {"points": len(env), "bytes": int(env.nbytes + phase.nbytes)}


def _steps(args, kwargs):
    return {"steps": (len(args[0]) - 1) // 2}


def _g_points(args, kwargs):
    t = args[1] if len(args) > 1 else kwargs["t"]
    return {"points": int(getattr(t, "size", 1))}


def _phase_cache_hit(args, kwargs):
    # every caller uses the default table size, so a table for ka is a hit
    sched, ka = args[0], float(args[1])
    return {"hit": any(key[0] == ka for key in getattr(sched, "_phase_cache", {}))}


def _dense(args, kwargs):
    return {"dense": getattr(args[0], "matrix", None) is not None}


def install(tracer):
    """Wrap every layer's public functions at their lookup sites."""
    from qptsweep import bath, cli, exact, grover, ising, response, schedules
    from scipy.sparse.linalg import LinearOperator

    w = tracer.wrap
    w(cli, "run", "cli.run")
    w(cli, "emit", "cli.emit")
    w(ising, "rk4_mode", "kernels.rk4_mode", _steps)
    for mod in (ising, schedules, response, grover):
        w(mod, "cumulative_simpson_uniform", "kernels.cumulative_simpson_uniform", _points)
    for mod in (response, grover):
        w(mod, "filon_integral", "kernels.filon_integral", _filon)
    w(ising, "integrate_bogoliubov", "ising.integrate_bogoliubov")
    w(schedules, "make_schedule", "schedules.make_schedule")
    w(schedules.Schedule, "g_of", "schedules.Schedule.g_of", _g_points)
    w(schedules.Schedule, "phase_integral", "schedules.Schedule.phase_integral", _phase_cache_hit)
    for name in RESPONSE_FUNCTIONS:
        w(response, name, f"response.{name}")
    w(grover, "amplitude_omega", "grover.amplitude_omega")
    w(response, "integrate_abs", "bath.integrate_abs")
    w(bath, "evaluate", "bath.evaluate")
    w(grover, "bath_evaluate", "bath.evaluate")
    w(exact, "build_hamiltonian", "exact.build_hamiltonian")
    w(exact, "low_spectrum", "exact.low_spectrum", _dense)
    w(exact, "parity_resolve", "exact.parity_resolve")
    w(exact, "minimal_even_gap", "exact.minimal_even_gap")
    for mod, names in ((cli, ("fit_power_law", "fit_exponential")),
                       (exact, ("fit_power_law", "fit_exponential"))):
        for name in names:
            w(mod, name, "fitting")

    eigsh = exact.eigsh

    def counting_eigsh(A, *args, **kwargs):
        # hand ARPACK a LinearOperator that counts its matvecs
        rec = tracer.open("exact.eigsh", {"matvecs": 0})

        def matvec(x):
            rec[5]["matvecs"] += 1
            return A.matvec(x)

        try:
            op = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
            return eigsh(op, *args, **kwargs)
        finally:
            tracer.close(rec)

    exact.eigsh = counting_eigsh


def _ratio(num, den):
    return num / den if den else 0.0


def _final_grid_points(seq):
    """Points on the last grid of each grid-doubling sequence.

    ``seq`` is the (amplitude span id, points) of each quadrature call in
    call order; a sequence ends where the next grid is not larger or
    belongs to another amplitude call.
    """
    total = 0
    for i, (owner, pts) in enumerate(seq):
        nxt = seq[i + 1] if i + 1 < len(seq) else None
        if nxt is None or nxt[0] != owner or nxt[1] <= pts:
            total += pts
    return total


def summarize(spans, sweep_rows):
    """Per-layer counts and times of one traced pass.

    ``spans`` holds one span list per invocation; ``trace.overhead_ratio``
    is left to the caller.
    """
    amplitude_names = {f"response.{f}" for f in RESPONSE_AMPLITUDES}
    calls, secs, selfs, attr_sum = {}, {}, {}, {}
    resp_calls = resp_points = resp_final = grover_filon = 0
    solves_in_min_gap = hits = 0
    dense_s = iterative_s = 0.0
    for inv_spans in spans:
        by_id = {span[0]: span for span in inv_spans}
        self_s = self_times(inv_spans)

        def ancestor(span, names):
            parent = span[1]
            while parent is not None:
                if by_id[parent][2] in names:
                    return by_id[parent]
                parent = by_id[parent][1]
            return None

        resp_seq = []
        for span in inv_spans:
            sid, _parent, name, start, end, attrs = span
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + dur
            selfs[name] = selfs.get(name, 0.0) + self_s[sid]
            for key, val in attrs.items():
                attr_sum[(name, key)] = attr_sum.get((name, key), 0) + val
            if name == "kernels.filon_integral":
                owner = ancestor(span, amplitude_names | {"grover.amplitude_omega"})
                if owner is not None and owner[2] in amplitude_names:
                    resp_seq.append((owner[0], attrs["points"]))
                elif owner is not None:
                    grover_filon += 1
            elif name == "exact.low_spectrum":
                if attrs["dense"]:
                    dense_s += dur
                else:
                    iterative_s += dur
                if ancestor(span, {"exact.minimal_even_gap"}) is not None:
                    solves_in_min_gap += 1
            elif name == "schedules.Schedule.phase_integral":
                hits += attrs["hit"]
        resp_calls += len(resp_seq)
        resp_points += sum(p for _, p in resp_seq)
        resp_final += _final_grid_points(resp_seq)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return secs.get(name, 0.0)

    def a(name, key):
        return attr_sum.get((name, key), 0)

    n_amp = sum(c(name) for name in amplitude_names)
    m = {
        "cli.run.self_s": selfs.get("cli.run", 0.0),
        "cli.emit.s": s("cli.emit"),
        "kernels.rk4_mode.calls": c("kernels.rk4_mode"),
        "kernels.rk4_mode.steps": a("kernels.rk4_mode", "steps"),
        "kernels.rk4_mode.s": s("kernels.rk4_mode"),
        "kernels.rk4_mode.steps_per_s": _ratio(a("kernels.rk4_mode", "steps"), s("kernels.rk4_mode")),
        "ising.integrate_bogoliubov.calls": c("ising.integrate_bogoliubov"),
        "ising.integrate_bogoliubov.s": s("ising.integrate_bogoliubov"),
        "ising.rk4_calls_per_row": _ratio(c("kernels.rk4_mode"), sweep_rows),
        "kernels.filon_integral.calls": c("kernels.filon_integral"),
        "kernels.filon_integral.points": a("kernels.filon_integral", "points"),
        "kernels.filon_integral.s": s("kernels.filon_integral"),
        "kernels.filon_integral.points_per_s": _ratio(
            a("kernels.filon_integral", "points"), s("kernels.filon_integral")),
        "kernels.filon_integral.bytes_computed": a("kernels.filon_integral", "bytes"),
        "kernels.cumulative_simpson_uniform.calls": c("kernels.cumulative_simpson_uniform"),
        "kernels.cumulative_simpson_uniform.points": a("kernels.cumulative_simpson_uniform", "points"),
        "kernels.cumulative_simpson_uniform.s": s("kernels.cumulative_simpson_uniform"),
        "response.filon_calls_per_amplitude": _ratio(resp_calls, n_amp),
        "response.useful_point_ratio": _ratio(resp_final, resp_points),
        "grover.amplitude_omega.calls": c("grover.amplitude_omega"),
        "grover.amplitude_omega.s": s("grover.amplitude_omega"),
        "grover.amplitude_omega.filon_calls_per_amplitude": _ratio(
            grover_filon, c("grover.amplitude_omega")),
        "schedules.make_schedule.calls": c("schedules.make_schedule"),
        "schedules.make_schedule.s": s("schedules.make_schedule"),
        "schedules.Schedule.g_of.calls": c("schedules.Schedule.g_of"),
        "schedules.Schedule.g_of.points": a("schedules.Schedule.g_of", "points"),
        "schedules.Schedule.g_of.s": s("schedules.Schedule.g_of"),
        "schedules.Schedule.phase_integral.calls": c("schedules.Schedule.phase_integral"),
        "schedules.Schedule.phase_integral.cache_hit_ratio": _ratio(
            hits, c("schedules.Schedule.phase_integral")),
        "bath.integrate_abs.calls": c("bath.integrate_abs"),
        "bath.integrate_abs.s": s("bath.integrate_abs"),
        "bath.evaluate.calls": c("bath.evaluate"),
        "bath.evaluate.s": s("bath.evaluate"),
        "exact.build_hamiltonian.calls": c("exact.build_hamiltonian"),
        "exact.build_hamiltonian.s": s("exact.build_hamiltonian"),
        "exact.low_spectrum.calls": c("exact.low_spectrum"),
        "exact.low_spectrum.s": s("exact.low_spectrum"),
        "exact.low_spectrum.dense_s": dense_s,
        "exact.low_spectrum.iterative_s": iterative_s,
        "exact.eigsh.calls": c("exact.eigsh"),
        "exact.eigsh.matvecs": a("exact.eigsh", "matvecs"),
        "exact.parity_resolve.s": s("exact.parity_resolve"),
        "exact.solves_per_min_gap": _ratio(solves_in_min_gap, c("exact.minimal_even_gap")),
        "fitting.calls": c("fitting"),
        "fitting.s": s("fitting"),
    }
    for fn in RESPONSE_FUNCTIONS:
        m[f"response.{fn}.calls"] = c(f"response.{fn}")
        m[f"response.{fn}.s"] = s(f"response.{fn}")
    return m
