"""One benchmark invocation in a fresh interpreter.

    python child.py SPEC.json

``run.py`` starts this with ``src`` on ``PYTHONPATH``.  It prints
``ready <cpu_s>`` as soon as ``qptsweep.cli`` is imported, runs the
invocation, then prints ``done <seconds inside the call>`` and exits with
the CLI's exit code.  With ``trace`` set in the spec it first wraps the
layers and writes the spans to the spec's ``spans`` path at exit.
"""

import json
import os
import sys
import time


def _cpu_s():
    t = os.times()
    return t.user + t.system


def total_error_rows(spec):
    """``response.total_error`` in the shape of acceptance criterion 12:
    linear sweeps with T = gap^-2 and a warm ohmic bath."""
    from qptsweep import bath, ising, response, schedules

    gap32 = ising.global_min_gap(ising.ChainParams(32))
    warm = bath.SpectralFunction(
        kind="thermal_bosonic", theta=0.5, epsilon=1.0, omega_c=2.0, beta=1.0 / gap32
    )
    rows = []
    for kind in spec["channels"]:
        channel = response.Channel(kind=kind, coupling=spec["coupling"])
        for n in spec["n_list"]:
            T = ising.global_min_gap(ising.ChainParams(n)) ** -2.0
            sched = schedules.make_schedule("linear", float(T))
            rows.append([kind, n, response.total_error(channel, sched, warm, n)[0]])
    return rows


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    from qptsweep import cli

    print("ready", repr(_cpu_s()), flush=True)
    inv = spec["invocation"]
    if inv["kind"] == "probe":
        return 0
    tracer = None
    if spec["trace"]:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    try:
        t0 = time.perf_counter()
        if inv["kind"] == "cli":
            code = cli.main([
                inv["subcommand"], "--config", spec["config_path"], "--out", spec["out"],
                "--threads", "1", "--seed", str(spec["seed"]),
            ])
        else:
            rows = total_error_rows(inv)
            code = 0
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.dump(spec["spans"])
    if inv["kind"] == "total_error":
        os.makedirs(spec["out"], exist_ok=True)
        with open(os.path.join(spec["out"], "total_error.json"), "w") as fh:
            json.dump(rows, fh)
    print("done", repr(elapsed), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
