"""Benchmark of the qptsweep CLI: end-to-end metrics, or per-layer metrics.

    python3 perfbench/run.py --workload mode_sweep --seed 0 --seconds 20 --trace 0

Run from the repository root.  Each invocation of a workload is a fresh
``python3 perfbench/child.py`` process that imports ``qptsweep.cli`` from
``src`` and calls ``cli.main`` with ``--threads 1``, with BLAS pinned to one
thread.  Passes over the workload repeat until ``--seconds`` have passed,
with at most two processes running at once.  Every output row is checked
(checks.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace
1`` alternates untraced and traced passes and reports the per-layer
metrics (layers.py) and the tracing overhead.  ``--workload all`` runs every
workload in turn.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine facts and each metric with its unit and sample count.
"""

import argparse
import importlib.metadata
import importlib.util
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
INVOCATION_TIMEOUT_S = 120.0
LANES = min(2, len(os.sched_getaffinity(0)))

# time inside cli.main per section, printed but not gated: most are absent
# (so zero) on most workloads
SECTION_METRICS = {
    "spectrum": "spectrum_s", "ed": "ed_s", "sweep": "sweep_s", "response": "response_s",
    "grover": "grover_s", "scaling_gap_law": "scaling_s", "scaling_near_gap_table": "scaling_s",
    "scaling_mixed_gap": "scaling_s", "total_error": "total_error_s",
}


def metric_units(group):
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json defines, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[group]]


def machine_facts(seed):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "workload_seed": seed,
    }


def _child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_invocation(inv, work_dir, seed, trace):
    """Run one invocation in a fresh process and return its measurements."""
    work_dir.mkdir(parents=True)
    spec = {"invocation": inv, "seed": seed, "trace": trace, "out": str(work_dir / "out"),
            "spans": str(work_dir / "spans.json")}
    if inv["kind"] == "cli":
        spec["config_path"] = str(work_dir / "config.json")
        (work_dir / "config.json").write_text(json.dumps(inv["config"]))
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(work_dir / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            stdout=subprocess.PIPE, stderr=err, env=_child_env(), cwd=ROOT, text=True,
        )
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline().split()
            ready_at = time.perf_counter()
            done = proc.stdout.read().split()
            _, status, usage = os.wait4(proc.pid, 0)
            exit_at = time.perf_counter()
        finally:
            watchdog.cancel()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    started = ready[:1] == ["ready"]
    result = {
        "exit": proc.returncode,
        "setup_s": ready_at - start if started else None,
        "wall_s": exit_at - ready_at,
        "cpu_s": usage.ru_utime + usage.ru_stime - (float(ready[1]) if started else 0.0),
        "rss_mb": usage.ru_maxrss / 1024.0,
        "call_s": float(done[done.index("done") + 1]) if "done" in done else None,
        "bytes": sum(p.stat().st_size for p in (work_dir / "out").glob("*")) if inv["kind"] == "cli" else 0,
        "spans": None,
    }
    if trace and (work_dir / "spans.json").exists():
        result["spans"] = json.loads((work_dir / "spans.json").read_text())
    if proc.returncode not in (0, 2):
        tail = (work_dir / "stderr.txt").read_text()[-600:]
        print(f"invocation {checks.section(inv)} exited {proc.returncode}: {tail}", file=sys.stderr)
    return result


def run_pass(invocations, pass_dir, seed, trace):
    """Run every invocation once; the outputs stay in ``pass_dir``."""
    return {"dir": pass_dir, "traced": trace,
            "results": [run_invocation(inv, pass_dir / f"{i}", seed, trace)
                        for i, inv in enumerate(invocations)]}


def check_pass(invocations, done, reference):
    """Check one pass's outputs and delete them; returns (measurements, tally)."""
    tally = checks.Tally()
    measured = {"setup": [], "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "sections": {},
                "spans": [], "sweep_rows": 0, "emit_bytes": 0, "crashed": 0}
    try:
        for i, (inv, res) in enumerate(zip(invocations, done["results"])):
            inv_tally = checks.check(inv, done["dir"] / f"{i}" / "out", reference)
            tally.add(inv_tally)
            sec = checks.section(inv)
            if res["setup_s"] is not None:
                measured["setup"].append(res["setup_s"])
            measured["wall_s"] += res["wall_s"]
            measured["cpu_s"] += res["cpu_s"]
            measured["peak_rss_mb"] = max(measured["peak_rss_mb"], res["rss_mb"])
            name = SECTION_METRICS[sec]
            measured["sections"][name] = measured["sections"].get(name, 0.0) + (res["call_s"] or 0.0)
            measured["crashed"] += res["exit"] not in (0, 2)
            measured["emit_bytes"] += res["bytes"]
            if sec == "sweep":
                measured["sweep_rows"] += inv_tally.attempted
            if res["spans"] is not None:
                measured["spans"].append(res["spans"])
    finally:
        shutil.rmtree(done["dir"], ignore_errors=True)
    return measured, tally


def _probe(work_dir):
    """Start one interpreter that imports qptsweep.cli, unmeasured, so the
    page cache and bytecode caches are warm before the first timed start."""
    run_invocation({"kind": "probe"}, work_dir, 0, False)
    shutil.rmtree(work_dir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (result object, human-readable lines).

    ``LANES`` threads each start passes until ``seconds`` have passed, so at
    most ``LANES`` child processes run at once.  On the 2-core Xeon virtual
    machine the benchmark was sized on, the two cores do not slow each
    other and their speed varies independently, so two lanes double the
    samples per run.  Outputs are checked after the last pass, so checking
    takes no core from a timed process.
    """
    reference = json.loads((BENCH / "reference" / f"{name}.json").read_text())
    invocations = workloads.build(name, seed)
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    done = []
    try:
        _probe(run_dir / "probe")
        start = time.monotonic()
        errors = []

        def lane(k):
            try:
                for n in itertools.count():
                    traced_pass = trace and n % 2 == 1
                    done.append(run_pass(invocations, run_dir / f"lane{k}-{n}", seed, traced_pass))
                    if traced_pass == trace and time.monotonic() - start >= seconds:
                        return
            except Exception as exc:  # re-raised in the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=lane, args=(k,)) for k in range(LANES)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        tally = checks.Tally()
        plain, traced = [], []
        for p in done:
            measured, pass_tally = check_pass(invocations, p, reference)
            tally.add(pass_tally)
            (traced if p["traced"] else plain).append(measured)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    crashed = sum(p["crashed"] for p in plain + traced)
    lines = [f"workload {name} seed {seed} trace {int(trace)}: {len(plain)} untraced and "
             f"{len(traced)} traced passes of {len(invocations)} invocations"]
    setup = [s for p in plain for s in p["setup"]]
    values = {
        "setup_s": (_median(setup), len(setup)),
        "wall_s": (_median([p["wall_s"] for p in plain]), len(plain)),
        "cpu_s": (_median([p["cpu_s"] for p in plain]), len(plain)),
        "peak_rss_mb": (_median([p["peak_rss_mb"] for p in plain]), len(plain)),
    }
    for section_name in sorted(set(SECTION_METRICS.values())):
        samples = [p["sections"][section_name] for p in plain if section_name in p["sections"]]
        if samples:
            values[section_name] = (_median(samples), len(samples))
    end_to_end = metric_units("end_to_end")
    units = dict(end_to_end)
    for metric, (value, n) in values.items():
        lines.append(f"  {metric:<16} {value:12.6g} {units.get(metric, 's'):<3} median of {n}")
    lines.append("  wall_s per pass: " + " ".join(f"{p['wall_s']:.3f}" for p in plain))
    fail_frac = tally.failed / tally.attempted if tally.attempted else 0.0
    lines.append(f"  {'fail_frac':<16} {fail_frac:12.6g} 1   {tally.failed} of {tally.attempted} rows failed, "
                 f"{tally.wrong} wrong, {crashed} processes exited 1")
    lines.extend(f"    {p}" for p in dict.fromkeys(tally.problems))

    if trace:
        per_pass = [layers.summarize(p["spans"], p["sweep_rows"]) for p in traced]
        metrics = {m: statistics.median(pp[m] for pp in per_pass) for m in per_pass[0]}
        metrics["cli.emit.bytes"] = _median([p["emit_bytes"] for p in traced])
        metrics["trace.overhead_ratio"] = (
            _median([p["wall_s"] for p in traced]) / _median([p["wall_s"] for p in plain]))
        per_layer = metric_units("per_layer")
        unsteady = [m for m, u in per_layer if u == "count" and m in per_pass[0]
                    and len({pp[m] for pp in per_pass}) > 1]
        lines.append(f"  per-layer metrics, median of {len(traced)} traced passes; counts that "
                     f"differ between passes: {', '.join(unsteady) or 'none'}")
        for metric, unit in per_layer:
            lines.append(f"    {metric:<52} {metrics[metric]:14.6g} {unit}")
        out = {m: {"value": metrics[m], "unit": u} for m, u in per_layer}
    else:
        out = {m: {"value": values[m][0], "unit": u} for m, u in end_to_end}
    result = {"correct": tally.wrong == 0 and crashed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": out}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qptsweep" / "cli.py").is_file():
        print(f"error: no qptsweep sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    print("machine", json.dumps(machine_facts(args.seed), sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
