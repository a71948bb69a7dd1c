"""Benchmark of synchrotree: one workload per run, untraced or traced.

Run from the repository root, which must hold the package under src/:

    python3 bench/run.py --workload reset_large --seed 0 --seconds 25 --trace 0

--workload all runs the four workloads in turn, each in its own process.

A run builds the workload's inputs from the seed (several times, to time
set-up), then runs passes over that fixed input set, one op at a time, until
another pass would end after --seconds. Op times are scaled to a reference
host by a calibration loop that a timer runs through the ops (see
calibration.py). Every output is checked. With --trace 1 it then runs one
more pass with spans and replays, and reports the per-layer metrics.
Standard output is a readable report whose last line is one JSON object
with the keys correct, attempted, failed and metrics; the full results, and
the spans of a traced run, go to .bench_out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5

# the metrics the final JSON line carries, as listed in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("sync.candidates", "count"),
    ("sync.hit_ratio", "ratio"),
    ("sync.height", "count"),
    ("core.cycles_calls", "count"),
    ("records.cycle_minima_calls", "count"),
    ("lab.csv_bytes", "B"),
    ("joyal.round_trips", "count"),
    ("joyal.failures", "count"),
    ("exploration.steps", "count"),
    ("exploration.hits", "count"),
    ("trace.overhead_s", "s"),
)


def env_block():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def timed_setup(workload, workdir):
    """SETUP_REPEATS set-up times, and the last inputs built.

    One set-up is a fresh interpreter importing synchrotree plus building
    the workload's inputs and files from the seed. Set-ups are not scaled:
    the interpreter runs in another process, on either vCPU, and scaling
    by this process's calibrations made their median spread three times
    as wide."""
    times = []
    items = None
    env = dict(os.environ, PYTHONPATH=SRC)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import synchrotree"], env=env,
                       cwd=ROOT, check=True, timeout=120)
        items = workload.setup(workdir)
        times.append(time.perf_counter() - start)
    return times, items


def _spent_since(clock, spent):
    return clock.spent - spent if clock is not None else 0.0


def run_ops(workload, items, indices, tracer=None, clock=None):
    """Run the ops at `indices` once each, in order; returns
    (latency s, problem, output, start) per op. With a running clock, the
    latency leaves out the calibrations made during the op."""
    from workloads import COUNTED

    results = []
    for op_id in indices:
        item = items[op_id]
        output = problem = None
        if tracer is not None:
            tracer.op = op_id
        spent = clock.spent if clock is not None else 0.0
        start = time.perf_counter()
        try:
            if tracer is None:
                output = workload.op(item)
            else:
                with tracer.span(workload.op_name(item)), \
                        tracer.rebound(workload.OP_SPANS, tracer.spanned):
                    output = workload.op(item, tracer)
            latency = time.perf_counter() - start - _spent_since(clock, spent)
            problem = workload.check(item, output)
            if tracer is not None and problem is None:
                with tracer.span("replay"), tracer.rebound(COUNTED, tracer.counted):
                    problem = workload.replay(item, output, tracer)
        except Exception:
            latency = time.perf_counter() - start - _spent_since(clock, spent)
            problem = traceback.format_exc()
        if problem is not None:
            print("op %d failed: %s" % (op_id, problem), file=sys.stderr)
        results.append((latency, problem, output, start))
    return results


def measure(workload, items, seconds, clock):
    """Every op's untraced runs, as lists of (latency s, problem, output,
    start).

    The first pass runs every op. Later passes run each op again when its
    last run would still end within `seconds`, until none would, so short
    ops keep repeating after a long one no longer fits."""
    start = time.perf_counter()
    runs = [[r] for r in run_ops(workload, items, range(len(items)), clock=clock)]
    while True:
        ran = False
        for i in range(len(items)):
            if time.perf_counter() - start + runs[i][-1][0] <= seconds:
                runs[i].extend(run_ops(workload, items, [i], clock=clock))
                ran = True
        if not ran:
            return runs


def end_to_end(workload, runs, setups, clock):
    # an op's latency is the median of its runs, each scaled to the
    # reference host by the calibrations around it
    scaled = [statistics.median(r[0] * clock.scale(r[3], r[3] + r[0]) for r in op_runs)
              for op_runs in runs]
    raw = [statistics.median(r[0] for r in op_runs) for op_runs in runs]
    attempted = sum(len(op_runs) for op_runs in runs)
    failed = sum(1 for op_runs in runs for r in op_runs if r[1] is not None)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
    }
    # the highest percentile with at least ten ops beyond it
    if len(scaled) >= 100:
        metrics["op_p90_ms"] = 1e3 * statistics.quantiles(scaled, n=10)[-1]
    metrics["ops"] = len(scaled)
    metrics["runs"] = attempted
    metrics["host_speed"] = clock.speed()
    metrics["wall_unscaled_s"] = sum(raw)
    metrics["failed_frac"] = failed / attempted
    lengths = [workload.reset_len(op_runs[0][2]) for op_runs in runs if op_runs[0][1] is None]
    lengths = [x for x in lengths if x is not None]
    if lengths:
        metrics["reset_len_p50"] = statistics.median(lengths)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, attempted, failed


UNITS = dict(END_TO_END, op_p90_ms="ms", ops="count", runs="count", host_speed="ratio",
             wall_unscaled_s="s", failed_frac="ratio", reset_len_p50="letters")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "synchrotree", "__init__.py")):
        print("error: no synchrotree package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import synchrotree

    if os.path.dirname(os.path.abspath(synchrotree.__file__)) != os.path.join(SRC, "synchrotree"):
        print("error: synchrotree was imported from %s" % synchrotree.__file__, file=sys.stderr)
        return 2
    from calibration import HostClock
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload == "all":
        # one process per workload, so that peak memory is each one's own
        for name in WORKLOADS:
            argv = ["--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv).returncode
            if code != 0:
                return code
        return 0
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r; choose all or one of %s"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    workload = WORKLOADS[args.workload](args.seed, pins.get(args.workload, {}))
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        setups, items = timed_setup(workload, workdir)
        with HostClock() as clock:
            runs = measure(workload, items, args.seconds, clock)
        metrics, attempted, failed = end_to_end(workload, runs, setups, clock)
        layers = {}
        if args.trace:
            tracer = Tracer()
            traced = run_ops(workload, items, range(len(items)), tracer)
            attempted += len(traced)
            failed += sum(1 for r in traced if r[1] is not None)
            for name, value, unit in workload.layer_metrics(tracer):
                layers[name] = (value, unit)
            # the traced pass costs its ops plus their replays
            traced_wall = sum(r[0] for r in traced) + tracer.totals("replay")[1] / 1e9
            layers["trace.overhead_s"] = (traced_wall - metrics["wall_unscaled_s"], "s")
            tracer.dump(os.path.join(OUT, "%s-seed%d-spans.json" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = env_block()
    print("workload %s  seed %d  seconds %g  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    print("end to end (untraced; each op the median of up to %d runs, scaled):"
          % max(len(op_runs) for op_runs in runs))
    for name, value in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, UNITS[name]))
    if args.trace:
        print("per layer (one traced pass):")
        for name, (value, unit) in layers.items():
            print("  %-34s %14.6g %s" % (name, value, unit))
    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "end_to_end": metrics, "per_layer": {k: v[0] for k, v in layers.items()},
        "latencies_s": [[r[0] for r in op_runs] for op_runs in runs],
        "starts_s": [[r[3] for r in op_runs] for op_runs in runs],
        "setups_s": setups,
        "calibrations": {"at_s": clock.at, "loop_s": clock.cost},
        "outputs": [pin for pin in (workload.pinned(item, op_runs[0][2])
                                    for item, op_runs in zip(items, runs)
                                    if op_runs[0][1] is None)
                    if pin is not None],
    }
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(results, fh, indent=1)
    if args.trace:
        chosen = {name: {"value": layers.get(name, (0, unit))[0], "unit": unit}
                  for name, unit in PER_LAYER}
    else:
        chosen = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
