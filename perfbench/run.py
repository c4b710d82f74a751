"""Layered benchmark for cbmopt.

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. The library is imported from ``src/``
of the working directory; nothing is installed. One process generates all
load, single-threaded. Set-up (importing cbmopt, then parsing or building
the workload's configs and models) is timed from the process's start;
then identical rounds of the workload run, each operation timed, until
the next round would end after ``--seconds``. The outputs are checked for
correctness (see README.md). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os
import sys
import time

# pin every BLAS/OpenMP pool to one thread before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# leave no bytecode caches in the checkout, and make every set-up equally cold
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402

OUTPUT_DIR = ".perfbench-out"


_SCRIPT_START = time.perf_counter()


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _SCRIPT_START

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("optimize_s", "s"),
    ("cost_rate_evals_per_s", "1/s"),
    ("reliability_points_per_s", "1/s"),
    ("cycles_per_s", "1/s"),
    ("fpt_paths_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
RATES = {
    "cost_rate_evals_per_s": "cost_rate",
    "reliability_points_per_s": "reliability",
    "cycles_per_s": "cycles",
    "fpt_paths_per_s": "fpt",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def src_line_count(src) -> int:
    total = 0
    for directory, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def phase_metrics(rounds, column) -> dict:
    """End-to-end metrics from each operation's median time over the rounds.

    Every round repeats the same operations on the same inputs. `column` 2
    takes raw seconds, 3 seconds scaled to the reference speed.
    """
    typical = [statistics.median(times)
               for times in zip(*[[op[column] for op in r.ops] for r in rounds])]
    seconds, units = defaultdict(float), defaultdict(int)
    for (phase, count, *_), t in zip(rounds[0].ops, typical):
        seconds[phase] += t
        units[phase] += count
    out = {"wall_s": sum(typical), "optimize_s": seconds["optimize"]}
    for metric, phase in RATES.items():
        out[metric] = units[phase] / seconds[phase]
    return out


def comparable(outputs):
    """Round outputs reduced to plain values, for the determinism check."""
    return json.dumps(outputs, sort_keys=True,
                      default=lambda o: o.tolist() if hasattr(o, "tolist") else repr(o))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "cbmopt")) or not os.path.isdir(os.path.join(root, "configs")):
        print(f"perfbench: {root} has no src/cbmopt or configs/; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import cbmopt  # noqa: F401  (the import is part of the timed set-up)
    if not os.path.abspath(cbmopt.__file__).startswith(src + os.sep):
        print(f"perfbench: imported cbmopt from {cbmopt.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUTPUT_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, OUTPUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](root, args.seed, tmp)
        setup_s = process_age()
        return measure(args, root, src, workload, setup_s, workloads.speed_factor())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, root, src, workload, setup_s, setup_speed) -> int:
    import numpy
    import scipy

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    rounds, untraced, layer_rounds, span_rounds = [], [], [], []
    first_output = None
    deterministic = True
    started = time.perf_counter()
    while True:
        if tracer:
            # an untraced round before each traced one gives the wall time
            # the tracing overhead is measured against
            untraced.append(workloads.Round())
            workload.run_round(untraced[-1])
            tracer.install()
        r = workloads.Round()
        try:
            outputs = workload.run_round(r)
        finally:
            if tracer:
                tracer.uninstall()
        rounds.append(r)
        if tracer:
            spans = tracer.take()
            span_rounds.append(spans)
            layer_rounds.append(tracing.layer_metrics(spans))
        if first_output is None:
            first_output = (outputs, comparable(outputs))
        elif comparable(outputs) != first_output[1]:
            deterministic = False
        # start no round that would end after the measuring time
        elapsed = time.perf_counter() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check(first_output[0])
    if not deterministic:
        errors.append("rounds of identical inputs gave different outputs")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    print(f"info: workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__} "
          f"nproc={os.cpu_count()} src_lines={src_line_count(src)}")
    for error in errors:
        print(f"check failed: {error}")
    print(f"checks: {'all passed' if not errors else f'{len(errors)} failed'}")
    print(f"operations: attempted={attempted} failed={failed}")

    if args.trace:
        layers = tracing.summarize(layer_rounds)
        layers[tracing.OVERHEAD_METRIC] = (
            phase_metrics(rounds, 3)["wall_s"] - phase_metrics(untraced, 3)["wall_s"]
        )
        units = dict(tracing.LAYER_METRICS, **{tracing.OVERHEAD_METRIC: "s"})
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        spans_path = os.path.join(root, OUTPUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracing.write_spans(spans_path, span_rounds)
        print(f"spans: {spans_path}")
    else:
        raw = phase_metrics(rounds, 2)
        print("raw: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()) + f" setup_s={setup_s:.6g}")
        values = phase_metrics(rounds, 3)
        values["setup_s"] = setup_s * setup_speed
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"metric: {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
