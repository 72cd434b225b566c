"""Benchmark of conewave, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src.
The run measures set-up (importing the package), then repeats whole
rounds of the workload for about S seconds (at least one), checking the
outputs after each operation, untimed. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: setup_s,
wall_s and peak_rss_mb. --trace 1 runs a warm-up round, then traced and
untraced rounds in turn, and reports the per-layer metrics of the traced
rounds and the tracing overhead. See README.md in this directory.
"""

import os

# Run on one CPU, the highest-numbered one allowed, with one BLAS and
# OpenMP thread, set before numpy loads; children inherit both. Left free
# to migrate, the process moves between CPUs of different speed, and the
# run-to-run spread of wall_s grows to about 15%.
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import COUNTERS, Tracer, install  # noqa: E402
from workloads import WORKLOADS, Context, Round  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 2   # fresh interpreters per run, besides the run's own import


def _import_in_child(module: str, env: dict, cwd: Path) -> float:
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def measure_setup(workload, env: dict, cwd: Path) -> float:
    """Median import time over fresh interpreters and, for in-process
    workloads, the run's own first import of the package."""
    samples = [_import_in_child(workload.import_name, env, cwd)
               for _ in range(SETUP_CHILDREN)]
    if workload.in_process:
        start = time.perf_counter()
        __import__(workload.import_name)
        samples.append(time.perf_counter() - start)
    else:
        samples.append(_import_in_child(workload.import_name, env, cwd))
    return statistics.median(samples)


def import_times(env: dict, cwd: Path) -> dict:
    """Cumulative import time of each conewave module, from -X importtime
    in a fresh interpreter importing the CLI (which imports them all)."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import conewave.cli"], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True, timeout=120)
    found = {}
    for line in out.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(conewave\S*)", line)
        if m:
            name = m.group(2).removeprefix("conewave.")
            found[f"{name}.import_s"] = int(m.group(1)) * 1e-6
    return found


def run_round(workload, ctx: Context, inputs) -> Round:
    rnd = Round()
    if ctx.tracer is not None and workload.in_process:
        install(ctx.tracer)
    try:
        workload.round(ctx, inputs, rnd)
    finally:
        if ctx.tracer is not None:
            ctx.tracer.restore()
    return rnd


def run_rounds(seconds: float, *rounds_of) -> list[list[Round]]:
    """Repeat the group of rounds until another group would overrun
    `seconds` (at least once); `rounds_of` are zero-argument callables."""
    done = [[] for _ in rounds_of]
    start = time.perf_counter()
    while True:
        for out, one_round in zip(done, rounds_of):
            out.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed * (len(done[0]) + 1) / len(done[0]) > seconds:
            return done


def layer_metrics(tracer: Tracer, traced: list[Round], overhead: float) -> dict:
    n = len(traced)
    values = {}
    for name, stat in tracer.stats.items():
        values[f"{name}_s"] = stat.total_s / n
        values[f"{name}_self_s"] = stat.self_s / n
        values[f"{name}_calls"] = stat.calls / n
    for counter, source in COUNTERS.items():
        if source in tracer.stats:
            values[counter] = tracer.stats[source].count / n
    for rnd in traced:
        for key, value in rnd.layer.items():
            values[key] = values.get(key, 0.0) + float(value) / n
    values["tracing_overhead_s"] = overhead
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills its child, the scratch
    # directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "conewave" / "__init__.py").is_file():
        print(f"no conewave source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workload = WORKLOADS[args.workload]

    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        setup_s = measure_setup(workload, env, workdir)
        ctx = Context(workdir, env)
        inputs = workload.inputs(args.seed)
        if args.trace:
            # a warm-up round, then traced and untraced rounds in turn, so
            # the overhead compares warm rounds from the same stretch of time
            warm_up = run_round(workload, ctx, inputs)
            imports = import_times(env, workdir)
            traced_ctx = Context(workdir, env, Tracer())
            traced, plain = run_rounds(
                args.seconds, lambda: run_round(workload, traced_ctx, inputs),
                lambda: run_round(workload, ctx, inputs))
            overhead = (statistics.median(r.wall_s for r in traced)
                        - statistics.median(r.wall_s for r in plain))
            values = {**imports,
                      **layer_metrics(traced_ctx.tracer, traced, overhead)}
            wanted = spec["per_layer"]
            rounds = [warm_up] + traced + plain
        else:
            (rounds,) = run_rounds(args.seconds,
                                   lambda: run_round(workload, ctx, inputs))
            usage = resource.getrusage(resource.RUSAGE_SELF if workload.in_process
                                       else resource.RUSAGE_CHILDREN)
            values = {"setup_s": setup_s,
                      "wall_s": statistics.median(r.wall_s for r in rounds),
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for rnd in rounds:
        for line in rnd.failures + rnd.errors:
            print(line, file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": not any(r.errors for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
