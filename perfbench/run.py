"""Benchmark of the pricechoose engine: one seeded workload per process.

    python3 perfbench/run.py --workload anchor --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there.
With ``--trace 0`` it prints the end-to-end metrics (set-up seconds, ops per
second, median and tail op seconds, peak RSS, failed ratio); the time metrics
are scaled to a reference machine speed measured by a calibration kernel
(``speed.py``) and printed next to their wall values.  With ``--trace 1`` it
runs a fixed number of ops with every call into the package wrapped in a span
and prints per-layer self times and exact counts.  Every op's output is
checked; the last stdout line is one JSON object, and the exit code is 1 when
any op failed.  A results file with the machine record goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

# One BLAS thread: steadier on a small shared machine, and within its cores.
# Set before numpy is first imported (inside the timed set-up).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("anchor", "classes", "sweep", "pareto")
SETUP_REPEATS = 11         # fresh-process set-ups per run; setup_s is their median
TAIL_BEYOND = 10           # samples a tail percentile must leave above it
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
              "peak_rss_mb": "MB"}


class SourceMissing(RuntimeError):
    pass


def check_source() -> None:
    if not (SRC / "pricechoose" / "__init__.py").is_file():
        raise SourceMissing(f"no pricechoose package under {SRC}")


def import_workloads():
    """Import the benchmark's workloads against this checkout's ``src/``."""
    check_source()
    sys.path[:0] = [str(SRC), str(HERE)]
    import pricechoose
    import workloads
    if Path(pricechoose.__file__).resolve().parent != SRC / "pricechoose":
        raise SourceMissing(f"imported pricechoose from {pricechoose.__file__}")
    return workloads


def machine_record() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def setup(args):
    """Import the package and build the workload's inputs, timed.

    A traced run installs its spans before the inputs are built, so the
    set-up's calls into the package are traced too.
    """
    start = time.perf_counter()
    wl_module = import_workloads()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    workload = wl_module.build(args.workload, args.seed, args.seconds, args.smoke)
    return time.perf_counter() - start, wl_module, workload, tracer


def peak_rss_mb() -> float:
    """Peak RSS of this process, in MB.

    Linux carries ``getrusage``'s ``ru_maxrss`` across exec, so started by a
    larger process it reads that process's size; ``VmHWM`` is this process
    image's own peak.  ``ru_maxrss`` only where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_setup_seconds(args, calibration) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh processes doing only the set-up,
    with one calibration kernel sample before each and one after the last."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(SETUP_REPEATS):
        calibration.sample()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    calibration.sample()
    return out


def run_ops(workload, *, seconds: float | None = None, count: int | None = None,
            tracer=None, calibration=None):
    """Closed loop, one op at a time: until ``seconds`` of op time or ``count`` ops.

    An op that raises is timed, recorded as failed with its traceback, and
    the loop goes on.  A calibration samples its kernel between ops, outside
    the op times.  The peak RSS is read when the last op ends, before the
    correctness check, whose own arrays must not set it.  Returns (per-op
    seconds, errors, peak RSS in MB).
    """
    times, outcomes, errors = [], {}, {}
    if calibration is not None:
        calibration.tick()
    k = 0
    while k < workload.n_ops:
        if count is not None and k >= count:
            break
        if seconds is not None and sum(times) >= seconds:
            break
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcomes[k] = workload.run(k)
            else:
                with tracer.op_span(k):
                    outcomes[k] = workload.run(k)
        except Exception as exc:  # a failing op is counted, never fatal
            errors[k] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        times.append(time.perf_counter() - t0)
        if calibration is not None:
            calibration.tick(times[-1])
        k += 1
    peak_rss = peak_rss_mb()
    try:
        errors.update(workload.check(outcomes))
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        errors.update({k: f"check raised {type(exc).__name__}: {exc}"
                       for k in outcomes})
    return times, errors, peak_rss


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds): the highest percentile with TAIL_BEYOND samples
    beyond it, defined from 2 * TAIL_BEYOND samples on."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times)[n - TAIL_BEYOND - 1]


def end_to_end(times, errors, peak_rss, setups, setup_samples,
               factor) -> tuple[dict, dict]:
    """The gated metrics, at reference machine speed, and the wall-clock and
    reported-only ones (tail, failed ratio).  Each set-up is scaled by the
    two kernel samples around it, since the speed drifts between set-ups."""
    attempted = len(times)
    wall = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (attempted - len(errors)) / sum(times),
        "op_p50_s": statistics.median(times),
    }
    metrics = {
        "setup_s": statistics.median(
            t * speed.factor(setup_samples[i:i + 2]) for i, t in enumerate(setups)),
        "ops_per_s": wall["ops_per_s"] / factor,
        "op_p50_s": wall["op_p50_s"] * factor,
        "peak_rss_mb": peak_rss,
    }
    t = tail(times)
    extra = {
        "wall": wall,
        "speed_factor": factor,
        "setup_speed_factor": speed.factor(setup_samples),
        "op_tail_s": None if t is None else {"percentile": t[0], "value": t[1]},
        "failed_ratio": len(errors) / attempted,
        "op_count": attempted,
        "setup_samples": setups,
    }
    return metrics, extra


def print_end_to_end(name, metrics, extra, n_failed):
    n, wall, f = extra["op_count"], extra["wall"], extra["speed_factor"]
    print(f"machine speed factor {f:.4f} over ops, {extra['setup_speed_factor']:.4f} "
          f"over set-ups (reference s per wall s)")
    print(f"setup_s {metrics['setup_s']:.4f} s (wall {wall['setup_s']:.4f} s; "
          f"median of {len(extra['setup_samples'])} set-ups)")
    print(f"ops_per_s {metrics['ops_per_s']:.4f} 1/s (wall {wall['ops_per_s']:.4f} 1/s; "
          f"{name}, {n} ops)")
    print(f"op_p50_s {metrics['op_p50_s']:.4f} s (wall {wall['op_p50_s']:.4f} s; n={n})")
    t = extra["op_tail_s"]
    if t is None:
        print(f"op_tail_s undefined s (n={n} < {2 * TAIL_BEYOND})")
    else:
        print(f"op_tail_s {t['value'] * f:.4f} s (wall {t['value']:.4f} s; "
              f"p{t['percentile']:.1f}, n={n})")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    print(f"failed_ratio {extra['failed_ratio']:.4f} ratio ({n_failed}/{n})")


def print_layers(tracer, times):
    """Self time by module and by span, over the ops only."""
    import spans
    by_span = spans.op_self_by_name(tracer.spans)
    by_module = spans.module_self_times(by_span)
    total = sum(times)
    print("module self time over ops (share of op time):")
    for module, t in sorted(by_module.items(), key=lambda kv: -kv[1]):
        print(f"  {module:10s} {t:10.4f} s  {t / total:6.1%}")
    print("top spans by self time over ops:")
    for name, t in sorted(by_span.items(), key=lambda kv: -kv[1])[:6]:
        print(f"  {name:34s} {t:10.4f} s  {t / total:6.1%}")


def write_results(args, payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    tag = "smoke-" if args.smoke else ""
    path = OUT / f"{tag}{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(payload, indent=1))
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print its seconds")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_source()
        if args.setup_only:
            print(f"{setup(args)[0]!r}")
            return 0
        if args.trace:
            return report(args, *traced_run(args))
        with speed.Calibration() as calibration:
            return report(args, *timed_run(args, calibration))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def timed_run(args, calibration):
    """Set-ups in fresh processes, then ops for ``args.seconds`` of op time."""
    setups = child_setup_seconds(args, calibration)
    setup_samples = calibration.take()
    wl, workload, _ = setup(args)[1:]
    print_header(args, wl)
    times, errors, peak_rss = run_ops(workload, seconds=args.seconds,
                                      calibration=calibration)
    metrics, extra = end_to_end(times, errors, peak_rss, setups, setup_samples,
                                speed.factor(calibration.samples))
    extra["calibration_samples"] = {"setup": setup_samples,
                                    "ops": calibration.samples}
    print_end_to_end(args.workload, metrics, extra, len(errors))
    return times, errors, metrics, END_TO_END, extra


def traced_run(args):
    """A fixed number of ops with every call into the package in a span."""
    wl, workload, tracer = setup(args)[1:]
    print_header(args, wl)
    count = wl.traced_op_count(args.workload, args.seconds, workload.n_ops)
    times, errors, _ = run_ops(workload, count=count, tracer=tracer)
    tracer.uninstall()
    print_layers(tracer, times)
    import spans
    return times, errors, tracer.metrics(), spans.metric_names(), {"spans": tracer.spans}


def print_header(args, wl):
    print("machine " + json.dumps(machine_record()))
    print(f"workload {args.workload}: {wl.WHY[args.workload]}")


def report(args, times, errors, metrics, units, extra) -> int:
    """Failures, the results file and the result line; the exit code."""
    payload = {"machine": machine_record(), "workload": args.workload,
               "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               **extra, "metrics": metrics, "errors": errors, "op_seconds": times}
    for k, reason in sorted(errors.items()):
        print(f"FAILED op {k}: {reason}")
    print(f"results {write_results(args, payload).relative_to(ROOT)}")
    print(json.dumps({"correct": not errors, "attempted": len(times),
                      "failed": len(errors),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
