"""Benchmark for stereosr.

    python3 bench/run.py --workload infer --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Each workload runs in a process with one BLAS thread.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the functions of each layer are
wrapped and the per-layer metrics are reported instead, and the spans are
written to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
NAMES = ("infer", "train", "train_tiny", "png_eval")
SETUP_REPEATS = 5

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

_IMPORT_TIMER = ("import time; t = time.perf_counter(); import stereosr; "
                 "print(time.perf_counter() - t, stereosr.__file__)")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)


def measure_setup() -> float:
    """Median time to import stereosr in a fresh interpreter, over
    SETUP_REPEATS interpreters started one after another."""
    times = []
    expected = os.path.join(SRC, "stereosr", "__init__.py")
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing stereosr failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split()
        if os.path.realpath(path) != os.path.realpath(expected):
            raise RuntimeError(f"imported stereosr from {path}, not from {SRC}")
        times.append(float(seconds))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, SRC)
    import workloads
    from tracing import Tracer, layer_metric_names

    setup_s = measure_setup()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{name}-seed{seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        tracer = Tracer() if trace else None
        if tracer is None:
            clock = workloads.Clock(seconds)
            wl.run(clock)
        else:
            with tracer.installed():
                clock = workloads.Clock(seconds, tracer)
                wl.run(clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        durations = clock.durations()
        fails = wl.check(wl.outputs())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in fails:
        print(f"check failed: {name}: {message}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (statistics.median(durations[1:]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        warm = range(1, len(durations))
        layers = tracer.layer_metrics(warm)
        metrics = {k: (layers[k], unit) for k, unit in layer_metric_names()}
        metrics["traced.op_s"] = (statistics.median(durations[1:]), "s")
        tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.json"))
    return {
        "correct": not fails,
        "attempted": len(durations),
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "stereosr", "__init__.py")):
        print(f"error: no stereosr package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in NAMES:
            print(f"== {name}", flush=True)
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code |= subprocess.run(cmd, env=_child_env()).returncode
        return code
    if any(os.environ.get(k) != v for k, v in THREAD_ENV.items()):
        # BLAS reads its thread count when numpy loads: start again with it set
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  _child_env())
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
