"""Run one benchmark workload against the qmono sources and print its metrics.

    python3 bench/run.py --workload haar-sample --seed 1 --seconds 30 --trace 0

Run it from the root of a qmono checkout; it imports ``src/qmono`` from
there and exits with code 2, printing no result, when that is missing.
One process, one thread, BLAS fixed at one thread.  The workload's
operations repeat in whole rounds until ``--seconds`` have passed (closed
loop: each operation starts when the previous one has returned), and every
operation's outputs are checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it starting with '#' are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
}


def _child_import_s(src: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI, as the `qmono` script does."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qmono.cli"], env=env, check=True)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "qmono" / "cli.py").is_file():
        print(f"bench: no qmono sources at {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    from qmono import bell, cli, measures, monogamy, scan

    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (src / "qmono").resolve():
        print(f"bench: imported qmono from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    modules = {"cli": cli, "scan": scan, "bell": bell, "measures": measures, "monogamy": monogamy}
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    work_dirs = []
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            child_s = _child_import_s(src)
            work_dirs.append(Path(tempfile.mkdtemp(prefix="work-", dir=out_dir)))
            t = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, work_dirs[-1], cli, scan)
            workload.warmup()
            setup.append(child_s + time.perf_counter() - t)
        return _measure(args, workload, modules, spans, out_dir, {
            "setup_s": statistics.median(setup),
            "import_s": import_s,
            "machine": f"nproc={os.cpu_count()} python={platform.python_version()} "
                       f"numpy={numpy.__version__} scipy={scipy.__version__} blas_threads={BLAS_THREADS}",
        })
    finally:
        for d in work_dirs:
            shutil.rmtree(d, ignore_errors=True)


def _measure(args, workload, modules, spans, out_dir, setup) -> int:
    tracer = spans.Tracer() if args.trace else None
    op_times = {op.name: [] for op in workload.ops}
    rounds = {True: [], False: []}  # traced -> round times
    attempted = traced_ops = 0
    failures, errors = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        # a traced run alternates traced and plain rounds to measure the overhead
        traced = bool(tracer) and len(rounds[True]) <= len(rounds[False])
        if traced:
            tracer.install(modules)
        round_s = 0.0
        done = []
        try:
            for op in workload.ops:
                attempted += 1
                t = time.perf_counter()
                try:
                    op.run()
                except Exception as exc:  # a failed operation is counted, the run goes on
                    failures.append(f"{op.name} failed: {exc!r}")
                    continue
                dt = time.perf_counter() - t
                round_s += dt
                op_times[op.name].append(dt)
                done.append(op)
        finally:
            if traced:
                tracer.uninstall()
        traced_ops += traced * len(done)
        for op in done:
            errors += [f"{op.name}: {e}" for e in op.check()]
        rounds[traced].append(round_s)
        if time.perf_counter() >= deadline and (not tracer or rounds[True] and rounds[False]):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = statistics.median(rounds[False])
    print(f"# {setup['machine']}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds[False]) + len(rounds[True])} rounds, {attempted} operations, {len(failures)} failed; "
          f"first import {setup['import_s']:.3f} s")
    print("# round_s " + " ".join(f"{t:.3f}" for t in rounds[False]))
    for op in workload.ops:
        if op_times[op.name]:
            t = statistics.median(op_times[op.name])
            print(f"# {op.metric} = {op.rate(t):.6g} {op.unit} (median of {len(op_times[op.name])})")
    for e in (failures + errors)[:20]:
        print(f"bench: {e}", file=sys.stderr)

    if tracer:
        overhead = 100.0 * (statistics.median(rounds[True]) - plain) / plain
        values = spans.layer_metrics(tracer.spans, traced_ops, overhead)
        units = {k: u for k, (u, _) in spans.PER_LAYER.items()}
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        values = {"setup_s": setup["setup_s"], "round_s": plain, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
