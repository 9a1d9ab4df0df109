#!/usr/bin/env python3
"""synthpanel benchmark: one workload per run, every metric by name and unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 50 --trace 0

The program is imported from ./src. Set-up builds the workload's inputs
from the seed (five times; the median counts), then whole passes run
for about --seconds: the whole number of passes whose expected end is
nearest to it, at least one. run_s is their mean. The first pass's outputs are
checked against computations made outside the program, and every later
pass must reproduce them byte for byte. With --trace 1 one more pass runs
under the outside-in tracer and the per-layer metrics are reported
instead of the end-to-end ones. The last line of standard output is a
JSON object: correct, attempted, failed and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

# The program's matrices are at most 25 x 25, below OpenBLAS's threading
# threshold; one BLAS thread removes scheduler noise without changing work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.pop("SYNTHPANEL_THREADS", None)

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
WORKLOAD_NAMES = ("figures", "aggregate-wide", "montecarlo", "diffusion")


def load_program():
    """Import synthpanel from ./src; None when the checkout has no program.

    Returns the workloads module and the seconds from process start until
    the program's own modules were imported.
    """
    src = ROOT / "src"
    if not (src / "synthpanel" / "__init__.py").is_file():
        return None, 0.0
    sys.path.insert(0, str(src))
    import synthpanel.cli  # noqa: F401
    import synthpanel.demo  # noqa: F401

    import_s = time.perf_counter() - _START
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    return workloads, import_s


def run(args, workloads, import_s: float) -> dict:
    import tracer as tracing

    workload = workloads.WORKLOADS[args.workload]()
    work = WORK / args.workload

    setup_times, manifests = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        manifests.append(workload.setup(args.seed, work))
        setup_times.append(time.perf_counter() - t0)
    problems = [] if all(m == manifests[0] for m in manifests) else ["set-up is not deterministic"]
    for name, rows, digest in manifests[0]:
        print(f"input {name} rows={rows} sha256={digest}")

    out = work / "out"
    first = work / "pass0"
    passes, pass_times = [], []

    def one_pass():
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        t0 = time.perf_counter()
        ops = workload.run_pass(out)
        elapsed = time.perf_counter() - t0
        digests = [workload.digest(op, out) if op.ok else None for op in ops]
        if not passes:
            out.rename(first)
        else:  # only the first pass's outputs are checked; later ones must match its digests
            for op in ops:
                op.payload = None
        passes.append((ops, digests))
        return elapsed

    started = time.perf_counter()
    # Another pass runs when its expected end is nearer to --seconds than
    # now is, so a run measures the whole number of passes nearest to it.
    while not pass_times or time.perf_counter() - started + statistics.fmean(pass_times) / 2 < args.seconds:
        pass_times.append(one_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The mean, not the median: the shared host slows down in spells of tens
    # of seconds, and a run's median lands in whichever spell covers most of
    # the run, while the mean averages over them.
    run_s = statistics.fmean(pass_times)

    metrics = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.pass_id = len(passes)
        tracer.install()
        try:
            traced_s = one_pass()
        finally:
            tracer.uninstall()
        tracer.write(work / "trace.json")
        values = tracing.layer_metrics(tracer, traced_s, run_s)
        for name, unit, _ in tracing.LAYER_METRICS:
            metrics[name] = {"value": values[name], "unit": unit}
        if tracer.missing:
            print("traced names missing from the program: " + ", ".join(tracer.missing))
    else:
        values = {"run_s": run_s, "setup_s": import_s + statistics.median(setup_times),
                  "peak_rss_mb": peak_rss_mb}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}

    first_ops, first_digests = passes[0]
    bad = {}
    if all(op.ok for op in first_ops):
        bad = workload.check(first, first_ops)
    else:
        problems.append("the first pass has failed operations, so its outputs were not checked")
    attempted = failed = 0
    for ops, digests in passes:
        for op, digest, expected in zip(ops, digests, first_digests):
            attempted += 1
            if not op.ok or bad.get(op.key) or digest != expected:
                failed += 1
    for key, found in sorted(bad.items()):
        problems += [f"{key}: {p}" for p in found]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(pass_times)} timed passes, "
          f"{attempted} operations, {failed} failed, checks {'passed' if not problems else 'FAILED'}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workloads, import_s = load_program()
    if workloads is None:
        print(f"no program found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args, workloads, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
