"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload fleet_local --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics over one timed window.
``--trace 1`` runs half the window untraced and half with spans recorded
around each layer's public functions, and reports the per-layer metrics
plus ``trace.overhead_ratio``.  Metric names and units come from
``BENCHMARK.json``.  Progress and the human-readable report go to stdout;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed correctness check makes ``correct``
false and the exit code 1.  The full record of the run (machine,
calibration, per-run detail) goes to ``.perfbench/last-<workload>.json``
and, traced, every process's spans and counts to ``.perfbench/trace-<workload>.json``.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=["fleet_local", "fleet_remote", "query"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--cold-per-block", type=int, default=None,
        help="query only: cold queries in each block of 100 (default: query.COLD_PER_BLOCK)",
    )
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work_dir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    # Temp files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = work_dir
    import tempfile

    tempfile.tempdir = work_dir

    import multiprocessing.util

    import common
    from stats import error_rate

    # Runs at exit on every path out, after multiprocessing has joined its
    # children and finalized its semaphores (lowest priority runs last).
    multiprocessing.util.Finalize(None, common.stop_resource_tracker, exitpriority=-100)

    if args.workload == "query":
        import query as workload
    else:
        import fleet as workload
    ctx = common.RunContext(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work_dir=work_dir,
        import_s=common.import_seconds(workload.__name__),
        cold_per_block=(
            args.cold_per_block if args.cold_per_block is not None else getattr(workload, "COLD_PER_BLOCK", 0)
        ),
    )
    machine = common.machine_record()
    ticks = common.cpu_ticks()
    result = workload.run(ctx)
    steal = common.steal_share(ticks, common.cpu_ticks())
    calibration_s = common.calibrate()

    defined = common.benchmark()["per_layer" if ctx.trace else "end_to_end"]
    values = result["per_layer"] if ctx.trace else result["metrics"]
    unknown = set(values) - {m["name"] for m in defined}
    if unknown:
        raise RuntimeError(f"{args.workload} reported metrics BENCHMARK.json does not define: {sorted(unknown)}")
    # A layer the workload never enters reads 0 (per-layer only; every
    # end-to-end metric must be measured).
    default = 0.0 if ctx.trace else None
    metrics = {m["name"]: {"value": float(values.get(m["name"], default)), "unit": m["unit"]} for m in defined}

    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"machine: nproc={machine['nproc']} cpu={machine['cpu_model']!r} python={machine['python']} "
        f"numpy={machine['numpy']} numba={'yes' if machine['numba'] else 'no'} (engine pinned to batch)"
    )
    print(f"calibration: {calibration_s * 1e3:.2f} ms (fixed NumPy loop, median of 5); "
          f"host CPU steal during the run: {steal:.2%} (context only)")
    for line in result["report"]:
        print(line)
    for name, row in metrics.items():
        print(f"{name:32s} {row['value']:14.6g} {row['unit']}")
    print(f"{'error_rate':32s} {error_rate(result['attempted'], result['failed']):14.6g} "
          f"failed/attempted ({result['failed']}/{result['attempted']})")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "calibration_s": calibration_s,
        "steal_share": steal,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "detail": result["detail"],
    }
    with open(os.path.join(ROOT, ".perfbench", f"last-{args.workload}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    if ctx.trace:
        with open(os.path.join(ROOT, ".perfbench", f"trace-{args.workload}.json"), "w") as handle:
            json.dump(result["traces"], handle)
    if result["correct"]:
        shutil.rmtree(work_dir, ignore_errors=True)  # kept for inspection otherwise
    sys.stdout.flush()
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
