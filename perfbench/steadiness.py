"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py --runs 10 [--workloads fleet_local,query]
        [--seconds 25] [--first-seed 1] [--cold-per-block N]
        [--out perfbench/results/steadiness.json]
    python3 perfbench/steadiness.py --compare FIRST.json SECOND.json

Each workload runs ``--runs`` times with consecutive seeds.  For every
end-to-end metric the report gives the median, the quartiles as
:func:`statistics.quantiles` gives them, and the inter-quartile spread
as a share of the median next to the metric's bound (a spread above a
third of the bound is flagged).  The calibration loop's spread over the
same runs is printed beside it: when both move together, the host moved.
``--compare`` prints, for the workloads two such files share, each
metric's median in both sets, how far the second is worse than the
first, and the bound.  It flags a metric whose second median is worse
by more than its bound or whose spread in either set exceeds it, except
that the spread of ``setup_s`` is printed but not flagged: the
acceptance rule for this benchmark gates set-up time by its median
only.  Metric names, units and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import benchmark
from stats import quartiles, relative_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = benchmark()
#: The calibration loop, summarized beside the metrics as context.
CALIBRATION = {"name": "calibration_s", "unit": "s", "better": "lower", "bound": None}


def one(workload: str, seed: int, seconds: float, extra: list) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"] + extra,
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    with open(os.path.join(ROOT, ".perfbench", f"last-{workload}.json"), encoding="utf-8") as handle:
        record = json.load(handle)
    record["elapsed_s"] = elapsed
    return record


def summarize(records: list) -> dict:
    rows = {}
    for metric in BENCHMARK["end_to_end"] + [CALIBRATION]:
        name = metric["name"]
        values = [r["calibration_s"] if metric is CALIBRATION else r["metrics"][name]["value"] for r in records]
        q1, q2, q3 = quartiles(values)
        rows[name] = {"unit": metric["unit"], "bound": metric["bound"], "median": q2, "q1": q1, "q3": q3,
                      "spread": relative_spread(values), "values": values}
    return rows


def compare(first_path: str, second_path: str) -> int:
    """Markdown table of two sets of runs; exit 1 if a bound is broken."""
    with open(first_path, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(second_path, encoding="utf-8") as handle:
        second = json.load(handle)
    broken = 0
    print("| workload | metric | bound | median 1 [spread] | median 2 [spread] | 2 worse than 1 |")
    print("|---|---|---|---|---|---|")
    for workload, rows in first["workloads"].items():
        if workload not in second["workloads"]:
            continue
        for metric in BENCHMARK["end_to_end"] + [CALIBRATION]:
            name, bound = metric["name"], metric["bound"]
            a = rows["metrics"][name]
            b = second["workloads"][workload]["metrics"][name]
            worse = (b["median"] - a["median"]) / a["median"]
            if metric["better"] == "higher":
                worse = -worse
            # The set-up spread is not gated, only its median (see above).
            spreads = [] if name == "setup_s" else [a["spread"], b["spread"]]
            over = bound is not None and max([worse] + spreads) > bound
            broken += over
            print(f"| {workload} | {name} | {bound if bound is not None else 'context'} "
                  f"| {a['median']:.5g} [{a['spread']:.1%}] | {b['median']:.5g} [{b['spread']:.1%}] "
                  f"| {worse:+.1%}{' OVER' if over else ''} |")
    return 1 if broken else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--compare", nargs=2, metavar="FILE", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--cold-per-block", type=int, default=None, help="passed to run.py (query only)")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    extra = [] if args.cold_per_block is None else ["--cold-per-block", str(args.cold_per_block)]
    document = {"runs": args.runs, "seconds": args.seconds, "extra_args": extra, "workloads": {}}
    for workload in args.workloads.split(","):
        records = []
        for i in range(args.runs):
            record = one(workload, args.first_seed + i, args.seconds, extra)
            records.append(record)
            print(f"{workload} seed {record['seed']}: {record['elapsed_s']:.1f} s, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in record["metrics"].items()), flush=True)
        rows = summarize(records)
        document["workloads"][workload] = {
            "metrics": rows,
            "elapsed_s": [r["elapsed_s"] for r in records],
            "machine": records[0]["machine"],
            "detail": [r["detail"] for r in records],
        }
        print(f"\n{workload}: metric, median [q1, q3], spread (bound/3)")
        for name, row in rows.items():
            limit = row["bound"] / 3 if row["bound"] else None
            flag = " OVER" if limit is not None and row["spread"] > limit else ""
            print(f"  {name:18s} {row['median']:12.5g} [{row['q1']:.5g}, {row['q3']:.5g}] "
                  f"{row['spread']:.2%}" + (f" ({limit:.2%}){flag}" if limit else " (context)"))
        print(flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
