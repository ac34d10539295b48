"""A traced ``repro worker``: the benchmark's wrappers around the worker
side of :mod:`repro.simulation.remote`, then the public ``run_worker``.

    python3 perfbench/worker_entry.py --connect HOST:PORT --trace-out FILE

Records one ``batch.simulate_shard`` span per shard and one
``remote.encode`` span per result frame (chronology dicts plus JSON),
each stamped with the run epoch and shard index from the task frame,
and writes them to FILE when the coordinator closes the link.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from tracer import TimedJson, Tracer  # noqa: E402

import repro.simulation.remote as remote_module  # noqa: E402


def install(tracer: Tracer) -> None:
    local = threading.local()
    local.task = (None, None)
    local.encode_start = None

    def on_loads(obj, text, start, end) -> None:
        if isinstance(obj, dict) and obj.get("t") == "task":
            local.task = (int(obj["epoch"]), int(obj["index"]))

    def on_dumps(obj, text, start, end) -> None:
        if obj.get("t") == "result":
            epoch, index = local.task
            tracer.add_span(
                "remote.encode",
                local.encode_start if local.encode_start is not None else start,
                end,
                epoch=epoch,
                index=index,
                bytes=len(text),
            )
            local.encode_start = None

    tracer.patch(remote_module, "json", TimedJson(on_dumps, on_loads))
    tracer.wrap(
        remote_module,
        "simulate_shard",
        "batch.simulate_shard",
        on_call=lambda rec, args, kw, res: rec.update(
            epoch=local.task[0], index=local.task[1], n_groups=args[3].n_groups
        ),
    )
    to_dict = remote_module.chronology_to_dict

    def timed_to_dict(chrono):
        if local.encode_start is None:
            local.encode_start = time.perf_counter()
        return to_dict(chrono)

    tracer.patch(remote_module, "chronology_to_dict", timed_to_dict)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connect", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    tracer = Tracer()
    install(tracer)
    try:
        remote_module.run_worker(args.connect, max_reconnects=0)
    finally:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
