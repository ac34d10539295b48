"""``repro serve`` through the public :func:`repro.service.serve`, with the
benchmark's settings and, optionally, its span wrappers.

    python3 perfbench/serve_entry.py --cache-dir DIR [--trace-out FILE]

Batch engine, default job threads, ephemeral port (printed by ``serve``
on its first stdout line), durable cache in DIR.  With ``--trace-out``
every request, parse, fingerprint, classify, solve, cache lookup/put,
cache persistence, job, kernel call and accumulator fold is recorded as
a span and written to FILE when the server is interrupted (SIGINT).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from tracer import Tracer  # noqa: E402

import repro.service.cache as cache_module  # noqa: E402
import repro.service.server as server_module  # noqa: E402
import repro.simulation.monte_carlo as monte_carlo_module  # noqa: E402
from repro.service import serve  # noqa: E402
from repro.service.cache import ResultCache  # noqa: E402
from repro.service.jobs import JobManager  # noqa: E402
from repro.simulation.streaming import FleetAccumulator  # noqa: E402


def install(tracer: Tracer) -> None:
    t = tracer
    t.wrap(server_module.ReliabilityService, "begin", "server.request", root=True)
    t.wrap(server_module, "config_from_dict", "server.parse")
    t.wrap(server_module, "fingerprint", "fingerprint")
    t.wrap(server_module, "classify", "classify")
    t.wrap(server_module, "solve", "solve")
    t.wrap(ResultCache, "lookup", "cache.lookup")
    t.wrap(ResultCache, "put", "cache.put")
    t.wrap(
        cache_module,
        "atomic_write_text",
        "checkpoint.write",
        on_call=lambda rec, args, kw, res: rec.update(bytes=len(args[1])),
    )
    t.wrap(FleetAccumulator, "add_shard", "streaming.fold")
    t.wrap(
        monte_carlo_module,
        "simulate_groups_batch",
        "batch.kernel",
        on_call=lambda rec, args, kw, res: rec.update(n_groups=args[1]),
    )

    # A job is submitted on the request's thread and run on a job thread:
    # carry the request id and the submit time across by the job key.
    submitted = {}
    lock = threading.Lock()
    submit = JobManager.submit
    run_simulation = JobManager.run_simulation

    def traced_submit(self, spec, resume_entry):
        mark = (time.perf_counter(), t.trace_id)
        with lock:
            mark = submitted.setdefault(spec.job_key, mark)
        job, coalesced = submit(self, spec, resume_entry)
        if coalesced:  # no new run will pop this mark
            with lock:
                if submitted.get(spec.job_key) is mark:
                    del submitted[spec.job_key]
        return job, coalesced

    def traced_run_simulation(self, spec, *args, **kwargs):
        with lock:
            queued_at, trace = submitted.pop(spec.job_key, (None, None))
        t.adopt_trace(trace)
        start = time.perf_counter()
        with t.span("jobs.run", queue_wait=start - queued_at if queued_at is not None else None):
            return run_simulation(self, spec, *args, **kwargs)

    t.patch(JobManager, "submit", traced_submit)
    t.patch(JobManager, "run_simulation", traced_run_simulation)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    tracer = Tracer()
    if args.trace_out:
        install(tracer)
    try:
        serve(host="127.0.0.1", port=0, cache_dir=args.cache_dir, engine="batch")
    finally:
        if args.trace_out:
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
