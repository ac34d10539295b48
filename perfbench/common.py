"""Paths, child processes, machine record and calibration shared by the
workloads.  Everything the benchmark writes goes under ``.perfbench/``
in the checkout it runs from."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Times each repeatable part of set-up is timed; set-up reports the median.
SETUP_REPS = 3


def benchmark() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics' names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@dataclasses.dataclass
class RunContext:
    """One benchmark invocation: its arguments and scratch directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work_dir: str
    import_s: float  #: a fresh interpreter importing the workload and the program
    cold_per_block: int  #: query only: cold queries in each block of 100

    @property
    def nproc(self) -> int:
        return nproc()

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)


def nproc() -> int:
    """CPUs this process may run on: the cap on workers and clients."""
    return len(os.sched_getaffinity(0))


def child_env() -> Dict[str, str]:
    """Environment for program processes: import the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_process(args: List[str], log_path: str, stdout: Optional[int] = None) -> subprocess.Popen:
    """Start a program process with its stderr (and by default stdout) in a log."""
    log = open(log_path, "ab")
    try:
        return subprocess.Popen(
            [sys.executable] + args,
            cwd=ROOT,
            env=child_env(),
            stdout=log if stdout is None else stdout,
            stderr=log,
        )
    finally:
        log.close()


def stop_process(proc: subprocess.Popen, sig: Optional[int] = None, timeout: float = 30.0) -> int:
    """Signal (optionally), wait for, and if need be kill a child process."""
    if sig is not None and proc.poll() is None:
        proc.send_signal(sig)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait(timeout=timeout)


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for a spawn
    pool's semaphores, and wait for it.  Left alone it quits only once it
    notices this interpreter has exited, so it outlives the benchmark.
    Registered by ``run.py`` to run last at exit, after every pool is gone."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def import_seconds(module: str) -> float:
    """Median wall time, over :data:`SETUP_REPS` fresh interpreters, of
    starting Python and importing the workload ``module`` (and with it
    the program and NumPy)."""
    code = f"import sys; sys.path.insert(0, {HERE!r}); import {module}"
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def machine_record() -> Dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def cpu_ticks() -> Dict[str, int]:
    """Host-wide CPU time (clock ticks) from ``/proc/stat``: total and steal."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return {"total": 0, "steal": 0}
    return {"total": sum(fields[:8]), "steal": fields[7] if len(fields) > 7 else 0}


def steal_share(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Share of host CPU time the hypervisor gave to others in between."""
    total = after["total"] - before["total"]
    return (after["steal"] - before["steal"]) / total if total > 0 else 0.0


def calibrate(reps: int = 5) -> float:
    """Median seconds of a fixed single-threaded NumPy loop (sort,
    transcendental, scan and reduction over a fixed array).  Host drift shows up here as
    it does in the workload numbers; it is context, not a gated metric."""
    values = np.random.default_rng(12345).random(1 << 18)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(8):
            np.sort(values)
            np.cumsum(np.exp(-values))
            float(np.sum(values * values))
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]
