"""One cold benchmark run, in the fresh process ``run.py`` starts for it.

Usage (normally only ``run.py`` calls this)::

    python3 perfbench/worker.py --workload NAME --seed WORKLOAD_SEED \\
        --work-dir DIR [--mode run|setup|reference] [--trace-out FILE] [--tiny]

``REPRO_CACHE_DIR`` must point at a fresh, empty directory.  The worker
sets the workload up and stamps ``time.monotonic()`` at the end of set-up
(the parent stamped the same clock before starting the process, so the
difference is the set-up time, interpreter start included); ``setup``
mode stops there.  ``run`` mode then runs the operation once and prints
one JSON line; ``reference`` mode prints the oracle output instead.
Untraced ``run`` and ``setup`` processes sample the CPU's speed while
they set up and run (:class:`SpeedSampler`) and report it beside the
wall times.  With ``--trace-out`` the layer wrappers of ``layers.py``
are installed first and the spans go to that file.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402  (the library imports it too; the NumPy probe uses it)

import workloads  # noqa: E402

#: Seconds the sampler waits between two probes.
SAMPLE_INTERVAL_S = 0.05
_SMALL_ARRAY = numpy.arange(72, dtype=float)


def python_probe() -> float:
    """CPU seconds of a fixed pure-Python loop: the scalar engine's kind of work.

    Like :func:`numpy_probe`, it uses no code of the program, so no change
    to the program moves it, and it reads the calling thread's CPU time,
    which leaves out the time other threads and processes hold the CPU, so
    only a slower CPU slows it.
    """
    start = time.thread_time()
    table: Dict[int, float] = {}
    for i in range(2000):
        key = (i * 7919) & 1023
        table[key] = (i * 1.0001) ** 0.5 + table.get(key ^ 5, 0.0) * 0.5
    return time.thread_time() - start


def numpy_probe() -> float:
    """CPU seconds of NumPy calls on a small array: the vector engine's kind of work."""
    start = time.thread_time()
    values = _SMALL_ARRAY
    for _ in range(60):
        values = numpy.minimum(values * 1.0001 + 0.5, 1e6)
        values = numpy.where(values > 5e5, values - 1.0, values)
    return time.thread_time() - start


#: Probe per kind of work (``workloads.Workload.probe``), with the CPU
#: seconds at which ``run.py`` reports timings: the probe's usual reading,
#: about 0.5 ms, when the host is not slowed, on a two-vCPU Intel Xeon VM
#: under CPython 3.11.
PROBES: Dict[str, Tuple[Callable[[], float], float]] = {
    "python": (python_probe, 0.00058),
    "numpy": (numpy_probe, 0.00040),
}


class SpeedSampler:
    """Reads the speed of the worker's CPU while set-up and the run go on.

    On a shared host, such as a small virtual machine whose CPUs share
    their cores with other guests, a CPU can switch between about full
    speed and 0.55x every few seconds, and the machine's other CPU does
    not follow it, so the only good reading is one taken on the same CPU
    at the same time.  A daemon thread runs the workload's probe every
    :data:`SAMPLE_INTERVAL_S` (about 1.5% of the CPU).  How much a slow
    CPU slows work depends on the kind of work (small-array NumPy calls
    slow more than a pure-Python loop), so each workload uses the probe
    that does the kind of work its engine does.
    """

    def __init__(self, kind: str) -> None:
        self._probe, self._reference_s = PROBES[kind]
        #: ``(time.perf_counter() at its end, CPU seconds)`` per probe.
        self.readings: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while True:
            seconds = self._probe()
            self.readings.append((time.perf_counter(), seconds))
            if self._stop.wait(SAMPLE_INTERVAL_S):
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        """Mean speed over ``[start, end]`` (``perf_counter``) against the
        probe's reference reading: ``wall x speed`` is the seconds the same
        work takes at that speed.  Without a reading in the interval, the
        last one before it counts."""
        inside = [s for t, s in self.readings if start <= t <= end]
        if not inside:
            inside = [s for t, s in self.readings if t < start][-1:] or [self._probe()]
        return statistics.fmean(self._reference_s / s for s in inside)

    def busy_s(self, start: float, end: float) -> float:
        """CPU seconds the probes took over ``[start, end]``."""
        return sum(s for t, s in self.readings if start <= t <= end)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "reference"), default="run")
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    if args.mode == "reference":
        output = workloads.reference_output(
            args.workload, args.seed, args.work_dir, tiny=args.tiny
        )
        print(json.dumps({"output": output}))
        return 0

    trace = sampler = None
    if args.trace_out is not None:
        import layers

        trace = layers.LayerTrace(args.workload)
    else:
        sampler = SpeedSampler(workloads.WORKLOADS[args.workload].probe)
    began = time.perf_counter()
    op = workloads.prepare(
        args.workload,
        args.seed,
        args.work_dir,
        tiny=args.tiny,
        pipeline_tracing=dict if trace is None else trace.pipeline_tracing,
    )
    first_call = time.monotonic()
    start = time.perf_counter()
    report = {"first_call": first_call}
    if args.mode == "run":
        value = op() if trace is None else trace.run(op)
        end = time.perf_counter()
        report.update(
            run_s=end - start,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            output=workloads.output_text(args.workload, value),
            extras=workloads.extras(args.workload, value),
        )
        if trace is not None:
            report["layers"] = trace.finish(end - start, args.trace_out)
    if sampler is not None:
        sampler.stop()
        report["setup_speed"] = sampler.speed(began, start)
        if args.mode == "run":
            report["run_speed"] = sampler.speed(start, end)
            report["sampler_share"] = sampler.busy_s(start, end) / (end - start)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
