"""Pin the calling process to the least loaded CPU it may run on.

On a shared VM the host can run one vCPU on a busier core than another: a
fixed pure-Python loop has been seen to run 1.3-1.4x slower on one of two
vCPUs, and which one is the slow one changes every 0.5-2 s. A pass that
runs on the slow one measures the neighbours, not the program. So the
benchmark times a short fixed loop on every CPU it may use and pins itself
to the fastest: once before starting a child, and every REPIN_S seconds
during a pass. This acts on the benchmark's own processes only.
"""

import os
import signal
import time

PROBE_LOOPS = 20000  # about 1 ms of pure-Python work
PROBE_REPEATS = 3
REPIN_S = 0.2


def allowed():
    """The CPUs this process may run on, as a sorted list."""
    return sorted(os.sched_getaffinity(0))


def _probe():
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i
    return time.perf_counter() - t0


def pin_fastest(cpus):
    """Pin this process to the CPU of cpus on which the probe loop runs
    fastest right now; return that CPU."""
    if len(cpus) == 1:
        os.sched_setaffinity(0, cpus)
        return cpus[0]
    best, best_t = cpus[0], float("inf")
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t = min(_probe() for _ in range(PROBE_REPEATS))
        if t < best_t:
            best, best_t = cpu, t
    os.sched_setaffinity(0, {best})
    return best


class Repinning:
    """Context manager: re-pin to the fastest CPU every REPIN_S seconds from
    a SIGALRM handler. ``spent`` adds up the seconds the handler took, so
    that a pass's wall time can leave them out."""

    def __init__(self, cpus):
        self.cpus = cpus
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        pin_fastest(self.cpus)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        pin_fastest(self.cpus)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REPIN_S, REPIN_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
