"""Time groups at a fixed reference speed of the machine.

The two vCPUs of a shared host can each run at about half speed while the
other hyperthread of their physical core is busy, and each flips between
the two speeds on its own, for a fraction of a second or for minutes (see
README.md, "Run-to-run spread").  ``SpeedProbe`` pins this process, and the
interpreters it starts, to one allowed CPU.  At group boundaries, at most
once per ``every`` seconds, it times a short fixed loop; when the loop runs
more than ``SLOW`` times slower than the fastest time seen, it times the
loop on every allowed CPU and moves to the fastest.  Each group's time is
then scaled by ``REFERENCE_S`` over the loop's mean time just before and
just after the group.

The loop does what chardeg spends its time on, with code of its own so that
a change to chardeg cannot change it: a breadth-first closure of a
permutation group on tuples and row reduction of a small int64 matrix
modulo a prime with numpy.
"""

from __future__ import annotations

import os
import time

import numpy as np

# The loop's time on a 2-vCPU Intel Xeon VM (2.0 GHz) while its core is not
# shared; every reported time is scaled to this speed.
REFERENCE_S = 0.002

_GENS = (
    (1, 2, 3, 4, 5, 0),  # a 6-cycle
    (1, 0, 2, 3, 4, 5),  # a transposition: together they give S_6
)
_PRIME = 10007
_SIZE = 16


def _lcg(n: int, x: int = 12345) -> list[int]:
    out = []
    for _ in range(n):
        x = (x * 1103515245 + 12345) % 2**31
        out.append(x % _PRIME)
    return out


_MATRIX = np.array(_lcg(_SIZE * _SIZE), dtype=np.int64).reshape(_SIZE, _SIZE)


def _closure() -> int:
    identity = tuple(range(len(_GENS[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in _GENS:
                y = tuple(g[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def _rank_mod_p() -> int:
    A = _MATRIX.copy()
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if len(nz) == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            A[[r, p]] = A[[p, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, _PRIME) % _PRIME
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % _PRIME
        r += 1
    return r


def run_loop() -> float:
    """Run the fixed loop once; its duration in seconds."""
    t0 = time.perf_counter()
    n = _closure()
    rank = _rank_mod_p()
    dt = time.perf_counter() - t0
    if n != 720 or rank != _SIZE:
        raise RuntimeError(f"speed loop computed {n}, rank {rank}")
    return dt


class SpeedProbe:
    """Times the loop at group boundaries, moves to a faster CPU, and scales
    group times to the loop's reference speed.

    ``times`` holds, per probe, the loop time on the CPU the program runs on
    next; ``spent`` is the time all probes took, for a caller to take out of
    the time it measured around them.  Probes run only between groups, so
    the probes just before and just after a group bracket it.
    """

    SLOW = 1.3

    def __init__(self, every: float = 0.05):
        self.every = every
        self.times: list[float] = []
        self.groups: list[tuple[str, float, int]] = []  # key, seconds, probe before
        self.moves = 0
        self.spent = 0.0
        self._last = float("-inf")
        self._cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        run_loop()  # warm-up: first numpy calls, cold caches
        self._best = self._pick_cpu()

    def _pick_cpu(self) -> float:
        """Time the loop on each allowed CPU, stay on the fastest; its time."""
        if len(self._cpus) < 2:
            return run_loop()
        times = {}
        for cpu in self._cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = run_loop()
        cpu = min(times, key=times.get)
        os.sched_setaffinity(0, {cpu})
        return times[cpu]

    def run(self) -> float:
        t0 = time.perf_counter()
        dt = run_loop()
        if len(self._cpus) > 1 and dt > self.SLOW * self._best:
            dt = self._pick_cpu()
            self.moves += 1
        self._best = min(self._best, dt)
        self.times.append(dt)
        self._last = time.perf_counter()
        self.spent += self._last - t0
        return dt

    def between(self, key: str | None, seconds: float) -> None:
        """At a group boundary: log the group just closed (if any), then
        probe if ``every`` seconds have passed since the last probe."""
        if key is not None:
            self.groups.append((key, seconds, len(self.times) - 1))
        if time.perf_counter() - self._last >= self.every:
            self.run()

    def scaled_groups(self, first: int = 0) -> dict[str, list[float]]:
        """Times of the groups logged since ``first``, by key, at the speed
        at which the loop takes REFERENCE_S: each is multiplied by
        REFERENCE_S over the mean loop time just before and after it."""
        out: dict[str, list[float]] = {}
        last = len(self.times) - 1
        for key, seconds, i in self.groups[first:]:
            mean = (self.times[i] + self.times[min(i + 1, last)]) / 2
            out.setdefault(key, []).append(seconds * REFERENCE_S / mean)
        return out
