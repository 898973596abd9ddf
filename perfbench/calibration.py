"""CPU speed calibration for the benchmark's timings.

The machines this benchmark runs on share physical cores with other
tenants; while a neighbour occupies the sibling hardware thread, the same
interpreter-bound code runs up to five times slower, in episodes lasting
from under a second to minutes.  Vectorised numpy work on arrays of
thousands of elements slows less.  calibrate() therefore times a fixed
mix of both kinds: a loop of small numpy operations, the kind of work
the lattice engine does per node layer, and weighted least-squares
projections on a 5000 x 10 design matrix, the kind of work the
regression Monte Carlo engine does per layer.  Sampler runs the mix
every INTERVAL_S of wall time while a command runs, from a SIGALRM
handler in the same thread, so the samples see the speed the command
saw.  The mix runs cut the command's time into pieces; each piece,
times REFERENCE_S over the time of the mix runs on either side of it, is
that piece's time at the speed where the mix takes REFERENCE_S: its
fastest time, run back to back, on the host described in the README.
Scaling piece by piece follows the speed as it changes within a command.
"""

import signal
import time

import numpy as np

SMALL_LOOPS = 150
PROJECTIONS = 2
REFERENCE_S = 0.00085
INTERVAL_S = 0.05

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random(64)
_DESIGN = _RNG.random((5000, 10))
_WEIGHTS = _RNG.random(5000)
_TARGETS = _RNG.random((5000, 2))


def calibrate() -> float:
    """Seconds the fixed calibration mix takes now."""
    a, b, w, y = _SMALL, _DESIGN, _WEIGHTS, _TARGETS
    t0 = time.perf_counter()
    for _ in range(SMALL_LOOPS):
        np.maximum(0.5 * (a[1:] + a[:-1]), 0.3)
    for _ in range(PROJECTIONS):
        bw = b * w[:, None]
        coef = np.linalg.solve(bw.T @ b, bw.T @ y)
        np.maximum(b @ coef[:, 0], 0.3)
    return time.perf_counter() - t0


def scaled(seconds: float, mixes) -> float:
    """A measured time in reference seconds, given mix times taken around it."""
    return seconds * REFERENCE_S * sum(1.0 / m for m in mixes) / len(mixes)


class Sampler:
    """Runs the calibration mix every INTERVAL_S while entered.

    Use: with Sampler() as s: ...; then s.wall is the clock time spent in
    the block less the mix runs, and s.reference the same time in
    reference seconds.  The mix also runs once on entry and once on exit.
    """

    def __init__(self):
        self.mixes = []   # mix times; pieces[k] lies between mixes[k] and mixes[k + 1]
        self.pieces = []

    def _cut(self, signum=None, frame=None):
        self.pieces.append(time.perf_counter() - self._since)
        self.mixes.append(calibrate())
        self._since = time.perf_counter()

    def __enter__(self):
        self.mixes.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._cut)
        self._since = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._cut()
        return False

    @property
    def wall(self) -> float:
        return sum(self.pieces)

    @property
    def reference(self) -> float:
        return sum(scaled(p, self.mixes[k:k + 2]) for k, p in enumerate(self.pieces))
