"""Host speed probe: timings in seconds at a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
seconds to minutes while other tenants come and go. Such a spell can cover
a whole run, so no amount of repetition inside one run removes it. The
benchmark therefore times a fixed piece of work, the probe, next to every
interval it measures and scales the interval by ``REF_S / probe``: a
timing reads what it would have read at the speed where the probe takes
``REF_S``.

The probe is the program's own mix of work, without its code: a pose
projected over 150 points and scored, a 4x4 eigenvalue problem and a 3x3
SVD, and Python bookkeeping over small tuples and a dict. It never
changes, so a change to landmarkloc moves the scaled timings exactly as it
moves the raw ones, while the host's speed cancels. Run back to back 12
times on one ``demo`` input in a slow spell, with one reading before each
image, localize spread by 0.20 of its median raw and by 0.014 scaled; a
probe of scalar Python and tiny numpy calls alone did worse (0.045), as it
slows more than the program.

A ``Sampler`` reads the probe every ``PERIOD_S`` from a SIGALRM handler,
so that an interval of any length is scaled by the readings taken during
it, and subtracts the time the readings took.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# What the probe takes on a quiet 2-vCPU Xeon at 2.1 GHz, the reference host.
REF_S = 0.4e-3
PERIOD_S = 0.02  # wall time between readings: about 3% of the run probes
HISTORY = 4  # readings before an interval that also scale it

_rng = np.random.default_rng(20240131)
_X = _rng.standard_normal((150, 3)) + (0.0, 0.0, 5.0)
_R = np.linalg.qr(_rng.standard_normal((3, 3)))[0]
_K = np.array([[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]])
_M = _rng.standard_normal((8, 4, 4))
_PTS = [tuple(p) for p in _rng.standard_normal((40, 3)).tolist()]


def _once() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for j in range(8):
        y = _X @ _R.T + (0.1 * j, 0.0, 0.2)
        uv = (y[:, :2] / y[:, 2:3]) @ _K[:2, :2].T + _K[:2, 2]
        err = np.hypot(uv[:, 0] - 320.0, uv[:, 1] - 240.0)
        acc += float(np.count_nonzero(err < 200.0))
        acc += float(np.abs(np.linalg.eigvals(_M[j])).max())
        acc += float(np.linalg.svd(_M[j][:3, :3], compute_uv=False)[0])
        sq = {}
        for i, (a, b, c) in enumerate(_PTS):
            sq[i] = a * a + b * b + c * c
        acc += sum(v for v in sq.values() if v > 1.0)
    return time.perf_counter() - t0


def scale(probe_s: float) -> float:
    """Factor that turns a time measured at probe speed ``probe_s`` into
    reference seconds."""
    return REF_S / probe_s


class Sampler:
    """Reads the probe every PERIOD_S of wall time while in its ``with``.

    ``mark()`` then ``since(mark)`` give the seconds between them, less the
    time spent probing, and the mean of the readings taken in that time and
    of the HISTORY readings before it. The host's speed changes over
    seconds, so these readings share it; a 20 ms interval would otherwise
    hang on a single noisy reading.
    """

    def __init__(self):
        self.readings = []  # probe seconds, in order
        self.spent = 0.0  # seconds spent probing

    def _read(self, *_):
        t0 = time.perf_counter()
        self.readings.append(_once())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._read()
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple:
        return time.perf_counter(), self.spent, len(self.readings)

    def since(self, mark) -> tuple:
        """(seconds since ``mark`` less probing, mean probe reading)."""
        t0, spent, n = mark
        seconds = time.perf_counter() - t0 - (self.spent - spent)
        return seconds, statistics.fmean(self.readings[max(n - HISTORY, 0):])
