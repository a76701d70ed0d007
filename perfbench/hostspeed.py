"""The host's current speed, from a fixed piece of work timed again and again.

This host's vCPUs do not run at one speed. A fixed numpy/Python loop runs
in two modes about 40% apart, switches between them within seconds, and
spends minutes at a time mostly in one of them (README, "Host speed").
Wall time alone then measures the host as much as the program.

`HostSpeed` times a small calibration piece, which uses nothing from
emberwatch and does the kind of work the simulator does: a Kalman-style
update on 8×8 numpy arrays, point distances, a frozen-dataclass copy, a
sort and a small dict, all driven from Python. While an operation runs,
an interval timer interrupts it every SAMPLE_INTERVAL_S of wall time and
the signal handler runs the piece twice and times the second run, so the
host is sampled evenly over the operation, inside long calls too. The
first run only brings the piece back into the caches the operation used;
timed cold, the piece slowed by a different factor on each workload. An
operation's scaled time is its wall time minus the time spent sampling,
times REFERENCE_PIECE_S over the mean piece time seen during it: the
time the operation would have taken on a host that runs the piece in
exactly REFERENCE_PIECE_S. A program change does not move the piece, so
it moves the scaled time just as it moves the wall time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import signal
import time

import numpy as np

# The nominal time of one piece. A round number, near the piece's time on
# the reference host; it only fixes the scale of the scaled times.
REFERENCE_PIECE_S = 4e-4
SAMPLE_INTERVAL_S = 0.02

_F = np.eye(8) + np.arange(64.0).reshape(8, 8) / 6400.0
_P = 2.0 * np.eye(8)
_H = np.eye(2, 8)
_R = 0.5 * np.eye(2)
_POINTS = np.arange(40.0).reshape(20, 2) * 7.0 % 13.0
_ITERATIONS = 6


@dataclasses.dataclass(frozen=True)
class _Record:
    value: float
    members: tuple


_RECORD = _Record(1.0, (1, 2, 3))


def piece() -> float:
    """The calibration piece: about 0.3-0.5 ms of fixed work."""
    total = 0.0
    for i in range(_ITERATIONS):
        p = _F @ _P @ _F.T + 0.1 * np.eye(8)
        gain = p @ _H.T @ np.linalg.inv(_H @ p @ _H.T + _R)
        total += float(np.trace((np.eye(8) - gain @ _H) @ p))
        total += float(np.linalg.norm(_POINTS[i % 20] - _POINTS[(i + 7) % 20]))
        record = dataclasses.replace(_RECORD, value=float(i))
        total += record.value + len(record.members)
        order = sorted(range(20), key=lambda j: (3.0 * _POINTS[j, 0] + _POINTS[j, 1]) % 11.0)
        total += order[0]
        total += max(math.hypot(j, i) for j in range(12))
    return total


class HostSpeed:
    """Piece times sampled since the last `reset`."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.samples = 0
        self.piece_s = 0.0  # timed pieces
        self.spent_s = 0.0  # everything the sampling took

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        piece()
        warm = time.perf_counter()
        piece()
        end = time.perf_counter()
        self.samples += 1
        self.piece_s += end - warm
        self.spent_s += end - start

    def scaled(self, seconds: float) -> float:
        """`seconds` of the program's time at the reference speed."""
        return seconds * REFERENCE_PIECE_S * self.samples / self.piece_s

    @contextlib.contextmanager
    def sampling(self):
        """Sample once now, then every SAMPLE_INTERVAL_S until the block ends."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
