"""A gauge of how fast the host runs Python while a repetition runs.

The host is a few virtual cores of a shared machine. Its speed changes by
tens of percent within seconds and drifts over minutes, so a wall time alone
cannot show a change of a few percent. While a repetition runs, `Gauge`
interrupts it every INTERVAL_S of wall time and times one small fixed slice of
pure-Python work (strings built letter by letter, a set of slices, dict
updates, recursion: the kinds of work the package does). The repetition's
time in reference units is its wall time without the slices, divided by the
mean slice time; a slowdown of the host stretches both, and cancels.

The slice never calls the package, so a change to the package cannot move
it. The slices' own time is left out of the repetition's wall time.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.05
_LETTERS = 2048
_FACTOR_LENGTH = 16


def _fib(k: int) -> int:
    return k if k < 2 else _fib(k - 1) + _fib(k - 2)


def _slice() -> int:
    word = "".join(
        "T" if p % 2 else "012"[((p // 2) & -(p // 2)).bit_length() % 3] for p in range(1, _LETTERS)
    )
    total = len({word[i : i + _FACTOR_LENGTH] for i in range(len(word) - _FACTOR_LENGTH)})
    counts: dict[int, int] = {}
    for i in range(6000):
        key = (i * 2654435761) & 255
        counts[key] = counts.get(key, 0) + 1
    return total + len(counts) + _fib(14)


# The slice's answer; a different value means the slice did different work.
EXPECTED = 673


class Gauge:
    """Times a reference slice every INTERVAL_S of wall time between start()
    and stop(). Signal handlers run between bytecodes of the main thread, so
    the slices land inside the package's calls, spread over the repetition."""

    def __init__(self) -> None:
        self.slices = 0
        self.slice_s = 0.0  # time of the slices that completed
        self.excluded_s = 0.0  # time of every interruption, left out of the wall time

    def _tick(self, signum, frame) -> None:
        # A collection started by the slice would scan the package's live
        # objects and charge their cost to the slice.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            answer = _slice()
        except RecursionError:  # interrupted near the recursion limit: no sample
            answer = None
        finally:
            elapsed = time.perf_counter() - start
            if collecting:
                gc.enable()
        self.excluded_s += elapsed
        if answer is None:
            return
        if answer != EXPECTED:
            raise RuntimeError(f"reference slice answered {answer}, expected {EXPECTED}")
        self.slices += 1
        self.slice_s += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
