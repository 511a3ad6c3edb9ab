"""A clock that discounts the host's momentary slowdowns.

On a shared host the same Python code runs up to about twice as slow
while other tenants load the same physical core, and the slowdown comes
and goes within milliseconds.  Process CPU time rises with it, so it
does not help.  :class:`WorkClock` samples the speed instead: every
``INTERVAL_S`` a ``SIGALRM`` handler times a fixed slice of pure-Python
``Fraction`` arithmetic, the kind of work sepkit does, and the clock
advances by the elapsed time divided by the sampled slowdown (slice time
over ``REFERENCE_S``).  Its readings are the seconds the code would have
taken at the reference speed; the slices themselves are not counted.

``REFERENCE_S`` is about the fastest the slice ran on the machine the
bounds were set on (a shared Intel Xeon VM with two vCPUs, CPython
3.11.7), so readings there are close to its uncontended wall time; on a
faster machine every reading is smaller by about the same factor.

Only the main thread of one process may run a clock, and nothing else
in the process may use ``SIGALRM``.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.005
REFERENCE_S = 0.00027
_TERMS = [Fraction(k, 2 * k + 1) for k in range(1, 41)]


def calibration_slice() -> float:
    """Seconds taken by the fixed slice of work, now."""
    start = time.perf_counter()
    for _ in range(2):
        total = Fraction(0)
        for term in _TERMS:
            total = total * term + term
    return time.perf_counter() - start


class WorkClock:
    """Seconds at the reference speed since :meth:`start`."""

    def __init__(self):
        self._work = 0.0
        self._mark = 0.0
        self._factor = None
        self.samples: list[float] = []
        self._previous = None

    def sample(self) -> None:
        """Time a slice now, so that the next readings use a fresh speed."""
        start = time.perf_counter()
        factor = calibration_slice() / REFERENCE_S
        end = time.perf_counter()
        self._work += (start - self._mark) / (self._factor or factor)
        self._factor = factor
        self._mark = end
        self.samples.append(factor)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self, origin: float | None = None) -> None:
        """Start counting from now, or from ``origin``, an earlier
        ``time.perf_counter()`` reading (of this or another process: on
        Linux it is one system-wide monotonic clock)."""
        self._mark = time.perf_counter() if origin is None else origin
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        return self._work + (time.perf_counter() - self._mark) / self._factor
