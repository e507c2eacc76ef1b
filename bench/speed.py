"""The host's speed, sampled while a round runs.

The benchmark shares a few cores of a host with other tenants, and their
load makes the same round 30-50% slower for tens of seconds at a time.  To
report times that follow the program rather than the host, a round times a
fixed reference computation at regular intervals of its timed phase and
scales its times to a reference speed: one reference unit per REF_UNIT_S.

The reference unit is pure-Python work of the kind mgcm does: a sparse
polynomial product over dicts keyed by exponent tuples, reduced mod p.  It
does not call mgcm, so no change to the program moves it.
"""

import signal
import time

# Seconds one reference unit takes at the reference speed (close to what an
# unloaded 2-core Intel Xeon guest with Python 3.11 measured).
REF_UNIT_S = 0.002
# Interval between samples of the timed phase; a sample takes about a tenth
# of it.
PERIOD_S = 0.025
_P = 32003
_A = {(i, j, (i * j) % 3): (i + 1) * (j + 2) for i in range(12) for j in range(12)}
_B = {(i, (i * 5) % 7, j): i - j for i in range(8) for j in range(6)}


def reference_unit():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = (out.get(e, 0) + ca * cb) % _P
    return len(out)


def time_units(count):
    """Seconds spent on COUNT reference units, run back to back."""
    t0 = time.perf_counter()
    for _ in range(count):
        reference_unit()
    return time.perf_counter() - t0


class Speedometer:
    """Runs one reference unit every PERIOD_S seconds of wall time.

    The units run in a SIGALRM handler, between the bytecodes of whatever the
    round is doing; ``spent`` is the time they took, to be taken out of the
    round's wall time."""

    def __init__(self):
        self.spent = 0.0
        self.units = 0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_unit()
        self.spent += time.perf_counter() - t0
        self.units += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def unit_s(self):
        """Mean seconds per reference unit over the samples."""
        return self.spent / self.units
