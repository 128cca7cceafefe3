"""Host-speed calibration kernel.

The benchmark host is a shared VM whose speed drifts by up to 2x within
minutes.  A fixed amount of work, run next to every timed interval,
measures that speed; each interval is then rescaled to what it would
have taken on a host running at the reference speed.

The kernel mixes the kinds of work the program does, so it slows down
with the host the way the program does: interpreter loops over dicts,
numpy fancy indexing with ``np.add.at`` and ``exp``, a ``scipy.sparse``
build with an ``splu`` factor and solve, 22x22 dense ``lu_factor`` /
``lu_solve`` pairs, and FFTs, sized so that each kind takes about the
same time.  No single kind tracks every workload: with the FFTs taking
a third of the slice, the explore-corners spread was worse than with
equal shares.  It imports nothing from ``repro``, so no program change
can change it.
"""

import gc
import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Duration of one kernel pass at the reference speed, the development
#: host's typical speed during runs.  Host speed is reference over
#: measured slice time; calibrated times read as seconds at this speed.
REFERENCE_PASS_S = 0.0025


class Calibrator:
    """Fixed-work slices and the host-speed factors derived from them.

    A slice is ``passes`` passes of the kernel; longer units get longer
    slices, so the speed estimate next to a unit averages over a few
    percent of the unit's time rather than a few milliseconds.
    """

    def __init__(self, passes):
        self.passes = passes
        self.reference = REFERENCE_PASS_S * passes
        rng = np.random.default_rng(20261017)
        n = 150
        self._keys = [f"node{k}" for k in range(96)]
        self._idx = rng.integers(0, n, size=35000)
        self._x = rng.standard_normal(n)
        # banded, diagonally dominant: an MNA-like matrix with bounded fill
        rows, cols = [np.arange(n)], [np.arange(n)]
        for off in (1, 2, 5):
            rows += [np.arange(n - off), np.arange(off, n)]
            cols += [np.arange(off, n), np.arange(n - off)]
        self._rows = np.concatenate(rows)
        self._cols = np.concatenate(cols)
        self._vals = -0.5 * rng.random(self._rows.size)
        self._vals[:n] = 8.0
        self._n = n
        self._dense = rng.standard_normal((22, 22)) + 22.0 * np.eye(22)
        self._rhs = rng.standard_normal(22)
        self._grid = rng.standard_normal((40, 16, 22))
        for _ in range(3):  # first calls import and cache lazily
            self._work()

    def _work(self) -> float:
        acc = {}
        keys = self._keys
        for k in range(2500):
            key = keys[k % 96]
            acc[key] = acc.get(key, 0.0) + 0.5 * k
        out = np.zeros(self._n)
        np.add.at(out, self._idx, np.exp(0.1 * self._x[self._idx]))
        A = sp.csc_matrix((self._vals, (self._rows, self._cols)), shape=(self._n, self._n))
        y = spla.splu(A).solve(out)
        z = 0.0
        for _ in range(13):
            z += float(sla.lu_solve(sla.lu_factor(self._dense), self._rhs)[0])
        spec = np.fft.fftn(self._grid, axes=(0, 1))
        w = np.fft.ifftn(spec, axes=(0, 1))
        return acc[keys[0]] + float(y[0]) + z + float(w.real[0, 0, 0])

    def slice(self) -> float:
        """Run one fixed-work slice with the cyclic GC paused; seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(self.passes):
                self._work()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def scale(self, raw_s: float, slice_before: float, slice_after: float) -> float:
        """``raw_s`` rescaled to reference speed by its two neighbouring slices."""
        return raw_s * self.reference / (0.5 * (slice_before + slice_after))

    def host_speed(self, slices) -> float:
        """Reference slice time over the median measured one."""
        return self.reference / float(np.median(slices))
