"""Control kernel that scales measured times to an uncontended machine.

Other tenants of a shared host slow this machine by up to ~1.6x for
stretches of seconds to minutes, which moves every wall-clock time and
hides the changes the benchmark exists to show. The control kernel is a
fixed mix of the work gaternet does (numpy multiply-accumulate over
[64, 16, 16, 16] float32 maps, Python dict and attribute churn, float
formatting) that lives in the benchmark and never changes with the program.
It runs between measured intervals; each interval is multiplied by
``Control.REF_S / mean(control time just before, just after)``, so
it reads as it would on a machine where the control takes ``Control.REF_S``.
A change to gaternet moves the interval but not the control.
"""

from __future__ import annotations

import time

import numpy as np


class Control:
    # The control's time on an uncontended 2-vCPU Xeon VM (OpenBLAS 1 thread).
    REF_S = 0.015

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 16, 18, 18), dtype=np.float32)
        self.w = rng.standard_normal((16, 4, 3, 3), dtype=np.float32)
        self.out = np.empty((64, 16, 16, 16), dtype=np.float32)
        self.tmp = np.empty_like(self.out)
        self.values = rng.standard_normal(400).tolist()
        self.times: list[float] = []
        self.last = self.time()

    def _kernel(self) -> None:
        self.out[...] = 0.0
        for ic in range(4):
            for ki in range(3):
                for kj in range(3):
                    np.multiply(self.w[:, ic, ki, kj].reshape(1, 16, 1, 1),
                                self.x[:, None, ic, ki : ki + 16, kj : kj + 16],
                                out=self.tmp)
                    self.out += self.tmp
        table: dict[int, float] = {}
        for i in range(12000):
            table[i & 255] = table.get(i & 255, 0.0) + i
        ",".join(f"{v:.8e}" for v in self.values)

    def time(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def scale(self, dt: float) -> float:
        """Scale an interval that just ended; runs the control once."""
        after = self.time()
        scaled = dt * self.REF_S / ((self.last + after) / 2.0)
        self.last = after
        return scaled
