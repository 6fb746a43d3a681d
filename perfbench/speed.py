"""Machine-speed calibration: a fixed kernel timed between ops.

On a small shared machine the CPU's speed drifts, by up to a quarter over
tens of seconds, with user and system time moving together; every wall-clock
figure of a run moves with it, and runs made a minute apart disagree by more
than any useful bound.  The kernel does fixed work of the kinds the engine
does (numpy streaming over a few MB with fresh temporaries, and interpreter
loops) and shares no code with ``pricechoose``.  It runs in a helper process,
so the workload's heap and caches cannot change its speed: a change to the
package moves the op times and not the kernel.  Gated time figures are
reported at reference speed, ``wall * REFERENCE_S / median(kernel seconds)``;
the wall figures are printed and stored beside them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# Kernel median on a 2-core Intel Xeon (0.06-0.09 s as its speed drifts).
# A fixed scale only: it makes reference seconds read close to wall seconds,
# and since it never changes, comparisons between commits do not depend on it.
REFERENCE_S = 0.07
INTERVAL_S = 1.0      # one kernel sample per second of op time


def factor(samples: list[float]) -> float:
    """Reference seconds per wall second, from kernel samples."""
    return REFERENCE_S / statistics.median(samples)


class Calibration:
    """A helper process that times the kernel on request, between ops."""

    def __init__(self):
        self.samples: list[float] = []
        self._owed = INTERVAL_S       # sample once before the first op
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        return False

    def sample(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        self.samples.append(float(line))

    def tick(self, op_seconds: float = 0.0) -> None:
        """Account for ``op_seconds`` of ops; sample the kernel as owed."""
        self._owed += op_seconds
        while self._owed >= INTERVAL_S:
            self.sample()
            self._owed -= INTERVAL_S

    def take(self) -> list[float]:
        """The samples so far; later samples start a new list."""
        out, self.samples = self.samples, []
        return out


def serve() -> None:
    """Helper loop: one kernel run per input line, its seconds on stdout."""
    import numpy as np
    rng = np.random.default_rng(0)
    g = rng.random((2556, 9))
    w = 0.5 ** np.arange(1, 10)
    for _ in sys.stdin:
        start = time.perf_counter()
        # Two half-size passes: one 256-row pass ran fast and slow on
        # alternate samples (the allocator's handling of its 5 MB
        # temporaries), so single samples were bimodal.
        for _ in range(2):
            acc = np.zeros((128, g.shape[0]))
            for k in range(g.shape[1]):
                acc += w[k] * np.abs(g[:128, k][:, None] - g[None, :, k])
        table: dict[int, int] = {}
        for i in range(20_000):
            table[i % 997] = table.get(i % 997, 0) + i
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    serve()
