"""Host speed probe, to take the host's speed out of the timings.

On a small virtual machine the speed of a core swings with the load of the
other tenants on its host.  On a 2-vCPU Xeon VM the same repetition took
1.6 s for minutes and then 2.9 s for minutes, with no steal time reported.
Such swings move every timing of a run together, so the benchmark times a
fixed probe between repetitions and scales the timings by

    REF_S / median(probe times of the run)

(raised to the workload's ``probe_exponent``), which turns it into seconds
on a host where the probe takes ``REF_S``.  The probe never calls msense, so
a change to msense moves the scaled timings exactly as much as the raw ones.  Keep the probe and ``REF_S`` fixed: a
change to either changes every timing of the benchmark.

Interpreted, small-matrix work slows as the probe does: over five minutes
in which the probe's time doubled and halved again, the spread of log
repetition time fell from 0.16 to 0.07 (sweep_n) and from 0.17 to 0.10
(figures) when scaled.  Large array kernels (wide_d's operator, conc_noise's
Gaussian draws) slow about as the square root of the probe's slowdown, so
their exponent is 0.5.
"""

import statistics
import time

import numpy as np

REF_S = 0.006  # about probe() on a 2-vCPU Xeon VM whose neighbours were quiet
SAMPLES = 5  # probe() calls per sample()

_rng = np.random.default_rng(20210205)
_SMALL = _rng.standard_normal((20, 20))
_SYM = _SMALL @ _SMALL.T
_WIDE = _rng.standard_normal((400, 400))
_VEC = _rng.standard_normal(400)


def probe():
    """Seconds for a fixed mix of what msense spends its time on: small
    eigen- and singular-value problems, a matrix-vector product, Gaussian
    draws and interpreted Python."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(25):
        acc += np.linalg.eigh(_SYM)[0][-1]
        acc += np.linalg.norm(_SMALL @ _SMALL, 2)
        acc += (_WIDE @ _VEC) @ _VEC
        acc += np.random.default_rng(i).standard_normal(2000).sum()
        acc += sum(j * 0.5 for j in range(150))
    if not np.isfinite(acc):
        raise ArithmeticError("speed probe produced a non-finite value")
    return time.perf_counter() - t0


def sample():
    """SAMPLES probe times."""
    return [probe() for _ in range(SAMPLES)]


def scale(samples, exponent=1.0):
    """Factor that turns this run's raw seconds into scaled seconds, for work
    whose time goes as the probe's to the power ``exponent``."""
    return (REF_S / statistics.median(samples)) ** exponent
