"""Fixed calibration rounds that measure how fast the machine runs right now.

On a shared machine the speed available to the benchmark drifts, and
different kinds of work slow down by different amounts: unoptimized
einsum loops more than BLAS products, for instance.  So each workload
has its own round, built from the same kinds of numpy and interpreter
work as its hot path (the trace breakdown in README.md), and set-up has
one of interpreter work, like imports.  The rounds use fixed inputs and
no katolab code, so a change to katolab cannot move them.
"""

import statistics
import time

import numpy as np

_rng = np.random.default_rng(20261017)
_V = (_rng.standard_normal((1000, 5, 10, 1))
      + 1j * _rng.standard_normal((1000, 5, 10, 1)))
_XI = _rng.standard_normal((1000, 5))
_IOTA = _rng.standard_normal((5, 5, 10))
_X = _rng.standard_normal((1000, 5))
_FREQS = _rng.integers(-3, 4, (40, 5)).astype(float)
_COEFFS = _rng.standard_normal((40, 10)) + 1j * _rng.standard_normal((40, 10))
_M = _rng.standard_normal((12, 24)) + 1j * _rng.standard_normal((12, 24))


def _form_kernel():
    # three-operand complex einsum without optimize, as in batch_hodge_margins
    np.einsum("nj,jcb,nibf->nicf", _XI, _IOTA, _V)


def _trig_field():
    # phase table, cos/sin and coefficient products, as in TrigField.evaluate
    phases = _X @ _FREQS.T
    np.cos(phases) @ _COEFFS + np.sin(phases) @ _COEFFS


def _blas_rows():
    # random complex rows through a small symbol and row norms, as in the
    # key-lemma and operator fuzzers
    rng = np.random.default_rng(0)
    u = rng.standard_normal((4000, 24)) + 1j * rng.standard_normal((4000, 24))
    np.sum(np.abs(u @ _M.T) ** 2, axis=1)


def _interpreter():
    # dict and tuple churn, as in imports, CLI handling and report building
    table = {}
    for i in range(6_000):
        table[(i % 97, i % 89)] = table.get((i % 97, i % 89), 0) + i


ROUNDS = {
    # the Hodge fuzzer adds RNG, null-space products and row norms
    # around the form kernel
    "hodge-fuzz": (_form_kernel, _blas_rows, _interpreter),
    "field-lab": (_form_kernel, _trig_field),
    "operator-suite": (_blas_rows, _interpreter),
    "setup": (_interpreter,),
}

# Median round time on the reference box (2-core x86_64 VM, Python 3.11,
# numpy 2.4 with OpenBLAS on one thread).  Scaled times are seconds at
# the speed that box had while these were taken.
REFERENCE_ROUND_S = {
    "hodge-fuzz": 0.019,
    "field-lab": 0.0129,
    "operator-suite": 0.0116,
    "setup": 0.0027,
}

# How strongly the timed work follows its round when the machine's speed
# changes: the slope of log(time) against log(round time), a
# reduced-major-axis fit over the passes of ten 30 s runs per workload
# (about 100 passes each, correlation 0.88-0.91), and over 210 set-up
# probes.  The passes slow down less than their rounds, so scaling them
# by the full round ratio would overshoot.
SENSITIVITY = {
    "hodge-fuzz": 0.9,
    "field-lab": 0.6,
    "operator-suite": 0.7,
    "setup": 1.0,
}


def calibration_s(kind: str) -> float:
    """Wall time of one calibration round of the given kind."""
    t0 = time.perf_counter()
    for work in ROUNDS[kind]:
        work()
    return time.perf_counter() - t0


def speed_factor(kind: str, rounds) -> float:
    """Reference round time over the median measured round, to the power
    of the kind's sensitivity."""
    return (REFERENCE_ROUND_S[kind] / statistics.median(rounds)) ** SENSITIVITY[kind]
