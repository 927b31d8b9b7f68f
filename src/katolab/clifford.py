"""Skew-adjoint unitary Clifford generators on a minimal complex fiber.

For n directions we build n matrices c_1..c_n with

    c_i c_j + c_j c_i = -2 delta_ij * I,   c_i* = -c_i,   c_i unitary,

acting on a fiber of dimension 2^floor(n/2), the minimal unitary choice.
Even n uses the iterated 2x2 tensor construction: generator pair
(i sigma_x, i sigma_y) in each new factor, preceded by chirality
(sigma_z) factors so distinct pairs anticommute.  Odd n appends
z * c_1 ... c_{n-1} with z in {1, i} picked so the square is -I and the
matrix stays skew-adjoint; for n = 1 the empty product leaves the 1x1
matrix (i).
"""

from functools import reduce

import numpy as np

from .errors import BadDegree

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def clifford_generators(n: int) -> list:
    """n anticommuting skew-adjoint unitary complex128 matrices of size 2^floor(n/2)."""
    if n < 1:
        raise BadDegree(f"need n >= 1 directions, got {n}")
    m = n // 2
    eye, one = np.eye(2, dtype=np.complex128), np.ones((1, 1), dtype=np.complex128)
    mats = []
    for j in range(m):
        for s in (_SX, _SY):
            mats.append(reduce(np.kron, [_SZ] * j + [1j * s] + [eye] * (m - j - 1), one))
    if n % 2 == 1:
        z = 1.0 if m % 2 == 1 else 1.0j
        mats.append(z * reduce(np.matmul, mats, np.eye(2 ** m, dtype=np.complex128)))
    return mats

