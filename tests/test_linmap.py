import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from katolab.linmap import (
    LinearMap,
    gram_schmidt_columns,
    identity_map,
    stack_maps,
)
from katolab.spaces import direct_sum, fiber_space


def _random_map(rng, dout, din):
    m = rng.standard_normal((dout, din)) + 1j * rng.standard_normal((dout, din))
    return LinearMap(fiber_space(din, "in"), fiber_space(dout, "out"), m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_adjoint_inner_product_identity(seed, dout, din):
    # <P u, w> = <u, P* w> for all u, w; the defining property
    rng = np.random.default_rng(seed)
    P = _random_map(rng, dout, din)
    u = rng.standard_normal(din) + 1j * rng.standard_normal(din)
    w = rng.standard_normal(dout) + 1j * rng.standard_normal(dout)
    lhs = np.vdot(w, P.apply(u))
    rhs = np.vdot(P.matrix.conj().T @ w, u)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


def test_matrix_is_frozen():
    P = identity_map(fiber_space(2, "x"))
    with pytest.raises(ValueError):
        P.matrix[0, 0] = 5.0


def test_gram_schmidt_orthonormal_and_deterministic():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    # duplicate a column so the rank drops to 3 at most
    m[:, 3] = 2.0 * m[:, 1]
    b1 = gram_schmidt_columns(m)
    b2 = gram_schmidt_columns(m)
    assert b1.shape == (6, 3)
    assert np.array_equal(b1, b2)
    assert np.allclose(b1.conj().T @ b1, np.eye(3), atol=1e-12)
    # same column space: projectors agree
    q, _ = np.linalg.qr(m[:, :3])
    p1 = b1 @ b1.conj().T
    p2 = q @ q.conj().T
    assert np.allclose(p1, p2, atol=1e-10)


def test_stack_maps():
    rng = np.random.default_rng(19)
    A = _random_map(rng, 2, 3)
    B = LinearMap(A.domain, fiber_space(1, "z"), rng.standard_normal((1, 3)))
    cod = direct_sum((A.codomain, B.codomain))
    S = stack_maps((A, B), cod)
    assert S.matrix.shape == (3, 3)
    u = rng.standard_normal(3)
    assert np.allclose(S.apply(u)[:2], A.apply(u))
    assert np.allclose(S.apply(u)[2:], B.apply(u))
