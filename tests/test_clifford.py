import numpy as np
import pytest

from katolab.clifford import clifford_generators, spinor_dim
from katolab.errors import BadDegree


def clifford_relation_residual(gens) -> float:
    """Worst deviation from the relations c_i c_j + c_j c_i = -2 delta_ij.

    Also folds in skew-adjointness and unitarity of each generator, so a
    zero residual certifies a genuine unitary Clifford module.
    """
    if not gens:
        return 0.0
    d = gens[0].matrix.shape[1]
    eye = np.eye(d)
    worst = 0.0
    for i, gi in enumerate(gens):
        a = gi.matrix
        worst = max(worst, float(np.linalg.norm(a + a.conj().T, 2)))
        worst = max(worst, float(np.linalg.norm(a.conj().T @ a - eye, 2)))
        for j in range(i, len(gens)):
            b = gens[j].matrix
            target = -2.0 * eye if i == j else 0.0
            worst = max(worst, float(np.linalg.norm(a @ b + b @ a - target, 2)))
    return worst


def test_minimal_dimensions():
    assert [spinor_dim(n) for n in range(1, 9)] == [1, 2, 2, 4, 4, 8, 8, 16]


def test_n1_is_the_scalar_i():
    gens = clifford_generators(1)
    assert len(gens) == 1
    assert gens[0].matrix.shape == (1, 1)
    assert gens[0].matrix[0, 0] == 1j


def test_n2_pauli_pair():
    gens = clifford_generators(2)
    assert all(g.matrix.shape == (2, 2) for g in gens)
    a, b = gens[0].matrix, gens[1].matrix
    assert np.allclose(a @ b + b @ a, 0.0, atol=1e-15)
    for g in (a, b):
        assert np.allclose(g @ g, -np.eye(2), atol=1e-15)
        assert np.allclose(g.conj().T, -g, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 9))
def test_relations_up_to_dim_8(n):
    gens = clifford_generators(n)
    assert len(gens) == n
    assert gens[0].matrix.shape[1] == spinor_dim(n)
    assert clifford_relation_residual(gens) <= 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_sum_of_squares(n):
    # sum_i c_i c_i* = n I, the conformity identity of the Clifford symbol
    gens = clifford_generators(n)
    d = spinor_dim(n)
    acc = np.zeros((d, d), dtype=complex)
    for g in gens:
        acc += g.matrix @ g.matrix.conj().T
    assert np.allclose(acc, n * np.eye(d), atol=1e-13)


def test_rejects_bad_n():
    with pytest.raises(BadDegree):
        clifford_generators(0)
