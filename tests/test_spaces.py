import pytest
from math import comb

from katolab.errors import BadDegree
from katolab.spaces import (
    exterior_power,
    fiber_space,
    multiset_insert,
    multiset_remove,
    symmetric_power,
    wedge_delete,
    wedge_insert,
)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(0, 7))
def test_exterior_dims(n, k):
    if k > n:
        with pytest.raises(BadDegree):
            exterior_power(n, k)
        return
    labels = exterior_power(n, k)
    assert len(labels) == comb(n, k)
    assert all(lab == tuple(sorted(set(lab))) for lab in labels)
    assert list(labels) == sorted(labels)


@pytest.mark.parametrize("n,k", [(2, 0), (2, 3), (3, 2), (4, 3), (6, 5)])
def test_symmetric_dims(n, k):
    labels = symmetric_power(n, k)
    assert len(labels) == comb(n + k - 1, k)
    assert all(lab == tuple(sorted(lab)) for lab in labels)
    assert list(labels) == sorted(labels)


@pytest.mark.parametrize("k", [-1, 2.0])
def test_symmetric_power_refuses_a_degree_that_is_not_an_integer_from_0(k):
    with pytest.raises(BadDegree, match=f"symmetric power needs k >= 0, got k={k}"):
        symmetric_power(3, k)


def test_fiber_space():
    assert fiber_space(3, "aux") == (("aux", 1), ("aux", 2), ("aux", 3))
    assert fiber_space(0) == ()
    with pytest.raises(ValueError):
        fiber_space(-1)


def test_wedge_insert_signs():
    assert wedge_insert(2, (1, 3)) == (-1, (1, 2, 3))
    assert wedge_insert(1, (2, 3)) == (1, (1, 2, 3))
    assert wedge_insert(4, (1, 3)) == (1, (1, 3, 4))
    assert wedge_insert(3, (1, 3)) is None


def test_wedge_delete_signs():
    assert wedge_delete(1, (1, 2, 3)) == (1, (2, 3))
    assert wedge_delete(2, (1, 2, 3)) == (-1, (1, 3))
    assert wedge_delete(4, (1, 2, 3)) is None


def test_wedge_roundtrip_sign_product():
    # inserting i then contracting i returns the start with sign +1
    for J in [(1, 3), (3, 4, 5), ()]:
        for i in (2, 6):
            ins = wedge_insert(i, J)
            assert ins is not None
            s1, K = ins
            s2, back = wedge_delete(i, K)
            assert back == J and s1 * s2 == 1


def test_multiset_helpers():
    assert multiset_insert(2, (1, 2, 4)) == (1, 2, 2, 4)
    assert multiset_remove(2, (1, 2, 2)) == (1, 2)
    assert multiset_remove(5, (1, 2)) is None
