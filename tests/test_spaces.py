import pytest
from math import comb

from katolab.errors import BadDegree
from katolab.spaces import (
    direct_sum,
    dual_space,
    exterior_power,
    fiber_space,
    multiset_insert,
    multiset_remove,
    symmetric_power,
    tensor_product,
    wedge_delete,
    wedge_insert,
)


def test_base_and_dual_dims():
    assert dual_space(4).labels == (1, 2, 3, 4)
    with pytest.raises(BadDegree):
        dual_space(0)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(0, 7))
def test_exterior_dims(n, k):
    if k > n:
        with pytest.raises(BadDegree):
            exterior_power(n, k)
        return
    sp = exterior_power(n, k)
    assert sp.dim == comb(n, k)
    assert all(lab == tuple(sorted(set(lab))) for lab in sp.labels)
    assert list(sp.labels) == sorted(sp.labels)


@pytest.mark.parametrize("n,k", [(2, 0), (2, 3), (3, 2), (4, 3), (6, 5)])
def test_symmetric_dims(n, k):
    sp = symmetric_power(n, k)
    assert sp.dim == comb(n + k - 1, k)
    assert all(lab == tuple(sorted(lab)) for lab in sp.labels)
    assert list(sp.labels) == sorted(sp.labels)


def test_tensor_product_ordering():
    a = dual_space(2)
    b = exterior_power(2, 1)
    t = tensor_product((a, b))
    assert t.dim == 4
    # product order: second factor varies fastest
    assert t.labels[0] == (1, (1,))
    assert t.labels[1] == (1, (2,))
    assert t.labels[2] == (2, (1,))


def test_direct_sum_labels():
    s = direct_sum((exterior_power(3, 2), exterior_power(3, 0)))
    assert s.dim == 4
    assert s.labels[0][0] == 0 and s.labels[-1][0] == 1


def test_fiber_space():
    f = fiber_space(3, "aux")
    assert f.dim == 3 and f.labels[2] == ("aux", 3)


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
