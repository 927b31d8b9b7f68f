"""Basis labels of the coefficient spaces.

Everything downstream works with explicit orthonormal bases, and a space
is the ordered tuple of its basis labels, deterministic and lexicographic
throughout; its dimension is the tuple's length.  No report writes a
label and no operator holds one: labels are read only to build the
exterior and symmetric maps, the Hodge star and the key-lemma setups,
and an auxiliary fiber (fiber_space) only through its length.

Conventions
-----------
exterior(k)     wedge powers of the dual of R^n; basis e_J* for strictly
                increasing k-tuples J, orthonormal under the determinant
                inner product.
symmetric(k)    degree-k symmetric tensors, realized as the subspace of
                the k-th tensor power spanned by symmetrizations; basis
                is the normalized symmetrization of e_a* for each
                non-decreasing multi-index a, orthonormal in the induced
                tensor inner product.
fiber           an abstract auxiliary fiber with numbered basis.
"""

from itertools import combinations, combinations_with_replacement

from .errors import BadDegree, _check_int


def exterior_power(n: int, k: int) -> tuple:
    """Labels of the degree-k wedge power of the dual space.

    Strictly increasing k-tuples of 1..n in lexicographic order, C(n, k)
    of them.  k = 0 gives the scalar line with the empty tuple as its
    single label.
    """
    _check_int(BadDegree, "exterior power needs", "n", n, 0)
    _check_int(BadDegree, "exterior power needs", "k", k, 0, n)
    return tuple(combinations(range(1, n + 1), k))


def symmetric_power(n: int, k: int) -> tuple:
    """Labels of the degree-k symmetric power of the dual space.

    Non-decreasing k-tuples in lexicographic order; the basis vector for
    label a is the unit-normalized symmetrization of the elementary
    tensor e_a* inside the k-th tensor power.
    """
    _check_int(BadDegree, "symmetric power needs", "n", n, 0)
    _check_int(BadDegree, "symmetric power needs", "k", k, 0)
    return tuple(combinations_with_replacement(range(1, n + 1), k))


def fiber_space(dim: int, tag: str = "fiber") -> tuple:
    """Labels (tag, 1..dim) of an abstract auxiliary fiber."""
    _check_int(ValueError, "fiber space needs", "dim", dim, 0)
    return tuple((tag, i) for i in range(1, dim + 1))


def check_form_degree(subject: str, n: int, k) -> None:
    """BadDegree, its message led by subject ("form split needs"), unless n is an
    integer >= 2 that fits an index and k one in 1..n-1: the degrees of the two-sided
    form inequality."""
    _check_int(BadDegree, subject, "n", n, 2)
    _check_int(BadDegree, subject, "k", k, 1, n - 1)


# ---------------------------------------------------------------------------
# combinatorics shared by the wedge and symmetric constructions


def wedge_insert(i: int, J: tuple):
    """Insert index i into the increasing tuple J.

    Returns (sign, K) with e_i* ^ e_J* = sign * e_K*, or None when
    i already occurs in J (the wedge vanishes).
    """
    if i in J:
        return None
    pos = sum(j < i for j in J)
    K = J[:pos] + (i,) + J[pos:]
    return (-1) ** pos, K


def wedge_delete(i: int, K: tuple):
    """Contract e_i against e_K*: returns (sign, K without i) or None."""
    if i not in K:
        return None
    pos = K.index(i)
    return (-1) ** pos, K[:pos] + K[pos + 1:]


def multiset_insert(i: int, a: tuple) -> tuple:
    """Sorted multi-index a with one extra copy of i."""
    return tuple(sorted(a + (i,)))


def multiset_remove(i: int, a: tuple):
    """Sorted multi-index a with one copy of i removed, or None."""
    if i not in a:
        return None
    pos = a.index(i)
    return a[:pos] + a[pos + 1:]

