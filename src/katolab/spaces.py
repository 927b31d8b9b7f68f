"""Finite-dimensional coefficient spaces and their basis bookkeeping.

Everything downstream works with explicit orthonormal bases, so a space
is just a descriptor: what kind of space it is, its dimension, and an
ordered tuple of basis labels, deterministic and lexicographic
throughout.  No report writes a label: labels are read only to build the
exterior and symmetric maps, the Hodge star, the key-lemma setups and the
CLI's hodge degree (the length of a label).

Conventions
-----------
dual            the dual of R^n with the dual basis e_1*..e_n*,
                orthonormal, labels are the integers 1..n.
exterior(k)     wedge powers of the dual space; basis e_J* for strictly
                increasing k-tuples J, orthonormal under the determinant
                inner product.
symmetric(k)    degree-k symmetric tensors, realized as the subspace of
                the k-th tensor power spanned by symmetrizations; basis
                is the normalized symmetrization of e_a* for each
                non-decreasing multi-index a, orthonormal in the induced
                tensor inner product.
tensor          ordered tensor product; labels are tuples of component
                labels in itertools.product order.
sum             orthogonal direct sum; labels are (slot, label) pairs.
fiber           an abstract auxiliary fiber with numbered basis.
"""

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb, prod

from .errors import BadDegree


@dataclass(frozen=True)
class SpaceDescriptor:
    """Immutable description of one coefficient space."""

    kind: str
    dim: int
    labels: tuple

    def __post_init__(self):
        if self.dim != len(self.labels):
            raise ValueError("dim does not match number of labels")


def dual_space(n: int) -> SpaceDescriptor:
    """Dual of R^n with the dual basis; the covector side of every symbol."""
    if n < 1:
        raise BadDegree(f"dual space needs n >= 1, got {n}")
    return SpaceDescriptor("dual", n, tuple(range(1, n + 1)))


def exterior_power(n: int, k: int) -> SpaceDescriptor:
    """Degree-k wedge power of the dual space.

    Basis labels are strictly increasing k-tuples of 1..n in
    lexicographic order; dimension is C(n, k).  k = 0 gives the scalar
    line with the empty tuple as its single label.
    """
    if k < 0 or k > n:
        raise BadDegree(f"exterior degree k={k} outside [0, {n}]")
    labels = tuple(combinations(range(1, n + 1), k))
    return SpaceDescriptor("exterior", comb(n, k), labels)


def symmetric_power(n: int, k: int) -> SpaceDescriptor:
    """Degree-k symmetric power of the dual space.

    Labels are non-decreasing k-tuples in lexicographic order; the
    basis vector for label a is the unit-normalized symmetrization of
    the elementary tensor e_a* inside the k-th tensor power.
    """
    if k < 0:
        raise BadDegree(f"symmetric degree k={k} must be >= 0")
    labels = tuple(combinations_with_replacement(range(1, n + 1), k))
    return SpaceDescriptor("symmetric", comb(n + k - 1, k), labels)


def tensor_product(factors) -> SpaceDescriptor:
    """Ordered tensor product of descriptor factors."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("tensor product needs at least one factor")
    labels = tuple(product(*(f.labels for f in factors)))
    return SpaceDescriptor("tensor", prod(f.dim for f in factors), labels)


def direct_sum(summands) -> SpaceDescriptor:
    """Orthogonal direct sum; coordinates are concatenated slotwise."""
    summands = tuple(summands)
    labels = tuple((i, lab) for i, s in enumerate(summands) for lab in s.labels)
    return SpaceDescriptor("sum", sum(s.dim for s in summands), labels)


def fiber_space(dim: int, tag: str = "fiber") -> SpaceDescriptor:
    """Abstract auxiliary fiber with basis labeled (tag, 1..dim)."""
    if dim < 0:
        raise ValueError("fiber dimension must be >= 0")
    return SpaceDescriptor("fiber", dim, tuple((tag, i) for i in range(1, dim + 1)))


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

