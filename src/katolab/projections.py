"""Catalog of conformal projections and the conformity certifier.

A surjective map P : U -> W is a conformal projection when P P* is a
positive multiple rho^2 of the identity on W; its adjoint is then a
conformal immersion.  The catalog covers the first-order geometric
symbols used everywhere downstream:

    exterior_projection(n, k)        f (x) w        -> f ^ w
    interior_projection(n, k)        f (x) w        -> contract(f, w)
    symmetrization_projection(n, k)  f (x) A        -> sym insert
    contraction_projection(n, k)     f (x) A        -> A(f, ...)
    clifford_projection(n)           f (x) s        -> c_f(s)
    twistor_projection(n)            f (x) s        -> ker-c part

All live on V* tensor (fiber) with V* the n-dimensional covector space.
FAMILIES declares each family's degree window and exact rho^2.  Matrix
entries of the wedge and symmetric constructions are assembled
combinatorially; conformity is then measured, never assumed.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import nan, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .clifford import clifford_generators, spinor_dim, spinor_space
from .errors import BadDegree, NotConformal, NotSurjective
from .linmap import LinearMap, gram_schmidt_columns
from .spaces import (
    SpaceDescriptor,
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

DEFAULT_CONFORMITY_TOL = 1e-10
_SURJECTIVITY_CUTOFF = 1e-10   # relative singular value cutoff for rank


def _insertion_map(n: int, src: SpaceDescriptor, dst: SpaceDescriptor,
                   entry) -> LinearMap:
    """V* (x) src -> dst whose column e_i* (x) label holds the single entry
    entry(i, label) = (value, target label), or nothing when it is None."""
    M = np.zeros((dst.dim, n * src.dim))
    pos = {lab: p for p, lab in enumerate(dst.labels)}
    for j, lab in enumerate(src.labels):
        for i in range(1, n + 1):
            hit = entry(i, lab)
            if hit is not None:
                M[pos[hit[1]], (i - 1) * src.dim + j] = hit[0]
    return LinearMap(tensor_product((dual_space(n), src)), dst, M)


def exterior_projection(n: int, k: int) -> LinearMap:
    """Wedge insertion V* (x) Lambda^k -> Lambda^{k+1}; needs 0 <= k <= n-1."""
    if k < 0 or k > n - 1:
        raise BadDegree(f"exterior projection needs 0 <= k <= {n - 1}, got k={k}")
    return _insertion_map(n, exterior_power(n, k), exterior_power(n, k + 1), wedge_insert)


def interior_projection(n: int, k: int) -> LinearMap:
    """Contraction V* (x) Lambda^k -> Lambda^{k-1}; needs 1 <= k <= n."""
    if k < 1 or k > n:
        raise BadDegree(f"interior projection needs 1 <= k <= {n}, got k={k}")
    return _insertion_map(n, exterior_power(n, k), exterior_power(n, k - 1), wedge_delete)


def symmetrization_projection(n: int, k: int) -> LinearMap:
    """Symmetrized insertion V* (x) S^k -> S^{k+1}.

    In the normalized monomial bases each column carries the single
    entry sqrt((k+1) * mult_i(target)), the coefficient of projecting
    e_i* (x) s_a onto s_{sort(a+i)} inside the tensor power and scaling
    by the k+1 slot insertions.
    """
    if k < 0:
        raise BadDegree(f"symmetrization needs k >= 0, got k={k}")

    def entry(i, a):
        b = multiset_insert(i, a)
        return sqrt((k + 1) * b.count(i)), b

    return _insertion_map(n, symmetric_power(n, k), symmetric_power(n, k + 1), entry)


def contraction_projection(n: int, k: int) -> LinearMap:
    """First-slot evaluation V* (x) S^k -> S^{k-1}; needs k >= 1.

    Column entry sqrt(mult_i(a) / k) at row a minus one copy of i.
    """
    if k < 1:
        raise BadDegree(f"contraction needs k >= 1, got k={k}")
    return _insertion_map(
        n, symmetric_power(n, k), symmetric_power(n, k - 1),
        lambda i, a: (sqrt(a.count(i) / k), multiset_remove(i, a)) if i in a else None)


def clifford_projection(n: int) -> LinearMap:
    """Clifford action V* (x) S -> S, f (x) s -> c_f(s)."""
    gens = clifford_generators(n)
    S = spinor_space(n)
    dom = tensor_product((dual_space(n), S))
    M = np.zeros((S.dim, dom.dim), dtype=np.complex128)
    for i, g in enumerate(gens):
        M[:, i * S.dim:(i + 1) * S.dim] = g.matrix
    return LinearMap(dom, S, M)


def twistor_projection(n: int) -> LinearMap:
    """Orthogonal projection of V* (x) S onto the kernel of Clifford action.

    The projector is Pi(v (x) s) = v (x) s + (1/n) sum_i e_i* (x) c_i c_v s;
    its range is expressed in an orthonormal basis obtained by a
    deterministic Gram-Schmidt sweep over the projector columns, so the
    returned map is B* Pi = B* with codomain dimension (n-1) * dim S.
    Needs n >= 2 (for n = 1 the kernel is zero).
    """
    if n < 2:
        raise BadDegree(f"twistor projection needs n >= 2, got {n}")
    gens = clifford_generators(n)
    dS = spinor_dim(n)
    S = spinor_space(n)
    dom = tensor_product((dual_space(n), S))
    K = np.zeros((dom.dim, dom.dim), dtype=np.complex128)
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            K[i * dS:(i + 1) * dS, j * dS:(j + 1) * dS] = gi.matrix @ gj.matrix
    Pi = np.eye(dom.dim) + K / n
    B = gram_schmidt_columns(Pi)
    if B.shape[1] != (n - 1) * dS:
        raise NotSurjective(
            f"twistor kernel basis came out rank {B.shape[1]}, expected {(n - 1) * dS}"
        )
    cod = fiber_space((n - 1) * dS, "twistor")
    return LinearMap(dom, cod, B.conj().T)


class Family(NamedTuple):
    """A projection family: build(n, k), the degrees k it is verified in at
    dimension n ((None,) for a family without a degree), and the declared
    exact rho^2(n, k)."""

    build: Callable
    degrees: Callable
    rho_squared: Callable


FAMILIES = {
    "exterior": Family(exterior_projection, lambda n: range(0, n),
                       lambda n, k: Fraction(k + 1)),
    "interior": Family(interior_projection, lambda n: range(1, n + 1),
                       lambda n, k: Fraction(n - k + 1)),
    "symmetrization": Family(symmetrization_projection, lambda n: range(1, n),
                             lambda n, k: Fraction((k + 1) ** 2)),
    "contraction": Family(contraction_projection, lambda n: range(1, n),
                          lambda n, k: Fraction(n + k - 1, k)),
    "clifford": Family(lambda n, k: clifford_projection(n), lambda n: (None,),
                       lambda n, k: Fraction(n)),
    "twistor": Family(lambda n, k: twistor_projection(n), lambda n: (None,),
                      lambda n, k: Fraction(1)),
}


# ---------------------------------------------------------------------------
# conformity measurement


@dataclass(frozen=True)
class ProjectionReport:
    """Outcome of one conformity measurement."""

    rho_squared: float
    residual: float
    surjective: bool
    certified: bool
    tolerance: float
    domain_dim: int
    codomain_dim: int


def conformity_report(P: LinearMap, tol: float = DEFAULT_CONFORMITY_TOL) -> ProjectionReport:
    """Measure rho^2 = trace(P P*) / dim W and its relative residual.

    Never raises; the certified flag records whether P is surjective and
    ||P P* - rho^2 I|| <= tol * rho^2 in the spectral norm.
    """
    m = P.matrix
    dw = P.codomain.dim
    if dw == 0:
        # empty codomain: vacuously conformal, rho^2 is reported as 0
        return ProjectionReport(0.0, 0.0, True, True, tol, P.domain.dim, 0)
    if not np.all(np.isfinite(m)):
        # a non-finite entry: no rho^2 or residual, and the SVD would not converge
        return ProjectionReport(nan, nan, False, False, tol, P.domain.dim, dw)
    with np.errstate(over="ignore", invalid="ignore"):
        G = m @ m.conj().T
    scale = 1.0
    if not np.all(np.isfinite(G)) or (np.real(np.trace(G)) < 1e-250 * dw and np.any(m)):
        # finite entries whose Gram overflows or underflows: measure m over its largest
        # real or imaginary part, and report rho^2 at full scale (inf or 0 out of range)
        scale = float(np.max(np.abs(m.view(float))))
        m = m / scale
        G = m @ m.conj().T
    rho2 = float(np.real(np.trace(G))) / dw
    residual = float(np.linalg.norm(G - rho2 * np.eye(dw), 2)) / max(rho2, 1e-300)
    # every eigenvalue of G in rho^2 (1 +- 1/2) makes m onto, with a
    # singular-value ratio of at least 1/sqrt(3); otherwise test the rank
    surjective = rho2 > 1e-300 and residual < 0.5
    if not surjective and m.size:
        sv = np.linalg.svd(m, compute_uv=False)
        surjective = int(np.sum(sv > _SURJECTIVITY_CUTOFF * max(sv[0], 1e-300))) == dw
    certified = surjective and residual <= tol
    return ProjectionReport(rho2 * scale * scale, residual, surjective, certified, tol,
                            P.domain.dim, dw)


def conformity_factor(P: LinearMap, tol: float = DEFAULT_CONFORMITY_TOL) -> ProjectionReport:
    """Certify P as a conformal projection or raise.

    Raises NotSurjective when rank(P) < dim W and NotConformal when the
    normalized residual of P P* - rho^2 I exceeds tol; both carry the
    measured residual.
    """
    rep = conformity_report(P, tol)
    if not rep.surjective:
        raise NotSurjective(
            f"rank deficiency: map onto {P.codomain.dim}-dim codomain is not onto",
            residual=rep.residual,
        )
    if rep.residual > tol:
        raise NotConformal(
            f"conformity residual {rep.residual:.3e} exceeds tolerance {tol:.1e}",
            residual=rep.residual,
        )
    return rep


def exact_to_json(x):
    """Fractions go out as 'p/q' strings so exactness survives JSON."""
    if x is None:
        return None
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def _conformity_row(family: str, n: int, k, P, declared, tolerance: float) -> dict:
    rep = conformity_report(P, tol=tolerance)
    gap = abs(rep.rho_squared - float(declared)) / float(declared)
    return {
        "family": family, "n": n, "k": k,
        "declared": exact_to_json(declared),
        "measured": rep.rho_squared,
        "residual": max(rep.residual, gap),
        "ok": bool(rep.certified and gap <= tolerance),
    }


def conformity_table(max_n: int, tolerance: float) -> list:
    """One row per family and verified degree for every n in 2..max_n."""
    return [_conformity_row(family, n, k, fam.build(n, k), fam.rho_squared(n, k),
                            tolerance)
            for n in range(2, max_n + 1)
            for family, fam in FAMILIES.items() for k in fam.degrees(n)]


def line_image_basis(P: LinearMap, xi: np.ndarray, fiber_dim: int) -> np.ndarray:
    """Orthonormal basis of P(span(xi) (x) E) inside the codomain.

    xi is a real covector of length n with n * fiber_dim the domain
    dimension of P.  Deterministic: Gram-Schmidt over P(xi (x) e_j) in
    basis order.
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[0]
    if n * fiber_dim != P.domain.dim:
        raise ValueError("covector length does not match the domain split")
    cols = np.zeros((P.codomain.dim, fiber_dim), dtype=np.complex128)
    m = P.matrix
    for e in range(fiber_dim):
        v = np.zeros(P.domain.dim, dtype=np.complex128)
        v[e::fiber_dim] = xi
        cols[:, e] = m @ v
    return gram_schmidt_columns(cols)

