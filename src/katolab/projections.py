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

from .clifford import clifford_generators
from .errors import BadDegree, NotConformal, NotSurjective
from .linmap import _check_map, _row_blocks, gram_schmidt_columns
from .spaces import (
    exterior_power,
    multiset_insert,
    multiset_remove,
    symmetric_power,
    wedge_delete,
    wedge_insert,
)

DEFAULT_CONFORMITY_TOL = 1e-10
_SURJECTIVITY_CUTOFF = 1e-10   # relative singular value cutoff for rank


def _insertion_map(n: int, src: tuple, dst: tuple, entry) -> np.ndarray:
    """V* (x) src -> dst, for the label tuples src and dst, whose column e_i* (x) label
    holds the single entry entry(i, label) = (value, target label), or nothing when it
    is None; read-only."""
    M = np.zeros((len(dst), n * len(src)), dtype=np.complex128)
    pos = {lab: p for p, lab in enumerate(dst)}
    for j, lab in enumerate(src):
        for i in range(1, n + 1):
            hit = entry(i, lab)
            if hit is not None:
                M[pos[hit[1]], (i - 1) * len(src) + j] = hit[0]
    M.flags.writeable = False  # an OperatorSpec keeps it without a copy
    return M


def exterior_projection(n: int, k: int) -> np.ndarray:
    """Wedge insertion V* (x) Lambda^k -> Lambda^{k+1}; needs 0 <= k <= n-1."""
    if k < 0 or k > n - 1:
        raise BadDegree(f"exterior projection needs 0 <= k <= {n - 1}, got k={k}")
    return _insertion_map(n, exterior_power(n, k), exterior_power(n, k + 1), wedge_insert)


def interior_projection(n: int, k: int) -> np.ndarray:
    """Contraction V* (x) Lambda^k -> Lambda^{k-1}; needs 1 <= k <= n."""
    if k < 1 or k > n:
        raise BadDegree(f"interior projection needs 1 <= k <= {n}, got k={k}")
    return _insertion_map(n, exterior_power(n, k), exterior_power(n, k - 1), wedge_delete)


def symmetrization_projection(n: int, k: int) -> np.ndarray:
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


def contraction_projection(n: int, k: int) -> np.ndarray:
    """First-slot evaluation V* (x) S^k -> S^{k-1}; needs k >= 1.

    Column entry sqrt(mult_i(a) / k) at row a minus one copy of i.
    """
    if k < 1:
        raise BadDegree(f"contraction needs k >= 1, got k={k}")
    return _insertion_map(
        n, symmetric_power(n, k), symmetric_power(n, k - 1),
        lambda i, a: (sqrt(a.count(i) / k), multiset_remove(i, a)) if i in a else None)


def clifford_projection(n: int) -> np.ndarray:
    """Clifford action V* (x) S -> S, f (x) s -> c_f(s)."""
    return np.hstack(clifford_generators(n))


def twistor_projection(n: int) -> np.ndarray:
    """Orthogonal projection of V* (x) S onto the kernel of Clifford action.

    The projector is Pi = I - C* C / n, with exact entries, for the
    Clifford action C: Pi(v (x) s) = v (x) s + (1/n) sum_i e_i* (x) c_i c_v s.
    Its range is expressed in an orthonormal basis obtained by a
    deterministic Gram-Schmidt sweep over the projector columns, so the
    returned map is B* Pi = B* with codomain dimension (n-1) * dim S.
    Needs n >= 2 (for n = 1 the kernel is zero).
    """
    if n < 2:
        raise BadDegree(f"twistor projection needs n >= 2, got {n}")
    C = clifford_projection(n)
    dS = len(C)
    B = gram_schmidt_columns(np.eye(C.shape[1]) - C.conj().T @ C / n)
    if B.shape[1] != (n - 1) * dS:
        raise NotSurjective(
            f"twistor kernel basis came out rank {B.shape[1]}, expected {(n - 1) * dS}"
        )
    return B.conj().T


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


def _gram(m: np.ndarray, diagonal: bool):
    """(G, trace G) for G = m m*, or its diagonal alone, over the shared row blocks r:
    G[:, r] = m m[r]* or G[r] = diag(m[r] m[r]*), with one block's conjugate alive at a
    time, and on the catalog the one product's bits.  The trace is the complex sum of
    the diagonal, as np.trace takes it: the sum of its real part can round otherwise."""
    G = np.empty(len(m) if diagonal else (len(m), len(m)), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in _row_blocks(len(m), 2 * m.shape[1]):
            if diagonal:
                G[r] = np.diagonal(m[r] @ m[r].conj().T)
            else:
                G[:, r] = m @ m[r].conj().T
        return G, (G.sum() if diagonal else np.trace(G))


def conformity_report(P: np.ndarray, tol: float = DEFAULT_CONFORMITY_TOL) -> ProjectionReport:
    """Measure rho^2 = trace(P P*) / dim W and its relative residual.

    ValueError unless P is a 2-D complex128 matrix; otherwise never raises.  The
    certified flag records whether P is surjective and ||P P* - rho^2 I|| <= tol * rho^2
    in the spectral norm.
    """
    _check_map(P)
    m, dw = P, len(P)
    if dw == 0:
        # empty codomain: vacuously conformal, rho^2 is reported as 0
        return ProjectionReport(0.0, 0.0, True, True, tol)
    if not np.all(np.isfinite(m)):
        # a non-finite entry: no rho^2 or residual, and the SVD would not converge
        return ProjectionReport(nan, nan, False, False, tol)
    # columns with at most one nonzero entry each make m m* diagonal: only its
    # diagonal is formed, and the spectral norm of the shift is its largest modulus
    diagonal = np.count_nonzero(m, axis=0).max(initial=0) <= 1
    G, trace = _gram(m, diagonal)
    scale = 1.0
    finite = np.isfinite(trace) and np.all(np.isfinite(G))
    if not finite or (np.real(trace) < 1e-250 * dw and np.any(m)):
        # finite entries whose Gram or its trace overflows, or which underflows: measure
        # m over its largest real or imaginary part, and report rho^2 at full scale (inf
        # or 0 out of range)
        scale = float(np.max(np.abs(np.ascontiguousarray(m).view(float))))
        m = m / scale
        G, trace = _gram(m, diagonal)
    rho2 = float(np.real(trace)) / dw
    G.flat[::1 if diagonal else dw + 1] -= rho2   # G - rho^2 I in place
    residual = float(np.linalg.norm(G, np.inf if diagonal else 2)) / max(rho2, 1e-300)
    # every eigenvalue of G in rho^2 (1 +- 1/2) makes m onto, with a
    # singular-value ratio of at least 1/sqrt(3); otherwise test the rank
    surjective = rho2 > 1e-300 and residual < 0.5
    if not surjective and m.size:
        sv = np.linalg.svd(m, compute_uv=False)
        surjective = int(np.sum(sv > _SURJECTIVITY_CUTOFF * max(sv[0], 1e-300))) == dw
    certified = surjective and residual <= tol
    return ProjectionReport(rho2 * scale * scale, residual, surjective, certified, tol)


def conformity_factor(P: np.ndarray, tol: float = DEFAULT_CONFORMITY_TOL) -> ProjectionReport:
    """Certify P as a conformal projection or raise.

    Raises NotSurjective when rank(P) < dim W and NotConformal when the
    normalized residual of P P* - rho^2 I exceeds tol; both carry the
    measured residual.  ValueError as conformity_report.
    """
    rep = conformity_report(P, tol)
    if not rep.surjective:
        raise NotSurjective(
            f"rank deficiency: map onto {len(P)}-dim codomain is not onto",
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
    return str(x) if isinstance(x, Fraction) else float(x)


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


