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

A linear map is the matrix of its coefficients in orthonormal bases, so its adjoint is
the conjugate transpose; a map handed in (a projection to certify, the key lemma's C)
is 2-D complex128 or ValueError (_check_map).  Shared here as well: clifford_generators,
gram_schmidt_columns and the row-block rule of every batched loop (_row_blocks).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import nan, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadDegree, NotConformal, NotSurjective, _check_int
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

# every batched loop runs its m rows as equal blocks (_row_blocks) to keep its
# temporaries in cache; no block is short, as OpenBLAS sums a product of few rows in
# another order
_FORM_BLOCK = 1024


def _check_map(m) -> None:
    """ValueError unless m is the 2-D complex128 matrix of a linear map."""
    if not (isinstance(m, np.ndarray) and m.dtype == np.complex128 and m.ndim == 2):
        raise ValueError(f"a linear map needs a 2-D complex128 matrix, got "
                         f"{getattr(m, 'dtype', type(m).__name__)} of shape {np.shape(m)}")


def gram_schmidt_columns(M: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of M in order, skipping dependents.

    Deterministic modified Gram-Schmidt with one reorthogonalization
    pass; the drop threshold is 1e-10 times the largest column norm.
    Returns a matrix with orthonormal columns spanning the column space.
    """
    M = np.asarray(M, dtype=np.complex128)
    # no column of an empty or zero M clears the threshold
    scale = float(np.max(np.linalg.norm(M, axis=0), initial=0.0))
    basis = []
    for col in M.T:
        w = col.astype(np.complex128, copy=True)
        for _ in range(2):
            for b in basis:
                w = w - b * np.vdot(b, w)
        nw = np.linalg.norm(w)
        if nw > 1e-10 * scale:
            basis.append(w / nw)
    if not basis:
        return np.zeros((M.shape[0], 0), dtype=np.complex128)
    return np.column_stack(basis)


def _row_blocks(m: int, width: int):
    """Slices of m rows of `width` reals each into equal blocks, made lazily: at least
    one, and enough that a block has fewer than 2 _FORM_BLOCK rows and, unless it is
    one row, fewer than 2 _FORM_BLOCK * 100 entries (100 reals: the widest fiber-1 form
    row at n <= 5, whose blocks the row count alone sets).  Block sizes differ by at
    most one row: the first blocks take one row more."""
    nb = max(1, m // _FORM_BLOCK, min(m, m * width // (_FORM_BLOCK * 100)))
    size, longer = divmod(m, nb)
    for i in range(nb):
        lo = i * size + min(i, longer)
        yield slice(lo, lo + size + (i < longer))


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
    _check_int(BadDegree, "exterior projection needs", "k", k, 0, n - 1)
    return _insertion_map(n, exterior_power(n, k), exterior_power(n, k + 1), wedge_insert)


def interior_projection(n: int, k: int) -> np.ndarray:
    """Contraction V* (x) Lambda^k -> Lambda^{k-1}; needs 1 <= k <= n."""
    _check_int(BadDegree, "interior projection needs", "k", k, 1, n)
    return _insertion_map(n, exterior_power(n, k), exterior_power(n, k - 1), wedge_delete)


def symmetrization_projection(n: int, k: int) -> np.ndarray:
    """Symmetrized insertion V* (x) S^k -> S^{k+1}.

    In the normalized monomial bases each column carries the single
    entry sqrt((k+1) * mult_i(target)), the coefficient of projecting
    e_i* (x) s_a onto s_{sort(a+i)} inside the tensor power and scaling
    by the k+1 slot insertions.
    """
    _check_int(BadDegree, "symmetrization needs", "k", k, 0)

    def entry(i, a):
        b = multiset_insert(i, a)
        return sqrt((k + 1) * b.count(i)), b

    return _insertion_map(n, symmetric_power(n, k), symmetric_power(n, k + 1), entry)


def contraction_projection(n: int, k: int) -> np.ndarray:
    """First-slot evaluation V* (x) S^k -> S^{k-1}; needs k >= 1.

    Column entry sqrt(mult_i(a) / k) at row a minus one copy of i.
    """
    _check_int(BadDegree, "contraction needs", "k", k, 1)
    return _insertion_map(
        n, symmetric_power(n, k), symmetric_power(n, k - 1),
        lambda i, a: (sqrt(a.count(i) / k), multiset_remove(i, a)) if i in a else None)


_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def clifford_generators(n: int) -> list:
    """n anticommuting skew-adjoint unitary complex128 matrices of size 2^floor(n/2).

    For n directions we build n matrices c_1..c_n with

        c_i c_j + c_j c_i = -2 delta_ij * I,   c_i* = -c_i,   c_i unitary,

    acting on a fiber of dimension 2^floor(n/2), the minimal unitary choice.  Even n
    uses the iterated 2x2 tensor construction: generator pair (i sigma_x, i sigma_y) in
    each new factor, preceded by chirality (sigma_z) factors so distinct pairs
    anticommute.  Odd n appends z * c_1 ... c_{n-1} with z in {1, i} picked so the
    square is -I and the matrix stays skew-adjoint; for n = 1 the empty product leaves
    the 1x1 matrix (i).
    """
    _check_int(BadDegree, "clifford generators need", "n", n, 1)
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
    _check_int(BadDegree, "twistor projection needs", "n", n, 2)
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
