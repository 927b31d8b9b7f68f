"""Pointwise verification engine for the refined Kato inequalities.

The inequalities under test all share one skeleton.  A gradient
surrogate u (or v) sits in V* (x) fiber, a section value phi fixes the
distinguished covector xi0 through the pairing b_i = Re<u_i, phi>, and
the claim is

    |u|^2 + c |P(u)|^2  >=  (1 + gain) * |d|phi||^2

with the gain depending on the operator constants (rho^2, epsilon),
on the interpolation weight c, and on whether P(u) vanishes.  The Hodge
variant carries two weights (c, c_star) for the wedge and contraction
parts and takes the minimum of the two gains.

Every gain is the two-component lemma's g(c, a): 1/a on the vanishing
branch, c / (1 + a c) otherwise.  The operator gain is
epsilon * g(c, rho^2 - epsilon) and the two form gains are g(c, k) and
g(c_star, n - k).  kato_gain_lemma evaluates g exactly (the Fraction
reference, with kato_gain_operator and hodge_gain_pair as thin
wrappers); batch_lemma_gain evaluates it vectorized and is the only
float version.

The arithmetic of each inequality lives in one batch kernel
(batch_operator_margins, batch_hodge_margins, and the key-lemma
kernel).  A single-shot check validates its input, runs its kernel on
one row and wraps that row in a KatoVerdict; the fuzzers run the same
kernels over random row chunks through one driver.

The form kernel is matrix multiplies on real views, where (fiber,
re/im) acts as a real fiber of size 2 fiber.  One product against the
cached [eps; iota] gives the images eta+ = eps V and eta- = iota V, and
along the unit covector xi the corollary's three norms are closed forms
in them: |eps(v12 + v21)|^2 = |iota_xi eta+|^2, |iota(v11 + v22)|^2 =
|xi ^ eta-|^2 and |v11|^2 + |v12|^2 = |xi . V|^2, for the blocks of the
explicit split four_block_decompose.  A map along xi is one product of
the xi rows with a direction table, then one batched matmul.  The
diagnostics check the identities behind the closed forms on both
images: Pythagoras |iota_xi eta|^2 + |xi ^ eta|^2 = |eta|^2,
annihilation iota_xi iota_xi = 0 and xi ^ xi ^ = 0, and dominance of the
parts by the full images.  A row with a non-finite margin, side or
scale fails; the kernels run under np.errstate, so overflow is a failure.

Infinite gains are represented by math.inf (the extended reals): they
occur exactly when rho^2 = epsilon on the vanishing branch, and force
rhs = 0 through a zero pairing, which is itself checked.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BadConstants, BadDegree, NotUnit, ZeroOperator, ZeroSection
from .linmap import LinearMap, _row_blocks
from .projections import (
    conformity_factor,
    exterior_projection,
    interior_projection,
    line_image_basis,
)
from .spaces import exterior_power, fiber_space
from .symbols import OperatorSpec, ellipticity_constant, unit_covector

INF = math.inf

BRANCH_NORM_FACTOR = 1e-10    # ||P(u)|| <= this * ||u|| picks the vanishing branch
MARGIN_TOL_FACTOR = 1e-9      # margins below -this * scale count as violations
_PAIRING_ZERO_FACTOR = 1e-20  # |d|phi||^2 at or below this * scale is treated as 0
# the fuzzers draw free weights as _C_MAX * U^3, U uniform on [0, 1)
_C_MAX = 1e3
# rows each fuzzer draws and checks at a time, per theorem
_DRAW_CHUNK = {"foldo": 20000, "hodge": 10000, "key-lemma": 20000}


# ---------------------------------------------------------------------------
# gain formulas


def _exactify(x):
    # ints ride along as Fractions so declared constants stay exact
    return Fraction(x) if isinstance(x, int) else x


def _check_weights(c) -> None:
    w = np.asarray(c, dtype=float)
    ok = np.isfinite(w) & (w >= 0)
    if not np.all(ok):
        bad = np.ravel(w)[~np.ravel(ok)][0]
        raise BadConstants(f"interpolation weight must be finite and >= 0, got {bad}")


def _check_bound(bound) -> None:
    if bound < 0:
        raise BadConstants(f"spectral bound must be >= 0, got {bound}")


def kato_gain_lemma(c, bound, vanishing: bool):
    """Interpolation gain of the two-component lemma.

    bound is an upper bound for the spectrum of the restricted map
    C C* on the second component.  Vanishing branch: 1/bound (inf when
    bound is 0); otherwise c / (1 + bound * c).  Exact for Fraction or
    int inputs.
    """
    c, bound = _exactify(c), _exactify(bound)
    _check_weights(c)
    _check_bound(bound)
    if vanishing:
        return INF if bound == 0 else 1 / bound
    return c / (1 + bound * c)


def kato_gain_operator(c, rho_squared, epsilon, vanishing: bool):
    """Gain for a conformal injectively elliptic operator.

    epsilon * kato_gain_lemma(c, rho^2 - epsilon): epsilon / (rho^2 -
    epsilon) on the vanishing branch, infinite when the two constants
    coincide, and epsilon c / (1 + (rho^2 - epsilon) c) otherwise.
    """
    rho_squared, epsilon = _exactify(rho_squared), _exactify(epsilon)
    if epsilon <= 0:
        raise BadConstants(f"epsilon must be positive, got {epsilon}")
    if epsilon > rho_squared:
        raise BadConstants(f"epsilon {epsilon} exceeds rho^2 {rho_squared}")
    return epsilon * kato_gain_lemma(c, rho_squared - epsilon, vanishing)


@dataclass(frozen=True)
class HodgeGains:
    d_gain: object
    dstar_gain: object
    overall: object


def hodge_gain_pair(c, c_star, n: int, k: int,
                    d_vanishing: bool, dstar_vanishing: bool) -> HodgeGains:
    """Pair of gains for degree-k forms in dimension n.

    Wedge side: kato_gain_lemma(c, k), that is 1/k when the derivative
    part vanishes, else c/(1+kc).  Contraction side:
    kato_gain_lemma(c_star, n - k).  The inequality uses the minimum.
    Degrees 0 and n are rejected: there is nothing two-sided to verify.
    """
    if k < 1 or k > n - 1:
        raise BadDegree(f"hodge gains need 1 <= k <= {n - 1}, got k={k}")
    gd = kato_gain_lemma(c, k, d_vanishing)
    gs = kato_gain_lemma(c_star, n - k, dstar_vanishing)
    return HodgeGains(gd, gs, min(gd, gs))


@np.errstate(over="ignore", invalid="ignore")
def batch_lemma_gain(c, bound, vanishing, weight=1.0):
    """Vectorized weight * kato_gain_lemma(c, bound, vanishing).

    c is a scalar or per-row array, bound a scalar, vanishing a bool or
    per-row mask.  The weight enters the numerators (weight/bound and
    weight*c / (1 + bound*c)), which is where the operator inequality
    puts epsilon.  Raises BadConstants for negative or non-finite
    weights and for a negative bound.
    """
    c = np.asarray(c, dtype=float)
    _check_weights(c)
    _check_bound(bound)
    cap = INF if bound == 0 else weight / bound
    bc = bound * c
    # where bound*c overflows, the gain is its limit weight/bound
    return np.where(vanishing | np.isinf(bc), cap, weight * c / (1.0 + bc))


def operator_constants(op: OperatorSpec):
    """(rho^2, epsilon) as floats, measured when not declared."""
    rho = op.rho_squared
    eps = op.epsilon
    if rho is None:
        rho = conformity_factor(op.full_symbol).rho_squared
    if eps is None:
        eps = ellipticity_constant(op).epsilon
    return float(rho), float(eps)


# ---------------------------------------------------------------------------
# decompositions along a covector


def _check_unit(xi0: np.ndarray) -> np.ndarray:
    xi0 = np.asarray(xi0, dtype=float)
    if abs(float(np.linalg.norm(xi0)) - 1.0) > 1e-12:
        raise NotUnit("direction covector must be unit length")
    return xi0


@dataclass(frozen=True)
class FourBlockSplit:
    """Blocks of v in V* (x) Lambda^k (x) E along line/perp and form split.

    v11: line covector slot, form containing xi0
    v12: line covector slot, form inside the perp hyperplane
    v21: perp covector slot, form containing xi0
    v22: perp covector slot, form inside the perp hyperplane
    """

    v11: np.ndarray
    v12: np.ndarray
    v21: np.ndarray
    v22: np.ndarray
    xi0: np.ndarray

    def parts(self):
        return (self.v11, self.v12, self.v21, self.v22)


@functools.lru_cache(maxsize=None)
def _direction_table(n: int, j: int, up: bool) -> np.ndarray:
    """Read-only table T (n, dst, src) on Lambda^j: T[i] is the wedge with e_i* (up) or
    the contraction by it, from the projection's direction-major columns; no dst rows
    where the target degree leaves 0..n."""
    if not 0 <= (j + 1 if up else j - 1) <= n:
        return np.zeros((n, 0, math.comb(n, j)))
    P = (exterior_projection if up else interior_projection)(n, j).matrix.real
    T = np.ascontiguousarray(P.reshape(len(P), n, -1).transpose(1, 0, 2))
    T.flags.writeable = False
    return T


def _form_degree(n: int, k: int) -> int:
    """C(n, k) for a degree of the two-sided inequality, 1 <= k <= n-1; else BadDegree."""
    if k < 1 or k > n - 1:
        raise BadDegree(f"form split needs 1 <= k <= {n - 1}, got k={k}")
    return math.comb(n, k)


@functools.lru_cache(maxsize=None)
def _form_map(n: int, j: int, fiber_dim: int, up: bool) -> np.ndarray:
    """Read-only wedge (up) or contraction on flattened V* (x) Lambda^j (x) E, columns
    direction-major as in a gradient, from _direction_table: no rows where the target
    degree leaves 0..n."""
    T = _direction_table(n, j, up)
    _, dst, src = T.shape
    # widths are spelled out: a -1 cannot be resolved for an empty table
    M = np.kron(T.transpose(1, 0, 2).reshape(dst, n * src), np.eye(fiber_dim))
    M.flags.writeable = False
    return M


def _form_maps(n: int, k: int, fiber_dim: int):
    """(wedge, contraction) of a degree of the two-sided inequality; BadDegree or
    ValueError before a map is built."""
    _form_degree(n, k)
    if fiber_dim < 1:
        raise ValueError(f"fiber dimension must be >= 1, got {fiber_dim}")
    return _form_map(n, k, fiber_dim, True), _form_map(n, k, fiber_dim, False)


@functools.lru_cache(maxsize=None)
def _form_images(n: int, k: int, fiber_dim: int) -> np.ndarray:
    """[wedge; contraction] transposed: rows times it give both images at once."""
    return np.ascontiguousarray(np.vstack(_form_maps(n, k, fiber_dim)).T)


def _along(n: int, j: int, up: bool, xi: np.ndarray, img: np.ndarray) -> np.ndarray:
    """Image rows (m, src, fiber) mapped by sum_i xi_i T[i], T = _direction_table(n, j, up):
    no dst rows, so zero, where the target degree leaves 0..n."""
    T = _direction_table(n, j, up)
    _, dst, src = T.shape
    return np.matmul((xi @ T.reshape(n, dst * src)).reshape(len(xi), dst, src), img)


def four_block_decompose(v: np.ndarray, xi0, n: int, k: int,
                         fiber_dim: int = 1) -> FourBlockSplit:
    """Split v along the covector line and the xi0-content of the form slot.

    The covector slot splits into the xi0 line and its complement, the
    form slot into the image of the projector Q = eps(xi0) iota(xi0)
    (forms containing xi0) and the rest.  The four blocks are mutually
    orthogonal and their squared norms add up to |v|^2.  This is the
    explicit split behind the closed forms of batch_hodge_margins.
    """
    xi0 = _check_unit(xi0)
    dim_k = _form_degree(n, k)
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if v.shape != (n * dim_k * fiber_dim,):
        raise ValueError("vector length does not match n * C(n,k) * fiber_dim")
    V = v.reshape(n, dim_k, fiber_dim)
    Q = (np.tensordot(xi0, _direction_table(n, k - 1, True), 1)
         @ np.tensordot(xi0, _direction_table(n, k, False), 1))
    QV, w = np.matmul(Q, V), np.tensordot(xi0, V, 1)
    v11 = np.multiply.outer(xi0, Q @ w)
    v12 = np.multiply.outer(xi0, w) - v11
    return FourBlockSplit(*(b.reshape(-1) for b in (v11, v12, QV - v11, V - QV - v12)), xi0)


# ---------------------------------------------------------------------------
# spectral bounds of the restricted components (the structural lemma)


@dataclass(frozen=True)
class SpectralBounds:
    min_line_eigenvalue: float
    max_perp_eigenvalue: float
    epsilon: float
    rho_squared: float
    tolerance: float

    @property
    def satisfied(self) -> bool:
        return (self.min_line_eigenvalue >= self.epsilon - self.tolerance
                and self.max_perp_eigenvalue <= self.rho_squared - self.epsilon
                + self.tolerance)


def verify_spectral_bounds(op: OperatorSpec, xi0,
                           tol: float = MARGIN_TOL_FACTOR) -> SpectralBounds:
    """Eigenvalue bounds of the component of P along the image of the line.

    With F1 = P(span(xi0) (x) E) and P1 the F1-component of P, the
    restriction of P1 to the line part has spectrum >= epsilon and the
    restriction to the perpendicular part has spectrum <= rho^2 - epsilon.
    """
    xi0 = _check_unit(xi0)
    n, dE = op.base_dim, op.domain_fiber.dim
    rho2, eps = operator_constants(op)
    F1 = line_image_basis(op.full_symbol, xi0, dE)
    P1 = F1.conj().T @ op.full_symbol.matrix
    # T is P1 on the line part; the perp Gram is P1 P1* - T T*, since any
    # orthonormal frame of covectors completes xi0
    T = np.tensordot(P1.reshape(-1, n, dE), xi0, axes=([1], [0]))
    tt = T @ T.conj().T
    hh = P1 @ P1.conj().T - tt
    min_line = float(np.linalg.eigvalsh(tt)[0]) if tt.size else 0.0
    max_perp = float(np.linalg.eigvalsh(hh)[-1]) if hh.size else 0.0
    return SpectralBounds(min_line, max_perp, eps, rho2, tol)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class KatoVerdict:
    """One pointwise inequality evaluation."""

    theorem: str                  # "foldo" or "hodge"
    branch: str                   # "vanishing" or "nonvanishing"
    c: float
    c_star: float | None
    lhs: float
    rhs: float
    margin: float
    gain: float
    scale: float
    corollary_margin: float | None   # the form corollary's margin and scale, or None
    corollary_scale: float | None

    @property
    def passed(self) -> bool:
        """The fuzzers' pass rule, failing_rows, on this one row."""
        row = {"margin": self.margin, "lhs": self.lhs, "rhs": self.rhs, "full_scale": self.scale,
               "margin_cor": self.corollary_margin, "cor_scale": self.corollary_scale}
        return not failing_rows({key: np.array([float(x)]) for key, x in row.items()
                                 if x is not None}, MARGIN_TOL_FACTOR)[0]

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if self.corollary_margin is None:
            del out["corollary_margin"], out["corollary_scale"]
        out["passed"] = self.passed
        return {k: json_number(v) for k, v in out.items()}


def json_number(x):
    """x as standard JSON holds it: a non-finite float becomes "inf", "-inf" or "nan"."""
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return x


def _row(x) -> np.ndarray:
    return np.asarray(x, dtype=np.complex128)[None, :]


def _section_row(phi) -> np.ndarray:
    phi = _row(phi)
    if float(np.linalg.norm(phi)) <= 1e-12:
        raise ZeroSection("inequality undefined where the section vanishes")
    return phi


def _row_verdict(theorem: str, out: dict, c, c_star) -> KatoVerdict:
    """Row 0 of a kernel output as a KatoVerdict."""
    return KatoVerdict(
        theorem, "vanishing" if out["vanishing"][0] else "nonvanishing",
        float(c), None if c_star is None else float(c_star),
        *(float(out[key][0]) for key in ("lhs", "rhs", "margin", "gain", "full_scale")),
        *(float(out[key][0]) if key in out else None for key in ("margin_cor", "cor_scale")))


def _branch(forced, norm_sq: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Forced branch flags broadcast to the rows, or detected from a squared norm
    against the rows' squared norms, scale: |P u| <= BRANCH_NORM_FACTOR |u|."""
    if forced is None:
        return norm_sq <= BRANCH_NORM_FACTOR ** 2 * scale
    return np.full(scale.shape, forced, dtype=bool)


def _sq(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row, over all trailing axes."""
    return np.sum(np.abs(x) ** 2, axis=tuple(range(1, x.ndim)))


def _rsq(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a real array, over all trailing axes."""
    x = x.reshape(len(x), math.prod(x.shape[1:]))
    return np.einsum("ij,ij->i", x, x)


# ---------------------------------------------------------------------------
# the two-component key lemma


def _restricted_gram(C: LinearMap, sub_basis: np.ndarray):
    """C on the component spanned by the orthonormal columns of sub_basis
    (ValueError beyond 1e-10), its Gram C C* there, and the Gram's top
    eigenvalue (0 when empty)."""
    drift = sub_basis.conj().T @ sub_basis - np.eye(sub_basis.shape[1])
    if not np.max(np.abs(drift), initial=0.0) <= 1e-10:
        raise ValueError("sub_basis columns must be orthonormal within 1e-10")
    Chat = C.matrix @ sub_basis
    G = Chat @ Chat.conj().T
    return Chat, G, float(np.linalg.eigvalsh(G)[-1]) if G.size else 0.0


def _real_form(M: np.ndarray) -> np.ndarray:
    """M for _apply: its real part when M is real, else its 2x real block form."""
    return M.real.copy() if not np.any(M.imag) else np.block([[M.real, M.imag], [-M.imag, M.real]])


def _apply(h: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Complex rows x times a complex matrix, on real halves: h (2, m, d) holds Re x
    and Im x, M is the matrix's _real_form, and the product comes back as halves."""
    if len(M) == h.shape[2]:
        return h @ M
    w = np.matmul(h, M.reshape(2, h.shape[2], -1)).sum(axis=0)  # the rows [Re | Im]
    return w.reshape(len(w), 2, -1).transpose(1, 0, 2)


@np.errstate(over="ignore", invalid="ignore")
def _key_lemma_margins(a: float, maps: tuple, u1: np.ndarray, u2: np.ndarray, c,
                       forced: int = 0) -> dict:
    """Row margins of |u2|^2 + c |C u1 + C2 u2|^2 >= gain * |C u1|^2 on real halves (2, m, d)
    of complex rows.  maps holds the _real_form of C^T, C2^T (C2 u2 = C u2, and C2 keeps
    |u2|) and pinv(C)^T, which fixes u1 in place on the first forced rows so that
    C u1 + C2 u2 = 0.  Fix, images and four squared norms run in row blocks (_row_blocks)."""
    CT, C2T, pinvT = maps
    norms = np.empty((4, u1.shape[1]))  # |C u1|^2, |C u1 + C2 u2|^2, |u1|^2, |u2|^2
    for r in _row_blocks(u1.shape[1], 2 * (u1.shape[2] + u2.shape[2])):
        x1, x2 = u1[:, r], u2[:, r]
        Cu1, Cu2 = _apply(x1, CT), _apply(x2, C2T)
        if forced > r.start:
            f = slice(forced - r.start)  # the forced rows of this block
            x1[:, f] -= _apply(Cu1[:, f] + Cu2[:, f], pinvT)
            Cu1[:, f] = _apply(x1[:, f], CT)
        Cu2 += Cu1
        for x, sq in zip((Cu1, Cu2, x1, x2), norms[:, r]):
            x = x.transpose(1, 0, 2)  # rows outermost: the faster einsum loop
            np.einsum("ihj,ihj->i", x, x, out=sq)
    first_sq, tot_sq, u1_sq, u2_sq = norms
    scale = u1_sq + u2_sq
    vanishing = _branch(None, tot_sq, scale)
    gain = batch_lemma_gain(c, a, vanishing)
    lhs = u2_sq + c * tot_sq
    rhs = gain * first_sq
    if a == 0:
        rhs = np.where(vanishing & (first_sq <= _PAIRING_ZERO_FACTOR * scale), 0.0, rhs)
    return {"margin": lhs - rhs, "lhs": lhs, "rhs": rhs, "full_scale": scale,
            "vanishing": vanishing, "gain": gain}


def check_key_lemma(C: LinearMap, sub_basis: np.ndarray, u1: np.ndarray,
                    u2: np.ndarray, c: float) -> KatoVerdict:
    """|u2|^2 + c |C(u1+u2)|^2 >= gain * |C(u1)|^2 with the branch gain.

    sub_basis holds orthonormal columns spanning the component that u2
    lives in (ValueError otherwise, or for u2 off it by > 1e-10 |u2|); the
    spectral bound is the top eigenvalue of C C* on that component.
    """
    a = _restricted_gram(C, sub_basis)[2]
    u1, u2 = _row(u1), _row(u2)
    if np.linalg.norm(u2 - u2 @ sub_basis.conj() @ sub_basis.T) > 1e-10 * np.linalg.norm(u2):
        raise ValueError("u2 must lie in the span of sub_basis within 1e-10 |u2|")
    CT, (x1, x2) = _real_form(C.matrix.T), (np.stack([x.real, x.imag]) for x in (u1, u2))
    out = _key_lemma_margins(a, (CT, CT, None), x1, x2, c)
    return _row_verdict("key-lemma", out, c, None)


def equality_witness(C: LinearMap, sub_basis: np.ndarray):
    """Second-component vector saturating the spectral bound.

    Returns (u2, ratio) with u2 the pullback C* y of a top eigenvector y
    of the restricted C C*, normalized, and ratio = |C(u2)|^2 / |u2|^2
    which equals the top eigenvalue up to rounding.  Raises ZeroOperator
    when the restriction is (numerically) zero.
    """
    Chat, G, top = _restricted_gram(C, sub_basis)
    if top <= 1e-12:
        raise ZeroOperator("restricted map is zero; no equality witness exists")
    y = np.linalg.eigh(G)[1][:, -1]
    u2 = sub_basis @ (Chat.conj().T @ y)
    u2 = u2 / np.linalg.norm(u2)
    return u2, float(np.linalg.norm(C.apply(u2)) ** 2)


def matching_first_component(C: LinearMap, u2: np.ndarray) -> np.ndarray:
    """u1 with C(u1) = -C(u2), making the total image vanish exactly."""
    target = -C.apply(u2)
    u1, *_ = np.linalg.lstsq(C.matrix, target, rcond=None)
    return u1


# ---------------------------------------------------------------------------
# the two theorems: batch kernels and their one-row checks


@np.errstate(over="ignore", invalid="ignore")
def batch_operator_margins(op: OperatorSpec, u: np.ndarray, phi: np.ndarray, c) -> dict:
    """Vectorized operator-inequality margins for row batches.

    u has one gradient surrogate per row, phi one section value; c is a
    scalar or per-row array.  Returns the per-row margin, lhs, rhs,
    full_scale (lhs plus the finite rhs), vanishing mask and gain.  Squared
    norms run in row blocks (_row_blocks); margins once over the batch.
    """
    n, dE = op.base_dim, op.domain_fiber.dim
    rho2, eps = operator_constants(op)
    m = len(u)
    if len(phi) != m:
        raise ValueError(f"{m} gradient rows but {len(phi)} section rows")
    norms = np.empty((3, m))  # |P u|^2, |u|^2, |d|phi||^2
    for r in _row_blocks(m, 2 * u.shape[1]):
        x, y = u[r], phi[r]
        b = np.real(np.einsum("nie,ne->ni", x.reshape(len(x), n, dE), y.conj()))
        norms[:, r] = (_sq(x @ op.full_symbol.matrix.T), _sq(x),
                       np.sum(b ** 2, axis=1) / _sq(y))
    pu_sq, scale, dnorm_sq = norms
    vanishing = _branch(None, pu_sq, scale)
    gain = batch_lemma_gain(c, rho2 - eps, vanishing, weight=eps)
    lhs = scale + np.asarray(c, dtype=float) * pu_sq
    rhs = (1.0 + gain) * dnorm_sq
    if math.isinf(batch_lemma_gain(0.0, rho2 - eps, True, weight=eps)):
        rhs = np.where(vanishing & (dnorm_sq <= _PAIRING_ZERO_FACTOR * scale), 0.0, rhs)
    return {"margin": lhs - rhs, "lhs": lhs, "rhs": rhs,
            "full_scale": lhs + np.where(np.isinf(rhs), 0.0, rhs),
            "vanishing": vanishing, "gain": gain}


def check_operator_inequality(op: OperatorSpec, u: np.ndarray, phi: np.ndarray,
                              c: float) -> KatoVerdict:
    """Pointwise refined Kato inequality of a first-order operator.

    u plays the full gradient of phi at one point, P(u) the operator
    value; the right side uses the norm-gradient surrogate built from
    the pairing of u against phi.  One row of batch_operator_margins.
    """
    out = batch_operator_margins(op, _row(u), _section_row(phi), c)
    return _row_verdict("foldo", out, c, None)


@np.errstate(over="ignore", invalid="ignore")
def batch_hodge_margins(n: int, k: int, fiber_dim: int, v: np.ndarray, phi: np.ndarray,
                        c, c_star, d_vanishing=None, dstar_vanishing=None,
                        diagnostics: bool = False) -> dict:
    """Vectorized two-sided form-inequality margins for row batches.

    Checks the final inequality and the intermediate block form, whose
    right side is |v11|^2 + |v12|^2 for the blocks along xi0 = b/|b|
    (e_1* where the pairing b vanishes).  A certificate on the full
    symbol also certifies the block form, since the block restrictions
    are dominated by the full symbols.  With diagnostics=True also
    returns the worst residuals of the identities behind the closed
    forms (Pythagoras, the two annihilation laws, that dominance).  Squared
    norms run in row blocks (_row_blocks); margins once over the batch.
    """
    m = len(v)
    if len(phi) != m:
        raise ValueError(f"{m} gradient rows but {len(phi)} section rows")
    norms, worst = np.empty((7, m)), {}
    # the cached maps check n, k and the fiber before any reshape of v or phi
    for r in _row_blocks(m, 2 * _form_maps(n, k, fiber_dim)[0].shape[1]):
        norms[:, r], residuals = _hodge_block(n, k, fiber_dim, v[r], phi[r], diagnostics)
        for key, x in residuals.items():
            # the worst residual over all rows: np.maximum, unlike max, keeps a NaN
            worst[key] = np.maximum(worst.get(key, -INF), np.max(x) if m else 0.0)
    scale, eps_sq, iota_sq, dnorm_sq, line_sq, eps_part_sq, iota_part_sq = norms
    dvan = _branch(d_vanishing, eps_sq, scale)
    svan = _branch(dstar_vanishing, iota_sq, scale)
    c, cs = np.asarray(c, dtype=float), np.asarray(c_star, dtype=float)
    gmin = np.minimum(batch_lemma_gain(c, k, dvan),
                      batch_lemma_gain(cs, n - k, svan))
    lhs = scale + c * eps_sq + cs * iota_sq
    rhs = (1.0 + gmin) * dnorm_sq
    dvc = _branch(None, eps_part_sq, scale) | dvan
    dsc = _branch(None, iota_part_sq, scale) | svan
    lhs_cor = scale + c * eps_part_sq + cs * iota_part_sq
    rhs_cor = (1.0 + np.minimum(batch_lemma_gain(c, k, dvc),
                                batch_lemma_gain(cs, n - k, dsc))) * line_sq
    return {
        "margin": lhs - rhs, "lhs": lhs, "rhs": rhs,
        "full_scale": lhs + rhs, "margin_cor": lhs_cor - rhs_cor,
        "cor_scale": lhs_cor + rhs_cor, "d_vanishing": dvan,
        "dstar_vanishing": svan, "vanishing": dvan & svan, "gain": gmin,
        **{key: float(x) for key, x in worst.items()},
    }


def _hodge_block(n: int, k: int, fiber_dim: int, v: np.ndarray, phi: np.ndarray,
                 diagnostics: bool) -> tuple:
    """The per-row squared norms batch_hodge_margins reads, on one block of rows, in
    closed form: |V|^2, |eta+|^2, |eta-|^2, |d|phi||^2, |xi . V|^2, |iota_xi eta+|^2 and
    |xi ^ eta-|^2; and a dict of per-row residuals, empty without diagnostics."""
    m, dim_k = v.shape[0], math.comb(n, k)
    # real views: (fiber, re/im) is a real fiber of size 2 fiber_dim
    f2 = 2 * fiber_dim  # widths are spelled out: a -1 cannot be resolved for 0 rows
    V = np.ascontiguousarray(v, dtype=np.complex128).view(float).reshape(m, n, dim_k * f2)
    Phi = np.ascontiguousarray(phi, dtype=np.complex128).view(float).reshape(m, dim_k * f2)
    img = V.reshape(m, n * dim_k * f2) @ _form_images(n, k, f2)
    up, dn = (x.reshape(m, x.shape[1] // f2, f2)
              for x in np.hsplit(img, [math.comb(n, k + 1) * f2]))
    scale, eps_sq, iota_sq = _rsq(V), _rsq(up), _rsq(dn)
    b = np.einsum("nix,nx->ni", V, Phi)
    bnorm = np.linalg.norm(b, axis=1)
    dnorm_sq = bnorm ** 2 / _rsq(Phi)
    xi = np.where((bnorm > 1e-14)[:, None],
                  b / np.maximum(bnorm, 1e-300)[:, None], unit_covector(n))
    line_sq = _rsq(np.einsum("ni,nix->nx", xi, V))
    cut, fill = _along(n, k + 1, False, xi, up), _along(n, k - 1, True, xi, dn)
    eps_part_sq, iota_part_sq = _rsq(cut), _rsq(fill)
    residuals = {}
    if diagnostics:
        safe = np.maximum(scale, 1e-300)
        # |iota_xi eta|^2 + |xi ^ eta|^2 = |eta|^2 for both images
        residuals["pythagoras_residual"] = np.maximum(
            np.abs(eps_part_sq + _rsq(_along(n, k + 1, True, xi, up)) - eps_sq),
            np.abs(_rsq(_along(n, k - 1, False, xi, dn)) + iota_part_sq - iota_sq)) / safe
        residuals["block_identity_residual"] = np.sqrt(np.maximum(
            _rsq(_along(n, k, False, xi, cut)), _rsq(_along(n, k, True, xi, fill))) / safe)
        residuals["dominance_residual"] = np.maximum(
            eps_part_sq - eps_sq, iota_part_sq - iota_sq) / safe
    return (scale, eps_sq, iota_sq, dnorm_sq, line_sq, eps_part_sq, iota_part_sq), residuals


def check_hodge_inequality(v: np.ndarray, phi: np.ndarray, n: int, k: int,
                           fiber_dim: int = 1, c: float = 1.0,
                           c_star: float = 1.0,
                           d_vanishing: bool | None = None,
                           dstar_vanishing: bool | None = None) -> KatoVerdict:
    """Two-sided refined Kato inequality for degree-k form coefficients.

    Checks the final inequality (gradient + weighted wedge/contraction
    terms against the norm-gradient surrogate) and, through the
    corollary_margin field, the intermediate block inequality with
    |v11|^2 + |v12|^2 on the right.  Branch flags can be forced by
    callers holding exact closedness certificates; by default they are
    detected from the wedge/contraction norms.  One row of
    batch_hodge_margins.
    """
    out = batch_hodge_margins(n, k, fiber_dim, _row(v), _section_row(phi),
                              c, c_star, d_vanishing, dstar_vanishing)
    return _row_verdict("hodge", out, c, c_star)


# ---------------------------------------------------------------------------
# vectorized fuzzing


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz batch."""

    theorem: str
    operator: str
    samples: int
    violations: int
    min_margin: float
    min_relative_margin: float
    tolerance_factor: float
    seed: int
    c_range: tuple
    branch_counts: dict
    extras: dict = field(default_factory=dict)
    nonfinite: int = 0   # rows with a non-finite number, counted as violations too

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json_dict(self) -> dict:
        return report_json(self)


def report_json(report) -> dict:
    """A report dataclass as standard JSON values.

    Every field, passed, and the extras flattened in; nonfinite only
    when nonzero, and non-finite floats as strings.
    """
    out = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
           if f.name not in ("extras", "nonfinite")}
    out.update(passed=report.passed, **report.extras)
    if report.nonfinite:
        out["nonfinite"] = report.nonfinite
    return {k: json_number(list(v) if isinstance(v, tuple) else v) for k, v in out.items()}


def _weights(rng, count: int, fixed: float | None = None) -> np.ndarray:
    if fixed is not None:
        return np.full(count, fixed, dtype=float)
    # cubic bias toward small weights plus a slice of exact zeros;
    # both regimes of the interpolation matter
    c = _C_MAX * rng.random(count) ** 3
    c[: max(1, count // 64)] = 0.0
    return c


def _weight_range(fixed: float | None) -> tuple:
    """The range of a fuzzed weight: the drawn [0, _C_MAX], or the fixed value."""
    return (0.0, _C_MAX) if fixed is None else (fixed, fixed)


def _complex_rows(rng, count: int, dim: int) -> np.ndarray:
    """count standard complex normal rows: all real parts row-major, then all imaginary
    parts, drawn a row block (_row_blocks) at a time into one block-sized buffer."""
    z = np.empty((count, dim), dtype=complex)
    # the first block is the longest
    buf = np.empty((next(_row_blocks(count, 2 * dim)).stop, dim))
    for half in (z.real, z.imag):
        for r in _row_blocks(count, 2 * dim):
            half[r] = rng.standard_normal(out=buf[:r.stop - r.start])
    return z


def _redraw_in_kernels(rng, rows: np.ndarray, nulls, fraction: float) -> None:
    """Redraw consecutive slices of int(fraction * len(rows)) rows, the i-th inside
    the span of the columns of nulls[i], in place; a zero kernel keeps its slice."""
    nk = int(fraction * len(rows))
    for i, null in enumerate(nulls):
        if nk and null.shape[1]:
            np.matmul(_complex_rows(rng, nk, null.shape[1]), null.T,
                      out=rows[i * nk:(i + 1) * nk])


def _null_space(M: np.ndarray) -> np.ndarray:
    u, s, vh = np.linalg.svd(M)
    top = s[0] if s.size else 0.0
    rank = int(np.sum(s > 1e-12 * max(top, 1e-300)))
    return vh[rank:].conj().T


def nonfinite_rows(out: dict) -> np.ndarray:
    """Rows of a kernel output with a non-finite margin, side or scale."""
    bad = np.zeros(np.shape(out["margin"]), dtype=bool)
    for key in ("margin", "lhs", "rhs", "full_scale", "margin_cor", "cor_scale"):
        if key in out:
            bad |= ~np.isfinite(out[key])
    return bad


def failing_rows(out: dict, tol_factor: float) -> np.ndarray:
    """The one pass rule, per row of a kernel output: a row fails when a margin, side
    or scale is not finite, when its margin drops below -tol_factor * full_scale, or its
    corollary margin, where there is one, below -tol_factor * cor_scale."""
    # written so that a NaN margin fails too
    bad = nonfinite_rows(out) | ~(out["margin"] >= -tol_factor * out["full_scale"])
    if "margin_cor" in out:
        bad |= ~(out["margin_cor"] >= -tol_factor * out["cor_scale"])
    return bad


def finite_minima(margin: np.ndarray, scale: np.ndarray, ok: np.ndarray):
    """(min margin, min margin/scale) over the rows in ok; inf when there are none."""
    with np.errstate(over="ignore", invalid="ignore"):
        rel = margin / np.maximum(scale, 1e-300)
    return (float(np.min(margin, where=ok, initial=INF)),
            float(np.min(rel, where=ok, initial=INF)))


def _fuzz(theorem: str, label: str, samples: int, seed: int, c_range: tuple,
          sample, kernel):
    """The fuzz loop shared by every fuzzer.

    Each chunk draws up to _DRAW_CHUNK[theorem] rows with sample(rng, m)
    and checks them with kernel(*rows).  The kernel output carries
    "margin" and "full_scale" (plus "margin_cor"/"cor_scale" for a second
    inequality on the same rows) and a "vanishing" branch mask.  The extras
    get min_margin_corollary, the least margin_cor, and each scalar
    "*_residual" of the output at its worst over the chunks.
    """
    if samples < 1:
        raise ValueError(f"fuzzing needs samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    done = violations = nonfinite = 0
    min_margin = min_rel = INF
    branches = {"vanishing": 0, "nonvanishing": 0}
    worst = {}
    while done < samples:
        m = min(_DRAW_CHUNK[theorem], samples - done)
        out = kernel(*sample(rng, m))
        odd, bad = nonfinite_rows(out), failing_rows(out, MARGIN_TOL_FACTOR)
        if "margin_cor" in out:
            # np.minimum and np.maximum, unlike min and max, keep a NaN
            worst["min_margin_corollary"] = np.minimum(
                worst.get("min_margin_corollary", INF), np.min(out["margin_cor"]))
        nonfinite += int(np.sum(odd))
        violations += int(np.sum(bad))
        low, low_rel = finite_minima(out["margin"], out["full_scale"], ~odd)
        min_margin, min_rel = min(min_margin, low), min(min_rel, low_rel)
        vanishing = int(np.sum(out["vanishing"]))
        branches["vanishing"] += vanishing
        branches["nonvanishing"] += m - vanishing
        for key, x in out.items():
            if key.endswith("_residual"):
                worst[key] = np.maximum(worst.get(key, -INF), x)
        done += m
    return FuzzReport(theorem, label, samples, violations, min_margin, min_rel,
                      MARGIN_TOL_FACTOR, seed, c_range, branches,
                      {key: float(x) for key, x in worst.items()}, nonfinite)


def fuzz_operator_inequality(op: OperatorSpec, samples: int, seed: int,
                             c_fixed: float | None = None) -> FuzzReport:
    """Batch check of the operator inequality on random data.

    A quarter of every chunk is resampled inside ker P so the vanishing
    branch (and its exact gain) gets exercised whenever the kernel is
    nonzero.
    """
    n, dE = op.base_dim, op.domain_fiber.dim
    null = _null_space(op.full_symbol.matrix)

    def sample(rng, m):
        u = _complex_rows(rng, m, n * dE)
        phi = _complex_rows(rng, m, dE)
        c = _weights(rng, m, c_fixed)
        _redraw_in_kernels(rng, u, [null], 0.25)
        return u, phi, c

    report = _fuzz(
        "foldo", op.name, samples, seed, _weight_range(c_fixed), sample,
        lambda u, phi, c: batch_operator_margins(op, u, phi, c))
    rho2, eps = operator_constants(op)
    report.extras.update({
        "gain_vanishing": float(batch_lemma_gain(0.0, rho2 - eps, True, weight=eps)),
        "rho_squared": rho2,
        "epsilon": eps,
        "kernel_dim": int(null.shape[1]),
    })
    return report


def fuzz_hodge_inequality(n: int, k: int, fiber_dim: int, samples: int,
                          seed: int, c_fixed: float | None = None,
                          cstar_fixed: float | None = None) -> FuzzReport:
    """Batch check of both forms of the two-sided inequality.

    Every chunk has a fifth of its rows resampled inside ker(wedge) and
    the next fifth inside ker(contraction), so both vanishing branches
    appear with their exact gains 1/k and 1/(n-k).
    """
    nulls = [_null_space(mat) for mat in _form_maps(n, k, fiber_dim)]
    dim_phi = math.comb(n, k) * fiber_dim

    def sample(rng, m):
        v = _complex_rows(rng, m, n * dim_phi)
        phi = _complex_rows(rng, m, dim_phi)
        c = _weights(rng, m, c_fixed)
        cs = _weights(rng, m, cstar_fixed)
        _redraw_in_kernels(rng, v, nulls, 0.2)
        return v, phi, c, cs

    report = _fuzz(
        "hodge", f"hodge:{n}:{k}" + (f" fiber={fiber_dim}" if fiber_dim > 1 else ""),
        samples, seed, _weight_range(c_fixed), sample,
        lambda v, phi, c, cs: batch_hodge_margins(n, k, fiber_dim, v, phi, c, cs,
                                                  diagnostics=True))
    report.extras.update({
        "c_star_range": _weight_range(cstar_fixed),
        "gain_d_vanishing": float(batch_lemma_gain(0.0, k, True)),
        "gain_dstar_vanishing": float(batch_lemma_gain(0.0, n - k, True)),
    })
    return report


def fuzz_key_lemma(C: LinearMap, sub_basis: np.ndarray, samples: int,
                   seed: int, label: str = "restriction") -> FuzzReport:
    """Batch check of the two-component lemma for one restricted map.

    The first quarter of every chunk gets u1 adjusted so C(u1 + u2) = 0
    exactly (up to least squares rounding), exercising the vanishing branch.
    sub_basis must hold orthonormal columns (ValueError otherwise).
    """
    Chat, _, a = _restricted_gram(C, sub_basis)
    # u2 = sub_basis z is kept as z: C u2 = Chat z and |u2| = |z|
    maps = tuple(_real_form(M.T) for M in (C.matrix, Chat, np.linalg.pinv(C.matrix)))
    rows = max(min(_DRAW_CHUNK["key-lemma"], samples), 0)
    bufs = [(np.empty(2 * rows * d), d) for d in (C.domain.dim, sub_basis.shape[1])]

    def sample(rng, m):
        # real halves (2, m, d) filled in place, real parts first: the stream of _complex_rows
        u1, z = (rng.standard_normal(out=b[:2 * m * d]).reshape(2, m, d) for b, d in bufs)
        return u1, z, _weights(rng, m)

    report = _fuzz("key-lemma", label, samples, seed, (0.0, _C_MAX), sample,
                   lambda x1, x2, c: _key_lemma_margins(a, maps, x1, x2, c, len(c) // 4))
    report.extras["spectral_bound"] = a
    return report


# ---------------------------------------------------------------------------
# catalog-derived restricted maps for the key lemma


def key_lemma_setups(n: int, k: int):
    """Restriction geometries taken from the form-block structure.

    With xi0 = e_1* the four blocks align with coordinate slices, so the
    restricted maps are column selections of the wedge/contraction
    symbols.  Returns a list of (label, C, sub_basis, exact_bound).
    """
    eps_mat, iota_mat = _form_maps(n, k, 1)
    labels_k = exterior_power(n, k).labels
    has1 = [j for j, lab in enumerate(labels_k) if 1 in lab]
    no1 = [j for j, lab in enumerate(labels_k) if 1 not in lab]

    def cols(i_range, form_idx):
        return [i * len(labels_k) + j for i in i_range for j in form_idx]

    setups = []
    for label, mat, first, second, bound in (
        ("wedge-on-mixed-blocks", eps_mat, cols([0], no1),
         cols(range(1, n), has1), float(k)),
        ("contraction-on-diagonal-blocks", iota_mat, cols([0], has1),
         cols(range(1, n), no1), float(n - k)),
    ):
        keep = first + second
        C = LinearMap(fiber_space(len(keep), "restricted"),
                      fiber_space(mat.shape[0], "image"), mat[:, keep])
        # the second component is the trailing block of coordinates
        sub_basis = np.eye(len(keep), dtype=complex)[:, len(first):]
        setups.append((label, C, sub_basis, bound))
    return setups


def line_component_setup(op: OperatorSpec):
    """Key-lemma geometry from an operator: C = F1-component of P.

    The second component is the perp part of the domain; the exact
    spectral bound is rho^2 - epsilon.
    """
    n, dE = op.base_dim, op.domain_fiber.dim
    F1 = line_image_basis(op.full_symbol, unit_covector(n), dE)
    C = LinearMap(op.full_symbol.domain, fiber_space(F1.shape[1], "image"),
                  F1.conj().T @ op.full_symbol.matrix)
    # with xi0 = e_1* the perp part is every covector slot but the first
    sub_basis = np.eye(n * dE, dtype=complex)[:, dE:]
    rho2, eps = operator_constants(op)
    return f"line-component-{op.name}", C, sub_basis, rho2 - eps
