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
re/im) acts as a real fiber of size 2 fiber: each symbol application is
one matmul against a cached fiber-expanded matrix, and the four-block
split along a unit covector xi uses the projector Q_xi = eps(xi) iota(xi)
onto the forms containing xi, one batched matmul per row block.  With
w = xi . V: v11 = xi (x) Q w, v12 = xi (x) (w - Q w), v21 = Q V - v11,
v22 = V - v12 - Q V.  A row with a non-finite margin, side or scale
fails; the kernels run under np.errstate, so overflow is a failure.

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
from .linmap import LinearMap
from .projections import (
    conformity_factor,
    exterior_projection,
    interior_projection,
    line_image_basis,
)
from .spaces import exterior_power, fiber_space
from .symbols import OperatorSpec, ellipticity_constant, unit_covector

INF = math.inf

BRANCH_NORM_FACTOR = 1e-10    # ||P(u)|| <= this * scale picks the vanishing branch
MARGIN_TOL_FACTOR = 1e-9      # margins below -this * scale count as violations
_PAIRING_ZERO_FACTOR = 1e-20  # |d|phi||^2 at or below this * scale is treated as 0
# key-lemma chunks are drawn and checked in blocks of this many rows: with whole-chunk
# arrays the allocator keeps a layout-dependent amount of freed memory, so peak RSS
# would vary from run to run by about two chunk-sized arrays
_LEMMA_BLOCK = 4096
# the form kernel and the field lab run m rows as equal blocks (_row_blocks) to keep their
# temporaries in cache; no block is short, as OpenBLAS sums a product of few rows in
# another order
_FORM_BLOCK = 1024
# the fuzzers draw free weights as _C_MAX * U^3, U uniform on [0, 1)
_C_MAX = 1e3


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


class _FormKit:
    """Wedge/contraction symbol tables on degree-k forms, built once per (n, k).

    maps: the two symbols on flattened V* (x) Lambda^k; iota_dir and
    eps_km_dir: row i is the flattened contraction on Lambda^k and wedge
    on Lambda^(k-1) by e_i*.
    """

    def __init__(self, n: int, k: int):
        if k < 1 or k > n - 1:
            raise BadDegree(f"form split needs 1 <= k <= {n - 1}, got k={k}")
        self.n, self.k = n, k
        self.dim_k = math.comb(n, k)
        self.dim_dn = math.comb(n, k - 1)
        self.maps = (exterior_projection(n, k).matrix.real,
                     interior_projection(n, k).matrix.real)
        self.iota_dir = self._directions(self.maps[1])
        self.eps_km_dir = self._directions(exterior_projection(n, k - 1).matrix.real)

    def _directions(self, P: np.ndarray) -> np.ndarray:
        # columns are direction-major: block i acts on the e_i* slot
        return P.reshape(P.shape[0], self.n, -1).transpose(1, 0, 2).reshape(self.n, -1)

    @functools.lru_cache(maxsize=None)
    def flat_maps(self, fiber_dim: int):
        """(wedge, contraction) on flattened V* (x) Lambda^k (x) E, cached per fiber."""
        if fiber_dim < 1:
            raise ValueError(f"fiber dimension must be >= 1, got {fiber_dim}")
        maps = tuple(np.kron(M, np.eye(fiber_dim)) for M in self.maps)
        for M in maps:
            M.flags.writeable = False
        return maps


_form_kit = functools.lru_cache(maxsize=None)(_FormKit)


def _four_blocks(kit: _FormKit, V: np.ndarray, xi: np.ndarray):
    """Four blocks of real-view rows V (m, n, C(n,k) * 2 fiber) along unit xi rows.

    The covector slot splits into the xi line and its complement, the
    form slot into the image of Q_xi (forms containing xi) and the rest.
    Returns (v11, v12, v21, v22), each shaped like V.
    """
    m, n = xi.shape
    iota_xi = (xi @ kit.iota_dir).reshape(m, kit.dim_dn, kit.dim_k)
    eps_xi = (xi @ kit.eps_km_dir).reshape(m, kit.dim_k, kit.dim_dn)
    QV = np.matmul((eps_xi @ iota_xi)[:, None],
                   V.reshape(m, n, kit.dim_k, -1)).reshape(V.shape)
    w = np.einsum("ni,nix->nx", xi, V)
    Qw = np.einsum("ni,nix->nx", xi, QV)
    v11 = np.einsum("ni,nx->nix", xi, Qw)
    v12 = np.einsum("ni,nx->nix", xi, w - Qw)
    v22 = V - v12
    v22 -= QV
    QV -= v11
    return v11, v12, QV, v22


def four_block_decompose(v: np.ndarray, xi0, n: int, k: int,
                         fiber_dim: int = 1) -> FourBlockSplit:
    """Split v along the covector line and the xi0-content of the form slot.

    The one-row view of the split batch_hodge_margins uses; the four
    blocks are mutually orthogonal and their squared norms add up to
    |v|^2.
    """
    xi0 = _check_unit(xi0)
    kit = _form_kit(n, k)
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if v.shape != (n * kit.dim_k * fiber_dim,):
        raise ValueError("vector length does not match n * C(n,k) * fiber_dim")
    blocks = _four_blocks(kit, v.view(float).reshape(1, n, -1), xi0[None, :])
    return FourBlockSplit(*(b.reshape(-1).view(complex) for b in blocks), xi0)


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
    seed: int | None = None
    corollary_margin: float | None = None

    @property
    def passed(self) -> bool:
        finite = all(map(math.isfinite, (self.lhs, self.rhs, self.margin, self.scale)))
        return finite and self.margin >= -MARGIN_TOL_FACTOR * self.scale

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if self.corollary_margin is None:
            del out["corollary_margin"]
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


def _row_verdict(theorem: str, out: dict, c, c_star, seed) -> KatoVerdict:
    """Row 0 of a kernel output as a KatoVerdict."""
    cor = out.get("margin_cor")
    return KatoVerdict(
        theorem, "vanishing" if out["vanishing"][0] else "nonvanishing",
        float(c), None if c_star is None else float(c_star),
        float(out["lhs"][0]), float(out["rhs"][0]), float(out["margin"][0]),
        float(out["gain"][0]), float(out["full_scale"][0]), seed,
        corollary_margin=None if cor is None else float(cor[0]))


def _branch(forced, norm_sq: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Forced branch flags broadcast to the rows, or detected from a norm."""
    if forced is None:
        return np.sqrt(norm_sq) <= BRANCH_NORM_FACTOR * scale
    return np.broadcast_to(np.asarray(forced, dtype=bool), scale.shape)


def _sq(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row, over all trailing axes."""
    return np.sum(np.abs(x) ** 2, axis=tuple(range(1, x.ndim)))


def _rsq(x: np.ndarray, M: np.ndarray | None = None) -> np.ndarray:
    """Squared norm of each row of a real array, of M applied to it when given;
    of a complex array without M, over its real view."""
    x = x.reshape(x.shape[0], -1)
    if np.iscomplexobj(x):
        x = np.ascontiguousarray(x).view(float)
    if M is not None:
        x = x @ M.T
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


@np.errstate(over="ignore", invalid="ignore")
def _key_lemma_margins(a: float, Cu1: np.ndarray, Cu2: np.ndarray,
                       u1_sq: np.ndarray, u2_sq: np.ndarray, c) -> dict:
    """Row margins of |u2|^2 + c |C u1 + C u2|^2 >= gain * |C u1|^2, from the
    images C u1, C u2 and the squared norms of u1, u2."""
    tot_sq, first_sq, scale = _rsq(Cu1 + Cu2), _rsq(Cu1), u1_sq + u2_sq
    vanishing = _branch(None, tot_sq, scale)
    gain = batch_lemma_gain(c, a, vanishing)
    lhs = u2_sq + c * tot_sq
    rhs = gain * first_sq
    if a == 0:
        rhs = np.where(vanishing & (first_sq <= _PAIRING_ZERO_FACTOR * scale),
                       0.0, rhs)
    return {"margin": lhs - rhs, "lhs": lhs, "rhs": rhs, "full_scale": scale,
            "vanishing": vanishing, "gain": gain}


def check_key_lemma(C: LinearMap, sub_basis: np.ndarray, u1: np.ndarray,
                    u2: np.ndarray, c: float, seed: int | None = None) -> KatoVerdict:
    """|u2|^2 + c |C(u1+u2)|^2 >= gain * |C(u1)|^2 with the branch gain.

    sub_basis holds orthonormal columns spanning the component that u2
    lives in (ValueError otherwise, or for u2 off it by > 1e-10 |u2|); the
    spectral bound is the top eigenvalue of C C* on that component.
    """
    a = _restricted_gram(C, sub_basis)[2]
    u1, u2 = _row(u1), _row(u2)
    if np.linalg.norm(u2 - u2 @ sub_basis.conj() @ sub_basis.T) > 1e-10 * np.linalg.norm(u2):
        raise ValueError("u2 must lie in the span of sub_basis within 1e-10 |u2|")
    out = _key_lemma_margins(a, u1 @ C.matrix.T, u2 @ C.matrix.T,
                             _rsq(u1), _rsq(u2), c)
    return _row_verdict("key-lemma", out, c, None, seed)


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
    ratio = float(np.linalg.norm(C.apply(u2)) ** 2)
    return u2, ratio


def matching_first_component(C: LinearMap, u2: np.ndarray) -> np.ndarray:
    """u1 with C(u1) = -C(u2), making the total image vanish exactly."""
    target = -C.apply(u2)
    u1, *_ = np.linalg.lstsq(C.matrix, target, rcond=None)
    return u1


# ---------------------------------------------------------------------------
# the two theorems: batch kernels and their one-row checks


@np.errstate(over="ignore", invalid="ignore")
def batch_operator_margins(op: OperatorSpec, u: np.ndarray, phi: np.ndarray,
                           c, vanishing=None) -> dict:
    """Vectorized operator-inequality margins for row batches.

    u has one gradient surrogate per row, phi one section value; c is a
    scalar or per-row array.  vanishing overrides branch detection when
    the caller holds an exact certificate.  Returns the per-row margin,
    lhs, rhs, full_scale (lhs plus the finite rhs), vanishing mask and
    gain.
    """
    n, dE = op.base_dim, op.domain_fiber.dim
    rho2, eps = operator_constants(op)
    m = u.shape[0]
    pu_sq = _sq(u @ op.full_symbol.matrix.T)
    scale = _sq(u)
    vanishing = _branch(vanishing, pu_sq, scale)
    b = np.real(np.einsum("nie,ne->ni", u.reshape(m, n, dE), phi.conj()))
    dnorm_sq = np.sum(b ** 2, axis=1) / _sq(phi)
    gain = batch_lemma_gain(c, rho2 - eps, vanishing, weight=eps)
    lhs = scale + np.asarray(c, dtype=float) * pu_sq
    rhs = (1.0 + gain) * dnorm_sq
    if math.isinf(batch_lemma_gain(0.0, rho2 - eps, True, weight=eps)):
        zero_pair = dnorm_sq <= _PAIRING_ZERO_FACTOR * np.maximum(scale, 1.0)
        rhs = np.where(vanishing & zero_pair, 0.0, rhs)
    return {"margin": lhs - rhs, "lhs": lhs, "rhs": rhs,
            "full_scale": lhs + np.where(np.isinf(rhs), 0.0, rhs),
            "vanishing": vanishing, "gain": gain}


def check_operator_inequality(op: OperatorSpec, u: np.ndarray, phi: np.ndarray,
                              c: float, seed: int | None = None) -> KatoVerdict:
    """Pointwise refined Kato inequality of a first-order operator.

    u plays the full gradient of phi at one point, P(u) the operator
    value; the right side uses the norm-gradient surrogate built from
    the pairing of u against phi.  One row of batch_operator_margins.
    """
    out = batch_operator_margins(op, _row(u), _section_row(phi), c)
    return _row_verdict("foldo", out, c, None, seed)


def _row_blocks(m: int, width: int, align: int = 1) -> list:
    """Slices of m rows of `width` reals each into equal blocks: at least one, and
    enough that a block has fewer than 2 _FORM_BLOCK rows and, unless it is one row,
    fewer than 2 _FORM_BLOCK * 100 entries (100 reals: the widest fiber-1 form row at
    n <= 5, whose blocks the row count alone sets).  With align, each cut moves down
    to a multiple of align rows."""
    nb = max(1, m // _FORM_BLOCK, min(m, m * width // (_FORM_BLOCK * 100)))
    cuts = [i * m // nb // align * align for i in range(nb)] + [m]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def batch_hodge_margins(n: int, k: int, fiber_dim: int, v: np.ndarray,
                        phi: np.ndarray, c, c_star,
                        d_vanishing=None, dstar_vanishing=None,
                        diagnostics: bool = False) -> dict:
    """Vectorized two-sided form-inequality margins for row batches.

    Checks the final inequality and the intermediate block form, whose
    right side is |v11|^2 + |v12|^2 for the blocks along xi0 = b/|b|
    (e_1* where the pairing b vanishes).  A certificate on the full
    symbol also certifies the block form, since the block restrictions
    are dominated by the full symbols.  With diagnostics=True also
    returns the worst residuals of the split identities (Pythagoras, the
    two annihilation laws, that dominance).  Runs in row blocks (_row_blocks).
    """
    m = len(v)

    def block(r):
        # per-row arguments are sliced; scalars, None and broadcast arrays pass
        return [x[r] if np.ndim(x) and len(x) == m else x
                for x in (v, phi, c, c_star, d_vanishing, dstar_vanishing)]

    outs = [_hodge_block(n, k, fiber_dim, *block(r), diagnostics)
            for r in _row_blocks(m, 2 * n * math.comb(n, k) * fiber_dim)]
    out = {key: np.concatenate([o.pop(key) for o in outs]) for key in list(outs[0])}
    # the worst residual over all rows: np.max, unlike max, keeps a NaN
    return {key: float(np.max(x)) if key.endswith("_residual") else x
            for key, x in out.items()}


@np.errstate(over="ignore", invalid="ignore")
def _hodge_block(n: int, k: int, fiber_dim: int, v: np.ndarray, phi: np.ndarray,
                 c, c_star, d_vanishing, dstar_vanishing, diagnostics: bool) -> dict:
    """batch_hodge_margins on one block of rows, with per-row residuals."""
    kit = _form_kit(n, k)
    m = v.shape[0]
    # real views: (fiber, re/im) is a real fiber of size 2 fiber_dim
    V = np.ascontiguousarray(v, dtype=np.complex128).view(float).reshape(m, n, -1)
    Phi = np.ascontiguousarray(phi, dtype=np.complex128).view(float).reshape(m, -1)
    eps, iota = kit.flat_maps(2 * fiber_dim)
    scale, eps_sq, iota_sq = _rsq(V), _rsq(V, eps), _rsq(V, iota)
    dvan = _branch(d_vanishing, eps_sq, scale)
    svan = _branch(dstar_vanishing, iota_sq, scale)
    b = np.einsum("nix,nx->ni", V, Phi)
    bnorm = np.linalg.norm(b, axis=1)
    dnorm_sq = bnorm ** 2 / _rsq(Phi)
    xi = np.where((bnorm > 1e-14)[:, None],
                  b / np.maximum(bnorm, 1e-300)[:, None], unit_covector(n))
    v11, v12, v21, v22 = _four_blocks(kit, V, xi)
    n11, n12 = _rsq(v11), _rsq(v12)
    if diagnostics:
        pythagoras = n11 + n12 + _rsq(v21) + _rsq(v22) - scale
    # the parts the wedge and the contraction see, summed in place: one block fewer
    v21 += v12
    v22 += v11
    eps_part_sq, iota_part_sq = _rsq(v21, eps), _rsq(v22, iota)
    c, cs = np.asarray(c, dtype=float), np.asarray(c_star, dtype=float)
    gmin = np.minimum(batch_lemma_gain(c, k, dvan),
                      batch_lemma_gain(cs, n - k, svan))
    lhs = scale + c * eps_sq + cs * iota_sq
    rhs = (1.0 + gmin) * dnorm_sq
    dvc = _branch(None, eps_part_sq, scale) | dvan
    dsc = _branch(None, iota_part_sq, scale) | svan
    lhs_cor = scale + c * eps_part_sq + cs * iota_part_sq
    rhs_cor = (1.0 + np.minimum(batch_lemma_gain(c, k, dvc),
                                batch_lemma_gain(cs, n - k, dsc))) * (n11 + n12)
    out = {
        "margin": lhs - rhs, "lhs": lhs, "rhs": rhs, "scale": scale,
        "full_scale": lhs + rhs, "margin_cor": lhs_cor - rhs_cor,
        "cor_scale": lhs_cor + rhs_cor, "d_vanishing": dvan,
        "dstar_vanishing": svan, "vanishing": dvan & svan,
        "dnorm_sq": dnorm_sq, "eps_sq": eps_sq, "iota_sq": iota_sq,
        "gain": gmin,
    }
    if diagnostics:
        safe = np.maximum(scale, 1e-300)
        out["pythagoras_residual"] = np.abs(pythagoras) / safe
        out["block_identity_residual"] = np.sqrt(
            np.maximum(_rsq(v11, eps), _rsq(v12, iota)) / safe)
        out["dominance_residual"] = np.maximum(
            eps_part_sq - eps_sq, iota_part_sq - iota_sq) / safe
    return out


def check_hodge_inequality(v: np.ndarray, phi: np.ndarray, n: int, k: int,
                           fiber_dim: int = 1, c: float = 1.0,
                           c_star: float = 1.0,
                           d_vanishing: bool | None = None,
                           dstar_vanishing: bool | None = None,
                           seed: int | None = None) -> KatoVerdict:
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
    return _row_verdict("hodge", out, c, c_star, seed)


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


def _complex_rows(rng, count: int, dim: int) -> np.ndarray:
    z = np.empty((count, dim), dtype=complex)
    z.real = rng.standard_normal(z.shape)
    z.imag = rng.standard_normal(z.shape)
    return z


def _complex_row_blocks(rng, count: int, dim: int) -> list:
    """_complex_rows(rng, count, dim) in blocks of _LEMMA_BLOCK rows, from the same draws."""
    blocks = [np.empty((min(_LEMMA_BLOCK, count - i), dim), dtype=complex)
              for i in range(0, count, _LEMMA_BLOCK)]
    for z in blocks:
        z.real = rng.standard_normal(z.shape)
    for z in blocks:
        z.imag = rng.standard_normal(z.shape)
    return blocks


def _redraw_in_kernels(rng, rows: np.ndarray, nulls, fraction: float) -> None:
    """Redraw consecutive slices of int(fraction * len(rows)) rows, the i-th inside
    the span of the columns of nulls[i]; a zero kernel keeps its slice."""
    nk = int(fraction * len(rows))
    for i, null in enumerate(nulls):
        if nk and null.shape[1]:
            rows[i * nk:(i + 1) * nk] = _complex_rows(rng, nk, null.shape[1]) @ null.T


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


def finite_minima(margin: np.ndarray, scale: np.ndarray, ok: np.ndarray):
    """(min margin, min margin/scale) over the rows in ok; inf when there are none."""
    with np.errstate(over="ignore", invalid="ignore"):
        rel = margin / np.maximum(scale, 1e-300)
    return (float(np.min(margin, where=ok, initial=INF)),
            float(np.min(rel, where=ok, initial=INF)))


def _fuzz(theorem: str, label: str, samples: int, seed: int, c_range: tuple,
          chunk: int, sample, kernel, worst=None):
    """The fuzz loop shared by every fuzzer.

    Each chunk draws up to chunk rows with sample(rng, m) and checks
    them with kernel(*rows).  The kernel output carries "margin" and
    "full_scale" (plus "margin_cor"/"cor_scale" for a second inequality
    on the same rows) and a "vanishing" branch mask.  worst maps extra
    report keys to (kernel key, np.min or np.max), folded over chunks.
    """
    if samples < 1 or chunk < 1:
        raise ValueError(f"fuzzing needs samples >= 1 and chunk >= 1, "
                         f"got samples={samples}, chunk={chunk}")
    rng = np.random.default_rng(seed)
    done = violations = nonfinite = 0
    min_margin = min_rel = INF
    branches = {"vanishing": 0, "nonvanishing": 0}
    folded = {}
    while done < samples:
        m = min(chunk, samples - done)
        out = kernel(*sample(rng, m))
        odd = nonfinite_rows(out)
        # written so that a NaN margin fails too
        bad = odd | ~(out["margin"] >= -MARGIN_TOL_FACTOR * out["full_scale"])
        if "margin_cor" in out:
            bad |= ~(out["margin_cor"] >= -MARGIN_TOL_FACTOR * out["cor_scale"])
        nonfinite += int(np.sum(odd))
        violations += int(np.sum(bad))
        low, low_rel = finite_minima(out["margin"], out["full_scale"], ~odd)
        min_margin, min_rel = min(min_margin, low), min(min_rel, low_rel)
        vanishing = int(np.sum(out["vanishing"]))
        branches["vanishing"] += vanishing
        branches["nonvanishing"] += m - vanishing
        for name, (key, pick) in (worst or {}).items():
            val = pick(out[key])
            folded[name] = float(val if name not in folded else pick((folded[name], val)))
        done += m
    return FuzzReport(theorem, label, samples, violations, min_margin, min_rel,
                      MARGIN_TOL_FACTOR, seed, c_range, branches, folded, nonfinite)


def fuzz_operator_inequality(op: OperatorSpec, samples: int, seed: int,
                             c_fixed: float | None = None,
                             chunk: int = 20000) -> FuzzReport:
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
        "foldo", op.name, samples, seed,
        (0.0, _C_MAX) if c_fixed is None else (c_fixed, c_fixed), chunk, sample,
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
                          cstar_fixed: float | None = None,
                          chunk: int = 10000) -> FuzzReport:
    """Batch check of both forms of the two-sided inequality.

    Every chunk has a fifth of its rows resampled inside ker(wedge) and
    the next fifth inside ker(contraction), so both vanishing branches
    appear with their exact gains 1/k and 1/(n-k).
    """
    kit = _form_kit(n, k)
    dim = n * kit.dim_k * fiber_dim
    nulls = [_null_space(mat) for mat in kit.flat_maps(fiber_dim)]

    def sample(rng, m):
        v = _complex_rows(rng, m, dim)
        phi = _complex_rows(rng, m, kit.dim_k * fiber_dim)
        c = _weights(rng, m, c_fixed)
        cs = _weights(rng, m, cstar_fixed)
        _redraw_in_kernels(rng, v, nulls, 0.2)
        return v, phi, c, cs

    report = _fuzz(
        "hodge", f"hodge:{n}:{k}" + (f" fiber={fiber_dim}" if fiber_dim > 1 else ""),
        samples, seed, (0.0, _C_MAX) if c_fixed is None else (c_fixed, cstar_fixed),
        chunk, sample,
        lambda v, phi, c, cs: batch_hodge_margins(n, k, fiber_dim, v, phi, c, cs,
                                                  diagnostics=True),
        worst={"min_margin_corollary": ("margin_cor", np.min),
               "dominance_residual": ("dominance_residual", np.max),
               "block_identity_residual": ("block_identity_residual", np.max),
               "pythagoras_residual": ("pythagoras_residual", np.max)})
    report.extras.update({
        "gain_d_vanishing": float(batch_lemma_gain(0.0, k, True)),
        "gain_dstar_vanishing": float(batch_lemma_gain(0.0, n - k, True)),
    })
    return report


def fuzz_key_lemma(C: LinearMap, sub_basis: np.ndarray, samples: int,
                   seed: int, label: str = "restriction",
                   chunk: int = 20000) -> FuzzReport:
    """Batch check of the two-component lemma for one restricted map.

    The first quarter of every chunk gets u1 adjusted so C(u1 + u2) = 0
    exactly (up to least squares rounding), exercising the vanishing branch.
    sub_basis must hold orthonormal columns (ValueError otherwise).
    """
    Chat, _, a = _restricted_gram(C, sub_basis)
    # u2 = sub_basis z is kept as z: C u2 = Chat z and |u2| = |z|
    CT, ChatT = np.ascontiguousarray(C.matrix.T), np.ascontiguousarray(Chat.T)
    pinvT = np.ascontiguousarray(np.linalg.pinv(C.matrix).T)
    starts = range(0, chunk, _LEMMA_BLOCK)

    def sample(rng, m):
        u1 = _complex_row_blocks(rng, m, C.domain.dim)
        z = _complex_row_blocks(rng, m, sub_basis.shape[1])
        c = _weights(rng, m)
        nf = int(0.25 * m)
        for x1, x2, start in zip(u1, z, starts):  # C(u1 + u2) = 0 on the first nf rows
            f = min(max(nf - start, 0), len(x1))
            x1[:f] -= (x1[:f] @ CT + x2[:f] @ ChatT) @ pinvT
        return u1, z, c

    def kernel(u1, z, c):
        outs = [_key_lemma_margins(a, x1 @ CT, x2 @ ChatT, _rsq(x1), _rsq(x2),
                                   c[start:start + len(x1)])
                for x1, x2, start in zip(u1, z, starts)]
        return {key: np.concatenate([out[key] for out in outs]) for key in outs[0]}

    report = _fuzz("key-lemma", label, samples, seed, (0.0, _C_MAX), chunk,
                   sample, kernel)
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
    kit = _form_kit(n, k)
    labels_k = exterior_power(n, k).labels
    has1 = [j for j, lab in enumerate(labels_k) if 1 in lab]
    no1 = [j for j, lab in enumerate(labels_k) if 1 not in lab]

    def cols(i_range, form_idx):
        return [i * kit.dim_k + j for i in i_range for j in form_idx]

    eps_mat, iota_mat = kit.flat_maps(1)
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
