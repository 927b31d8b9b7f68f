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
|xi ^ eta-|^2 and |v11|^2 + |v12|^2 = |xi . V|^2, for the blocks v_ab of
V: a = 1 on the xi line of the covector slot, b = 1 on the forms that
contain xi, the image of eps(xi) iota(xi).  A map along xi is one product
of the xi rows with a direction table, then one batched matmul.  The closed
forms rest on identities of the wedge and contraction tables, which
_certify_form_algebra checks once per (n, k), exactly, not per row.  A
row with a non-finite margin, side or scale fails; the kernels run
under np.errstate, so overflow is a failure.

Infinite gains are represented by math.inf (the extended reals): they
occur exactly when rho^2 = epsilon on the vanishing branch, and force
rhs = 0 through a zero pairing, which is itself checked.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadConstants, BrokenIdentity, NotUnit, ZeroOperator, ZeroSection, _check_int
from .projections import (_check_map, _row_blocks, conformity_factor, exterior_projection,
                          gram_schmidt_columns, interior_projection, json_number)
from .spaces import check_form_degree, exterior_power
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
    # written so that a NaN bound fails too
    if not bound >= 0:
        raise BadConstants(f"spectral bound must be >= 0, got {bound}")


def kato_gain_lemma(c, bound, vanishing: bool):
    """Interpolation gain of the two-component lemma.

    bound is an upper bound for the spectrum of the restricted map C C* on the second
    component.  Vanishing branch: 1/bound (inf when bound is 0); otherwise c / (1 + bound c),
    or its limit 1/bound where bound * c overflows.  Exact for Fraction or int inputs.
    """
    c, bound = _exactify(c), _exactify(bound)
    _check_weights(c)
    _check_bound(bound)
    if vanishing or bound * c == INF:
        return INF if bound == 0 else 1 / bound
    return c / (1 + bound * c)


def kato_gain_operator(c, rho_squared, epsilon, vanishing: bool):
    """Gain for a conformal injectively elliptic operator.

    epsilon * kato_gain_lemma(c, rho^2 - epsilon): epsilon / (rho^2 -
    epsilon) on the vanishing branch, infinite when the two constants
    coincide, and epsilon c / (1 + (rho^2 - epsilon) c) otherwise.
    """
    rho_squared, epsilon = _exactify(rho_squared), _exactify(epsilon)
    # written so that NaN constants fail too
    if not epsilon > 0:
        raise BadConstants(f"epsilon must be positive, got {epsilon}")
    if not epsilon <= rho_squared:
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
    Degrees 0 and n, and so every n < 2, are rejected, as is a k that is not an
    integer: there is nothing two-sided to verify.
    """
    check_form_degree("hodge gains need", n, k)
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
    rho, eps = op.rho_squared, op.epsilon
    rho = conformity_factor(op.full_symbol).rho_squared if rho is None else rho
    return float(rho), float(ellipticity_constant(op).epsilon if eps is None else eps)


# ---------------------------------------------------------------------------
# the form tables, their certificate and maps along a covector


@functools.lru_cache(maxsize=None)
def _direction_table(n: int, j: int, up: bool) -> np.ndarray:
    """Read-only table T (n, dst, src) on Lambda^j: T[i] is the wedge with e_i* (up) or
    the contraction by it, from the projection's direction-major columns; no dst rows
    where the target degree leaves 0..n."""
    if not 0 <= (j + 1 if up else j - 1) <= n:
        return np.zeros((n, 0, math.comb(n, j)))
    P = (exterior_projection if up else interior_projection)(n, j).real
    T = np.ascontiguousarray(P.reshape(len(P), n, -1).transpose(1, 0, 2))
    T.flags.writeable = False
    return T


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


@functools.lru_cache(maxsize=None)
def _signed_permutation(n: int, j: int, up: bool):
    """The slices of _direction_table(n, j, up) (n, dst, src), no columns for j = -1, as
    signed partial permutations: ((targets, signs) of each column, (targets, signs) of
    each row), each padded with a last slot of sign 0 that empty columns and rows point
    to; None unless every entry is 0 or +-1 with at most one per row and column."""
    T = _direction_table(n, j, up) if j >= 0 else np.zeros((n, 1, 0))
    n, dst, src = T.shape
    i, row, col = np.nonzero(T)
    sign = T[i, row, col]
    if not ((abs(sign) == 1).all() and np.bincount(i * src + col).max(initial=0) <= 1
            and np.bincount(i * dst + row).max(initial=0) <= 1):
        return None
    cols, rows = np.full((n, src + 1), dst), np.full((n, dst + 1), src)
    col_sign, row_sign = np.zeros((n, src + 1)), np.zeros((n, dst + 1))
    cols[i, col], col_sign[i, col], rows[i, row], row_sign[i, row] = row, sign, col, sign
    for x in (cols, col_sign, rows, row_sign):
        x.flags.writeable = False
    return (cols, col_sign), (rows, row_sign)


def _compose(A, B, swap=False):
    """The products A_i B_l of the slices of two signed partial permutations, as
    (targets, signs) of shape (i, l, column), or (l, i, column) with swap."""
    out = A[0][:, B[0]], A[1][:, B[0]] * B[1]
    return tuple(x.transpose(1, 0, 2) for x in out) if swap else out


def _cancels(*terms) -> bool:
    """Whether signed unit columns (targets, signs), sign 0 for none, add up to zero:
    at the target of each nonzero entry, the signs of all entries there sum to 0.  The
    signs are floats +-1 and 0, so every sum is exact."""
    t, s = (np.stack(np.broadcast_arrays(*x)) for x in zip(*terms))
    return not (s * np.where(t[:, None] == t, s, 0.0).sum(axis=1)).any()


@functools.lru_cache(maxsize=None)
def _certify_form_algebra(n: int, k: int) -> None:
    """BrokenIdentity, naming n, the degree and the identity, unless the direction tables
    of the degrees k-1, k, k+1 in 0..n, which the form kernel of degree k reads, are
    signed partial permutations that obey iota_i = eps_i^T, eps_i eps_l + eps_l eps_i = 0
    and iota_i eps_l + eps_l iota_i = delta_il, exactly: the products are compositions of
    index and sign arrays, linear in the size of the tables."""

    def check(holds, j, identity):
        if not holds:
            raise BrokenIdentity(f"form algebra at n={n}, degree {j}: {identity} fails")

    # these degrees alone, as C(n, j) peaks at j = n/2: eps_i and iota_i on Lambda^j and
    # eps_i on Lambda^(j-1)
    for j in range(max(k - 1, 0), min(k + 1, n) + 1):
        perms = [_signed_permutation(n, j, True), _signed_permutation(n, j, False),
                 _signed_permutation(n, j - 1, True)]
        check(None not in perms, j, "a signed partial permutation per direction")
        (E, Et), (iota, _), (below, below_t) = perms
        # the padding of iota's columns and of below's rows is C(n, j-1) in both
        check(all(map(np.array_equal, iota, below_t)), j, "iota_i = eps_i^T")
        check(_cancels(_compose(E, below), _compose(E, below, swap=True)), j - 1,
              "eps_i eps_l + eps_l eps_i = 0")
        cols = np.arange(len(E[0][0]))  # C(n, j) columns and the padding slot
        unit = cols, np.where(cols < cols[-1], -np.eye(n)[:, :, None], 0.0)
        check(_cancels(_compose(Et, E), _compose(below, below_t, swap=True), unit), j,
              "iota_i eps_l + eps_l iota_i = delta_il")


def _form_maps(n: int, k: int, fiber_dim: int):
    """(wedge, contraction) of a degree of the two-sided inequality, its tables
    certified; BadDegree or ValueError before a map is built."""
    check_form_degree("form split needs", n, k)
    _check_int(ValueError, "form split needs", "fiber_dim", fiber_dim, 1)
    _certify_form_algebra(n, k)
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


def _line_split(op: OperatorSpec, xi: np.ndarray):
    """The structural lemma's split along the covector xi: (P1, T) with P1 = F1* P the
    component of the symbol P on F1 = P(xi (x) E) and T = F1* P_xi its part on the xi
    line.  F1 is Gram-Schmidt over the columns P_xi e_j in basis order."""
    P_xi = np.tensordot(xi, op.symbol_tensor(), axes=([0], [1]))
    F1_adj = gram_schmidt_columns(P_xi).conj().T
    return F1_adj @ op.full_symbol, F1_adj @ P_xi


def verify_spectral_bounds(op: OperatorSpec, xi0,
                           tol: float = MARGIN_TOL_FACTOR) -> SpectralBounds:
    """Eigenvalue bounds of the component of P along the image of the line.

    With F1 = P(span(xi0) (x) E) and P1 the F1-component of P, the
    restriction of P1 to the line part has spectrum >= epsilon and the
    restriction to the perpendicular part has spectrum <= rho^2 - epsilon.
    """
    xi0 = np.asarray(xi0, dtype=float)
    # written so that a NaN length fails too
    if not abs(float(np.linalg.norm(xi0)) - 1.0) <= 1e-12:
        raise NotUnit("direction covector must be unit length")
    if xi0.shape != (op.base_dim,):
        raise ValueError("covector length does not match the domain split")
    rho2, eps = operator_constants(op)
    # the perp Gram is P1 P1* - T T*, since any orthonormal frame of covectors
    # completes xi0
    P1, T = _line_split(op, xi0)
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

    theorem: str                  # "foldo", "hodge" or "key-lemma"
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
        _, failing = failing_rows({key: np.array([float(x)]) for key, x in row.items()
                                   if x is not None}, MARGIN_TOL_FACTOR)
        return not failing[0]

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if self.corollary_margin is None:
            del out["corollary_margin"], out["corollary_scale"]
        out["passed"] = self.passed
        return {k: json_number(v) for k, v in out.items()}


def _row(x) -> np.ndarray:
    # contiguous, for the real views of the rows: a column of a matrix is strided
    return np.ascontiguousarray(x, dtype=np.complex128)[None, :]


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
    """Squared norm of each row of a real array, or of a complex one's real view, over
    all trailing axes."""
    x = x.reshape(len(x), math.prod(x.shape[1:])).view(float)
    return np.einsum("ij,ij->i", x, x)


# ---------------------------------------------------------------------------
# the two-component key lemma


def _restricted_gram(C: np.ndarray, sub_basis: np.ndarray):
    """C on the component spanned by the orthonormal columns of sub_basis
    (ValueError beyond 1e-10, for a C that is not a finite 2-D complex128 matrix, or for a
    sub_basis that is not a finite 2-D one as complex128), its Gram C C* there, and the
    Gram's top eigenvalue (0 when empty)."""
    _check_map(C, finite=True)
    _check_map(np.asarray(sub_basis, dtype=np.complex128), finite=True)
    drift = sub_basis.conj().T @ sub_basis - np.eye(sub_basis.shape[1])
    if not np.max(np.abs(drift), initial=0.0) <= 1e-10:
        raise ValueError("sub_basis columns must be orthonormal within 1e-10")
    Chat = C @ sub_basis
    G = Chat @ Chat.conj().T
    return Chat, G, float(np.linalg.eigvalsh(G)[-1]) if G.size else 0.0


@np.errstate(over="ignore", invalid="ignore")
def _key_lemma_margins(a: float, Cu1: np.ndarray, Cu2: np.ndarray,
                       u1_sq: np.ndarray, u2_sq: np.ndarray, c) -> dict:
    """Row margins of |u2|^2 + c |C u1 + C u2|^2 >= gain * |C u1|^2 from the complex
    images C u1 and C u2 (m, F) and the squared norms |u1|^2 and |u2|^2.  Cu2 is
    overwritten in place."""
    first_sq = _rsq(Cu1)
    Cu2 += Cu1
    tot_sq = _rsq(Cu2)
    scale = u1_sq + u2_sq
    vanishing = _branch(None, tot_sq, scale)
    gain = batch_lemma_gain(c, a, vanishing)
    lhs = u2_sq + c * tot_sq
    rhs = gain * first_sq
    if a == 0:
        rhs = np.where(vanishing & (first_sq <= _PAIRING_ZERO_FACTOR * scale), 0.0, rhs)
    return {"margin": lhs - rhs, "lhs": lhs, "rhs": rhs, "full_scale": scale,
            "vanishing": vanishing, "gain": gain}


def check_key_lemma(C: np.ndarray, sub_basis: np.ndarray, u1: np.ndarray,
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
    out = _key_lemma_margins(a, u1 @ C.T, u2 @ C.T, _rsq(u1), _rsq(u2), c)
    return _row_verdict("key-lemma", out, c, None)


def equality_witness(C: np.ndarray, sub_basis: np.ndarray):
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
    return u2, float(np.linalg.norm(C @ u2) ** 2)


def matching_first_component(C: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """u1 with C(u1) = -C(u2), making the total image vanish exactly; ValueError for a
    C that is not a finite 2-D complex128 matrix."""
    _check_map(C, finite=True)
    u1, *_ = np.linalg.lstsq(C, -(C @ np.asarray(u2, dtype=np.complex128)), rcond=None)
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
    n, dE = op.base_dim, op.fiber_dim
    rho2, eps = operator_constants(op)
    m = len(u)
    if len(phi) != m:
        raise ValueError(f"{m} gradient rows but {len(phi)} section rows")
    norms = np.empty((3, m))  # |P u|^2, |u|^2, |d|phi||^2
    for r in _row_blocks(m, 2 * u.shape[1]):
        x, y = u[r], phi[r]
        b = np.real(np.einsum("nie,ne->ni", x.reshape(len(x), n, dE), y.conj()))
        norms[:, r] = (_sq(x @ op.full_symbol.T), _sq(x),
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
                        c, c_star, d_vanishing=None, dstar_vanishing=None) -> dict:
    """Vectorized two-sided form-inequality margins for row batches.

    Checks the final inequality and the intermediate block form, whose
    right side is |v11|^2 + |v12|^2 for the blocks along xi0 = b/|b|
    (e_1* where the pairing b vanishes).  A certificate on the full
    symbol also certifies the block form, since the block restrictions
    are dominated by the full symbols.  Squared norms run in row blocks
    (_row_blocks); margins once over the batch.
    """
    m = len(v)
    if len(phi) != m:
        raise ValueError(f"{m} gradient rows but {len(phi)} section rows")
    norms = np.empty((7, m))
    # the cached maps check n, k and the fiber before any reshape of v or phi
    for r in _row_blocks(m, 2 * _form_maps(n, k, fiber_dim)[0].shape[1]):
        norms[:, r] = _hodge_block(n, k, fiber_dim, v[r], phi[r])
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
    }


def _hodge_block(n: int, k: int, fiber_dim: int, v: np.ndarray, phi: np.ndarray) -> tuple:
    """The per-row squared norms batch_hodge_margins reads, on one block of rows, in
    closed form: |V|^2, |eta+|^2, |eta-|^2, |d|phi||^2, |xi . V|^2, |iota_xi eta+|^2 and
    |xi ^ eta-|^2."""
    m, dim_k = v.shape[0], math.comb(n, k)
    # real views: (fiber, re/im) is a real fiber of size 2 fiber_dim
    f2 = 2 * fiber_dim  # widths are spelled out: a -1 cannot be resolved for 0 rows
    V = np.ascontiguousarray(v, dtype=np.complex128).view(float).reshape(m, n, dim_k * f2)
    Phi = np.ascontiguousarray(phi, dtype=np.complex128).view(float).reshape(m, dim_k * f2)
    img = V.reshape(m, n * dim_k * f2) @ _form_images(n, k, f2)
    split = math.comb(n, k + 1) * f2
    up, dn = (x.reshape(m, x.shape[1] // f2, f2) for x in (img[:, :split], img[:, split:]))
    scale, eps_sq, iota_sq = _rsq(V), _rsq(up), _rsq(dn)
    b = np.einsum("nix,nx->ni", V, Phi)
    # squares in column order: the row sums then run a column at a time, in the order
    # np.linalg.norm sums each row, with no per-row inner loop
    bnorm = np.sqrt(np.multiply(b, b, order="F").sum(axis=1))
    dnorm_sq = bnorm ** 2 / _rsq(Phi)
    xi = np.where((bnorm > 1e-14)[:, None],
                  b / np.maximum(bnorm, 1e-300)[:, None], unit_covector(n))
    line_sq = _rsq(np.einsum("ni,nix->nx", xi, V))
    eps_part_sq = _rsq(_along(n, k + 1, False, xi, up))
    iota_part_sq = _rsq(_along(n, k - 1, True, xi, dn))
    return scale, eps_sq, iota_sq, dnorm_sq, line_sq, eps_part_sq, iota_part_sq


def check_hodge_inequality(v: np.ndarray, phi: np.ndarray, n: int, k: int,
                           fiber_dim: int, c: float, c_star: float,
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
    extras: dict
    nonfinite: int   # rows with a non-finite number, counted as violations too

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


def _drawn_halves(rng, count: int, dim: int):
    """(half, row block, rows) of count standard complex normal rows: all real parts
    row-major, then all imaginary parts, drawn a row block (_row_blocks) at a time into
    one block-sized buffer."""
    # the first block is the longest
    buf = np.empty((next(_row_blocks(count, 2 * dim)).stop, dim))
    for h in (0, 1):
        for r in _row_blocks(count, 2 * dim):
            yield h, r, rng.standard_normal(out=buf[:r.stop - r.start])


def _complex_rows(rng, count: int, dim: int, start: int = 0) -> np.ndarray:
    """count standard complex normal rows, from _drawn_halves.  The draws of the rows
    before start are made and dropped: those rows are left unset, for a kernel redraw
    (_redraw_in_kernels) to fill."""
    z = np.empty((count, dim), dtype=complex)
    for h, r, x in _drawn_halves(rng, count, dim):
        skip = max(start - r.start, 0)
        (z.real, z.imag)[h][r][skip:] = x[skip:]
    return z


def _folded_rows(rng, count: int, dim: int, M: np.ndarray) -> tuple:
    """The draws of _complex_rows(rng, count, dim), each block folded as it is drawn into
    the rows' complex images x M (count, F) and their squared norms; no drawn row is
    held.  A real M, from a C-ordered copy, takes each half into its own part of the
    images; a complex one is the real views of M and i M, whose products with the real
    and the imaginary half are their images as (Re, Im) pairs."""
    real = not np.any(M.imag)
    tables = ([M.real.copy()] * 2 if real
              else [np.ascontiguousarray(w * M).view(float) for w in (1, 1j)])
    # np.empty, not np.zeros: calloc can hand out fresh pages, which fault on every call
    img, sq = np.empty((count, M.shape[1]), dtype=complex), np.empty(count)
    for h, r, x in _drawn_halves(rng, count, dim):
        y = x @ tables[h]
        if real:
            (img.real, img.imag)[h][r] = y
        elif h:
            img[r] += y.view(complex)
        else:
            img[r] = y.view(complex)
        x_sq = np.einsum("ij,ij->i", x, x)
        sq[r] = sq[r] + x_sq if h else x_sq
    return img, sq


def _redraw_in_kernels(rng, rows: np.ndarray, nulls, fraction: float) -> None:
    """Redraw consecutive slices of int(fraction * len(rows)) rows, the i-th inside
    the span of the columns of nulls[i], in place; a zero kernel keeps its slice.  The
    coefficients are _complex_rows(rng, nk, dim) of the kernel.  A real basis takes
    each drawn half block (_drawn_halves) times its transpose straight into the slice's
    real or imaginary rows; a complex one takes the product of the whole coefficient
    rows."""
    nk = int(fraction * len(rows))
    for i, null in enumerate(nulls):
        if not (nk and null.shape[1]):
            continue
        out = rows[i * nk:(i + 1) * nk]
        if null.imag.any():
            np.matmul(_complex_rows(rng, nk, null.shape[1]), null.T, out=out)
        else:
            # transposed from a C-ordered copy: the layout in which OpenBLAS's real products
            # of 205 rows and more gave the complex product's bits, for every form kernel
            # of fiber 1 or 2; blocks of a few rows can differ from it in the last bits
            basis = np.ascontiguousarray(null.real).T
            for h, r, x in _drawn_halves(rng, nk, null.shape[1]):
                np.matmul(x, basis, out=(out.real, out.imag)[h][r])


def _section_sampler(width: int, section: int, nulls, fraction: float, fixed: tuple):
    """sample(rng, m) of a section fuzzer: m gradient rows of width and m section rows of
    section complex coordinates (_complex_rows), one weight array per entry of fixed
    (_weights), then consecutive slices of int(fraction * m) gradient rows redrawn
    inside the kernels nulls (_redraw_in_kernels).  The draws of the rows before lead *
    int(fraction * m), lead the number of leading nonempty kernels, are made and
    dropped: those slices are all redrawn."""
    lead = next((i for i, null in enumerate(nulls) if not null.shape[1]), len(nulls))

    def sample(rng, m):
        rows = _complex_rows(rng, m, width, lead * int(fraction * m))
        phi = _complex_rows(rng, m, section)
        weights = [_weights(rng, m, c) for c in fixed]
        _redraw_in_kernels(rng, rows, nulls, fraction)
        return rows, phi, *weights

    return sample


def _null_space(M: np.ndarray) -> np.ndarray:
    u, s, vh = np.linalg.svd(M)
    top = s[0] if s.size else 0.0
    rank = int(np.sum(s > 1e-12 * max(top, 1e-300)))
    return vh[rank:].conj().T


def failing_rows(out: dict, tol_factor: float) -> tuple:
    """The one pass rule, per row of a kernel output, as the masks (nonfinite,
    failing): a row is nonfinite when a margin, side or scale is not finite; it fails
    when it is nonfinite, when its margin drops below -tol_factor * full_scale, or when
    its corollary margin, where there is one, drops below -tol_factor * cor_scale."""
    nonfinite = np.zeros(np.shape(out["margin"]), dtype=bool)
    for key in ("margin", "lhs", "rhs", "full_scale", "margin_cor", "cor_scale"):
        if key in out:
            nonfinite |= ~np.isfinite(out[key])
    # written so that a NaN margin fails too
    bad = nonfinite | ~(out["margin"] >= -tol_factor * out["full_scale"])
    if "margin_cor" in out:
        bad |= ~(out["margin_cor"] >= -tol_factor * out["cor_scale"])
    return nonfinite, bad


def finite_minima(margin: np.ndarray, scale: np.ndarray, ok: np.ndarray):
    """(min margin, min margin/scale) over the rows in ok; inf when there are none."""
    with np.errstate(over="ignore", invalid="ignore"):
        rel = margin / np.maximum(scale, 1e-300)
    return (float(np.min(margin, where=ok, initial=INF)),
            float(np.min(rel, where=ok, initial=INF)))


def _fuzz(theorem: str, label: str, samples: int, seed: int, c_fixed: float | None,
          sample, kernel, **extras):
    """The fuzz loop shared by every fuzzer.

    Each chunk draws up to _DRAW_CHUNK[theorem] rows with sample(rng, m)
    and checks them with kernel(*rows).  The kernel output carries
    "margin" and "full_scale" (plus "margin_cor"/"cor_scale" for a second
    inequality on the same rows) and a "vanishing" branch mask.  The report's
    c_range is _weight_range(c_fixed); its extras are min_margin_corollary, the
    least margin_cor over the chunks, then the given extras.
    """
    _check_int(ValueError, "fuzzing needs", "samples", samples, 1)
    rng = np.random.default_rng(seed)
    done = violations = nonfinite = 0
    min_margin = min_rel = INF
    branches = {"vanishing": 0, "nonvanishing": 0}
    worst = {}
    while done < samples:
        m = min(_DRAW_CHUNK[theorem], samples - done)
        out = kernel(*sample(rng, m))
        odd, bad = failing_rows(out, MARGIN_TOL_FACTOR)
        if "margin_cor" in out:
            # np.minimum, unlike min, keeps a NaN
            worst["min_margin_corollary"] = np.minimum(
                worst.get("min_margin_corollary", INF), np.min(out["margin_cor"]))
        nonfinite += int(np.sum(odd))
        violations += int(np.sum(bad))
        low, low_rel = finite_minima(out["margin"], out["full_scale"], ~odd)
        min_margin, min_rel = min(min_margin, low), min(min_rel, low_rel)
        vanishing = int(np.sum(out["vanishing"]))
        branches["vanishing"] += vanishing
        branches["nonvanishing"] += m - vanishing
        done += m
    return FuzzReport(theorem, label, samples, violations, min_margin, min_rel,
                      MARGIN_TOL_FACTOR, seed, _weight_range(c_fixed), branches,
                      {**{key: float(x) for key, x in worst.items()}, **extras}, nonfinite)


def fuzz_operator_inequality(op: OperatorSpec, samples: int, seed: int,
                             c_fixed: float | None = None) -> FuzzReport:
    """Batch check of the operator inequality on random data.

    A quarter of every chunk is resampled inside ker P so the vanishing
    branch (and its exact gain) gets exercised whenever the kernel is
    nonzero.
    """
    n, dE = op.base_dim, op.fiber_dim
    null = _null_space(op.full_symbol)
    rho2, eps = operator_constants(op)
    # every chunk's kernel reads these constants, measured once, off a spec that declares
    # them; replace keeps the read-only symbol without a copy
    resolved = dataclasses.replace(op, rho_squared=rho2, epsilon=eps)
    return _fuzz(
        "foldo", op.name, samples, seed, c_fixed,
        _section_sampler(n * dE, dE, [null], 0.25, (c_fixed,)),
        lambda u, phi, c: batch_operator_margins(resolved, u, phi, c),
        gain_vanishing=float(batch_lemma_gain(0.0, rho2 - eps, True, weight=eps)),
        rho_squared=rho2, epsilon=eps, kernel_dim=int(null.shape[1]))


def fuzz_hodge_inequality(n: int, k: int, fiber_dim: int, samples: int,
                          seed: int, c_fixed: float | None = None,
                          cstar_fixed: float | None = None) -> FuzzReport:
    """Batch check of both forms of the two-sided inequality.

    Every chunk has a fifth of its rows resampled inside ker(wedge) and
    the next fifth inside ker(contraction), so both vanishing branches
    appear with their exact gains 1/k and 1/(n-k).  The draws those rows
    replace are made, so the stream is that of whole draws, but not kept;
    both kernel bases are real, so each block of drawn coefficients goes
    straight into the real or imaginary parts of its slice.
    """
    nulls = [_null_space(mat) for mat in _form_maps(n, k, fiber_dim)]
    dim_phi = math.comb(n, k) * fiber_dim
    return _fuzz(
        "hodge", f"hodge:{n}:{k}" + (f" fiber={fiber_dim}" if fiber_dim > 1 else ""),
        samples, seed, c_fixed,
        _section_sampler(n * dim_phi, dim_phi, nulls, 0.2, (c_fixed, cstar_fixed)),
        lambda v, phi, c, cs: batch_hodge_margins(n, k, fiber_dim, v, phi, c, cs),
        form_algebra="exact",  # _form_maps certified it before the first row
        c_star_range=_weight_range(cstar_fixed),
        gain_d_vanishing=float(batch_lemma_gain(0.0, k, True)),
        gain_dstar_vanishing=float(batch_lemma_gain(0.0, n - k, True)))


def fuzz_key_lemma(C: np.ndarray, sub_basis: np.ndarray, samples: int,
                   seed: int, label: str = "restriction") -> FuzzReport:
    """Batch check of the two-component lemma for one restricted map.

    The first quarter of every chunk gets u1 moved to u1 - C+(C u1 + C u2), so
    C(u1 + u2) = 0 holds exactly, exercising the vanishing branch.
    sub_basis must hold finite orthonormal columns and C be a finite 2-D complex128
    matrix (ValueError otherwise).
    """
    Chat, _, a = _restricted_gram(C, sub_basis)
    pinv = np.linalg.pinv(C)
    G = pinv.T @ pinv.conj()  # C+* C+ in row form: |C+ y|^2 = Re y G y*

    def sample(rng, m):
        # the margin reads u1 only through C u1 and |u1|, and u2 = sub_basis z only
        # through C u2 = Chat z and |u2| = |z|: the draws are folded into those as drawn
        Cu1, u1_sq = _folded_rows(rng, m, C.shape[1], C.T)
        Cz, z_sq = _folded_rows(rng, m, sub_basis.shape[1], Chat.T)
        # forced rows: u1 - C+(C u1 + C u2) has image -C u2 (C C+ projects onto range C),
        # its ker C part (>= 0 past rounding) and -C+ C u2 in place of C+ C u1
        f = slice(0, m // 4)
        q1, q2 = (np.einsum("ij,ij->i", (y[f] @ G).view(float), y[f].view(float))
                  for y in (Cu1, Cz))
        u1_sq[f] = np.maximum(u1_sq[f] - q1, 0.0) + q2
        Cu1[f] = -Cz[f]
        return Cu1, Cz, u1_sq, z_sq, _weights(rng, m)

    return _fuzz("key-lemma", label, samples, seed, None, sample,
                 lambda *rows: _key_lemma_margins(a, *rows), spectral_bound=a)


# ---------------------------------------------------------------------------
# catalog-derived restricted maps for the key lemma


def key_lemma_setups(n: int, k: int):
    """Restriction geometries taken from the form-block structure.

    With xi0 = e_1* the four blocks align with coordinate slices, so the
    restricted maps are column selections of the wedge/contraction
    symbols.  Returns a list of (label, C, sub_basis, exact_bound), C complex128.
    """
    eps_mat, iota_mat = _form_maps(n, k, 1)
    labels_k = exterior_power(n, k)
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
        C = mat[:, keep].astype(np.complex128)
        # the second component is the trailing block of coordinates
        sub_basis = np.eye(len(keep), dtype=complex)[:, len(first):]
        setups.append((label, C, sub_basis, bound))
    return setups


def line_component_setup(op: OperatorSpec):
    """Key-lemma geometry from an operator: C = F1-component of P.

    The second component is the perp part of the domain; the exact
    spectral bound is rho^2 - epsilon.
    """
    n, dE = op.base_dim, op.fiber_dim
    C = _line_split(op, unit_covector(n))[0]
    # with xi0 = e_1* the perp part is every covector slot but the first
    sub_basis = np.eye(n * dE, dtype=complex)[:, dE:]
    rho2, eps = operator_constants(op)
    return f"line-component-{op.name}", C, sub_basis, rho2 - eps
