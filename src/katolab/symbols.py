"""First-order operator symbols, ellipticity constants, and twisting.

An operator is carried around as an OperatorSpec: its full symbol is the
matrix of one linear map P : V* (x) E -> F, and the symbol in the direction of a
covector xi is P_xi = P(xi (x) .) : E -> F.  The injective ellipticity
constant is

    epsilon = inf over unit xi of the smallest eigenvalue of P_xi* P_xi,

infimum over the unit sphere of covectors.  For every catalog symbol the
spectrum of P_xi* P_xi does not depend on xi, which turns the infimum
into one exact eigenvalue computation.  One deterministic quasi-uniform
sphere sweep decides that; when it fails, the sweep seeds a local
refinement whose result is reported as an upper bound.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from numbers import Integral

import numpy as np

from .errors import BadDegree, UnknownName, _check_int
from .projections import (
    FAMILIES,
    _row_blocks,
    exact_to_json,
    exterior_projection,
    interior_projection,
)
from .spaces import check_form_degree

INVARIANCE_TOL = 1e-8
DEFAULT_DIRECTIONS = 32
TWISTOR_SYMBOL_SAMPLES = 64


@dataclass(eq=False, frozen=True)
class OperatorSpec:
    """A first-order operator reduced to its constant-coefficient symbol.

    full_symbol is the matrix of P : V* (x) E -> F, columns direction-major, kept
    read-only: an owning read-only complex128 array as it is, anything else as a copy
    (ValueError unless 2-D with a positive multiple of the integer base_dim columns).
    rho_squared and epsilon hold the declared exact constants (Fraction where one
    exists) or None when nothing is declared; measurements never read them silently.
    """

    name: str
    base_dim: int
    full_symbol: np.ndarray
    rho_squared: object = None
    epsilon: object = None

    def __post_init__(self):
        m = self.full_symbol
        if not (isinstance(m, np.ndarray) and m.dtype == np.complex128
                and m.flags.owndata and not m.flags.writeable):
            m = np.array(m, dtype=np.complex128)
        d = self.base_dim
        if m.ndim != 2 or not (isinstance(d, Integral) and 0 < d <= m.shape[1]
                               and m.shape[1] % d == 0):
            raise ValueError(f"a symbol on {d!r} directions needs a 2-D matrix of a "
                             f"positive multiple of {d!r} columns, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "full_symbol", m)

    @property
    def fiber_dim(self) -> int:
        return self.full_symbol.shape[1] // self.base_dim

    def symbol_tensor(self) -> np.ndarray:
        """Full symbol reshaped to (target, direction, fiber)."""
        return self.full_symbol.reshape(len(self.full_symbol), self.base_dim, self.fiber_dim)


def principal_squares(op: OperatorSpec, xis) -> np.ndarray:
    """The (m, dE, dE) stack of P_xi* P_xi for an (m, n) block of covectors."""
    p = np.tensordot(np.asarray(xis, dtype=float), op.symbol_tensor(),
                     axes=([1], [1]))
    return p.conj().transpose(0, 2, 1) @ p


# ---------------------------------------------------------------------------
# deterministic direction sampling


def unit_covector(n: int) -> np.ndarray:
    """The first dual basis vector e_1* of R^n, the default direction."""
    e1 = np.zeros(n)
    e1[0] = 1.0
    return e1


def _generalized_golden(d: int) -> float:
    # unique positive root of x**(d+1) = x + 1
    x = 2.0
    for _ in range(80):
        x = (1.0 + x) ** (1.0 / (d + 1))
    return x


def quasi_unit_covectors(n: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform points on the unit sphere in R^n.

    A Kronecker sequence driven by the generalized golden ratio fills the
    unit cube with low discrepancy; Box-Muller pairs turn it into
    quasi-gaussian vectors which are then normalized.  Refining count
    keeps earlier points, so minima over these sweeps are monotone.
    """
    _check_int(ValueError, "covector sweep needs", "n", n, 1)
    _check_int(ValueError, "covector sweep needs", "count", count, 1)
    return _sphere_points(n, 0, count)


def _sphere_points(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of quasi_unit_covectors(n, count) for any count >= stop:
    each row is computed from its own index alone, elementwise, so a slice has the
    bits of the same rows of the whole sweep."""
    j = np.arange(start + 1, stop + 1)[:, None]
    if n == 1:
        return np.where(j % 2 == 1, 1.0, -1.0)
    d = 2 * ((n + 1) // 2)
    phi = _generalized_golden(d)
    alpha = np.array([phi ** -(i + 1) for i in range(d)])
    t = np.mod(0.5 + j * alpha[None, :], 1.0)
    t = np.clip(t, 1e-12, 1.0 - 1e-12)
    r = np.sqrt(-2.0 * np.log(t[:, 0::2]))
    th = 2.0 * np.pi * t[:, 1::2]
    g = np.empty((len(j), d))
    g[:, 0::2] = r * np.cos(th)
    g[:, 1::2] = r * np.sin(th)
    g = g[:, :n]
    # every norm is at least |g[:, :2]| = r >= sqrt(-2 ln(1 - 1e-12)) > 1.4e-6
    return g / np.linalg.norm(g, axis=1)[:, None]


@dataclass(frozen=True)
class EllipticityResult:
    epsilon: float
    argmin_xi: tuple
    invariant: bool
    samples: int
    refinement_steps: int
    method: str
    declared: object

    def matches_declared(self, tol: float = 1e-9) -> bool | None:
        if self.declared is None:
            return None
        return abs(self.epsilon - float(self.declared)) <= tol

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "argmin_xi": list(self.argmin_xi),
            "invariant": self.invariant,
            "samples": self.samples,
            "refinement_steps": self.refinement_steps,
            "method": self.method,
            "declared_epsilon": exact_to_json(self.declared),
            "matches_declared": self.matches_declared(),
        }


def _tangent_basis(xi: np.ndarray) -> np.ndarray:
    n = xi.shape[0]
    q, _ = np.linalg.qr(np.hstack([xi[:, None], np.eye(n)]))
    return q[:, 1:n]


def ellipticity_constant(op: OperatorSpec,
                         coarse_samples: int = DEFAULT_DIRECTIONS,
                         refine_steps: int = 20) -> EllipticityResult:
    """Injective ellipticity constant of the symbol.

    One quasi-uniform sweep of coarse_samples directions is compared with
    the spectrum at xi = e_1*.  A direction-invariant symbol resolves
    exactly there.  Otherwise the sweep's best direction seeds a local
    search of at most refine_steps rounds, reported as run (probes along
    tangent directions with a quadratic vertex guess and a radius that
    shrinks until 1 + radius rounds to 1 and can no longer turn the unit
    xi); that branch is an upper bound and says so in its method field.
    """
    n = op.base_dim
    _check_int(ValueError, "ellipticity needs", "coarse_samples", coarse_samples, 1)
    _check_int(ValueError, "ellipticity needs", "refine_steps", refine_steps, 0)

    def lam_min(xis):
        return np.linalg.eigvalsh(principal_squares(op, xis))[:, 0]

    e1 = unit_covector(n)
    ref = np.linalg.eigvalsh(principal_squares(op, e1[None]))[0]
    # row blocks of directions (a direction's row: its complex symbol), each generating
    # its own directions, keep memory flat in coarse_samples; xi and val follow the
    # sweep's first argmin
    worst = 0.0
    for r in _row_blocks(coarse_samples, 2 * op.symbol_tensor()[:, 0].size):
        pts = _sphere_points(n, r.start, r.stop)
        spectra = np.linalg.eigvalsh(principal_squares(op, pts))
        worst = max(worst, float(np.max(np.abs(spectra - ref))))
        best = int(np.argmin(spectra[:, 0]))
        if r.start == 0 or spectra[best, 0] < val:
            xi, val = pts[best].copy(), float(spectra[best, 0])
        del pts, spectra  # before the next block's are made
    if worst <= INVARIANCE_TOL:
        return EllipticityResult(float(ref[0]), tuple(e1), True, coarse_samples,
                                 0, "invariant-exact", op.epsilon)
    radius, rounds = 0.4, 0
    while rounds < refine_steps and 1.0 + radius != 1.0:
        rounds += 1
        moved = False
        for t in _tangent_basis(xi).T:
            cands = xi + np.outer((radius, -radius), t)
            cands /= np.linalg.norm(cands, axis=1)[:, None]
            fp, fm = lam_min(cands)
            probes = [(fp, cands[0]), (fm, cands[1])]
            denom = fp + fm - 2.0 * val
            if denom > 1e-15:
                sv = 0.5 * radius * (fm - fp) / denom
                cand = xi + np.clip(sv, -radius, radius) * t
                cand /= np.linalg.norm(cand)
                probes.append((lam_min(cand[None])[0], cand))
            pv, pxi = min(probes, key=lambda q: q[0])
            if pv < val:
                val, xi, moved = float(pv), pxi, True
        if not moved:
            radius *= 0.5
    return EllipticityResult(val, tuple(xi), False, coarse_samples,
                             rounds, "sampled-upper-bound", op.epsilon)


def twistor_symbol_rows(max_n: int, tolerance: float,
                        samples: int = TWISTOR_SYMBOL_SAMPLES) -> list:
    """Pointwise twistor symbol law: P_v* P_v is ((n-1)/n) * identity."""
    rows = []
    for n in range(2, max_n + 1):
        op = catalog("twistor", n)
        target = float(op.epsilon)
        S = principal_squares(op, quasi_unit_covectors(n, samples))
        dev = np.linalg.norm(S - target * np.eye(S.shape[1]), 2, axis=(1, 2))
        worst = float(np.max(dev)) / target
        rows.append({
            "family": "twistor-symbol", "n": n, "k": None,
            "declared": exact_to_json(op.epsilon),
            "measured": None, "residual": worst,
            "ok": bool(worst <= tolerance),
        })
    return rows


def twist(op: OperatorSpec, extra_fiber: tuple) -> OperatorSpec:
    """Tensor the symbol with the identity of an auxiliary fiber, given by its label
    tuple, of which only the length is read (BadDegree if empty).

    Twisting preserves both the conformity factor and the ellipticity
    constant; the declared values are carried over unchanged.
    """
    d2 = len(extra_fiber)
    _check_int(BadDegree, "twist needs", "fiber", d2, 1)
    P = op.full_symbol  # columns (direction, fiber), so (direction, fiber, extra) after
    N = np.einsum("fc,ab->facb", P, np.eye(d2)).reshape(len(P) * d2, P.shape[1] * d2)
    return OperatorSpec(f"{op.name}xE{d2}", op.base_dim, N, op.rho_squared, op.epsilon)


# catalog operators that are one projection family's map: (family, declared epsilon
# at (n, k))
_FAMILY_OPERATORS = {
    "dirac": ("clifford", lambda n, k: Fraction(1)),
    "twistor": ("twistor", lambda n, k: Fraction(n - 1, n)),
    "exterior-only": ("exterior", lambda n, k: Fraction(int(k == 0))),
    "interior-only": ("interior", lambda n, k: Fraction(int(k == n))),
}


def catalog(name: str, n: int, k: int | None = None,
            fiber_dim: int | None = None) -> OperatorSpec:
    """Named operator symbols with their declared exact constants.

    connection      identity symbol on an auxiliary fiber of dimension
                    fiber_dim (default 2); rho^2 = 1, epsilon = 1.  The
                    only entry that reads fiber_dim, and it ignores k.
    dirac           Clifford action on spinors (clifford family);
                    epsilon = 1.
    twistor         kernel-of-Clifford projection (twistor family);
                    epsilon = (n-1)/n.  Needs n >= 2.
    hodge           stack of wedge and contraction on degree-k forms,
                    1 <= k <= n-1, weighted by 1/sqrt of the exterior and
                    interior rho^2, which makes it conformal with rho^2 = 1
                    and epsilon the smaller inverse of the two.
    exterior-only   plain wedge symbol (exterior family); injectively
                    elliptic only in degree 0.
    interior-only   plain contraction symbol (interior family);
                    injectively elliptic only in degree n.

    The family operators take rho^2 and their degree window from their
    row of projections.FAMILIES; a k outside that window raises BadDegree,
    and so do a hodge n below 2 or k outside 1..n-1, an n that is not an
    integer >= 1, and a k or fiber_dim that is given but not an integer.
    An unknown name raises UnknownName.  Each spec is built once per
    process, whether the arguments come by position or keyword, with or
    without the argument the entry ignores, and shared, frozen and
    read-only.
    """
    if name == "connection":
        return _catalog(name, n, None, fiber_dim)
    return _catalog(name, n, k, None)


# typed: a float degree such as 2.0 is refused, not served the spec of degree 2
@functools.lru_cache(maxsize=None, typed=True)
def _catalog(name, n, k, fiber_dim):
    if name == "hodge":
        check_form_degree("hodge symbol needs", n, k)
        up, down = (FAMILIES[f].rho_squared(n, k) for f in ("exterior", "interior"))
        return OperatorSpec("hodge", n, np.vstack((
            1.0 / sqrt(up) * exterior_projection(n, k),
            1.0 / sqrt(down) * interior_projection(n, k))),
            Fraction(1), min(1 / up, 1 / down))
    # hodge's n and k are check_form_degree's; every other entry's are checked here
    _check_int(BadDegree, "catalog operators need an integer", "n", n, 1)
    if name == "connection":
        d = 2 if fiber_dim is None else fiber_dim
        _check_int(BadDegree, "connection needs", "fiber_dim", d, 1)
        return OperatorSpec("connection", n, np.eye(n * d), Fraction(1), Fraction(1))
    if name not in _FAMILY_OPERATORS:
        raise UnknownName(f"no catalog operator named {name!r}")
    family, eps = _FAMILY_OPERATORS[name]
    fam = FAMILIES[family]
    window = fam.degrees(n)
    if isinstance(window, range):
        _check_int(BadDegree, f"{name} at n={n} takes", "k", k, window.start, window.stop - 1)
    elif k is not None:
        raise BadDegree(f"{name} at n={n} takes no degree, got k={k}")
    return OperatorSpec(name, n, fam.build(n, k), fam.rho_squared(n, k), eps(n, k))


def parse_op_string(text: str) -> OperatorSpec:
    """Parse 'name:n' or 'name:n:k' catalog references used by the CLI.

    For the connection entry the optional third field is the fiber
    dimension instead of a degree.
    """
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UnknownName(f"operator reference {text!r} is not name:n[:k]")
    name = parts[0]
    try:
        n = int(parts[1])
        k = int(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise UnknownName(f"non-integer field in operator reference {text!r}") from exc
    if name == "connection":
        return catalog(name, n, fiber_dim=k)
    return catalog(name, n, k=k)
