"""First-order operator symbols, ellipticity constants, and twisting.

An operator is carried around as an OperatorSpec: its full symbol is one
linear map P : V* (x) E -> F, and the symbol in the direction of a
covector xi is P_xi = P(xi (x) .) : E -> F.  The injective ellipticity
constant is

    epsilon = inf over unit xi of the smallest eigenvalue of P_xi* P_xi,

infimum over the unit sphere of covectors.  For every catalog symbol the
spectrum of P_xi* P_xi does not depend on xi, which turns the infimum
into one exact eigenvalue computation; the generic fallback is a
deterministic quasi-uniform sphere sweep plus local refinement and is
reported as an upper bound.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .errors import BadDegree, UnknownName, ZeroCovector
from .linmap import LinearMap, identity_map, stack_maps
from .projections import (
    clifford_projection,
    exterior_projection,
    interior_projection,
    twistor_projection,
)
from .spaces import (
    SpaceDescriptor,
    direct_sum,
    dual_space,
    exterior_power,
    fiber_space,
    tensor_product,
)
from .clifford import spinor_space

CATALOG_NAMES = ("connection", "dirac", "twistor", "hodge",
                 "exterior-only", "interior-only")

INVARIANCE_TOL = 1e-8


@dataclass(eq=False)
class OperatorSpec:
    """A first-order operator reduced to its constant-coefficient symbol.

    rho_squared and epsilon hold the declared exact constants (Fraction
    where one exists) or None when nothing is declared; measurements
    never read them silently.
    """

    name: str
    base_dim: int
    domain_fiber: SpaceDescriptor
    target: SpaceDescriptor
    full_symbol: LinearMap
    rho_squared: object = None
    epsilon: object = None

    def symbol_tensor(self) -> np.ndarray:
        """Full symbol reshaped to (target, direction, fiber)."""
        return self.full_symbol.matrix.reshape(
            self.target.dim, self.base_dim, self.domain_fiber.dim
        )


def exact_to_json(x):
    """Fractions go out as 'p/q' strings so exactness survives JSON."""
    if x is None:
        return None
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def symbol_at(op: OperatorSpec, xi) -> LinearMap:
    """Directional symbol P_xi : E -> F for a nonzero real covector xi."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (op.base_dim,):
        raise ZeroCovector(f"covector must have length {op.base_dim}")
    if float(np.linalg.norm(xi)) == 0.0:
        raise ZeroCovector("symbol requested at the zero covector")
    m = np.tensordot(xi, op.symbol_tensor(), axes=([0], [1]))
    return LinearMap(op.domain_fiber, op.target, m)


def principal_square(op: OperatorSpec, xi) -> np.ndarray:
    p = symbol_at(op, xi).matrix
    return p.conj().T @ p


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
    if n < 1 or count < 1:
        raise ValueError("need n >= 1 and count >= 1")
    if n == 1:
        return np.array([[1.0 if j % 2 == 0 else -1.0] for j in range(count)])
    d = 2 * ((n + 1) // 2)
    phi = _generalized_golden(d)
    alpha = np.array([phi ** -(i + 1) for i in range(d)])
    j = np.arange(1, count + 1)[:, None]
    t = np.mod(0.5 + j * alpha[None, :], 1.0)
    t = np.clip(t, 1e-12, 1.0 - 1e-12)
    r = np.sqrt(-2.0 * np.log(t[:, 0::2]))
    th = 2.0 * np.pi * t[:, 1::2]
    g = np.empty((count, d))
    g[:, 0::2] = r * np.cos(th)
    g[:, 1::2] = r * np.sin(th)
    g = g[:, :n]
    norms = np.linalg.norm(g, axis=1)
    degenerate = norms < 1e-9
    if np.any(degenerate):
        g[degenerate, 0] = 1.0
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


def _sorted_square_spectrum(op: OperatorSpec, xi) -> np.ndarray:
    return np.linalg.eigvalsh(principal_square(op, xi))


def invariance_deviation(op: OperatorSpec, sample_count: int = 32) -> float:
    """Largest spectral deviation of P_xi* P_xi across sampled directions."""
    ref = _sorted_square_spectrum(op, unit_covector(op.base_dim))
    worst = 0.0
    for xi in quasi_unit_covectors(op.base_dim, sample_count):
        dev = float(np.max(np.abs(_sorted_square_spectrum(op, xi) - ref)))
        worst = max(worst, dev)
    return worst


def invariance_check(op: OperatorSpec, sample_count: int = 32,
                     tol: float = INVARIANCE_TOL) -> bool:
    """True when the symbol spectrum is direction-independent to tol."""
    return invariance_deviation(op, sample_count) <= tol


@dataclass(frozen=True)
class EllipticityResult:
    epsilon: float
    argmin_xi: tuple
    invariant: bool
    samples: int
    refinement_steps: int
    method: str
    declared: object = None

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


def ellipticity_constant(op: OperatorSpec, coarse_samples: int = 256,
                         refine_steps: int = 20,
                         invariance_samples: int = 32) -> EllipticityResult:
    """Injective ellipticity constant of the symbol.

    Direction-invariant symbols resolve exactly at xi = e_1*.  Otherwise
    a quasi-uniform sweep of coarse_samples directions seeds a local
    search (probes along tangent directions with a quadratic vertex
    guess and shrinking radius); that branch is an upper bound and says
    so in its method field.
    """
    n = op.base_dim

    def lam_min(xi):
        return float(_sorted_square_spectrum(op, xi)[0])

    if invariance_check(op, invariance_samples):
        e1 = unit_covector(n)
        return EllipticityResult(lam_min(e1), tuple(e1), True,
                                 invariance_samples, 0, "invariant-exact",
                                 op.epsilon)
    pts = quasi_unit_covectors(n, coarse_samples)
    vals = np.array([lam_min(xi) for xi in pts])
    best = int(np.argmin(vals))
    xi, val = pts[best].copy(), float(vals[best])
    radius = 0.4
    for _ in range(refine_steps):
        moved = False
        for t in _tangent_basis(xi).T:
            probes = []
            for s in (radius, -radius):
                cand = xi + s * t
                cand /= np.linalg.norm(cand)
                probes.append((lam_min(cand), cand))
            fp, fm = probes[0][0], probes[1][0]
            denom = fp + fm - 2.0 * val
            if denom > 1e-15:
                sv = 0.5 * radius * (fm - fp) / denom
                cand = xi + np.clip(sv, -radius, radius) * t
                cand /= np.linalg.norm(cand)
                probes.append((lam_min(cand), cand))
            pv, pxi = min(probes, key=lambda q: q[0])
            if pv < val:
                val, xi, moved = pv, pxi, True
        if not moved:
            radius *= 0.5
    return EllipticityResult(val, tuple(xi), False, coarse_samples,
                             refine_steps, "sampled-upper-bound", op.epsilon)


def twist(op: OperatorSpec, extra_fiber: SpaceDescriptor) -> OperatorSpec:
    """Tensor the symbol with the identity of an auxiliary fiber.

    Twisting preserves both the conformity factor and the ellipticity
    constant; the declared values are carried over unchanged.
    """
    d2 = extra_fiber.dim
    T = op.symbol_tensor()
    N = np.einsum("fie,ab->faieb", T, np.eye(d2)).reshape(
        op.target.dim * d2, op.base_dim * op.domain_fiber.dim * d2
    )
    dom_fiber = tensor_product((op.domain_fiber, extra_fiber))
    target = tensor_product((op.target, extra_fiber))
    dom = tensor_product((dual_space(op.base_dim), dom_fiber))
    return OperatorSpec(
        name=f"{op.name}xE{d2}",
        base_dim=op.base_dim,
        domain_fiber=dom_fiber,
        target=target,
        full_symbol=LinearMap(dom, target, N),
        rho_squared=op.rho_squared,
        epsilon=op.epsilon,
    )


def default_hodge_weights(n: int, k: int) -> tuple:
    return 1.0 / sqrt(k + 1), 1.0 / sqrt(n - k + 1)


def catalog(name: str, n: int, k: int | None = None, weights=None,
            fiber_dim: int | None = None) -> OperatorSpec:
    """Named operator symbols with their declared exact constants.

    connection      identity symbol on an auxiliary fiber (dim fiber_dim,
                    default 2); rho^2 = 1, epsilon = 1.
    dirac           Clifford action on spinors; rho^2 = n, epsilon = 1.
    twistor         kernel-of-Clifford projection; rho^2 = 1,
                    epsilon = (n-1)/n.  Needs n >= 2.
    hodge           weighted stack of wedge and contraction on degree-k
                    forms, 1 <= k <= n-1; default weights
                    (1/sqrt(k+1), 1/sqrt(n-k+1)) make it conformal with
                    rho^2 = 1 and epsilon = min(1/(k+1), 1/(n-k+1)).
                    Custom weights are allowed and generally break
                    conformity; they are reported, not declared.
    exterior-only   plain wedge symbol; rho^2 = k+1, injectively
                    elliptic only in degree 0.
    interior-only   plain contraction symbol; rho^2 = n-k+1, injectively
                    elliptic only in degree n.
    """
    if name == "connection":
        d = 2 if fiber_dim is None else fiber_dim
        if d < 1:
            raise BadDegree("connection fiber dimension must be >= 1")
        E = fiber_space(d, "coef")
        dom = tensor_product((dual_space(n), E))
        return OperatorSpec("connection", n, E, dom, identity_map(dom),
                            Fraction(1), Fraction(1))
    if name == "dirac":
        P = clifford_projection(n)
        return OperatorSpec("dirac", n, spinor_space(n), P.codomain, P,
                            Fraction(n), Fraction(1))
    if name == "twistor":
        P = twistor_projection(n)
        return OperatorSpec("twistor", n, spinor_space(n), P.codomain, P,
                            Fraction(1), Fraction(n - 1, n))
    if name == "hodge":
        if k is None:
            raise BadDegree("hodge symbol needs a degree k")
        if k < 1 or k > n - 1:
            raise BadDegree(f"hodge symbol needs 1 <= k <= {n - 1}, got k={k}")
        a, b = default_hodge_weights(n, k) if weights is None else weights
        wedge = exterior_projection(n, k).scale(a)
        contr = interior_projection(n, k).scale(b)
        target = direct_sum((exterior_power(n, k + 1), exterior_power(n, k - 1)))
        sym = stack_maps((wedge, contr), target)
        if weights is None:
            rho2 = Fraction(1)
            eps = min(Fraction(1, k + 1), Fraction(1, n - k + 1))
        else:
            up, down = a * a * (k + 1), b * b * (n - k + 1)
            rho2 = up if abs(up - down) <= 1e-12 * max(up, down) else None
            eps = min(a * a, b * b)
        return OperatorSpec("hodge", n, exterior_power(n, k), target, sym,
                            rho2, eps)
    if name == "exterior-only":
        if k is None or k < 0 or k > n - 1:
            raise BadDegree(f"exterior-only needs 0 <= k <= {n - 1}, got k={k}")
        P = exterior_projection(n, k)
        eps = Fraction(1) if k == 0 else Fraction(0)
        return OperatorSpec("exterior-only", n, exterior_power(n, k),
                            P.codomain, P, Fraction(k + 1), eps)
    if name == "interior-only":
        if k is None or k < 1 or k > n:
            raise BadDegree(f"interior-only needs 1 <= k <= {n}, got k={k}")
        P = interior_projection(n, k)
        eps = Fraction(1) if k == n else Fraction(0)
        return OperatorSpec("interior-only", n, exterior_power(n, k),
                            P.codomain, P, Fraction(n - k + 1), eps)
    raise UnknownName(f"no catalog operator named {name!r}")


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
