"""Field laboratory: trigonometric sections on the flat torus.

A field is a finite trigonometric polynomial on R^n / 2 pi Z^n with
values in a fixed fiber,

    f(x) = sum_m  a_m cos(m.x) + b_m sin(m.x),

held as exact coefficient tables keyed by integer frequency vectors.
Differentiation, the exterior derivative, and the codifferential act on
the coefficients, so certificates like "this form is d of something"
are exact by construction, not approximate.  Scenario runners sample
such fields on deterministic grids and feed every point through the
same batched inequality arithmetic used by the fuzzers.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import FiberMismatch, UnknownScenario, ZeroSection
from .kato import (
    INF,
    _form_kit,
    _row_blocks,
    batch_hodge_margins,
    batch_lemma_gain,
    batch_operator_margins,
    finite_minima,
    hodge_gain_pair,
    kato_gain_operator,
    nonfinite_rows,
    report_json,
)
from .spaces import exterior_power, wedge_delete, wedge_insert
from .symbols import OperatorSpec, catalog

FIELD_MARGIN_TOL_FACTOR = 1e-8   # looser than the fuzzers: points accumulate
                                 # rounding through the trig evaluation
SKIP_NORM_FACTOR = 1e-8          # |phi(x)| below this * sup|phi| is skipped
CLOSEDNESS_TOL = 1e-13
SYMBOL_CONSISTENCY_TOL = 1e-12
_SECTION_BAND = (8, 3)   # random_field's mode_count and max_freq for every scenario


# ---------------------------------------------------------------------------
# trigonometric fields


def _canonical_mode(m):
    """Frequency in canonical sign: zero, or first nonzero entry positive."""
    m = tuple(int(x) for x in m)
    for x in m:
        if x > 0:
            return m, 1
        if x < 0:
            return tuple(-y for y in m), -1
    return m, 1


class TrigField:
    """Fiber-valued trigonometric polynomial with exact coefficients.

    Frequencies are stored canonically (cos is even, sin is odd), sorted,
    as an integer matrix; cosine and sine coefficient rows line up with
    them.  The sine row of the zero frequency is identically dropped.
    """

    def __init__(self, n: int, fiber_dim: int, freqs: np.ndarray,
                 cos_coeffs: np.ndarray, sin_coeffs: np.ndarray):
        self.n = n
        self.fiber_dim = fiber_dim
        self.freqs = np.asarray(freqs, dtype=np.int64).reshape(-1, n)
        self.cos_coeffs = np.asarray(cos_coeffs, dtype=np.complex128)
        self.sin_coeffs = np.asarray(sin_coeffs, dtype=np.complex128)
        if self.cos_coeffs.shape != (len(self.freqs), fiber_dim):
            raise FiberMismatch("cosine coefficient table has the wrong shape")
        if self.sin_coeffs.shape != (len(self.freqs), fiber_dim):
            raise FiberMismatch("sine coefficient table has the wrong shape")

    @classmethod
    def from_modes(cls, n: int, fiber_dim: int, modes) -> "TrigField":
        """Build from (frequency, cos coefficient, sin coefficient) triples."""
        table: dict = {}
        for m, a, b in modes:
            key, sign = _canonical_mode(m)
            a = np.asarray(a, dtype=np.complex128).reshape(fiber_dim)
            b = np.asarray(b, dtype=np.complex128).reshape(fiber_dim)
            acc = table.setdefault(key, [np.zeros(fiber_dim, dtype=np.complex128),
                                         np.zeros(fiber_dim, dtype=np.complex128)])
            acc[0] += a
            acc[1] += sign * b
        keys = sorted(table)
        freqs = np.array(keys, dtype=np.int64).reshape(-1, n)
        cos_c = np.array([table[k][0] for k in keys]).reshape(-1, fiber_dim)
        sin_c = np.array([table[k][1] for k in keys]).reshape(-1, fiber_dim)
        for row, key in enumerate(keys):
            if all(x == 0 for x in key):
                sin_c[row] = 0.0  # sin(0) contributes nothing
        return cls(n, fiber_dim, freqs, cos_c, sin_c)

    def evaluate(self, points) -> np.ndarray:
        """Values at an (N, n) array of points, or at a PhaseTable of this
        field's frequencies, shape (N, fiber_dim)."""
        table = points if isinstance(points, PhaseTable) else PhaseTable(self, points)
        if not np.array_equal(table.freqs, self.freqs):
            raise FiberMismatch("phase table was built for other frequencies")
        return table.values(self.cos_coeffs, self.sin_coeffs)

    def map_fiber(self, matrix: np.ndarray) -> "TrigField":
        """Apply a constant fiber map to every coefficient."""
        M = np.asarray(matrix, dtype=np.complex128)
        if M.shape[1] != self.fiber_dim:
            raise FiberMismatch("fiber map does not match the field fiber")
        return TrigField(self.n, M.shape[0], self.freqs,
                         self.cos_coeffs @ M.T, self.sin_coeffs @ M.T)

    def gradient(self) -> "TrigField":
        """Full derivative, fiber V* (x) old fiber, direction-major layout."""
        n, dF = self.n, self.fiber_dim
        K = len(self.freqs)
        cos_g = np.zeros((K, n * dF), dtype=np.complex128)
        sin_g = np.zeros((K, n * dF), dtype=np.complex128)
        for i in range(n):
            mi = self.freqs[:, i].astype(float)[:, None]
            cos_g[:, i * dF:(i + 1) * dF] = mi * self.sin_coeffs
            sin_g[:, i * dF:(i + 1) * dF] = -mi * self.cos_coeffs
        return TrigField(n, n * dF, self.freqs, cos_g, sin_g)

    def sup_norm_estimate(self) -> float:
        # coefficient-sum bound; exact enough for scale decisions
        return float(np.sum(np.linalg.norm(self.cos_coeffs, axis=1))
                     + np.sum(np.linalg.norm(self.sin_coeffs, axis=1)))


class PhaseTable:
    """cos(m.x) and sin(m.x) for the frequencies of a field at fixed points;
    its gradient, d, d* and operator image keep them, so share one table."""

    def __init__(self, f: TrigField, points):
        X = np.asarray(points, dtype=float).reshape(-1, f.n)
        phases = X @ f.freqs.T.astype(float)
        self.freqs, self.cos, self.sin = f.freqs, np.cos(phases), np.sin(phases)

    def values(self, cos_coeffs: np.ndarray, sin_coeffs: np.ndarray) -> np.ndarray:
        """sum_m cos(m.x) a_m + sin(m.x) b_m per point, as real matmuls filled in
        row blocks, so the only temporary is one block's sine product."""
        A = np.ascontiguousarray(cos_coeffs).view(float)
        B = np.ascontiguousarray(sin_coeffs).view(float)
        out = np.empty((len(self.cos), A.shape[1]))
        # blocks sized by rows alone (width 0), cut at multiples of 48 rows:
        # single-threaded OpenBLAS sums a product of fewer than about 420 rows of 300
        # reals, and the rows after a product's last full 12-row tile, in another
        # order, so only such cuts keep the bits of one whole product
        for r in _row_blocks(len(out), 0, align=48):
            np.matmul(self.cos[r], A, out=out[r])
            out[r] += self.sin[r] @ B
        return out.view(np.complex128)


def random_field(n: int, fiber_dim: int, mode_count: int, max_freq: int,
                 rng) -> TrigField:
    """Random band-limited field; always includes the constant mode.

    mode_count is capped at the number of canonical frequencies with
    entries in [-max_freq, max_freq], ((2 max_freq + 1)^n - 1)/2 + 1.
    """
    mode_count = min(mode_count, ((2 * max_freq + 1) ** n - 1) // 2 + 1)
    modes = [(tuple([0] * n),
              rng.standard_normal(fiber_dim) + 1j * rng.standard_normal(fiber_dim),
              np.zeros(fiber_dim))]
    seen = set()
    while len(modes) < mode_count:
        m = tuple(int(x) for x in rng.integers(-max_freq, max_freq + 1, size=n))
        key, _ = _canonical_mode(m)
        if all(x == 0 for x in key) or key in seen:
            continue
        seen.add(key)
        modes.append((key,
                      rng.standard_normal(fiber_dim) + 1j * rng.standard_normal(fiber_dim),
                      rng.standard_normal(fiber_dim) + 1j * rng.standard_normal(fiber_dim)))
    return TrigField.from_modes(n, fiber_dim, modes)


# ---------------------------------------------------------------------------
# form calculus at the coefficient level


def _form_derivative(f: TrigField, k: int, extra_dim: int, up: bool) -> TrigField:
    """d (up) or the codifferential of a degree-k form field, per frequency.

    The partial derivative swaps cos and sin rows with the frequency
    factor; the wedge (up) or the contraction reshuffles label slots with
    its signs, negated for the codifferential.
    """
    n = f.n
    if f.fiber_dim != math.comb(n, k) * extra_dim:
        raise FiberMismatch(f"fiber dim {f.fiber_dim} is not C({n},{k}) * {extra_dim}")
    degree = k + 1 if up else k - 1
    labels_out = exterior_power(n, degree).labels if 0 <= degree <= n else []
    pos = {lab: j for j, lab in enumerate(labels_out)}
    K, width = len(f.freqs), len(labels_out) * extra_dim
    cos_d = np.zeros((K, width), dtype=np.complex128)
    sin_d = np.zeros((K, width), dtype=np.complex128)
    A = f.cos_coeffs.reshape(K, -1, extra_dim)
    B = f.sin_coeffs.reshape(K, -1, extra_dim)
    for j, lab in enumerate(exterior_power(n, k).labels):
        for i in range(1, n + 1):
            hit = wedge_insert(i, lab) if up else wedge_delete(i, lab)
            if hit is None:
                continue
            sign, out = hit[0] if up else -hit[0], hit[1]
            t = pos[out]
            mi = f.freqs[:, i - 1].astype(float)[:, None]
            cos_d[:, t * extra_dim:(t + 1) * extra_dim] += sign * mi * B[:, j]
            sin_d[:, t * extra_dim:(t + 1) * extra_dim] -= sign * mi * A[:, j]
    return TrigField(n, width, f.freqs, cos_d, sin_d)


def exterior_derivative(f: TrigField, k: int, extra_dim: int = 1) -> TrigField:
    """d of a degree-k form field (extra fiber factors ride along)."""
    return _form_derivative(f, k, extra_dim, up=True)


def coderivative(f: TrigField, k: int, extra_dim: int = 1) -> TrigField:
    """Codifferential of a degree-k form field: minus contraction of the
    derivative, matching the adjoint of d on the flat torus."""
    return _form_derivative(f, k, extra_dim, up=False)


def hodge_star_matrix(n: int, k: int) -> np.ndarray:
    """Matrix of the Hodge star from degree k to degree n-k forms."""
    labels_k = exterior_power(n, k).labels
    labels_c = exterior_power(n, n - k).labels
    pos = {lab: j for j, lab in enumerate(labels_c)}
    S = np.zeros((len(labels_c), len(labels_k)))
    full = list(range(1, n + 1))
    for j, lab in enumerate(labels_k):
        comp = tuple(i for i in full if i not in lab)
        perm = list(lab) + list(comp)
        sign = 1
        for a in range(len(perm)):          # parity by counting inversions
            for b in range(a + 1, len(perm)):
                if perm[a] > perm[b]:
                    sign = -sign
        S[pos[comp], j] = sign
    return S


# ---------------------------------------------------------------------------
# deterministic sample grids


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def sample_points(n: int, count: int) -> np.ndarray:
    """Deterministic near-uniform grid on the torus, irrational offsets."""
    q = max(2, math.ceil(count ** (1.0 / n)))
    while q ** n < count:
        q += 1
    # the first count rows of the row-major q^n mesh, without building it
    index = np.unravel_index(np.arange(count), (q,) * n)
    offsets = [math.modf(_GOLDEN * (j + 1))[0] for j in range(n)]
    return np.stack([(index[j] + offsets[j]) * (2.0 * math.pi / q) for j in range(n)],
                    axis=1)


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class Scenario:
    """A section field paired with the inequality it is meant to probe."""

    name: str
    theorem: str                 # "foldo" or "hodge"
    n: int
    k: int | None
    fiber_dim: int               # extra fiber on forms, full fiber otherwise
    section: TrigField
    operator: OperatorSpec | None = None
    d_vanishing: bool | None = None        # exact certificates, None = detect
    dstar_vanishing: bool | None = None
    notes: str = ""


@dataclass
class ScenarioReport:
    scenario: str
    theorem: str
    operator: str
    n: int
    k: int | None
    fiber_dim: int
    c: float
    c_star: float | None
    sample_points: int
    skipped_points: int
    violations: int
    min_margin: float
    min_relative_margin: float
    branch: str
    gain_bound: float
    refined_limit_constant: str | None
    closedness_residual: float | None
    symbol_residual: float
    tolerance_factor: float
    seed: int
    extras: dict = dc_field(default_factory=dict)
    nonfinite: int = 0   # points with a non-finite number, counted as violations too

    @property
    def passed(self) -> bool:
        ok = self.violations == 0
        if self.closedness_residual is not None:
            ok = ok and self.closedness_residual <= CLOSEDNESS_TOL
        return ok and self.symbol_residual <= SYMBOL_CONSISTENCY_TOL

    def to_json_dict(self) -> dict:
        return report_json(self)


# One row per scenario, in grid order: (theorem, lowest n, highest n, degree,
# potential shift, extra fiber, notes).  theorem is "hodge" or the catalog
# operator of a foldo scenario.  degree None takes the caller's k, default 1
# at n = 2 and 2 above.  Shift -1 makes the section d of a degree k-1
# potential and certifies d = 0, +1 the codifferential of a degree k+1
# potential and certifies d* = 0, 0 a random section.
_SCENARIOS = {
    "generic-form": ("hodge", 2, INF, None, 0, 1, "no certificates, both branches detected"),
    "closed-form": ("hodge", 2, INF, None, -1, 1,
                    "section is d of a potential, closedness exact"),
    "coclosed-form": ("hodge", 2, INF, None, 1, 1,
                      "section is the codifferential of a potential"),
    "yang-mills-F": ("hodge", 3, INF, 2, -1, 3, "curvature-style 2-form with a 3-dim "
                     "fiber; the second structure identity is exact"),
    "instanton-F": ("hodge", 4, 4, 2, -1, 3, "self-dual part of a curvature-style 2-form"),
    "monopole-omega": ("hodge", 3, 3, 1, 1, 1, "coclosed 1-form in three dimensions"),
    "dirac-spinor": ("dirac", 1, INF, None, 0, 1, ""),
    "twistor-spinor": ("twistor", 2, INF, None, 0, 1, ""),
    "higgs-dPhi": ("hodge", 2, INF, 1, -1, 1, "gradient 1-form of a scalar potential"),
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def _degree(name: str, n: int) -> int | None:
    """The degree a scenario takes at dimension n unless the caller picks one."""
    theorem, _, _, degree = _SCENARIOS[name][:4]
    if theorem != "hodge":
        return None
    return min(2, n - 1) if degree is None else degree


def make_scenario(name: str, n: int, k: int | None = None, seed: int = 0) -> Scenario:
    """Build the section field and certificates for a named scenario."""
    if name not in _SCENARIOS:
        raise UnknownScenario(f"unknown scenario '{name}'; choose from "
                              + ", ".join(SCENARIO_NAMES))
    theorem, n_min, n_max, degree, shift, extra, notes = _SCENARIOS[name]
    if not n_min <= n <= n_max:
        raise UnknownScenario(
            f"{name} is a dimension-{n_min} scenario, got n={n}"
            if n_min == n_max else f"{name} needs n >= {n_min}, got n={n}")
    own = _degree(name, n)
    k = own if k is None else k
    if theorem == "hodge" and degree is None:
        if k < 1 or k > n - 1:
            raise UnknownScenario(f"{name} needs 1 <= k <= {n - 1}, got k={k}")
    elif k != own:
        raise UnknownScenario(
            f"{name} takes {'no k' if own is None else f'only k={own}'}, got k={k}")
    rng = np.random.default_rng(seed)
    if theorem != "hodge":
        op = catalog(theorem, n)
        f = random_field(n, op.domain_fiber.dim, *_SECTION_BAND, rng)
        return Scenario(name, "foldo", n, None, op.domain_fiber.dim, f,
                        operator=op, notes=notes)
    f = random_field(n, math.comb(n, k + shift) * extra, *_SECTION_BAND, rng)
    if shift:
        f = (exterior_derivative if shift < 0 else coderivative)(f, k + shift, extra)
    d_vanishing, dstar_vanishing = shift < 0 or None, shift > 0 or None
    if name == "instanton-F":  # its self-dual part is in general neither closed nor coclosed
        sd = np.kron((np.eye(6) + hodge_star_matrix(4, 2)) / 2.0, np.eye(extra))
        f, d_vanishing, dstar_vanishing = f.map_fiber(sd), None, None
    return Scenario(name, "hodge", n, k, extra, f, d_vanishing=d_vanishing,
                    dstar_vanishing=dstar_vanishing, notes=notes)


def scenario_grid(dims) -> list:
    """(name, n, k) combinations defined for the given dimensions."""
    return [(name, n, _degree(name, n)) for n in dims
            for name, (_, n_min, n_max, *_) in _SCENARIOS.items() if n_min <= n <= n_max]


# ---------------------------------------------------------------------------
# consistency residuals


def _max_row_norm(a: np.ndarray) -> float:
    """Largest row norm of a complex array, one row block at a time; np.max keeps a
    NaN, and each row's norm has the same bits as over the whole array."""
    return float(np.max([np.max(np.linalg.norm(a[r], axis=1))
                         for r in _row_blocks(len(a), 2 * a.shape[1])]))


def symbol_consistency_residual(sc: Scenario, points: np.ndarray) -> float:
    """Worst pointwise gap between coefficient calculus and symbol action.

    For form scenarios: d and the codifferential evaluated from their
    coefficient tables against the wedge/contraction symbol applied to
    the evaluated gradient.  For operator scenarios: the operator applied
    at the coefficient level against the symbol on gradient values.
    Relative to the sup of the gradient.  points may be a PhaseTable.
    """
    f = sc.section
    grad_vals = f.gradient().evaluate(points)
    ref = max(_max_row_norm(grad_vals), 1e-300)
    if sc.theorem == "hodge":
        eps_mat, iota_mat = _form_kit(sc.n, sc.k).flat_maps(sc.fiber_dim)
        d_vals = exterior_derivative(f, sc.k, sc.fiber_dim).evaluate(points)
        d_vals -= grad_vals @ eps_mat.T
        cod_vals = coderivative(f, sc.k, sc.fiber_dim).evaluate(points)
        cod_vals += grad_vals @ iota_mat.T
        return max(_max_row_norm(d_vals), _max_row_norm(cod_vals)) / ref
    # first order with constant coefficients: the operator is its full
    # symbol applied to the coefficients of the gradient
    op_vals = f.gradient().map_fiber(sc.operator.full_symbol.matrix).evaluate(points)
    op_vals -= grad_vals @ sc.operator.full_symbol.matrix.T
    return _max_row_norm(op_vals) / ref


def closedness_residual(sc: Scenario, points: np.ndarray) -> float | None:
    """Sup of the certified-zero derivative over points (or a PhaseTable), or None."""
    if sc.theorem != "hodge" or (not sc.d_vanishing and not sc.dstar_vanishing):
        return None
    f = sc.section
    ref = max(f.gradient().sup_norm_estimate(), 1e-300)
    worst = 0.0
    for certified, derivative in ((sc.d_vanishing, exterior_derivative),
                                  (sc.dstar_vanishing, coderivative)):
        if certified:
            vals = derivative(f, sc.k, sc.fiber_dim).evaluate(points)
            worst = max(worst, _max_row_norm(vals))
    return worst / ref


# ---------------------------------------------------------------------------
# scenario runner


def _refined_limit(sc: Scenario) -> str | None:
    if sc.theorem == "hodge":
        return str(1 + hodge_gain_pair(0, 0, sc.n, sc.k, True, True).overall)
    rho = sc.operator.rho_squared
    eps = sc.operator.epsilon
    if rho is None or eps is None:
        return None
    g = kato_gain_operator(0, rho, eps, True)
    return None if g == INF else str(1 + g)


def evaluate_scenario(sc: Scenario, X: np.ndarray, c: float,
                      c_star: float) -> dict:
    """Per-point margins of a scenario on given points.

    Returns kept points, margins, the per-point tolerance scales, the
    per-point pass mask ok, and the labeling the report needs, plus the
    phase table of X for the residual checks.  Points where the section nearly vanishes are
    dropped (the surrogate is undefined there).
    """
    table = PhaseTable(sc.section, X)
    phi = sc.section.evaluate(table)
    grads = sc.section.gradient().evaluate(table)
    norms = np.linalg.norm(phi, axis=1)
    keep = norms > SKIP_NORM_FACTOR * float(np.max(norms))
    if not np.any(keep):
        raise ZeroSection(f"scenario {sc.name} produced a vanishing section")
    if not np.all(keep):
        phi, grads = phi[keep], grads[keep]
    if sc.theorem == "hodge":
        out = batch_hodge_margins(sc.n, sc.k, sc.fiber_dim, grads, phi,
                                  c, c_star, d_vanishing=sc.d_vanishing,
                                  dstar_vanishing=sc.dstar_vanishing)
        margin = np.minimum(out["margin"], out["margin_cor"])
        tol_scale = np.maximum(out["full_scale"], out["cor_scale"])
        gain = float(np.min(out["gain"]))
        branch = ("vanishing" if (sc.d_vanishing or sc.dstar_vanishing)
                  else "nonvanishing")
        op_label = f"hodge:{sc.n}:{sc.k}"
        cstar_out = float(c_star)
        # per-side gains under the declared certificates; the bound in
        # force is their minimum, but each side is worth reporting
        side_gains = {
            "gain_d": float(batch_lemma_gain(c, sc.k, bool(sc.d_vanishing))),
            "gain_dstar": float(batch_lemma_gain(c_star, sc.n - sc.k,
                                                 bool(sc.dstar_vanishing)))}
    else:
        out = batch_operator_margins(sc.operator, grads, phi, c)
        margin, tol_scale = out["margin"], out["full_scale"]
        # the bound in force at non-vanishing points
        gain = float(np.min(np.where(out["vanishing"], INF, out["gain"])))
        branch = "vanishing" if bool(np.all(out["vanishing"])) else "nonvanishing"
        op_label = sc.operator.name
        cstar_out = None
        side_gains = {}
    nonfinite = nonfinite_rows(out)
    return {
        "points": X[keep], "kept": keep, "margin": margin,
        "tol_scale": tol_scale, "nonfinite": nonfinite,
        # the pass rule per point; a NaN margin compares False and fails
        "ok": ~nonfinite & (margin >= -FIELD_MARGIN_TOL_FACTOR * tol_scale),
        "gain": gain, "branch": branch,
        "operator": op_label, "c_star": cstar_out,
        "skipped": int(np.sum(~keep)), "side_gains": side_gains, "table": table,
    }


def scenario_report(sc: Scenario, X: np.ndarray, ev: dict, c: float,
                    seed: int) -> ScenarioReport:
    """The report of a scenario whose points X gave ev = evaluate_scenario(...)."""
    nonfinite = ev["nonfinite"]
    min_margin, min_rel = finite_minima(ev["margin"], ev["tol_scale"], ~nonfinite)
    return ScenarioReport(
        scenario=sc.name, theorem=sc.theorem, operator=ev["operator"], n=sc.n,
        k=sc.k, fiber_dim=sc.fiber_dim, c=float(c), c_star=ev["c_star"],
        sample_points=int(len(X)), skipped_points=ev["skipped"],
        violations=int(np.sum(~ev["ok"])), min_margin=min_margin,
        min_relative_margin=min_rel, branch=ev["branch"], gain_bound=ev["gain"],
        refined_limit_constant=_refined_limit(sc),
        closedness_residual=closedness_residual(sc, ev["table"]),
        symbol_residual=symbol_consistency_residual(sc, ev["table"]),
        tolerance_factor=FIELD_MARGIN_TOL_FACTOR, seed=seed,
        extras={**ev["side_gains"], "notes": sc.notes},
        nonfinite=int(np.sum(nonfinite)),
    )


def run_scenario(name: str, n: int, k: int | None = None, c: float = 1.0,
                 c_star: float = 1.0, points: int = 10000,
                 seed: int = 0) -> ScenarioReport:
    """Sample a scenario on its grid and check every admissible point."""
    sc = make_scenario(name, n, k=k, seed=seed)
    X = sample_points(sc.n, points)
    return scenario_report(sc, X, evaluate_scenario(sc, X, c, c_star), c, seed)
