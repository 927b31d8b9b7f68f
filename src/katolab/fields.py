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

from .errors import BadDegree, FiberMismatch, UnknownScenario, ZeroSection, _check_int
from .kato import (
    INF,
    _form_images,
    _form_map,
    _rsq,
    batch_hodge_margins,
    batch_lemma_gain,
    batch_operator_margins,
    failing_rows,
    finite_minima,
    hodge_gain_pair,
    kato_gain_operator,
    report_json,
)
from .linmap import _row_blocks
from .spaces import exterior_power
from .symbols import OperatorSpec, catalog

FIELD_MARGIN_TOL_FACTOR = 1e-8   # looser than the fuzzers: points accumulate
                                 # rounding through the trig evaluation
SKIP_NORM_FACTOR = 1e-8          # |phi(x)| at most this * the largest sampled |phi| is skipped
CLOSEDNESS_TOL = 1e-13
SYMBOL_CONSISTENCY_TOL = 1e-12
_SECTION_BAND = (8, 3)   # random_field's mode_count and max_freq for every scenario


# ---------------------------------------------------------------------------
# trigonometric fields


def _canonical_mode(m):
    """Frequency in canonical sign: zero, or first nonzero entry positive."""
    m = tuple(int(x) for x in m)
    for x in m:
        if x:
            return m if x > 0 else tuple(-y for y in m)
    return m


class TrigField:
    """Fiber-valued trigonometric polynomial with exact coefficients.

    Frequencies are an integer matrix of K rows, one per mode; the (2K, fiber) table
    coeffs = [A; B] holds their cosine rows over their sine rows.  random_field gives them
    canonical (cos is even, sin is odd) and sorted, and every derived field keeps them.
    """

    def __init__(self, n: int, freqs: np.ndarray, coeffs: np.ndarray):
        self.n = n
        self.freqs = np.asarray(freqs, dtype=np.int64).reshape(-1, n)
        self.coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
        K = len(self.freqs)
        if self.coeffs.ndim != 2 or len(self.coeffs) != 2 * K:
            raise FiberMismatch("coefficient table [A; B] has the wrong shape")
        self.fiber_dim = self.coeffs.shape[1]
        self.cos_coeffs, self.sin_coeffs = self.coeffs[:K], self.coeffs[K:]

    def evaluate(self, points) -> np.ndarray:
        """Values at an (N, n) array of points, one point of n coordinates, or a
        PhaseTable of this field's frequencies, shape (N, fiber_dim); FiberMismatch
        for points of any other shape; one real product of the table with [A; B]."""
        table = points if isinstance(points, PhaseTable) else PhaseTable(self, points)
        if not np.array_equal(table.freqs, self.freqs):
            raise FiberMismatch("phase table was built for other frequencies")
        return (table.trig @ self.coeffs.view(float)).view(np.complex128)

    def map_fiber(self, matrix: np.ndarray) -> "TrigField":
        """Apply a constant fiber map to every coefficient."""
        M = np.asarray(matrix, dtype=np.complex128)
        if M.shape[1] != self.fiber_dim:
            raise FiberMismatch("fiber map does not match the field fiber")
        return TrigField(self.n, self.freqs, self.coeffs @ M.T)

    def gradient(self) -> "TrigField":
        """Full derivative, fiber V* (x) old fiber, direction-major layout."""
        n, dF, K = self.n, self.fiber_dim, len(self.freqs)
        m = self.freqs.astype(float)[:, :, None]   # block i scales by m_i
        sin_cos = self.coeffs.reshape(2, K, 1, dF)[::-1]   # [A; B] -> [m B; -m A]
        return TrigField(n, self.freqs, (np.stack((m, -m)) * sin_cos).reshape(2 * K, n * dF))

    def sup_norm_estimate(self) -> float:
        # coefficient-sum bound; exact enough for scale decisions
        return float(np.sum(np.linalg.norm(self.cos_coeffs, axis=1))
                     + np.sum(np.linalg.norm(self.sin_coeffs, axis=1)))


class PhaseTable:
    """[cos(m.x) | sin(m.x)] for the frequencies of a field at fixed points, one real
    (N, 2K) table; its gradient, d, d* and operator image keep them, so share one table."""

    def __init__(self, f: TrigField, points):
        X = np.asarray(points, dtype=float)
        X = X[None] if X.shape == (f.n,) else X
        if X.ndim != 2 or X.shape[1] != f.n:
            raise FiberMismatch(f"points must be an (N, {f.n}) array or one point of "
                                f"{f.n} coordinates, got shape {X.shape}")
        _check_int(ValueError, "field evaluation needs", "points", len(X), 1)
        phases = X @ f.freqs.T.astype(float)
        K = phases.shape[1]
        self.freqs, self.trig = f.freqs, np.empty((len(X), 2 * K))
        np.cos(phases, out=self.trig[:, :K])
        np.sin(phases, out=self.trig[:, K:])


def random_field(n: int, fiber_dim: int, mode_count: int, max_freq: int,
                 rng) -> TrigField:
    """Random band-limited field; always includes the constant mode.

    mode_count is capped at the number of canonical frequencies with
    entries in [-max_freq, max_freq], ((2 max_freq + 1)^n - 1)/2 + 1.  ValueError
    unless n and mode_count are integers >= 1 and fiber_dim and max_freq ones >= 0.
    """
    for name, x, lo in (("n", n, 1), ("fiber_dim", fiber_dim, 0),
                        ("mode_count", mode_count, 1), ("max_freq", max_freq, 0)):
        _check_int(ValueError, "random field needs", name, x, lo)
    # mode_count < 2^63 < 3^64 / 2: past n = 64 the cap cannot bind
    mode_count = min(mode_count, ((2 * max_freq + 1) ** min(n, 64) - 1) // 2 + 1)

    def coeffs():
        return rng.standard_normal(fiber_dim) + 1j * rng.standard_normal(fiber_dim)

    # (cos, sin) per canonical frequency; sin(0) contributes nothing
    modes = {(0,) * n: (coeffs(), np.zeros(fiber_dim))}
    while len(modes) < mode_count:
        key = _canonical_mode(rng.integers(-max_freq, max_freq + 1, size=n))
        if key not in modes:
            modes[key] = (coeffs(), coeffs())
    keys = sorted(modes)
    return TrigField(n, keys, [modes[key][half] for half in (0, 1) for key in keys])


# ---------------------------------------------------------------------------
# form calculus at the coefficient level


def exterior_derivative(f: TrigField, k: int) -> TrigField:
    """d of a degree-k form field: the wedge symbol applied to its gradient (extra
    fiber factors, f.fiber_dim // C(n, k) of them, ride along); BadDegree unless k is
    in 0..n."""
    _check_int(BadDegree, "exterior derivative needs", "k", k, 0, f.n)
    extra = f.fiber_dim // math.comb(f.n, k)
    return f.gradient().map_fiber(_form_map(f.n, k, extra, True))


def coderivative(f: TrigField, k: int) -> TrigField:
    """Codifferential of a degree-k form field: minus the contraction symbol applied
    to its gradient, the adjoint of d on the flat torus; BadDegree unless k is in 0..n."""
    _check_int(BadDegree, "coderivative needs", "k", k, 0, f.n)
    extra = f.fiber_dim // math.comb(f.n, k)
    return f.gradient().map_fiber(-_form_map(f.n, k, extra, False))


def hodge_star_matrix(n: int, k: int) -> np.ndarray:
    """Matrix of the Hodge star from degree k to degree n-k forms."""
    labels_k, labels_c = exterior_power(n, k), exterior_power(n, n - k)
    pos = {lab: j for j, lab in enumerate(labels_c)}
    S = np.zeros((len(labels_c), len(labels_k)))
    for j, lab in enumerate(labels_k):
        comp = tuple(i for i in range(1, n + 1) if i not in lab)
        # lab + comp has sum(lab) - k(k+1)/2 inversions: lab's i-th entry a (from 0)
        # comes before the a - 1 - i smaller entries of comp
        S[pos[comp], j] = (-1) ** (sum(lab) - k * (k + 1) // 2)
    return S


# ---------------------------------------------------------------------------
# deterministic sample grids


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def sample_points(n: int, count: int) -> np.ndarray:
    """Deterministic near-uniform grid on the torus, irrational offsets."""
    _check_int(ValueError, "sampling needs", "n", n, 1)
    _check_int(ValueError, "sampling needs", "points", count, 1)
    q = max(2, math.ceil(count ** (1.0 / n)))
    while q ** n < count:
        q += 1
    # the first count rows of the row-major q^n mesh, digit by digit from the last axis:
    # q^n itself may not fit an index
    rest, index = np.arange(count), [None] * n
    for j in reversed(range(n)):
        rest, index[j] = np.divmod(rest, q)
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
    _check_int(UnknownScenario, f"{name} needs", "n", n, n_min, n_max)
    own = _degree(name, n)
    k = own if k is None else k
    if theorem == "hodge" and degree is None:
        _check_int(UnknownScenario, f"{name} needs", "k", k, 1, n - 1)
    elif k != own:
        raise UnknownScenario(
            f"{name} takes {'no k' if own is None else f'only k={own}'}, got k={k}")
    rng = np.random.default_rng(seed)
    if theorem != "hodge":
        op = catalog(theorem, n)
        f = random_field(n, op.fiber_dim, *_SECTION_BAND, rng)
        return Scenario(name, "foldo", n, None, op.fiber_dim, f,
                        operator=op, notes=notes)
    f = random_field(n, math.comb(n, k + shift) * extra, *_SECTION_BAND, rng)
    if shift:
        f = (exterior_derivative if shift < 0 else coderivative)(f, k + shift)
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


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Row norms of a complex array or its real view, summed with no conjugate copy."""
    return np.sqrt(_rsq(np.ascontiguousarray(a).view(float)))


def _max_row_norm(a: np.ndarray) -> float:
    """Largest row norm of a complex array or its real view; np.max keeps a NaN."""
    return float(np.max(_row_norms(a)))


def symbol_consistency_residual(sc: Scenario, points: np.ndarray) -> float:
    """Worst pointwise gap between a symbol applied to the gradient's coefficients
    (d and d* for forms, the operator otherwise) and the same symbol applied to the
    evaluated gradient, relative to the gradient's sup.  points may be a PhaseTable.
    """
    f = sc.section
    grad_vals = f.gradient().evaluate(points)
    ref = max(_max_row_norm(grad_vals), 1e-300)
    if sc.theorem == "hodge":
        d_vals = exterior_derivative(f, sc.k).evaluate(points).view(float)
        cod_vals = coderivative(f, sc.k).evaluate(points).view(float)
        # both symbol images in one real product per row block, where (fiber, re/im)
        # is a real fiber: a whole product's threaded BLAS buffers outgrow its output
        G, E = grad_vals.view(float), _form_images(sc.n, sc.k, 2 * sc.fiber_dim)
        for r in _row_blocks(len(G), G.shape[1]):
            img = G[r] @ E
            d_vals[r] -= img[:, :d_vals.shape[1]]
            cod_vals[r] += img[:, d_vals.shape[1]:]
        return max(_max_row_norm(d_vals), _max_row_norm(cod_vals)) / ref
    # first order with constant coefficients: the operator is its full
    # symbol applied to the coefficients of the gradient
    op_vals = f.gradient().map_fiber(sc.operator.full_symbol).evaluate(points)
    op_vals -= grad_vals @ sc.operator.full_symbol.T
    return _max_row_norm(op_vals) / ref


def closedness_residual(sc: Scenario, points: np.ndarray) -> float | None:
    """Sup of the certified-zero derivative over points (or a PhaseTable), or None."""
    if sc.theorem != "hodge" or (not sc.d_vanishing and not sc.dstar_vanishing):
        return None
    f = sc.section
    ref = max(f.gradient().sup_norm_estimate(), 1e-300)
    pairs = ((sc.d_vanishing, exterior_derivative), (sc.dstar_vanishing, coderivative))
    # np.max, unlike max, keeps a NaN
    return float(np.max([_max_row_norm(derivative(f, sc.k).evaluate(points))
                         for certified, derivative in pairs if certified])) / ref


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
    norms = _row_norms(phi)
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
    # the fuzzers' pass rule per point, at the field lab's tolerance
    nonfinite, failing = failing_rows(out, FIELD_MARGIN_TOL_FACTOR)
    return {
        "points": X[keep], "margin": margin,
        "tol_scale": tol_scale, "nonfinite": nonfinite, "ok": ~failing,
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
