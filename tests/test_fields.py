"""Field calculus tests.

Derivatives are checked against central finite differences, and the
sign convention of the codifferential against exact torus quadrature:
on a grid finer than twice the bandwidth, averages of trigonometric
polynomials are exact integrals, so the L2 adjointness of d and the
codifferential is testable to rounding.
"""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import katolab
from katolab import fields, kato
from katolab.errors import (BadDegree, BrokenIdentity, FiberMismatch, UnknownScenario,
                            ZeroSection)
from katolab.fields import (
    CLOSEDNESS_TOL,
    SCENARIO_NAMES,
    SYMBOL_CONSISTENCY_TOL,
    PhaseTable,
    Scenario,
    TrigField,
    closedness_residual,
    coderivative,
    evaluate_scenario,
    exterior_derivative,
    hodge_star_matrix,
    make_scenario,
    random_field,
    run_scenario,
    sample_points,
    scenario_grid,
    scenario_report,
    symbol_consistency_residual,
)
from katolab.spaces import exterior_power, wedge_delete, wedge_insert
from katolab.symbols import OperatorSpec, catalog


def _dense_grid(n, q):
    axes = [np.arange(q) * (2 * np.pi / q) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# core field mechanics


def test_zero_mode_sine_dropped():
    # random_field's frequencies are distinct, canonical (zero, or first nonzero
    # entry positive) and sorted, the zero one among them with a sine row of +0.0
    for n, fiber, seed in [(1, 1, 0), (2, 3, 4), (4, 2, 9)]:
        f = random_field(n, fiber, 8, 3, np.random.default_rng(seed))
        keys = [tuple(m) for m in f.freqs.tolist()]
        assert keys == sorted(set(keys)) and keys[0] == (0,) * n
        assert all(next(x for x in m if x) > 0 for m in keys[1:])
        assert np.all(f.cos_coeffs[0] != 0)
        sin0 = f.sin_coeffs[0].view(float)
        assert np.all(sin0 == 0) and not np.any(np.signbit(sin0))


# sha256 of freqs, cos and sin bytes of random_field(n, fiber, 8, 3, default_rng(seed)),
# recorded when the field was assembled by merging a list of modes
_RANDOM_FIELD_SHA256 = {
    (1, 1, 0): "467bda94d71c3286f65aec062ba5ee5e6ef33b899c0883556a92e189ca65bc25",
    (2, 3, 5): "c25184a39ce3fa39b60dbca09f03476501dd3769c7ccf936282d5d02e9180846",
    (3, 1, 17): "21a9e61c5e1fda5a1eedced7e8162317775222175f225ae844cb6501c5571b3f",
    (4, 6, 29): "2b4866a8e3a2ae651a9203b833c93abc0b1933eb353bdc52d7c01191e3e3a161",
    (5, 3, 2): "acdaa83c2e04dd55ddd0e342ffc0647d5afef07c603dd3b6ce2b767194ce0abb",
}


@pytest.mark.parametrize("n, fiber, seed", list(_RANDOM_FIELD_SHA256))
def test_random_field_bytes_are_pinned(n, fiber, seed):
    f = random_field(n, fiber, 8, 3, np.random.default_rng(seed))
    digest = hashlib.sha256(f.freqs.tobytes() + f.cos_coeffs.tobytes()
                            + f.sin_coeffs.tobytes()).hexdigest()
    assert digest == _RANDOM_FIELD_SHA256[(n, fiber, seed)]


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for n, dF in [(2, 1), (3, 4)]:
        f = random_field(n, dF, 6, 3, rng)
        grad = f.gradient()
        X = rng.uniform(0, 2 * np.pi, size=(20, n))
        gvals = grad.evaluate(X).reshape(20, n, dF)
        h = 1e-5
        for i in range(n):
            step = np.zeros(n)
            step[i] = h
            fd = (f.evaluate(X + step) - f.evaluate(X - step)) / (2 * h)
            assert np.max(np.abs(fd - gvals[:, i, :])) < 1e-7


def test_map_fiber_matches_pointwise_application():
    rng = np.random.default_rng(4)
    f = random_field(2, 3, 5, 2, rng)
    M = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    g = f.map_fiber(M)
    X = rng.uniform(0, 2 * np.pi, size=(15, 2))
    assert np.allclose(g.evaluate(X), f.evaluate(X) @ M.T, atol=1e-13)


def test_map_fiber_rejects_mismatch():
    # a map of another fiber, or no matrix at all
    f = random_field(2, 3, 4, 2, np.random.default_rng(5))
    for M in (np.eye(4), np.ones(3), np.float64(2.0)):
        with pytest.raises(FiberMismatch):
            f.map_fiber(M)


@pytest.mark.parametrize("rows", [np.zeros((3, 2)), np.zeros(4), np.zeros((4, 2, 1))])
def test_a_table_that_is_not_two_rows_per_mode_is_refused(rows):
    # two modes need a 2-D [A; B] of four rows
    with pytest.raises(FiberMismatch, match=r"\[A; B\]"):
        TrigField(2, [[0, 0], [1, 0]], rows)


def test_the_table_is_cosine_rows_over_sine_rows():
    f = random_field(3, 2, 6, 2, np.random.default_rng(7))
    K = len(f.freqs)
    assert f.coeffs.shape == (2 * K, 2) and f.fiber_dim == 2
    assert np.shares_memory(f.cos_coeffs, f.coeffs) and np.shares_memory(f.sin_coeffs, f.coeffs)
    assert np.array_equal(np.vstack((f.cos_coeffs, f.sin_coeffs)), f.coeffs)


def test_sup_norm_estimate_bounds_grid_sup():
    rng = np.random.default_rng(6)
    f = random_field(3, 2, 7, 3, rng)
    X = _dense_grid(3, 12)
    sup = float(np.max(np.linalg.norm(f.evaluate(X), axis=1)))
    assert f.sup_norm_estimate() >= sup - 1e-12


# ---------------------------------------------------------------------------
# form calculus


@pytest.mark.parametrize("n,k", [(2, 0), (3, 0), (3, 1), (4, 1), (4, 2), (5, 2)])
def test_d_squared_vanishes(n, k):
    rng = np.random.default_rng(n * 7 + k)
    f = random_field(n, math.comb(n, k), 6, 3, rng)
    ddf = exterior_derivative(exterior_derivative(f, k), k + 1)
    X = sample_points(n, 200)
    scale = max(f.gradient().sup_norm_estimate(), 1.0)
    assert np.max(np.abs(ddf.evaluate(X))) < CLOSEDNESS_TOL * scale


@pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 3)])
def test_codifferential_squared_vanishes(n, k):
    rng = np.random.default_rng(n * 11 + k)
    f = random_field(n, math.comb(n, k), 6, 3, rng)
    ddf = coderivative(coderivative(f, k), k - 1)
    X = sample_points(n, 200)
    scale = max(f.gradient().sup_norm_estimate(), 1.0)
    assert np.max(np.abs(ddf.evaluate(X))) < CLOSEDNESS_TOL * scale


@pytest.mark.parametrize("n,k", [(2, 0), (3, 1), (4, 1), (4, 2)])
def test_d_adjoint_to_codifferential_by_quadrature(n, k):
    # exact integration on an alias-free grid: <df, g> = <f, del g>
    rng = np.random.default_rng(n * 13 + k)
    max_freq = 2
    f = random_field(n, math.comb(n, k), 5, max_freq, rng)
    g = random_field(n, math.comb(n, k + 1), 5, max_freq, rng)
    q = 4 * max_freq + 2
    X = _dense_grid(n, q)
    df = exterior_derivative(f, k).evaluate(X)
    dg = coderivative(g, k + 1).evaluate(X)
    fv = f.evaluate(X)
    gv = g.evaluate(X)
    lhs = np.mean(np.sum(np.conj(df) * gv, axis=1))
    rhs = np.mean(np.sum(np.conj(fv) * dg, axis=1))
    ref = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) < 1e-12 * ref


def _per_label_derivative(f, k, extra_dim, up):
    """The (cos, sin) tables of d (up) or the codifferential, label by label and
    direction by direction from wedge_insert and wedge_delete: the reference for
    the direction tables behind exterior_derivative and coderivative."""
    n = f.n
    degree = k + 1 if up else k - 1
    labels_out = exterior_power(n, degree) if 0 <= degree <= n else []
    pos = {lab: j for j, lab in enumerate(labels_out)}
    K, width = len(f.freqs), len(labels_out) * extra_dim
    cos_d = np.zeros((K, width), dtype=np.complex128)
    sin_d = np.zeros((K, width), dtype=np.complex128)
    A = f.cos_coeffs.reshape(K, -1, extra_dim)
    B = f.sin_coeffs.reshape(K, -1, extra_dim)
    for j, lab in enumerate(exterior_power(n, k)):
        for i in range(1, n + 1):
            hit = wedge_insert(i, lab) if up else wedge_delete(i, lab)
            if hit is None:
                continue
            sign, out = hit[0] if up else -hit[0], hit[1]
            t = pos[out]
            mi = f.freqs[:, i - 1].astype(float)[:, None]
            cos_d[:, t * extra_dim:(t + 1) * extra_dim] += sign * mi * B[:, j]
            sin_d[:, t * extra_dim:(t + 1) * extra_dim] -= sign * mi * A[:, j]
    return cos_d, sin_d


# every (n, k, extra fiber, up) of 2 <= n <= 6, with the degrees whose d or
# codifferential leaves 0..n (k = n up, k = 0 down)
_DERIVATIVE_CASES = [(n, k, extra, up) for n in range(2, 7) for k in range(n + 1)
                     for extra in (1, 3) for up in (True, False)]


def _worst_derivative_gap(cases):
    """Largest gap between exterior_derivative / coderivative and the per-label
    reference over the cases, relative to the reference's largest entry."""
    worst = 0.0
    for n, k, extra, up in cases:
        rng = np.random.default_rng(100 * n + 10 * k + extra)
        f = random_field(n, math.comb(n, k) * extra, 8, 3, rng)
        got = (exterior_derivative if up else coderivative)(f, k)
        ref = _per_label_derivative(f, k, extra, up)
        assert got.fiber_dim == ref[0].shape[1] and np.array_equal(got.freqs, f.freqs)
        for g, r in zip((got.cos_coeffs, got.sin_coeffs), ref):
            assert g.shape == r.shape
            if r.size:
                worst = max(worst, float(np.max(np.abs(g - r)) / np.max(np.abs(r))))
    return worst


def test_derivative_tables_match_the_per_label_loop():
    assert _worst_derivative_gap(_DERIVATIVE_CASES) <= 1e-15


def test_derivative_oracle_sees_one_flipped_sign(monkeypatch):
    # one entry of one cached symbol map negated: the oracle above must notice
    table = fields._form_map

    def flipped(n, k, fiber, up):
        M = table(n, k, fiber, up).copy()
        if (n, k, up) == (4, 2, True):
            M[np.unravel_index(np.flatnonzero(M)[3], M.shape)] *= -1
        return M

    monkeypatch.setattr(fields, "_form_map", flipped)
    assert _worst_derivative_gap([(4, 2, 1, True)]) > 0.1
    assert _worst_derivative_gap([(4, 2, 1, False), (4, 1, 1, True)]) <= 1e-15


@pytest.mark.parametrize("derivative", [exterior_derivative, coderivative])
@pytest.mark.parametrize("k", [-1, 4, 5, 1.0])
def test_a_degree_outside_0_to_n_is_a_bad_degree(derivative, k):
    # at n = 3 these gave ValueError, FiberMismatch or BadDegree by side and degree
    f = random_field(3, 3, 4, 2, np.random.default_rng(8))
    with pytest.raises(BadDegree, match=f"needs 0 <= k <= 3, got k={k}"):
        derivative(f, k)


def test_a_flipped_form_table_fails_the_field_lab(flip_table):
    # one sign of the wedge on 2-forms at n = 4: the symbol residual cannot see it, as
    # d and the symbol images come from the same table, but the kernel call certifies
    # the form algebra first and refuses the table
    flip_table(4, 2, True, 3)
    with pytest.raises(BrokenIdentity, match="form algebra at n=4, degree "):
        run_scenario("generic-form", 4, 2, points=500)


def test_form_calculus_matches_symbol_action():
    # statement-level consistency: d = wedge of the gradient, the
    # codifferential = minus contraction of the gradient
    for n, k in [(2, 1), (3, 1), (4, 2), (5, 3)]:
        sc = make_scenario("generic-form", n, k=k, seed=9)
        X = sample_points(n, 300)
        assert symbol_consistency_residual(sc, X) < SYMBOL_CONSISTENCY_TOL


def test_operator_application_matches_symbol_on_gradient():
    rng = np.random.default_rng(17)
    for name, n in [("dirac", 3), ("twistor", 3), ("connection", 2)]:
        op = catalog(name, n)
        f = random_field(n, op.fiber_dim, 6, 3, rng)
        X = sample_points(n, 150)
        lhs = f.gradient().map_fiber(op.full_symbol).evaluate(X)
        rhs = f.gradient().evaluate(X) @ op.full_symbol.T
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_hodge_star_frozen_values():
    S = hodge_star_matrix(2, 1)    # *dx1 = dx2, *dx2 = -dx1
    assert np.allclose(S, [[0.0, -1.0], [1.0, 0.0]])
    S = hodge_star_matrix(4, 2)
    assert np.allclose(S @ S, np.eye(6))   # self-adjoint involution on 2-forms
    labels = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    i12, i34 = labels.index((1, 2)), labels.index((3, 4))
    assert S[i34, i12] == 1.0
    i13, i24 = labels.index((1, 3)), labels.index((2, 4))
    assert S[i24, i13] == -1.0


# ---------------------------------------------------------------------------
# sample grids


def test_sample_points_shape_and_range():
    X = sample_points(3, 1000)
    assert X.shape == (1000, 3)
    assert np.all(X >= 0.0) and np.all(X < 2 * np.pi)


def test_sample_points_deterministic():
    assert np.array_equal(sample_points(2, 500), sample_points(2, 500))


def test_sample_points_avoid_lattice_planes():
    # irrational offsets keep coordinates away from exact multiples of pi
    X = sample_points(2, 400)
    assert np.min(np.abs(np.sin(X))) > 1e-3


@pytest.mark.parametrize("n,count", [(1, 7), (2, 50), (3, 1000), (4, 37), (5, 1),
                                     (6, 10000), (7, 2), (7, 10000)])
def test_sample_points_are_the_leading_mesh_rows(n, count):
    # the first count rows of the full row-major mesh, bit for bit
    q = max(2, math.ceil(count ** (1.0 / n)))
    while q ** n < count:
        q += 1
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    axes = [(np.arange(q) + math.modf(golden * (j + 1))[0]) * (2.0 * math.pi / q)
            for j in range(n)]
    mesh = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    assert np.array_equal(sample_points(n, count), mesh[:count])


@pytest.mark.parametrize("n", [63, 64, 70, 200])
def test_sample_points_past_an_index_sized_mesh(n):
    # the 2^n-row mesh overflows an index from n = 63, and numpy takes at most 64 axes
    X = sample_points(n, 5)
    assert X.shape == (5, n)
    assert np.all(X >= 0.0) and np.all(X < 2 * np.pi)


def test_sample_points_widens_a_mesh_whose_float_root_rounds_down():
    # the float sixth root of 272^6 + 1 rounds to 272, whose mesh is one point short: the
    # width goes to 273 and the point indices, 2.88 PiB of them, are refused at once
    count = 272 ** 6 + 1
    assert math.ceil(count ** (1.0 / 6)) == 272
    with pytest.raises(MemoryError):
        sample_points(6, count)


@pytest.mark.parametrize("count", [0, -3])
def test_sample_points_needs_a_point(count):
    # 0 gave an empty grid, a negative count a TypeError from a complex root
    with pytest.raises(ValueError, match="needs points >= 1"):
        sample_points(2, count)
    with pytest.raises(ValueError, match="needs points >= 1"):
        run_scenario("generic-form", 2, points=count)


@pytest.mark.parametrize("n", [0, -1])
def test_sample_points_needs_a_dimension(n):
    # n = 0 divided by zero, and a negative n never left the search for the mesh width
    with pytest.raises(ValueError, match=f"needs n >= 1, got n={n}"):
        sample_points(n, 5)


@pytest.mark.parametrize("check", [
    lambda sc, X: evaluate_scenario(sc, X, 1.0, 1.0),
    closedness_residual,
    symbol_consistency_residual,
])
def test_empty_point_sets_are_refused(check):
    # each used to end in numpy's reduction over a zero-size array
    sc = make_scenario("closed-form", 3)
    with pytest.raises(ValueError, match="needs points >= 1"):
        check(sc, np.empty((0, 3)))


@pytest.mark.parametrize("name", ["closed-form", "coclosed-form"])
@pytest.mark.parametrize("check", [closedness_residual, symbol_consistency_residual])
def test_a_nan_point_gives_a_nan_residual(name, check):
    # the closedness residual took Python's max(0.0, nan), which is 0.0
    X = sample_points(3, 4)
    X[2, 1] = np.nan
    assert math.isnan(check(make_scenario(name, 3), X))


@pytest.mark.parametrize("fiber", [1, 3])
def test_max_row_norm_on_real_views(fiber):
    rng = np.random.default_rng(fiber)
    scale = np.logspace(-150, 150, 400)[:, None]
    a = (rng.standard_normal((400, fiber)) + 1j * rng.standard_normal((400, fiber))) * scale
    np.testing.assert_allclose(fields._row_norms(a), np.linalg.norm(a, axis=1),
                               rtol=1e-15, atol=0)
    ref = float(np.max(np.linalg.norm(a, axis=1)))
    assert abs(fields._max_row_norm(a) - ref) <= 1e-15 * ref
    # a NaN in any row, real or imaginary part, is the result
    for row, value in ((0, complex(np.nan, 1.0)), (399, complex(1.0, np.nan)),
                       (200, complex(np.nan, np.nan))):
        b = a.copy()
        b[row, fiber - 1] = value
        assert math.isnan(fields._max_row_norm(b))


def test_sample_points_memory_is_linear_in_count():
    # the 2^16-row mesh alone would take 8 MB
    tracemalloc.start()
    try:
        X = sample_points(16, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (10, 16)
    assert peak < 100_000


# ---------------------------------------------------------------------------
# scenarios


def test_all_scenarios_build_somewhere():
    built = set()
    for name, n, k in scenario_grid(range(2, 6)):
        sc = make_scenario(name, n, k=k, seed=1)
        assert sc.name == name
        built.add(name)
    assert built == set(SCENARIO_NAMES)


def test_closed_scenarios_certify():
    X = sample_points(4, 500)
    for name, kwargs in [("closed-form", {"k": 2}), ("yang-mills-F", {}),
                         ("higgs-dPhi", {})]:
        sc = make_scenario(name, 4, seed=2, **kwargs)
        assert sc.d_vanishing is True
        res = closedness_residual(sc, X)
        assert res is not None and res < CLOSEDNESS_TOL


def test_coclosed_scenarios_certify():
    for name, n in [("coclosed-form", 4), ("monopole-omega", 3)]:
        sc = make_scenario(name, n, seed=3)
        X = sample_points(n, 500)
        assert sc.dstar_vanishing is True
        res = closedness_residual(sc, X)
        assert res is not None and res < CLOSEDNESS_TOL


def test_instanton_is_self_dual():
    sc = make_scenario("instanton-F", 4, seed=4)
    S = np.kron(hodge_star_matrix(4, 2), np.eye(3))
    X = sample_points(4, 300)
    vals = sc.section.evaluate(X)
    assert np.allclose(vals @ S.T, vals, atol=1e-12)
    assert sc.d_vanishing is None and sc.dstar_vanishing is None


def test_scenario_dimension_restrictions():
    with pytest.raises(UnknownScenario):
        make_scenario("instanton-F", 3)
    with pytest.raises(UnknownScenario):
        make_scenario("monopole-omega", 4)
    with pytest.raises(UnknownScenario):
        make_scenario("yang-mills-F", 2)
    with pytest.raises(UnknownScenario):
        make_scenario("no-such-thing", 3)
    with pytest.raises(UnknownScenario):
        make_scenario("generic-form", 3, k=3)
    # fixed-degree and spinor scenarios take no other k
    for name, n, k in [("yang-mills-F", 4, 3), ("yang-mills-F", 4, 1),
                       ("instanton-F", 4, 1), ("monopole-omega", 3, 2),
                       ("higgs-dPhi", 3, 2), ("dirac-spinor", 3, 1),
                       ("twistor-spinor", 3, 2)]:
        with pytest.raises(UnknownScenario, match="takes"):
            make_scenario(name, n, k=k)
    assert make_scenario("yang-mills-F", 4, k=2).k == 2


def test_random_field_caps_modes_at_available_frequencies():
    # n = 1 with max_freq 3 has the zero mode and 3 canonical nonzero ones
    f = random_field(1, 2, 8, 3, np.random.default_rng(0))
    assert len(f.freqs) == 4
    # from n = 2 on the cap (25 at max_freq 3) leaves mode_count alone
    assert len(random_field(2, 1, 8, 3, np.random.default_rng(0)).freqs) == 8


def test_dimension_one_scenarios():
    sc = make_scenario("dirac-spinor", 1)
    assert sc.n == 1 and len(sc.section.freqs) == 4
    for name in ("generic-form", "closed-form", "coclosed-form", "higgs-dPhi"):
        with pytest.raises(UnknownScenario, match="needs n >= 2"):
            make_scenario(name, 1)


def test_run_scenario_no_violations_small():
    for name, n in [("generic-form", 3), ("closed-form", 3),
                    ("dirac-spinor", 3), ("twistor-spinor", 2),
                    ("monopole-omega", 3)]:
        rep = run_scenario(name, n, points=800, seed=11)
        assert rep.violations == 0, (name, rep.min_relative_margin)
        assert rep.passed
        assert rep.symbol_residual < SYMBOL_CONSISTENCY_TOL
        assert rep.sample_points == 800


def _run_at_weights(name, n, c, c_star, points, seed=0):
    """run_scenario at weights other than 1: the same scenario and grid through
    evaluate_scenario and scenario_report."""
    sc = make_scenario(name, n, seed=seed)
    X = sample_points(n, points)
    return scenario_report(sc, X, evaluate_scenario(sc, X, c, c_star), c, seed)


def test_run_scenario_yang_mills_refined_limit():
    rep = _run_at_weights("yang-mills-F", 4, 1.0, 1e6, points=1500, seed=12)
    assert rep.violations == 0
    # d side is certified, so the gain approaches min(1/2, 1/2) from below
    assert rep.gain_bound == pytest.approx(0.5, abs=1e-5)
    assert rep.refined_limit_constant == "3/2"
    assert rep.branch == "vanishing"


def test_run_scenario_report_constants():
    rep = _run_at_weights("dirac-spinor", 3, 2.0, 1.0, points=600, seed=13)
    # nonvanishing gain: eps c / (1 + (rho^2 - eps) c) = 2/5 at n=3
    assert rep.gain_bound == pytest.approx(0.4, rel=1e-12)
    assert rep.refined_limit_constant == "3/2"  # 1 + 1/(n-1)
    d = rep.to_json_dict()
    assert d["passed"] is True and d["scenario"] == "dirac-spinor"


def test_a_scenario_operator_without_declared_constants_still_runs():
    # the dirac symbol with no rho^2 or epsilon declared: the same margins and gain as
    # the declared run, and no refined limit to report
    declared = make_scenario("dirac-spinor", 3)
    X = sample_points(3, 400)
    undeclared = dataclasses.replace(
        declared, operator=OperatorSpec("undeclared", 3, catalog("dirac", 3).full_symbol))
    reps = [scenario_report(sc, X, evaluate_scenario(sc, X, 1.0, 1.0), 1.0, 0)
            for sc in (declared, undeclared)]
    assert all(rep.passed for rep in reps)
    assert reps[1].refined_limit_constant is None and reps[1].operator == "undeclared"
    assert reps[1].gain_bound == pytest.approx(reps[0].gain_bound, rel=1e-12)


def test_run_scenario_deterministic():
    r1 = run_scenario("generic-form", 3, points=500, seed=21)
    r2 = run_scenario("generic-form", 3, points=500, seed=21)
    assert r1.to_json_dict() == r2.to_json_dict()
    r3 = run_scenario("generic-form", 3, points=500, seed=22)
    assert r3.min_margin != r1.min_margin


# scenario_grid(range(2, 8)) at the time the scenarios became one table;
# perfbench derives each configuration's seed from its position here
_GRID_2_TO_7 = [
    ("generic-form", 2, 1), ("closed-form", 2, 1), ("coclosed-form", 2, 1),
    ("dirac-spinor", 2, None), ("twistor-spinor", 2, None), ("higgs-dPhi", 2, 1),
    ("generic-form", 3, 2), ("closed-form", 3, 2), ("coclosed-form", 3, 2),
    ("yang-mills-F", 3, 2), ("monopole-omega", 3, 1), ("dirac-spinor", 3, None),
    ("twistor-spinor", 3, None), ("higgs-dPhi", 3, 1),
    ("generic-form", 4, 2), ("closed-form", 4, 2), ("coclosed-form", 4, 2),
    ("yang-mills-F", 4, 2), ("instanton-F", 4, 2), ("dirac-spinor", 4, None),
    ("twistor-spinor", 4, None), ("higgs-dPhi", 4, 1),
    ("generic-form", 5, 2), ("closed-form", 5, 2), ("coclosed-form", 5, 2),
    ("yang-mills-F", 5, 2), ("dirac-spinor", 5, None), ("twistor-spinor", 5, None),
    ("higgs-dPhi", 5, 1),
    ("generic-form", 6, 2), ("closed-form", 6, 2), ("coclosed-form", 6, 2),
    ("yang-mills-F", 6, 2), ("dirac-spinor", 6, None), ("twistor-spinor", 6, None),
    ("higgs-dPhi", 6, 1),
    ("generic-form", 7, 2), ("closed-form", 7, 2), ("coclosed-form", 7, 2),
    ("yang-mills-F", 7, 2), ("dirac-spinor", 7, None), ("twistor-spinor", 7, None),
    ("higgs-dPhi", 7, 1),
]


def test_scenario_grid_order_is_pinned():
    assert scenario_grid(range(2, 8)) == _GRID_2_TO_7


def test_every_grid_entry_builds():
    # n = 1 admits only the Dirac spinor
    assert [name for name, n, _ in scenario_grid(range(1, 8)) if n == 1] == ["dirac-spinor"]
    for name, n, k in scenario_grid(range(1, 8)):
        sc = make_scenario(name, n, k=k, seed=5)
        assert (sc.name, sc.n, sc.k) == (name, n, k)


def test_scenario_grid_contents():
    combos = scenario_grid([3])
    names = [c[0] for c in combos]
    assert "yang-mills-F" in names and "monopole-omega" in names
    assert "instanton-F" not in names
    combos = scenario_grid([4])
    assert ("instanton-F", 4, 2) in combos


def test_phase_table_serves_every_derived_field():
    rng = np.random.default_rng(41)
    f = random_field(3, 3, 6, 2, rng)
    X = sample_points(3, 200)
    table = PhaseTable(f, X)
    for g in (f, f.gradient(), exterior_derivative(f, 1), coderivative(f, 1),
              f.map_fiber(rng.standard_normal((2, 3)))):
        assert np.allclose(g.evaluate(table), g.evaluate(X), rtol=0, atol=1e-12)


# one product of [cos | sin] with [A; B], against the cosine and sine products summed
_ONE_PRODUCT_CHECK = """
import numpy as np
from katolab.fields import PhaseTable, make_scenario, sample_points
for name, n, points in (("yang-mills-F", 5, 2500), ("yang-mills-F", 5, 5000),
                        ("instanton-F", 4, 5000), ("generic-form", 5, 3001)):
    f = make_scenario(name, n).section
    table = PhaseTable(f, sample_points(n, points))
    K = len(f.freqs)
    for g in (f, f.gradient()):
        two = (table.trig[:, :K] @ np.ascontiguousarray(g.cos_coeffs).view(float)
               + table.trig[:, K:] @ np.ascontiguousarray(g.sin_coeffs).view(float))
        gap = np.max(np.abs(g.evaluate(table).view(float) - two))
        assert gap <= 1e-15 * np.max(np.abs(two)), (name, n, points, gap)
"""


def test_phase_values_are_the_two_products_to_rounding():
    # in a single-threaded child, as the benchmark runs: threaded OpenBLAS splits a
    # product's rows among its threads, so the last bits depend on the thread count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(katolab.__file__)))
    subprocess.run([sys.executable, "-c", _ONE_PRODUCT_CHECK], env=env, check=True)


@pytest.mark.parametrize("shape", [(10, 4), (6,), (3, 2, 2), (5, 1), ()])
def test_points_of_another_shape_are_refused(shape):
    # (10, 4) gave 20 values and a flat length-6 array 3, read as rows of n = 2
    f = random_field(2, 1, 5, 2, np.random.default_rng(43))
    X = np.zeros(shape)
    with pytest.raises(FiberMismatch, match=r"\(N, 2\) array"):
        f.evaluate(X)
    with pytest.raises(FiberMismatch, match=r"\(N, 2\) array"):
        PhaseTable(f, X)


def test_one_point_is_one_row():
    f = random_field(3, 2, 5, 2, np.random.default_rng(44))
    X = sample_points(3, 4)
    assert f.evaluate(X[1]).shape == (1, 2)
    assert np.array_equal(f.evaluate(X[1]), f.evaluate(X[1:2]))


def _complex_product_residual(sc, points):
    # the residual as two complex products of the gradient values with eps and iota
    eps_mat, iota_mat = kato._form_maps(sc.n, sc.k, sc.fiber_dim)
    f = sc.section
    grad_vals = f.gradient().evaluate(points)
    d_vals = exterior_derivative(f, sc.k).evaluate(points) - grad_vals @ eps_mat.T
    cod_vals = coderivative(f, sc.k).evaluate(points) + grad_vals @ iota_mat.T
    ref = np.max(np.linalg.norm(grad_vals, axis=1))
    return max(np.max(np.linalg.norm(x, axis=1)) for x in (d_vals, cod_vals)) / ref


@pytest.mark.parametrize("name, n, k", [c for c in scenario_grid(range(2, 6))
                                        if fields._SCENARIOS[c[0]][0] == "hodge"])
def test_symbol_residual_is_the_complex_products_to_rounding(name, n, k):
    sc = make_scenario(name, n, k=k, seed=6)
    table = PhaseTable(sc.section, sample_points(n, 500))
    want = _complex_product_residual(sc, table)
    assert abs(symbol_consistency_residual(sc, table) - want) <= 1e-15, (want,)


def test_evaluate_scenario_holds_its_inputs_and_one_kernel_block():
    # yang-mills-F at n = 5: 2,500 gradient rows of 300 reals (5.7 MiB) and the
    # section (1.1 MiB) plus one kernel block; whole-grid temporaries took 22.6 MiB
    sc = make_scenario("yang-mills-F", 5)
    X = sample_points(5, 2500)
    tracemalloc.start()
    try:
        ev = evaluate_scenario(sc, X, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ev["skipped"] == 0
    assert peak <= 12 * 2**20, peak


def test_phase_table_rejects_other_frequencies():
    rng = np.random.default_rng(42)
    f = random_field(2, 1, 5, 2, rng)
    g = random_field(2, 1, 5, 2, rng)
    with pytest.raises(FiberMismatch):
        g.evaluate(PhaseTable(f, sample_points(2, 10)))


def test_run_scenario_overflow_is_counted_not_passed():
    rep = _run_at_weights("generic-form", 3, 1e308, 1.0, points=50)
    assert rep.nonfinite > 0
    assert rep.violations >= rep.nonfinite
    assert not rep.passed
    assert rep.to_json_dict()["nonfinite"] == rep.nonfinite


def _sine_scenario(theorem):
    """A scenario on the 2-torus whose section is sin(x_1) e_1, which vanishes exactly
    where x_1 = 0: the 1-form sin(x_1) dx_1, or the Dirac spinor sin(x_1) e_1."""
    coeffs = np.zeros((4, 2))   # [A; B] over the frequencies (0, 0) and (1, 0)
    coeffs[3, 0] = 1.0
    section = TrigField(2, [[0, 0], [1, 0]], coeffs)
    if theorem == "hodge":
        return Scenario("sine", "hodge", 2, 1, 1, section)
    op = catalog("dirac", 2)   # its spinor fiber is 2-dimensional too
    return Scenario("sine", "foldo", 2, None, op.fiber_dim, section, operator=op)


@pytest.mark.parametrize("theorem", ["hodge", "foldo"])
def test_points_where_the_section_vanishes_are_skipped(theorem):
    # every fifth point moved onto x_1 = 0: those points leave the margins and are
    # counted, the others are checked as usual
    sc = _sine_scenario(theorem)
    X = sample_points(2, 50)
    X[::5, 0] = 0.0
    zero = X[:, 0] == 0.0
    ev = evaluate_scenario(sc, X, 1.0, 1.0)
    assert ev["skipped"] == 10 == np.sum(zero)
    assert np.array_equal(ev["points"], X[~zero])
    assert len(ev["margin"]) == len(ev["ok"]) == 40
    rep = scenario_report(sc, X, ev, 1.0, 0)
    assert (rep.sample_points, rep.skipped_points) == (50, 10)
    assert rep.violations == 0 and np.isfinite(rep.min_margin)


def test_the_skip_threshold_is_taken_against_the_largest_sampled_value():
    # sin(pi) = 1.2e-16 is far below 1e-8 * sup|phi| = 1e-8, but it is the largest sampled
    # |phi| here, so only the exact zero at x_1 = 0 is skipped
    sc = _sine_scenario("hodge")
    X = np.array([[0.0, 0.3], [np.pi, 0.3]])
    ev = evaluate_scenario(sc, X, 1.0, 1.0)
    assert ev["skipped"] == 1 and np.array_equal(ev["points"], X[1:])


@pytest.mark.parametrize("theorem", ["hodge", "foldo"])
def test_a_section_zero_at_every_sampled_point_is_refused(theorem):
    X = sample_points(2, 20)
    X[:, 0] = 0.0
    with pytest.raises(ZeroSection, match="scenario sine produced a vanishing section"):
        evaluate_scenario(_sine_scenario(theorem), X, 1.0, 1.0)
