"""Field calculus tests.

Derivatives are checked against central finite differences, and the
sign convention of the codifferential against exact torus quadrature:
on a grid finer than twice the bandwidth, averages of trigonometric
polynomials are exact integrals, so the L2 adjointness of d and the
codifferential is testable to rounding.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import katolab
from katolab.errors import FiberMismatch, UnknownScenario
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
    symbol_consistency_residual,
)
from katolab.symbols import catalog


def _dense_grid(n, q):
    axes = [np.arange(q) * (2 * np.pi / q) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# core field mechanics


def test_canonicalization_merges_mirror_modes():
    # cos is even and sin is odd: a mode and its negation must agree
    a = np.array([1.0 + 2.0j])
    b = np.array([0.5 - 1.0j])
    direct = TrigField.from_modes(2, 1, [((1, -2), a, b)])
    flipped = TrigField.from_modes(2, 1, [((-1, 2), a, -b)])
    X = np.random.default_rng(0).uniform(0, 2 * np.pi, size=(50, 2))
    assert np.allclose(direct.evaluate(X), flipped.evaluate(X), atol=1e-14)


def test_zero_mode_sine_dropped():
    f = TrigField.from_modes(2, 1, [((0, 0), np.array([2.0]), np.array([5.0]))])
    X = np.zeros((3, 2))
    X[1] = [1.0, 2.0]
    vals = f.evaluate(X)
    assert np.allclose(vals, 2.0)


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
    f = random_field(2, 3, 4, 2, np.random.default_rng(5))
    with pytest.raises(FiberMismatch):
        f.map_fiber(np.eye(4))


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
        f = random_field(n, op.domain_fiber.dim, 6, 3, rng)
        X = sample_points(n, 150)
        lhs = f.gradient().map_fiber(op.full_symbol.matrix).evaluate(X)
        rhs = f.gradient().evaluate(X) @ op.full_symbol.matrix.T
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


@pytest.mark.parametrize("n,count", [(1, 7), (2, 50), (3, 1000), (4, 37), (5, 1)])
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


def test_run_scenario_yang_mills_refined_limit():
    rep = run_scenario("yang-mills-F", 4, c_star=1e6, points=1500, seed=12)
    assert rep.violations == 0
    # d side is certified, so the gain approaches min(1/2, 1/2) from below
    assert rep.gain_bound == pytest.approx(0.5, abs=1e-5)
    assert rep.refined_limit_constant == "3/2"
    assert rep.branch == "vanishing"


def test_run_scenario_report_constants():
    rep = run_scenario("dirac-spinor", 3, c=2.0, points=600, seed=13)
    # nonvanishing gain: eps c / (1 + (rho^2 - eps) c) = 2/5 at n=3
    assert rep.gain_bound == pytest.approx(0.4, rel=1e-12)
    assert rep.refined_limit_constant == "3/2"  # 1 + 1/(n-1)
    d = rep.to_json_dict()
    assert d["passed"] is True and d["scenario"] == "dirac-spinor"


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


# values in blocks of 1024-2047 rows cut at multiples of 48, against the one product
_ONE_PRODUCT_CHECK = """
import numpy as np
from katolab.fields import PhaseTable, make_scenario, sample_points
for name, n, points in (("yang-mills-F", 5, 2500), ("yang-mills-F", 5, 5000),
                        ("instanton-F", 4, 5000), ("generic-form", 5, 3001)):
    f = make_scenario(name, n).section
    table = PhaseTable(f, sample_points(n, points))
    for g in (f, f.gradient()):
        whole = (table.cos @ np.ascontiguousarray(g.cos_coeffs).view(float)
                 + table.sin @ np.ascontiguousarray(g.sin_coeffs).view(float))
        assert np.array_equal(g.evaluate(table).view(float), whole), (name, n, points)
"""


def test_blocked_phase_values_are_the_one_product_bit_for_bit():
    # in a single-threaded child, as the benchmark runs: threaded OpenBLAS splits a
    # product's rows among its threads, each with its own last tile, so the one
    # product's bits at 300-real rows depend on the thread count
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(katolab.__file__)))
    subprocess.run([sys.executable, "-c", _ONE_PRODUCT_CHECK], env=env, check=True)


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
    rep = run_scenario("generic-form", 3, c=1e308, points=50)
    assert rep.nonfinite > 0
    assert rep.violations >= rep.nonfinite
    assert not rep.passed
    assert rep.to_json_dict()["nonfinite"] == rep.nonfinite
