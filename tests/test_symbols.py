import dataclasses
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from katolab.errors import BadDegree, UnknownName
from katolab.projections import conformity_factor, exterior_projection, interior_projection
from katolab.spaces import fiber_space
from katolab.symbols import (
    OperatorSpec,
    catalog,
    ellipticity_constant,
    parse_op_string,
    principal_squares,
    quasi_unit_covectors,
    twist,
)

# frozen ellipticity constants: label -> (builder args, exact epsilon)
FROZEN_EPSILON = [
    (("connection", 3, None, 3), Fraction(1)),
    (("dirac", 2, None, None), Fraction(1)),
    (("dirac", 3, None, None), Fraction(1)),
    (("dirac", 5, None, None), Fraction(1)),
    (("twistor", 2, None, None), Fraction(1, 2)),
    (("twistor", 3, None, None), Fraction(2, 3)),
    (("twistor", 4, None, None), Fraction(3, 4)),
    (("hodge", 4, 1, None), Fraction(1, 4)),
    (("hodge", 4, 2, None), Fraction(1, 3)),
    (("hodge", 6, 2, None), Fraction(1, 5)),
    (("hodge", 5, 4, None), Fraction(1, 5)),
    (("exterior-only", 4, 1, None), Fraction(0)),
    (("exterior-only", 4, 0, None), Fraction(1)),
    (("interior-only", 4, 3, None), Fraction(0)),
    (("interior-only", 4, 4, None), Fraction(1)),
]


def _build(args):
    name, n, k, fiber_dim = args
    return catalog(name, n, k=k, fiber_dim=fiber_dim)


@pytest.mark.parametrize("args,expected", FROZEN_EPSILON)
def test_frozen_ellipticity_constants(args, expected):
    op = _build(args)
    assert op.epsilon == expected
    res = ellipticity_constant(op)
    assert res.invariant
    assert res.method == "invariant-exact"
    assert abs(res.epsilon - float(expected)) <= 1e-9


@pytest.mark.parametrize("name,n,k", [
    ("connection", 4, None), ("dirac", 3, None), ("twistor", 3, None),
    ("hodge", 4, 2), ("exterior-only", 3, 1), ("interior-only", 3, 2),
])
def test_catalog_rho_matches_measurement(name, n, k):
    op = catalog(name, n, k=k)
    rep = conformity_factor(op.full_symbol, tol=1e-10)
    assert abs(rep.rho_squared - float(op.rho_squared)) <= 1e-10 * float(op.rho_squared)


def test_epsilon_never_exceeds_rho_and_connection_saturates():
    cases = [("connection", 3, None), ("dirac", 3, None), ("twistor", 3, None),
             ("hodge", 5, 2, None)]
    for name, n, k, *_ in [c + (None,) * (4 - len(c)) for c in cases]:
        op = catalog(name, n, k=k)
        eps = ellipticity_constant(op).epsilon
        rho = conformity_factor(op.full_symbol).rho_squared
        assert eps <= rho + 1e-9
        if name == "connection":
            assert abs(eps - rho) <= 1e-9
        else:
            assert eps < rho - 1e-6


def symbol_at(op, xi):
    # the directional symbol P_xi : E -> F, the full symbol contracted with xi
    return np.tensordot(xi, op.symbol_tensor(), axes=([0], [1]))


def test_symbol_at_is_linear_in_xi():
    op = catalog("dirac", 3)
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    a, b = 0.7, -1.3
    lhs = symbol_at(op, a * x + b * y)
    rhs = a * symbol_at(op, x) + b * symbol_at(op, y)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_principal_squares_stack_the_directional_squares():
    op = catalog("hodge", 4, 2)
    xis = quasi_unit_covectors(4, 5)
    stack = principal_squares(op, xis)
    assert stack.shape == (5, 6, 6)
    for xi, square in zip(xis, stack):
        p = symbol_at(op, xi)
        assert np.allclose(square, p.conj().T @ p, atol=1e-14)


@pytest.mark.parametrize("coarse", [1, 32, 500])
def test_ellipticity_reports_the_directions_swept(coarse):
    res = ellipticity_constant(catalog("hodge", 2, 1), coarse_samples=coarse,
                               refine_steps=3)
    assert res.method == "invariant-exact"
    assert (res.samples, res.refinement_steps) == (coarse, 0)
    skewed = ellipticity_constant(_axis_weighted_symbol(), coarse_samples=coarse,
                                  refine_steps=3)
    assert (skewed.samples, skewed.refinement_steps) == (coarse, 3)


def _sweep_peak(op, count):
    tracemalloc.start()
    try:
        res = ellipticity_constant(op, coarse_samples=count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.samples == count and res.invariant
    return peak


def test_ellipticity_sweep_memory_is_flat_in_directions():
    # the whole 3000-direction stack of hodge:6:3 squares would take 77 MB
    assert _sweep_peak(catalog("hodge", 6, 3), 3000) < 25e6
    # the directions are made block by block too: 400k of them, 390 blocks of about
    # 1,026 rows on dirac:3, take no more memory than 100k (0.23 MB traced at both;
    # when all were held, 57.6 MB vs 15.0)
    dirac = catalog("dirac", 3)
    assert _sweep_peak(dirac, 400_000) <= 1.1 * _sweep_peak(dirac, 100_000)


def test_blocked_sweep_keeps_the_first_argmin_of_the_whole_sweep():
    # a random symbol is not invariant; its rows of 2 * 40 * 8 reals make 3000
    # directions 18 row blocks, and with no search rounds the result is the sweep's
    # minimum at its first argmin
    rng = np.random.default_rng(3)
    m = rng.standard_normal((40, 24)) + 1j * rng.standard_normal((40, 24))
    op = OperatorSpec("random", 3, m)
    res = ellipticity_constant(op, coarse_samples=3000, refine_steps=0)
    xis = quasi_unit_covectors(3, 3000)
    lows = np.linalg.eigvalsh(principal_squares(op, xis))[:, 0]
    best = int(np.argmin(lows))
    assert res.method == "sampled-upper-bound" and res.refinement_steps == 0
    assert res.epsilon == pytest.approx(lows[best], rel=1e-12)
    assert np.array_equal(res.argmin_xi, xis[best])


def _axis_weighted_symbol():
    # P_xi = [[xi_1, xi_2], [-xi_2, 2 xi_1]]: injectively elliptic but
    # the spectrum of P_xi* P_xi genuinely depends on the direction;
    # columns of the full symbol are (direction, fiber) pairs
    m = np.zeros((2, 4), dtype=complex)
    m[0, 0] = 1.0    # xi1, e1 -> f1
    m[1, 1] = 2.0    # xi1, e2 -> f2
    m[0, 3] = 1.0    # xi2, e2 -> f1
    m[1, 2] = -1.0   # xi2, e1 -> f2
    return OperatorSpec("skewed", 2, m)


def test_ellipticity_fallback_matches_closed_form_oracle():
    # with t = xi_1^2 the smallest eigenvalue is (2 + 3t - sqrt(5t^2 + 4t))/2,
    # minimized at t = 1/5 with value 4/5 (stationarity: 5t^2 + 4t - 1 = 0)
    op = _axis_weighted_symbol()
    t = np.linspace(0.0, 1.0, 20001)
    lam = (2.0 + 3.0 * t - np.sqrt(5.0 * t * t + 4.0 * t)) / 2.0
    oracle = 0.8
    assert abs(float(lam.min()) - oracle) <= 1e-8
    scan = float(np.min(np.linalg.eigvalsh(
        principal_squares(op, quasi_unit_covectors(2, 500)))[:, 0]))
    assert scan >= oracle - 1e-12
    res = ellipticity_constant(op, coarse_samples=512, refine_steps=30)
    assert not res.invariant
    assert res.method == "sampled-upper-bound"
    assert res.epsilon >= oracle - 1e-9          # never below the truth
    assert abs(res.epsilon - oracle) <= 1e-6     # and refined close to it


def test_local_search_stops_once_the_radius_cannot_move_xi():
    # 600 rounds ran in full before the stop; the estimate settles by round 60
    op = _axis_weighted_symbol()
    res = ellipticity_constant(op, refine_steps=600)
    assert res.epsilon == 0.7999999999999998
    assert res.refinement_steps < 600
    assert ellipticity_constant(op, refine_steps=res.refinement_steps) == res


def test_sampling_refinement_is_monotone():
    op = _axis_weighted_symbol()

    def sweep_min(count):
        squares = principal_squares(op, quasi_unit_covectors(2, count))
        return float(np.min(np.linalg.eigvalsh(squares)[:, 0]))

    assert sweep_min(256) <= sweep_min(64) + 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_quasi_unit_covectors_are_unit_and_deterministic(n):
    a = quasi_unit_covectors(n, 40)
    b = quasi_unit_covectors(n, 40)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    # nesting: a longer sweep extends the shorter one
    c = quasi_unit_covectors(n, 80)
    assert np.array_equal(c[:40], a)


@pytest.mark.parametrize("n, count, name", [(0, 5, "n"), (3, 0, "count"), (2.0, 5, "n")])
def test_quasi_unit_covectors_need_a_direction_and_a_point(n, count, name):
    with pytest.raises(ValueError, match=f"covector sweep needs {name} >= 1"):
        quasi_unit_covectors(n, count)


@pytest.mark.parametrize("extra_dim", [1, 2, 3])
def test_twist_preserves_rho_and_epsilon(extra_dim):
    base = catalog("hodge", 4, k=1)
    tw = twist(base, fiber_space(extra_dim, "aux"))
    rep = conformity_factor(tw.full_symbol, tol=1e-10)
    assert abs(rep.rho_squared - 1.0) <= 1e-10
    r_base = ellipticity_constant(base)
    r_tw = ellipticity_constant(tw)
    assert abs(r_base.epsilon - r_tw.epsilon) <= 1e-10
    assert tw.fiber_dim == base.fiber_dim * extra_dim


def test_twist_action_factorizes():
    op = catalog("dirac", 2)
    tw = twist(op, fiber_space(2, "aux"))
    rng = np.random.default_rng(9)
    xi = rng.standard_normal(2)
    s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    out = symbol_at(tw, xi) @ np.kron(s, w)
    assert np.allclose(out, np.kron(symbol_at(op, xi) @ s, w), atol=1e-12)


def test_twist_refuses_an_empty_fiber():
    # an empty fiber would give a 0 x 0 symbol: 0/0 margins under fuzzing and a failed
    # reduction in ellipticity_constant
    with pytest.raises(BadDegree):
        twist(catalog("dirac", 3), fiber_space(0))


def test_catalog_errors():
    with pytest.raises(UnknownName):
        catalog("unknown-op", 3)
    with pytest.raises(BadDegree):
        catalog("hodge", 4, k=0)
    with pytest.raises(BadDegree):
        catalog("hodge", 4, k=4)
    with pytest.raises(BadDegree):
        catalog("exterior-only", 3, k=3)
    # a degree outside the family window, or a degree where none is taken
    with pytest.raises(BadDegree):
        catalog("interior-only", 3, k=0)
    for name in ("dirac", "twistor"):
        with pytest.raises(BadDegree):
            catalog(name, 3, k=1)
        with pytest.raises(BadDegree):
            parse_op_string(f"{name}:3:5")
    with pytest.raises(UnknownName):
        parse_op_string("dirac")
    with pytest.raises(UnknownName):
        parse_op_string("dirac:x")
    # the README's promise: a connection needs a fiber of at least one dimension
    with pytest.raises(BadDegree, match="connection needs fiber_dim >= 1, got fiber_dim=0"):
        catalog("connection", 3, fiber_dim=0)


def test_an_undeclared_epsilon_is_matched_by_nothing():
    # a spec that declares no epsilon: nothing to match, and null in the JSON report
    res = ellipticity_constant(OperatorSpec("bare", 3, catalog("dirac", 3).full_symbol))
    assert res.declared is None and res.matches_declared() is None
    row = res.to_json_dict()
    assert row["declared_epsilon"] is None and row["matches_declared"] is None
    assert '"declared_epsilon": null' in json.dumps(row)


@pytest.mark.parametrize("declared", ["nan", "inf"])
def test_a_non_finite_declared_epsilon_is_standard_json(declared):
    # written as a string, as every non-finite float of a report is, so that strict JSON
    # takes the row
    res = ellipticity_constant(OperatorSpec("x", 2, np.eye(2), 1.0, float(declared)))
    row = res.to_json_dict()
    assert row["declared_epsilon"] == declared
    assert f'"declared_epsilon": "{declared}"' in json.dumps(row, allow_nan=False)


@pytest.mark.parametrize("args", [("dirac", 3.0), ("connection", 0), ("exterior-only", 3, 1.0)])
def test_catalog_refuses_an_n_or_k_that_is_not_an_integer_in_range(args):
    # a raw TypeError from the label combinatorics, or for n = 0 a 0 x 0 symbol whose
    # fuzz passed on zero-width rows and whose ellipticity died in unit_covector
    with pytest.raises(BadDegree):
        catalog(*args)


def test_catalog_refuses_a_fiber_dim_that_is_not_an_integer():
    with pytest.raises(BadDegree, match="connection needs fiber_dim >= 1, got fiber_dim=2.0"):
        catalog("connection", 3, fiber_dim=2.0)
    assert catalog("connection", 3, fiber_dim=2).fiber_dim == 2


def test_ellipticity_refuses_a_negative_refine_steps():
    with pytest.raises(ValueError, match="refine_steps >= 0"):
        ellipticity_constant(catalog("dirac", 3), refine_steps=-1)
    assert ellipticity_constant(catalog("dirac", 3), refine_steps=0).epsilon == 1.0


def test_catalog_specs_are_built_once_and_read_only():
    op = catalog("dirac", 3)
    assert catalog("dirac", 3) is op
    for attr in ("epsilon", "full_symbol", "name"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, attr, None)
    with pytest.raises(ValueError, match="read-only"):
        op.full_symbol[0, 0] = 1.0
    # keyword and positional arguments share one spec
    hodge = catalog("hodge", 5, k=2)
    assert hodge is catalog("hodge", 5, 2)
    assert catalog("connection", 3, fiber_dim=4) is catalog("connection", 3, None, 4)
    # an argument the entry ignores builds no second spec
    assert catalog("dirac", 3, fiber_dim=5) is op
    assert catalog("connection", 3, k=7) is catalog("connection", 3)
    assert hodge is not catalog("hodge", 5, 3)


def test_hodge_symbol_stacks_the_weighted_wedge_over_the_contraction():
    # rows: the wedge over 1/sqrt(k+1), then the contraction over 1/sqrt(n-k+1)
    n, k = 5, 2
    want = np.vstack((exterior_projection(n, k) / np.sqrt(k + 1),
                      interior_projection(n, k) / np.sqrt(n - k + 1)))
    op = catalog("hodge", n, k)
    assert np.allclose(op.full_symbol, want, rtol=0, atol=1e-15)
    assert op.symbol_tensor().shape == (10 + 5, n, 10)


def test_parse_op_string():
    op = parse_op_string("hodge:5:2")
    assert op.name == "hodge" and op.base_dim == 5
    con = parse_op_string("connection:3:4")
    assert con.fiber_dim == 4
    assert parse_op_string("dirac:3").base_dim == 3
