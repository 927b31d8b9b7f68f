"""Engine tests: gain formulas, splits, spectral bounds, inequality checks.

The explicit four-block split the form kernel is checked against
(conftest.reference_split) is checked here against an independent oracle
that builds the "form contains the covector" projector from minor
matrices of an orthogonal change of frame, not from the symbol
composition the split uses.
"""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import four_blocks
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import kato, projections
from katolab.errors import BadConstants, BadDegree, NotUnit, ZeroOperator, ZeroSection
from katolab.kato import (
    INF,
    FuzzReport,
    HodgeGains,
    KatoVerdict,
    batch_hodge_margins,
    check_hodge_inequality,
    check_key_lemma,
    check_operator_inequality,
    equality_witness,
    fuzz_hodge_inequality,
    fuzz_key_lemma,
    fuzz_operator_inequality,
    hodge_gain_pair,
    kato_gain_lemma,
    kato_gain_operator,
    key_lemma_setups,
    line_component_setup,
    matching_first_component,
    operator_constants,
    verify_spectral_bounds,
    _form_maps,
    _restricted_gram,
)
from katolab.spaces import exterior_power
from katolab.symbols import OperatorSpec, catalog


# ---------------------------------------------------------------------------
# gains


def test_lemma_gain_frozen_values():
    assert kato_gain_lemma(1, 2, False) == Fraction(1, 3)
    assert kato_gain_lemma(Fraction(1, 2), 3, False) == Fraction(1, 5)
    assert kato_gain_lemma(7.0, 4, True) == Fraction(1, 4)
    assert kato_gain_lemma(0, 5, False) == 0
    assert kato_gain_lemma(3, 0, True) == INF
    assert kato_gain_lemma(3, 0, False) == 3


def test_operator_gain_frozen_values():
    # dirac in dimension 3: constants (3, 1)
    assert kato_gain_operator(Fraction(1), 3, 1, False) == Fraction(1, 3)
    assert kato_gain_operator(0, 3, 1, True) == Fraction(1, 2)
    # twistor in dimension 3: constants (1, 2/3)
    assert kato_gain_operator(Fraction(1), 1, Fraction(2, 3), False) == Fraction(1, 2)
    assert kato_gain_operator(0, 1, Fraction(2, 3), True) == 2
    # saturated constants force an infinite vanishing gain
    assert kato_gain_operator(0, 1, 1, True) == INF
    assert kato_gain_operator(Fraction(5), 1, 1, False) == 5


def test_gain_rejects_bad_constants():
    with pytest.raises(BadConstants):
        kato_gain_operator(1, 1, 0, False)
    with pytest.raises(BadConstants):
        kato_gain_operator(1, 1, 2, False)
    with pytest.raises(BadConstants):
        kato_gain_operator(-1, 3, 1, False)
    with pytest.raises(BadConstants):
        kato_gain_lemma(-2, 1, False)
    with pytest.raises(BadConstants):
        kato_gain_lemma(1, -1, False)


@pytest.mark.parametrize("call", [
    lambda: kato_gain_lemma(1, math.nan, False),
    lambda: kato.batch_lemma_gain(1.0, math.nan, False),
    lambda: kato_gain_operator(1, math.nan, 0.5, False),
    lambda: kato_gain_operator(1, 1.0, math.nan, False),
])
def test_gain_rejects_nan_constants(call):
    # every comparison with NaN is false: the checks are written so that NaN fails them,
    # not so that it slips past them to a gain of nan
    with pytest.raises(BadConstants):
        call()


def test_hodge_gain_pair_frozen():
    g = hodge_gain_pair(Fraction(1), Fraction(1), 4, 1, False, False)
    assert (g.d_gain, g.dstar_gain, g.overall) == (Fraction(1, 2), Fraction(1, 4),
                                                   Fraction(1, 4))
    g = hodge_gain_pair(Fraction(1), Fraction(1), 4, 1, True, False)
    assert g.d_gain == 1 and g.overall == Fraction(1, 4)
    g = hodge_gain_pair(0, 0, 5, 2, True, True)
    assert (g.d_gain, g.dstar_gain) == (Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(BadDegree):
        hodge_gain_pair(1, 1, 4, 0, False, False)
    with pytest.raises(BadDegree):
        hodge_gain_pair(1, 1, 4, 4, False, False)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_hodge_degree_checks_name_n_below_2(n):
    # no degree k has 1 <= k <= n - 1: the message names n, not an empty range of k
    with pytest.raises(BadDegree, match=f"hodge gains need n >= 2, got n={n}$"):
        hodge_gain_pair(1, 1, n, 1, False, False)
    with pytest.raises(BadDegree, match=f"form split needs n >= 2, got n={n}$"):
        fuzz_hodge_inequality(n, 1, 1, 10, 0)
    with pytest.raises(BadDegree, match=f"form split needs n >= 2, got n={n}$"):
        batch_hodge_margins(n, 1, 1, np.ones((2, 2)), np.ones((2, 1)), 1.0, 1.0)
    with pytest.raises(BadDegree, match=f"hodge symbol needs n >= 2, got n={n}$"):
        catalog("hodge", n, 1)


def test_hodge_degree_checks_refuse_an_n_that_is_not_an_integer():
    # a TypeError from the label combinatorics, before n was checked as a number
    with pytest.raises(BadDegree, match="form split needs n >= 2, got n=3.0$"):
        fuzz_hodge_inequality(3.0, 1, 1, 10, 0)
    with pytest.raises(BadDegree, match="hodge gains need n >= 2, got n=4.0$"):
        hodge_gain_pair(1, 1, 4.0, 1, False, False)


@pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
def test_hodge_degree_checks_refuse_a_degree_that_is_not_an_integer(k):
    # a bound of 2.5 is no form degree: no gain for it, and BadDegree, not a TypeError
    # from the label combinatorics
    with pytest.raises(BadDegree, match=f"hodge gains need 1 <= k <= 3, got k={k}$"):
        hodge_gain_pair(1, 1, 4, k, False, False)
    with pytest.raises(BadDegree, match=f"form split needs 1 <= k <= 3, got k={k}$"):
        fuzz_hodge_inequality(4, k, 1, 10, 0)
    catalog("hodge", 4, 2)  # cached, and still not served for a k of 2.0
    with pytest.raises(BadDegree, match=f"hodge symbol needs 1 <= k <= 3, got k={k}$"):
        catalog("hodge", 4, k)


@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.integers(1, 50))
@settings(max_examples=80, deadline=None)
def test_lemma_gain_monotone_and_capped(c_lo, ratio, a):
    c_hi = c_lo * (1 + ratio)
    lo = kato_gain_lemma(c_lo, a, False)
    hi = kato_gain_lemma(c_hi, a, False)
    cap = kato_gain_lemma(c_hi, a, True)
    assert lo <= hi < cap


@given(st.floats(1e3, 1e9), st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_lemma_gain_large_weight_gap(c, a):
    # 1/a - c/(1+ac) = 1/(a(1+ac)) ~ 1/(a^2 c)
    gap = float(kato_gain_lemma(c, a, True)) - kato_gain_lemma(c, a, False)
    assert gap == pytest.approx(1.0 / (a * (1 + a * c)), rel=1e-9)


def test_operator_constants_measured_fallback():
    op = catalog("dirac", 3)
    rho2, eps = operator_constants(op)
    assert rho2 == pytest.approx(3.0, abs=1e-12)
    assert eps == pytest.approx(1.0, abs=1e-9)


def test_an_undeclared_operator_is_measured_once_per_fuzz(monkeypatch):
    # five 20,000-row chunks: the kernel of each chunk once measured rho^2 and epsilon
    # again, six measurements of each with the report's extras
    calls = {"ellipticity_constant": 0, "conformity_factor": 0}

    def counted(name):
        measure = getattr(kato, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return measure(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(kato, name, counted(name))
    bare = OperatorSpec("bare", 4, catalog("dirac", 4).full_symbol)
    rep = fuzz_operator_inequality(bare, 100_000, 0)
    assert calls == {"ellipticity_constant": 1, "conformity_factor": 1}
    assert rep.passed and rep.extras["rho_squared"] == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# four-block split, with a minor-matrix oracle


def _unit(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def _exterior_matrix_of(R: np.ndarray, n: int, k: int) -> np.ndarray:
    """Induced map on degree-k forms: entries are k x k minors of R."""
    labels = exterior_power(n, k)
    out = np.zeros((len(labels), len(labels)))
    for col, J in enumerate(labels):
        for row, K in enumerate(labels):
            sub = R[np.ix_([i - 1 for i in K], [j - 1 for j in J])]
            out[row, col] = np.linalg.det(sub)
    return out


def _contains_projector_oracle(xi: np.ndarray, n: int, k: int) -> np.ndarray:
    """Projector onto forms containing xi, built in a rotated frame."""
    basis = np.eye(n)
    cols = [xi]
    for v in basis.T:
        w = v - sum((c @ v) * c for c in cols)
        if np.linalg.norm(w) > 1e-10:
            cols.append(w / np.linalg.norm(w))
    R = np.column_stack(cols[:n])
    Rk = _exterior_matrix_of(R, n, k)
    labels = exterior_power(n, k)
    diag = np.diag([1.0 if 1 in J else 0.0 for J in labels])
    return Rk @ diag @ Rk.T


def _wedge(v, n, k, dE):
    return _form_maps(n, k, dE)[0] @ v


def _contract(v, n, k, dE):
    return _form_maps(n, k, dE)[1] @ v


@pytest.mark.parametrize("n,k,dE", [(2, 1, 1), (3, 1, 1), (3, 2, 2), (4, 2, 1)])
def test_four_block_matches_minor_oracle(n, k, dE):
    rng = np.random.default_rng(n * 10 + k)
    xi = _unit(rng, n)
    dimk = math.comb(n, k)
    v = rng.standard_normal(n * dimk * dE) + 1j * rng.standard_normal(n * dimk * dE)
    v11, v12, v21, v22 = four_blocks(v, xi, n, k, dE)
    Q = _contains_projector_oracle(xi, n, k)
    P_line = np.kron(np.outer(xi, xi), np.kron(Q, np.eye(dE)))
    P_line_out = np.kron(np.outer(xi, xi), np.kron(np.eye(dimk) - Q, np.eye(dE)))
    P_perp = np.kron(np.eye(n) - np.outer(xi, xi), np.kron(Q, np.eye(dE)))
    P_perp_out = np.kron(np.eye(n) - np.outer(xi, xi),
                         np.kron(np.eye(dimk) - Q, np.eye(dE)))
    assert np.allclose(v11, P_line @ v, atol=1e-10)
    assert np.allclose(v12, P_line_out @ v, atol=1e-10)
    assert np.allclose(v21, P_perp @ v, atol=1e-10)
    assert np.allclose(v22, P_perp_out @ v, atol=1e-10)


def test_four_block_hand_values_axis_direction():
    v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    v11, v12, v21, v22 = four_blocks(v, np.array([1.0, 0.0]), 2, 1)
    assert np.allclose(v11, [1, 0, 0, 0])
    assert np.allclose(v12, [0, 2, 0, 0])
    assert np.allclose(v21, [0, 0, 3, 0])
    assert np.allclose(v22, [0, 0, 0, 4])


def test_four_block_orthogonal_decomposition():
    rng = np.random.default_rng(99)
    for n, k, dE in [(3, 1, 2), (4, 2, 1), (5, 3, 1), (5, 4, 1)]:
        xi = _unit(rng, n)
        dim = n * math.comb(n, k) * dE
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        parts = four_blocks(v, xi, n, k, dE)
        assert np.allclose(sum(parts), v)
        for x, y in itertools.combinations(parts, 2):
            assert abs(np.vdot(x, y)) < 1e-10
        total = sum(np.linalg.norm(p) ** 2 for p in parts)
        assert total == pytest.approx(np.linalg.norm(v) ** 2, rel=1e-12)


def test_four_block_symbol_annihilation():
    # wedge kills the line-and-contains block, contraction kills the
    # line-and-avoids block
    rng = np.random.default_rng(5)
    for n, k, dE in [(3, 1, 1), (4, 2, 2), (5, 2, 1)]:
        xi = _unit(rng, n)
        dim = n * math.comb(n, k) * dE
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v11, v12, _, _ = four_blocks(v, xi, n, k, dE)
        assert np.linalg.norm(_wedge(v11, n, k, dE)) < 1e-10
        assert np.linalg.norm(_contract(v12, n, k, dE)) < 1e-10


def test_four_block_spectral_caps():
    # on the perp-and-contains block the wedge never expands by more
    # than sqrt(k); on the perp-and-avoids block the contraction caps at
    # sqrt(n - k); the caps are attained (test_key_lemma_setups_exact_bounds)
    rng = np.random.default_rng(6)
    for n, k in [(3, 1), (4, 2), (5, 3)]:
        xi = _unit(rng, n)
        dim = n * math.comb(n, k)
        for _ in range(10):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            _, _, v21, v22 = four_blocks(v, xi, n, k)
            w = _wedge(v21, n, k, 1)
            assert (np.linalg.norm(w) ** 2
                    <= k * np.linalg.norm(v21) ** 2 + 1e-10)
            q = _contract(v22, n, k, 1)
            assert (np.linalg.norm(q) ** 2
                    <= (n - k) * np.linalg.norm(v22) ** 2 + 1e-10)


def test_four_block_border_degrees_conformal():
    # in degree 1 the wedge acts conformally on the perp-and-contains
    # block; in degree n-1 the contraction does on perp-and-avoids
    rng = np.random.default_rng(16)
    for n in [2, 3, 5]:
        xi = _unit(rng, n)
        v = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        v21 = four_blocks(v, xi, n, 1)[2]
        w = _wedge(v21, n, 1, 1)
        assert np.linalg.norm(w) ** 2 == pytest.approx(
            np.linalg.norm(v21) ** 2, rel=1e-10)
        dim = n * math.comb(n, n - 1)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v22 = four_blocks(v, xi, n, n - 1)[3]
        q = _contract(v22, n, n - 1, 1)
        assert np.linalg.norm(q) ** 2 == pytest.approx(
            np.linalg.norm(v22) ** 2, rel=1e-10)


def test_the_form_kernel_rejects_degrees_0_and_n():
    # the kernel's own degree check, before any row is read, through the kernel, the
    # one-row check and the fuzzer; test_cli has the CLI's exit 2
    n = 4
    for k in (0, n):
        dim = math.comb(n, k)
        with pytest.raises(BadDegree, match=f"form split needs 1 <= k <= 3, got k={k}"):
            batch_hodge_margins(n, k, 1, np.ones((2, n * dim)), np.ones((2, dim)), 1.0, 1.0)
        with pytest.raises(BadDegree, match="form split needs"):
            check_hodge_inequality(np.ones(n * dim), np.ones(dim), n, k)
        with pytest.raises(BadDegree, match="form split needs"):
            fuzz_hodge_inequality(n, k, 1, 10, 0)


# ---------------------------------------------------------------------------
# spectral bounds for the line component of catalog operators


SPECTRAL_OPS = [
    ("connection", 2, None), ("connection", 4, None),
    ("dirac", 2, None), ("dirac", 3, None), ("dirac", 4, None),
    ("twistor", 3, None), ("twistor", 4, None),
    ("hodge", 4, 2), ("hodge", 5, 2), ("hodge", 3, 1),
]


@pytest.mark.parametrize("name,n,k", SPECTRAL_OPS)
def test_spectral_bounds_hold(name, n, k):
    op = catalog(name, n, k=k) if k is not None else catalog(name, n)
    rng = np.random.default_rng(hash((name, n, k)) % 2 ** 32)
    for _ in range(5):
        xi = _unit(rng, n)
        b = verify_spectral_bounds(op, xi)
        assert b.satisfied, (name, n, k, b)
        assert b.min_line_eigenvalue >= b.epsilon - 1e-9
        assert b.max_perp_eigenvalue <= b.rho_squared - b.epsilon + 1e-9


@pytest.mark.parametrize("name,n,k", SPECTRAL_OPS)
def test_perp_gram_matches_an_explicit_frame(name, n, k):
    # the frameless perp Gram P1 P1* - T T* against P1 on a frame completing xi0
    op = catalog(name, n, k=k) if k is not None else catalog(name, n)
    xi = _unit(np.random.default_rng(5), n)
    P1 = kato._line_split(op, xi)[0].reshape(-1, n, op.fiber_dim)
    frame = np.linalg.qr(np.column_stack([xi, np.eye(n)[:, :n - 1]]))[0]
    H = np.einsum("rie,ij->rje", P1, frame[:, 1:]).reshape(P1.shape[0], -1)
    framed = float(np.linalg.eigvalsh(H @ H.conj().T)[-1])
    assert verify_spectral_bounds(op, xi).max_perp_eigenvalue == pytest.approx(framed, abs=1e-12)


def test_spectral_bounds_tight_for_dirac():
    # the perp component of the dirac symbol has top eigenvalue exactly
    # rho^2 - epsilon = n - 1
    op = catalog("dirac", 3)
    b = verify_spectral_bounds(op, np.array([1.0, 0.0, 0.0]))
    assert b.max_perp_eigenvalue == pytest.approx(2.0, abs=1e-9)
    assert b.min_line_eigenvalue == pytest.approx(1.0, abs=1e-9)


def test_spectral_bounds_need_a_unit_covector():
    with pytest.raises(NotUnit, match="direction covector must be unit length"):
        verify_spectral_bounds(catalog("dirac", 3), 2.0 * np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_bounds_refuse_a_non_finite_covector(bad):
    # |nan - 1| > 1e-12 is False: a NaN covector gave bounds 0.0 and 0.0, satisfied
    with pytest.raises(NotUnit, match="direction covector must be unit length"):
        verify_spectral_bounds(catalog("exterior-only", 3, 1), [bad, 0.0, 0.0])


def test_spectral_bounds_need_a_covector_per_direction():
    with pytest.raises(ValueError, match="covector length does not match the domain split"):
        verify_spectral_bounds(catalog("dirac", 3), [1.0, 0.0])


# ---------------------------------------------------------------------------
# key lemma on the form-block geometries


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 2), (5, 3)])
def test_key_lemma_setups_exact_bounds(n, k):
    for label, C, sub, bound in key_lemma_setups(n, k):
        measured = _restricted_gram(C, sub)[2]
        assert measured == pytest.approx(bound, abs=1e-9), label


def test_key_lemma_random_margins():
    rng = np.random.default_rng(11)
    for label, C, sub, bound in key_lemma_setups(4, 2):
        for trial in range(20):
            d = C.shape[1]
            u1 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            u2 = sub @ (rng.standard_normal(sub.shape[1])
                        + 1j * rng.standard_normal(sub.shape[1]))
            c = float(rng.random() * 100)
            verdict = check_key_lemma(C, sub, u1, u2, c)
            assert verdict.margin >= -1e-9 * verdict.scale, (label, trial)
            assert verdict.theorem == "key-lemma"


def test_key_lemma_vanishing_branch_from_matched_component():
    rng = np.random.default_rng(12)
    for label, C, sub, bound in key_lemma_setups(3, 1):
        u2 = sub @ (rng.standard_normal(sub.shape[1])
                    + 1j * rng.standard_normal(sub.shape[1]))
        u1 = matching_first_component(C, u2)
        verdict = check_key_lemma(C, sub, u1, u2, 5.0)
        assert verdict.branch == "vanishing"
        assert verdict.gain == pytest.approx(1.0 / bound, rel=1e-9)
        assert verdict.margin >= -1e-9 * verdict.scale


def _scaled_basis(sub):
    return 1.001 * sub


def _skewed_basis(sub):
    # the first two columns no longer orthogonal
    skewed = sub.copy()
    skewed[:, 1] += 1e-6 * sub[:, 0]
    return skewed


@pytest.mark.parametrize("spoil", [_scaled_basis, _skewed_basis])
def test_key_lemma_rejects_a_non_orthonormal_sub_basis(spoil):
    label, C, sub, _ = key_lemma_setups(3, 1)[0]
    bad = spoil(sub)
    u1, u2 = np.ones(C.shape[1], dtype=complex), bad[:, 0]
    with pytest.raises(ValueError, match="orthonormal"):
        check_key_lemma(C, bad, u1, u2, 1.0)
    with pytest.raises(ValueError, match="orthonormal"):
        fuzz_key_lemma(C, bad, 100, seed=1, label=label)


def test_key_lemma_refuses_a_u2_outside_the_sub_basis_span():
    # the top right singular vector of C with u1 = -u2 breaks the lemma's
    # hypothesis; it used to come back as a failed verdict
    for n, k in [(3, 1), (4, 2), (5, 2)]:
        for label, C, sub, _ in key_lemma_setups(n, k):
            u2 = np.linalg.svd(C)[2][0].conj()
            with pytest.raises(ValueError, match="span of sub_basis"):
                check_key_lemma(C, sub, -u2, u2, 1.0)
            # its part inside the span is a valid input and keeps its verdict
            inside = sub @ (sub.conj().T @ u2)
            assert check_key_lemma(C, sub, -inside, inside, 1.0).passed, label


def test_equality_witness_saturates_bound():
    for n, k in [(3, 1), (4, 2), (5, 2)]:
        for label, C, sub, bound in key_lemma_setups(n, k):
            u2, ratio = equality_witness(C, sub)
            assert ratio == pytest.approx(bound, rel=1e-8), label
            # drive the lemma toward equality: matched u1, vanishing branch
            u1 = matching_first_component(C, u2)
            verdict = check_key_lemma(C, sub, u1, u2, 0.0)
            assert verdict.branch == "vanishing"
            assert abs(verdict.margin) < 1e-6 * verdict.scale


def test_equality_witness_zero_restriction():
    C = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    sub = np.array([[0.0], [1.0]], dtype=complex)  # second axis maps to zero
    with pytest.raises(ZeroOperator):
        equality_witness(C, sub)


@pytest.mark.parametrize("C", [
    np.eye(3),                                # real
    np.ones(3, dtype=complex),                # 1-D
    np.ones((1, 3, 3), dtype=complex),        # 3-D
    [[1.0 + 0j, 0.0], [0.0, 1.0]],            # not an array
])
def test_key_lemma_entry_points_take_only_a_complex_matrix(C):
    # one input check for C: a real map would run another LAPACK routine in pinv
    sub = np.eye(3, dtype=complex)[:, 1:]
    u2 = sub[:, 0]
    for call in (lambda: check_key_lemma(C, sub, u2, u2, 1.0),
                 lambda: equality_witness(C, sub),
                 lambda: matching_first_component(C, u2),
                 lambda: fuzz_key_lemma(C, sub, 10, 0)):
        with pytest.raises(ValueError, match="2-D complex128 matrix"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_key_lemma_entry_points_refuse_a_non_finite_map(capfd, bad):
    # the map check names the entry before LAPACK sees it: no LinAlgError from eigvalsh
    # or lstsq, no LAPACK line on stderr and no invalid-value warning from C @ sub_basis
    _, C, sub, _ = key_lemma_setups(3, 1)[0]
    C = C.copy()
    C[0, 0] = bad
    u2 = sub[:, 0]
    for call in (lambda: check_key_lemma(C, sub, u2, u2, 1.0),
                 lambda: equality_witness(C, sub),
                 lambda: matching_first_component(C, u2),
                 lambda: fuzz_key_lemma(C, sub, 10, 0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"finite entries, got \({bad}\+0j\) at \(0, 0\)"):
                call()
    assert capfd.readouterr().err == ""


def test_check_key_lemma_takes_strided_rows():
    # columns of sub_basis are strided vectors; the kernel reads its rows' real views
    _, C, sub, _ = key_lemma_setups(3, 1)[0]
    u1 = np.ones((C.shape[1], 2), dtype=complex)[:, 0]
    verdict = check_key_lemma(C, sub, u1, sub[:, 0], 1.0)
    assert verdict == check_key_lemma(C, sub, u1.copy(), sub[:, 0].copy(), 1.0)


def test_key_lemma_setups_hand_over_complex_matrices():
    for label, C, sub, _ in key_lemma_setups(4, 2) + [line_component_setup(catalog("dirac", 3))]:
        assert isinstance(C, np.ndarray) and C.dtype == np.complex128 and C.ndim == 2, label


def test_line_component_setup_bound():
    label, C, sub, bound = line_component_setup(catalog("dirac", 3))
    measured = _restricted_gram(C, sub)[2]
    assert measured <= bound + 1e-9
    report = fuzz_key_lemma(C, sub, 2000, seed=3, label=label)
    assert report.passed
    assert report.extras["spectral_bound"] <= bound + 1e-9


# ---------------------------------------------------------------------------
# operator inequality, scalar paths


def _kernel_vector(op, rng):
    M = op.full_symbol
    u, s, vh = np.linalg.svd(M)
    null = vh[np.sum(s > 1e-12):].conj().T
    if null.shape[1] == 0:
        return None
    g = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
    return null @ g


def test_operator_inequality_kernel_branch_constant():
    rng = np.random.default_rng(21)
    op = catalog("dirac", 3)
    u = _kernel_vector(op, rng)
    phi = rng.standard_normal(op.fiber_dim) + 1j * rng.standard_normal(op.fiber_dim)
    verdict = check_operator_inequality(op, u, phi, c=3.0)
    assert verdict.branch == "vanishing"
    assert verdict.gain == pytest.approx(0.5, abs=1e-12)  # 1/(n-1) at n=3
    assert verdict.margin >= -1e-9 * verdict.scale


def test_operator_inequality_twistor_kernel_constant():
    rng = np.random.default_rng(22)
    op = catalog("twistor", 3)
    u = _kernel_vector(op, rng)
    phi = rng.standard_normal(op.fiber_dim) + 1j * rng.standard_normal(op.fiber_dim)
    verdict = check_operator_inequality(op, u, phi, c=0.0)
    assert verdict.branch == "vanishing"
    assert verdict.gain == pytest.approx(2.0, abs=1e-12)  # n - 1 at n=3
    assert verdict.margin >= -1e-9 * verdict.scale


def test_operator_inequality_generic_margin_and_gain():
    rng = np.random.default_rng(23)
    op = catalog("dirac", 4)
    dim = op.full_symbol.shape[1]
    for _ in range(25):
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        phi = rng.standard_normal(op.fiber_dim) + 1j * rng.standard_normal(op.fiber_dim)
        c = float(rng.random() * 50)
        verdict = check_operator_inequality(op, u, phi, c=c)
        assert verdict.branch == "nonvanishing"
        assert verdict.gain == pytest.approx(c / (1 + 3 * c), rel=1e-12)
        assert verdict.margin >= -1e-9 * verdict.scale


def test_operator_inequality_rejects_zero_section():
    op = catalog("dirac", 2)
    with pytest.raises(ZeroSection):
        check_operator_inequality(op, np.ones(4, dtype=complex),
                                  np.zeros(2, dtype=complex), 1.0)


def test_operator_inequality_scale_free():
    # scaling u and phi together rescales both sides identically
    rng = np.random.default_rng(24)
    op = catalog("twistor", 4)
    dim = op.full_symbol.shape[1]
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi = rng.standard_normal(op.fiber_dim) + 1j * rng.standard_normal(op.fiber_dim)
    v1 = check_operator_inequality(op, u, phi, c=2.0)
    v2 = check_operator_inequality(op, 10 * u, 3 * phi, c=2.0)
    assert v2.lhs == pytest.approx(100 * v1.lhs, rel=1e-12)
    assert v2.rhs == pytest.approx(100 * v1.rhs, rel=1e-12)


def _crow(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _scale_free_checks(rng, m):
    # (name, check(scale, row), rows) per single-shot check: random rows, then as many
    # rows on the vanishing branch (inside ker P, inside ker(wedge) and ker(contraction),
    # and with C(u1 + u2) = 0); the scale multiplies the gradient part of a row
    op = catalog("twistor", 4)
    dim, dE = op.full_symbol.shape[1], op.fiber_dim
    foldo = [(_crow(rng, dim), _crow(rng, dE)) for _ in range(m)]
    foldo += [(_kernel_vector(op, rng), _crow(rng, dE)) for _ in range(m)]
    null = kato._null_space(np.vstack(_form_maps(4, 2, 1)))
    hodge = [(_crow(rng, 24), _crow(rng, 6)) for _ in range(m)]
    hodge += [(null @ _crow(rng, null.shape[1]), _crow(rng, 6)) for _ in range(m)]
    _, C, sub, _ = key_lemma_setups(4, 2)[0]
    u2s = [sub @ _crow(rng, sub.shape[1]) for _ in range(2 * m)]
    lemma = [(_crow(rng, C.shape[1]), u2) for u2 in u2s[:m]]
    lemma += [(matching_first_component(C, u2), u2) for u2 in u2s[m:]]
    return [
        ("foldo", lambda s, r: check_operator_inequality(op, s * r[0], r[1], 2.0), foldo),
        ("hodge", lambda s, r: check_hodge_inequality(s * r[0], r[1], 4, 2), hodge),
        ("key-lemma", lambda s, r: check_key_lemma(C, sub, s * r[0], s * r[1], 2.0), lemma),
    ]


def test_single_shot_branches_and_verdicts_do_not_depend_on_the_scale():
    # |P u| <= 1e-10 |u| picks the vanishing branch, degree 1 on both sides: random
    # rows stay nonvanishing at 1e10 and vanishing rows stay vanishing at 1e-8
    for name, check, rows in _scale_free_checks(np.random.default_rng(25), 20):
        at = {s: [(v.branch, v.passed) for v in (check(s, r) for r in rows)]
              for s in (1e-8, 1.0, 1e10)}
        assert at[1.0] == [("nonvanishing", True)] * 20 + [("vanishing", True)] * 20, name
        assert at[1e-8] == at[1.0] and at[1e10] == at[1.0], name


# ---------------------------------------------------------------------------
# hodge inequality, scalar paths


def test_hodge_inequality_random_margins():
    rng = np.random.default_rng(31)
    for n, k in [(3, 1), (4, 2), (5, 3)]:
        dim = n * math.comb(n, k)
        for _ in range(15):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            phi = rng.standard_normal(math.comb(n, k)) + 1j * rng.standard_normal(math.comb(n, k))
            verdict = check_hodge_inequality(v, phi, n, k,
                                             c=float(rng.random() * 20),
                                             c_star=float(rng.random() * 20))
            assert verdict.margin >= -1e-9 * verdict.scale
            assert verdict.corollary_margin is not None
            assert verdict.corollary_margin >= -1e-9 * verdict.scale


def test_hodge_inequality_forced_branch_flags():
    # a coefficient vector inside ker(wedge) with the flag passed
    # explicitly lands on the stronger gain
    rng = np.random.default_rng(32)
    n, k = 4, 2
    null = kato._null_space(_form_maps(n, k, 1)[0])
    v = null @ (rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1]))
    phi = rng.standard_normal(math.comb(n, k)) + 1j * rng.standard_normal(math.comb(n, k))
    verdict = check_hodge_inequality(v, phi, n, k, c=1.0, c_star=1.0,
                                     d_vanishing=True)
    # min(1/k, c*/(1+(n-k)c*)) = min(1/2, 1/3) = 1/3
    assert verdict.gain == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert verdict.margin >= -1e-9 * verdict.scale


def test_hodge_inequality_rejects_zero_section():
    with pytest.raises(ZeroSection):
        check_hodge_inequality(np.ones(6, dtype=complex),
                               np.zeros(3, dtype=complex), 3, 1)


def test_hodge_surrogate_bounded_by_line_blocks():
    # |d|phi||^2 never exceeds |v11|^2 + |v12|^2 when xi0 follows the pairing
    rng = np.random.default_rng(33)
    n, k = 4, 2
    dimk = math.comb(n, k)
    for _ in range(40):
        v = rng.standard_normal(n * dimk) + 1j * rng.standard_normal(n * dimk)
        phi = rng.standard_normal(dimk) + 1j * rng.standard_normal(dimk)
        b = np.real(v.reshape(n, dimk) @ phi.conj())
        bn = np.linalg.norm(b)
        if bn < 1e-12:
            continue
        xi0 = b / bn
        v11, v12, _, _ = four_blocks(v, xi0, n, k)
        dnorm_sq = bn ** 2 / np.linalg.norm(phi) ** 2
        line_sq = np.linalg.norm(v11) ** 2 + np.linalg.norm(v12) ** 2
        assert dnorm_sq <= line_sq + 1e-10 * np.linalg.norm(v) ** 2


# ---------------------------------------------------------------------------
# fuzz batches (small counts here; the acceptance gate runs the big ones)


def test_fuzz_operator_small_batches():
    for name, n in [("dirac", 3), ("twistor", 3), ("connection", 2)]:
        op = catalog(name, n)
        report = fuzz_operator_inequality(op, 3000, seed=101)
        assert report.passed, (name, report.min_relative_margin)
        assert report.samples == 3000
        assert report.branch_counts["nonvanishing"] > 0
        if report.extras["kernel_dim"] > 0:
            assert report.branch_counts["vanishing"] > 0


def test_fuzz_operator_hodge_default():
    op = catalog("hodge", 4, k=2)
    report = fuzz_operator_inequality(op, 3000, seed=102)
    assert report.passed
    assert report.extras["epsilon"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_fuzz_operator_fixed_weight():
    op = catalog("dirac", 2)
    report = fuzz_operator_inequality(op, 1000, seed=103, c_fixed=2.5)
    assert report.passed
    assert report.c_range == (2.5, 2.5)


@pytest.mark.parametrize("c_fixed", [None, 2.0])
@pytest.mark.parametrize("cstar_fixed", [None, 3.0])
def test_fuzz_hodge_reports_the_range_of_each_weight(c_fixed, cstar_fixed):
    # c_range is the range of c, as for the operator fuzzer; c_star_range that of c*
    report = fuzz_hodge_inequality(3, 1, 1, 100, seed=106, c_fixed=c_fixed,
                                   cstar_fixed=cstar_fixed)
    assert report.c_range == ((0.0, 1e3) if c_fixed is None else (2.0, 2.0))
    assert report.extras["c_star_range"] == ((0.0, 1e3) if cstar_fixed is None
                                             else (3.0, 3.0))


def test_fuzz_hodge_small_batches():
    for n, k in [(3, 1), (4, 2)]:
        report = fuzz_hodge_inequality(n, k, 1, 2500, seed=104)
        assert report.passed, (n, k, report.min_relative_margin)
        # the form algebra is certified once, exactly, in place of per-row residuals
        assert report.extras["form_algebra"] == "exact"
        assert not [key for key in report.to_json_dict() if key.endswith("_residual")]
        assert report.extras["min_margin_corollary"] >= -1e-9 * 1e3


def test_fuzz_hodge_with_fiber():
    report = fuzz_hodge_inequality(3, 1, 2, 1500, seed=105)
    assert report.passed


def test_fuzz_key_lemma_batches():
    for label, C, sub, bound in key_lemma_setups(4, 2):
        report = fuzz_key_lemma(C, sub, 4000, seed=106, label=label)
        assert report.passed, label
        assert report.branch_counts["vanishing"] > 0
        assert report.extras["spectral_bound"] == pytest.approx(bound, abs=1e-9)


def _key_lemma_rows(monkeypatch, C, sub, label):
    # the fuzzer's report and every row its kernel returned, in draw chunks of 2300 rows;
    # the kernel takes images, squared norms and weights, the forced rows already fixed
    # by the fuzzer's sampler, and the recorder passes them on as they come
    rows, kernel = [], kato._key_lemma_margins
    monkeypatch.setattr(kato, "_key_lemma_margins",
                        lambda *args: rows.append(kernel(*args)) or rows[-1])
    monkeypatch.setitem(kato._DRAW_CHUNK, "key-lemma", 2300)
    report = fuzz_key_lemma(C, sub, 5000, seed=107, label=label)
    monkeypatch.setattr(kato, "_key_lemma_margins", kernel)
    return report.to_json_dict(), {key: np.concatenate([out[key] for out in rows])
                                   for key in rows[0]}


def test_fuzz_key_lemma_row_blocks_do_not_change_the_report(monkeypatch):
    # each chunk in one block against blocks of a 333-row budget, which split the
    # draws of the 2300-row chunks into 6 blocks of 383-384 rows, folded one at a time,
    # with the 575 kept rows across a block edge, then a short last chunk (400 rows,
    # 100 forced); on a real restriction and on a complex one
    for label, C, sub in (key_lemma_setups(5, 2)[1][:3],
                          line_component_setup(catalog("dirac", 3))[:3]):
        monkeypatch.setattr(projections, "_FORM_BLOCK", 10**6)
        whole = _key_lemma_rows(monkeypatch, C, sub, label)
        monkeypatch.setattr(projections, "_FORM_BLOCK", 333)
        blocked = _key_lemma_rows(monkeypatch, C, sub, label)
        assert blocked[0] == whole[0], label
        for key, x in whole[1].items():
            assert np.array_equal(blocked[1][key], x), (label, key)


# criterion 4's eleven restrictions, fuzzed at 1e5 samples: (violations, vanishing
# rows, min_relative_margin), recorded with the complex-row kernel on the same draws
KEY_LEMMA_STREAM = {
    5: [(0, 25000, -1.1252124416194566e-15), (0, 25000, 0.010520269840702255),
        (0, 25000, -6.893159196994748e-16), (0, 25000, 0.05991286632725579),
        (0, 25000, 0.02824701764919055), (0, 25000, 0.040462214599675535),
        (0, 25000, 0.05912696775984334), (0, 25000, 0.15356577963235107),
        (0, 25000, 0.000546496655905248), (0, 25000, 0.0006344922451426629),
        (0, 25000, 0.06483770863809576)],
    6: [(0, 25000, -1.078127901613423e-15), (0, 25000, 0.009769750920965072),
        (0, 25000, -8.166958136811944e-16), (0, 25000, 0.09191015134288526),
        (0, 25000, 0.04257839434543666), (0, 25000, 0.03541694975276723),
        (0, 25000, 0.06073274564495744), (0, 25000, 0.14435005221069033),
        (0, 25000, 0.0007253083859307013), (0, 25000, 0.0006007787312249637),
        (0, 25000, 0.08122455185989101)],
}


@pytest.mark.parametrize("seed", sorted(KEY_LEMMA_STREAM))
def test_fuzz_key_lemma_keeps_the_criterion_4_stream(seed):
    setups = [(C, sub) for n, k in ((3, 1), (4, 1), (4, 2), (5, 2))
              for _, C, sub, _ in key_lemma_setups(n, k)]
    setups += [line_component_setup(catalog(*ref))[1:3]
               for ref in (("dirac", 3), ("twistor", 3), ("hodge", 4, 2))]
    for (C, sub), (violations, vanishing, min_rel) in zip(setups, KEY_LEMMA_STREAM[seed]):
        report = fuzz_key_lemma(C, sub, 100_000, seed)
        assert report.samples == 100_000
        assert report.violations == violations
        assert report.branch_counts == {"vanishing": vanishing,
                                        "nonvanishing": 100_000 - vanishing}
        assert abs(report.min_relative_margin - min_rel) <= 1e-12


def _key_lemma_peak(samples):
    label, C, sub, _ = key_lemma_setups(5, 2)[1]
    tracemalloc.start()
    try:
        fuzz_key_lemma(C, sub, samples, seed=108, label=label)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fuzz_key_lemma_memory_is_images_and_one_block():
    # (5,2) contraction: u1 has 28 and z 24 complex coordinates and C 5 image ones.  A
    # default chunk keeps the complex images C u1 and Chat z (2 * 20000 * 5 * 16 B) and
    # one draw block (1053 rows of 28 reals), and no drawn row; the
    # allowance covers the forced slice's two temporaries (5000, 2, 5) and the chunk's
    # one-row-per-entry arrays (weights, norms, outputs and the fuzz loop's masks, about
    # 2.5 MiB at 20,000 rows).  The whole chunk of draws alone (15.9 MiB) is over the
    # bound, and so is a chunk that also keeps the 5000 forced rows of u1
    images, block, forced = 2 * 2 * 20_000 * 5 * 8, 1053 * 28 * 8, 2 * 5000 * 2 * 5 * 8
    bound = images + block + forced + int(2.5 * 2**20)
    peaks = [_key_lemma_peak(samples) for samples in (100_000, 500_000)]
    assert max(peaks) <= 1.1 * min(peaks), peaks
    assert max(peaks) <= bound < 2 * 20_000 * 52 * 8, (peaks, bound)


@pytest.mark.parametrize("m", [1, 3, 4, 1025, 5000, 20000])
@pytest.mark.parametrize("which", ["real", "complex"])
def test_folded_draws_keep_the_complex_rows_stream(m, which):
    # the folded draws of a chunk leave the generator where _complex_rows(d1),
    # _complex_rows(d2) and _weights leave it, and fold every row into its image and
    # squared norm within rounding; no drawn row comes back
    _, C, sub = (key_lemma_setups(5, 2)[1] if which == "real"
                 else line_component_setup(catalog("dirac", 3)))[:3]
    Chat = C @ sub
    folded, plain = np.random.default_rng(m), np.random.default_rng(m)
    Cu1, u1_sq = kato._folded_rows(folded, m, C.shape[1], C.T)
    Cz, z_sq = kato._folded_rows(folded, m, sub.shape[1], Chat.T)
    c = kato._weights(folded, m)
    u1, z = (kato._complex_rows(plain, m, d) for d in (C.shape[1], sub.shape[1]))
    assert np.array_equal(c, kato._weights(plain, m))
    assert folded.bit_generator.state == plain.bit_generator.state
    for img, sq, x, M in ((Cu1, u1_sq, u1, C), (Cz, z_sq, z, Chat)):
        want = x @ M.T
        assert img.shape == (m, M.shape[0])
        assert np.allclose(img, want,
                           rtol=0, atol=1e-12 * np.max(np.abs(want)))
        assert np.allclose(sq, np.sum(np.abs(x) ** 2, axis=1), rtol=1e-14, atol=0)


@pytest.mark.parametrize("which", ["real", "complex"])
def test_fuzz_key_lemma_forced_rows_cancel_bit_for_bit(monkeypatch, which):
    # the forced quarter of each chunk reaches the kernel with C u1 = -C u2 exactly,
    # recorded before the kernel adds C u1 into C u2 in place; chunks of 2300 rows and
    # a short last one (400 rows, 100 forced)
    _, C, sub = (key_lemma_setups(5, 2)[1] if which == "real"
                 else line_component_setup(catalog("dirac", 3)))[:3]
    images, kernel = [], kato._key_lemma_margins

    def recording(a, Cu1, Cu2, *rest):
        images.append((Cu1.copy(), Cu2.copy()))
        return kernel(a, Cu1, Cu2, *rest)

    monkeypatch.setattr(kato, "_key_lemma_margins", recording)
    monkeypatch.setitem(kato._DRAW_CHUNK, "key-lemma", 2300)
    report = fuzz_key_lemma(C, sub, 5000, seed=109)
    assert [len(Cu1) for Cu1, _ in images] == [2300, 2300, 400]
    for Cu1, Cu2 in images:
        f = slice(0, len(Cu1) // 4)
        assert np.array_equal(Cu1[f], -Cu2[f])
        assert np.all(np.any(Cu1[f.stop:] != -Cu2[f.stop:], axis=1))
    assert report.branch_counts["vanishing"] >= 575 + 575 + 100


@pytest.mark.parametrize("d", [1, 3, 6])
def test_fuzz_key_lemma_identity_with_an_empty_second_component(monkeypatch, d):
    # C = I_d has no kernel, so a forced row keeps no part of u1: its squared norm is
    # |u1|^2 - |C+ C u1|^2, a rounding residue that is clamped at 0 and never negative,
    # and every forced row passes on the vanishing branch; chunks of 700, 700 and 600
    C = np.eye(d, dtype=complex)
    monkeypatch.setitem(kato._DRAW_CHUNK, "key-lemma", 700)
    for seed in range(20):
        report = fuzz_key_lemma(C, np.zeros((d, 0)), 2000, seed)
        assert report.violations == 0 and report.nonfinite == 0, (d, seed)
        assert report.branch_counts == {"vanishing": 175 + 175 + 150,
                                        "nonvanishing": 1500}, (d, seed)


def test_fuzz_key_lemma_on_an_empty_second_component():
    # z has no coordinates (reshape widths are spelled out): u2 = 0, and the 12 forced
    # rows of a 50-row chunk make C u1 vanish
    _, C, _, _ = key_lemma_setups(3, 1)[0]
    report = fuzz_key_lemma(C, np.zeros((C.shape[1], 0)), 50, 1)
    assert report.passed and report.samples == 50
    assert report.branch_counts == {"vanishing": 12, "nonvanishing": 38}
    assert report.extras["spectral_bound"] == 0.0


@pytest.mark.parametrize("samples", [1, 2, 3])
@pytest.mark.parametrize("which", ["real", "complex"])
def test_fuzz_key_lemma_below_four_samples_forces_no_row(samples, which):
    _, C, sub = (key_lemma_setups(3, 1)[0] if which == "real"
                 else line_component_setup(catalog("dirac", 3)))[:3]
    report = fuzz_key_lemma(C, sub, samples, 5)
    assert report.passed
    assert report.branch_counts == {"vanishing": 0, "nonvanishing": samples}


@pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 2049, 20000])
@pytest.mark.parametrize("dim", [1, 6, 50])
def test_complex_rows_keep_the_two_call_stream(count, dim):
    # drawn in row blocks, the rows equal a whole real half and then a whole imaginary
    # half drawn by two calls, bit for bit, and the generator ends in the same state
    rng = np.random.default_rng(count * dim)
    want = np.empty((count, dim), dtype=complex)
    want.real = rng.standard_normal((count, dim))
    want.imag = rng.standard_normal((count, dim))
    blocked = np.random.default_rng(count * dim)
    assert np.array_equal(kato._complex_rows(blocked, count, dim), want)
    assert blocked.random() == rng.random()


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _half_block_bytes(count, dim):
    # one real half of the longest row block of count complex rows of dim coordinates
    return max(r.stop - r.start for r in projections._row_blocks(count, 2 * dim)) * dim * 8


def test_complex_rows_hold_one_block_beyond_their_output():
    # 20,000 rows of 24 coordinates are 7.3 MiB; a real half drawn whole would add 3.7 MiB
    rng = np.random.default_rng(109)
    peak = _traced_peak(lambda: kato._complex_rows(rng, 20000, 24))
    assert peak <= 20000 * 24 * 16 + _half_block_bytes(20000, 24) + 2**16, peak


def _real_half_products(coef, basis):
    # a complex coefficient array times a real basis, each half its own real product
    out = np.empty((len(coef), len(basis)), dtype=complex)
    basis = np.ascontiguousarray(basis.real).T
    out.real, out.imag = (np.ascontiguousarray(x) @ basis for x in (coef.real, coef.imag))
    return out


def _close_in_rounding(got, want):
    # a real product and the complex one of the same real basis differ in rounding only
    return np.allclose(got, want, rtol=0, atol=16 * np.finfo(float).eps * np.max(np.abs(want)))


def test_kernel_redraws_hold_their_coefficients_and_one_block():
    # a quarter of 20,000 rows redrawn inside the 16-dimensional kernel of hodge:4:2, a
    # real basis: one half block of drawn coefficients, each multiplied straight into the
    # slice's real or imaginary rows, and neither the 5,000 coefficient rows (1.2 MiB)
    # nor a 1.8 MiB product of the slice's size
    null = kato._null_space(catalog("hodge", 4, 2).full_symbol)
    assert not null.imag.any()
    rows = np.zeros((20000, len(null)), dtype=complex)
    nk, dim, rng = 5000, null.shape[1], np.random.default_rng(110)
    peak = _traced_peak(lambda: kato._redraw_in_kernels(rng, rows, [null], 0.25))
    assert peak <= _half_block_bytes(nk, dim) + 2**16, peak
    coef = kato._complex_rows(np.random.default_rng(110), nk, dim)
    assert np.array_equal(rows[:nk], _real_half_products(coef, null))
    assert _close_in_rounding(rows[:nk], coef @ null.T) and not np.any(rows[nk:])


def test_complex_kernel_redraws_hold_their_coefficients_and_one_block():
    # a quarter of 20,000 rows redrawn inside the 12-dimensional kernel of dirac:4, a
    # complex basis: the 5,000 drawn coefficient rows (0.9 MiB) and one block, and no
    # 1.2 MiB product of the slice's size; the rows are the complex product's
    null = kato._null_space(catalog("dirac", 4).full_symbol)
    assert null.imag.any()
    rows = np.zeros((20000, len(null)), dtype=complex)
    nk, dim, rng = 5000, null.shape[1], np.random.default_rng(110)
    peak = _traced_peak(lambda: kato._redraw_in_kernels(rng, rows, [null], 0.25))
    assert peak <= nk * dim * 16 + _half_block_bytes(nk, dim) + 2**16, peak
    want = kato._complex_rows(np.random.default_rng(110), nk, dim) @ null.T
    assert np.array_equal(rows[:nk], want) and not np.any(rows[nk:])


@pytest.mark.parametrize("start", [0, 1, 511, 1024, 1025, 4000, 5000])
def test_complex_rows_from_start_keep_the_stream(start):
    # the draws of the rows before start are made and dropped: the rows from start on
    # are those of a whole draw, bit for bit, and the generator ends in the same state
    rng, whole = np.random.default_rng(start), np.random.default_rng(start)
    got = kato._complex_rows(rng, 5000, 7, start)
    assert np.array_equal(got[start:], kato._complex_rows(whole, 5000, 7)[start:])
    assert rng.bit_generator.state == whole.bit_generator.state


def _sampled_chunks(monkeypatch, fuzz):
    # each chunk's rows as the kernel gets them, and the generator state at the end of
    # the chunk's sampling, which a kernel redraw closes
    chunks, redraw = [], kato._redraw_in_kernels

    def recording(rng, rows, nulls, fraction):
        redraw(rng, rows, nulls, fraction)
        chunks.append((rows.copy(), rng.bit_generator.state))

    monkeypatch.setattr(kato, "_redraw_in_kernels", recording)
    fuzz()
    return chunks


def _check_the_whole_draw_recipe(chunks, theorem, samples, seed, widths, weights, nulls,
                                 fraction):
    # the reference recipe of whole draws: per chunk, whole _complex_rows of the rows and
    # of the sections, the weights, then each kernel's coefficient rows times its basis
    # over its slice.  The generator ends every chunk in the same state, the kept rows are
    # bit for bit the same, and so are the redrawn ones against the complex product for a
    # complex basis; a real basis takes each half in real arithmetic, bit for bit that of
    # the same coefficients
    rng, done = np.random.default_rng(seed), 0
    for got, state in chunks:
        m = min(kato._DRAW_CHUNK[theorem], samples - done)
        want = kato._complex_rows(rng, m, widths[0])
        kato._complex_rows(rng, m, widths[1])
        for _ in range(weights):
            kato._weights(rng, m)
        nk = int(fraction * m)
        for i, null in enumerate(nulls):
            if nk and null.shape[1]:
                coef = kato._complex_rows(rng, nk, null.shape[1])
                slot = slice(i * nk, (i + 1) * nk)
                if null.imag.any():
                    assert np.array_equal(got[slot], coef @ null.T)
                else:
                    assert np.array_equal(got[slot], _real_half_products(coef, null))
                    assert _close_in_rounding(got[slot], coef @ null.T)
                want[slot] = got[slot]
        assert np.array_equal(got, want)
        assert state == rng.bit_generator.state
        done += m
    assert done == samples


@pytest.mark.parametrize("samples", [1, 4, 1025, 20000])
@pytest.mark.parametrize("n,k,fiber", [(2, 1, 1), (4, 2, 1), (5, 2, 1), (4, 2, 3)])
def test_hodge_sampler_keeps_the_whole_draw_stream(monkeypatch, n, k, fiber, samples):
    # the two leading fifths of a chunk are redrawn in the kernels of the wedge and the
    # contraction; 20,000 samples are two chunks
    seed = 1000 * n + 10 * k + fiber
    chunks = _sampled_chunks(monkeypatch,
                             lambda: fuzz_hodge_inequality(n, k, fiber, samples, seed))
    dim_phi = math.comb(n, k) * fiber
    nulls = [kato._null_space(mat) for mat in kato._form_maps(n, k, fiber)]
    _check_the_whole_draw_recipe(chunks, "hodge", samples, seed, (n * dim_phi, dim_phi),
                                 2, nulls, 0.2)


@pytest.mark.parametrize("samples", [1, 4, 1025, 20000])
@pytest.mark.parametrize("name,args", [("connection", (3,)), ("dirac", (4,)),
                                       ("hodge", (4, 2))])
def test_foldo_sampler_keeps_the_whole_draw_stream(monkeypatch, name, args, samples):
    # the leading quarter of a chunk is redrawn in ker P: complex for dirac:4, real for
    # hodge:4:2, and connection:3 has none, so it keeps its drawn quarter; chunks of
    # 8,192 rows, so 20,000 samples are three
    op, seed = catalog(name, *args), 7 * samples + len(name)
    monkeypatch.setitem(kato._DRAW_CHUNK, "foldo", 8192)
    chunks = _sampled_chunks(monkeypatch, lambda: fuzz_operator_inequality(op, samples, seed))
    dE = op.fiber_dim
    nulls = [kato._null_space(op.full_symbol)]
    assert (nulls[0].shape[1] == 0) == (name == "connection")
    _check_the_whole_draw_recipe(chunks, "foldo", samples, seed, (op.base_dim * dE, dE), 1,
                                 nulls, 0.25)


@pytest.mark.parametrize("samples", [1, 1025, 20000])
@pytest.mark.parametrize("name,args", [("dirac", (4,)), ("hodge", (4, 2))])
@pytest.mark.parametrize("empty", [(False, True), (True, False), (True, True)])
def test_section_sampler_keeps_the_whole_draw_stream_past_an_empty_kernel(
        monkeypatch, empty, name, args, samples):
    # kernel lists that no fuzzer builds: the draws of a slice are dropped only while
    # every kernel before it is nonempty, and the rows a later empty kernel keeps, or a
    # kernel after it redraws, come out as in whole draws; a complex kernel (dirac:4)
    # and a real one (hodge:4:2), in chunks of 10,000 rows
    op, seed = catalog(name, *args), samples + 10 * sum(empty)
    null = kato._null_space(op.full_symbol)
    nulls = [null[:, :0] if e else null for e in empty]
    widths = (len(null), op.fiber_dim)
    sample = kato._section_sampler(*widths, nulls, 0.2, (None, None))

    def run():
        rng, done = np.random.default_rng(seed), 0
        while done < samples:
            m = min(kato._DRAW_CHUNK["hodge"], samples - done)
            sample(rng, m)
            done += m

    chunks = _sampled_chunks(monkeypatch, run)
    _check_the_whole_draw_recipe(chunks, "hodge", samples, seed, widths, 2, nulls, 0.2)


def test_fuzz_reports_deterministic():
    op = catalog("dirac", 3)
    r1 = fuzz_operator_inequality(op, 2000, seed=42)
    r2 = fuzz_operator_inequality(op, 2000, seed=42)
    assert r1.to_json_dict() == r2.to_json_dict()
    r3 = fuzz_operator_inequality(op, 2000, seed=43)
    assert r3.min_margin != r1.min_margin


# ---------------------------------------------------------------------------
# serialization


def _sample_verdicts():
    return [
        KatoVerdict("foldo", "nonvanishing", 1.5, None, 4.0, 3.0, 1.0, 0.5, 7.0,
                    None, None),
        KatoVerdict("hodge", "vanishing", 0.0, 2.0, 5.0, 0.0, 5.0, INF, 5.0,
                    corollary_margin=4.5, corollary_scale=5.5),
    ]


def test_verdict_jsonl_inf_encoding():
    import json
    text = "".join(json.dumps(v.to_json_dict(), sort_keys=True) + "\n"
                   for v in _sample_verdicts())
    rows = [json.loads(line) for line in text.strip().split("\n")]
    assert rows[0]["gain"] == 0.5
    assert rows[1]["gain"] == "inf"
    assert rows[1]["corollary_margin"] == 4.5
    assert rows[0]["passed"] is True


def test_fuzz_report_json_roundtrip():
    report = FuzzReport("foldo", "dirac:2", 10, 0, 0.5, 0.1, 1e-9, 3,
                        (0.0, 1e3), {"vanishing": 1, "nonvanishing": 9},
                        extras={"gain_vanishing": INF})
    d = report.to_json_dict()
    assert d["passed"] is True
    assert d["gain_vanishing"] == "inf"
    assert d["c_range"] == [0.0, 1e3]
