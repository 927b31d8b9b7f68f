"""Engine tests: gain formulas, splits, spectral bounds, inequality checks.

The four-block split is checked against an independent oracle that
builds the "form contains the covector" projector from minor matrices
of an orthogonal change of frame, not from the symbol composition the
implementation uses.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import kato
from katolab.errors import BadConstants, BadDegree, NotUnit, ZeroOperator, ZeroSection
from katolab.kato import (
    INF,
    FuzzReport,
    HodgeGains,
    KatoVerdict,
    check_hodge_inequality,
    check_key_lemma,
    check_operator_inequality,
    decompose_line,
    equality_witness,
    four_block_decompose,
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
    _form_kit,
    _restricted_top_eigenvalue,
)
from katolab.spaces import exterior_power
from katolab.symbols import catalog


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


# ---------------------------------------------------------------------------
# line split


def _unit(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def test_decompose_line_pythagoras_and_orthogonality():
    rng = np.random.default_rng(7)
    for n, dE in [(2, 1), (3, 2), (5, 3)]:
        xi = _unit(rng, n)
        u = rng.standard_normal(n * dE) + 1j * rng.standard_normal(n * dE)
        s = decompose_line(u, xi, n, dE)
        assert np.allclose(s.line + s.perp, u)
        assert abs(np.vdot(s.line, s.perp)) < 1e-12
        total = np.linalg.norm(s.line) ** 2 + np.linalg.norm(s.perp) ** 2
        assert total == pytest.approx(np.linalg.norm(u) ** 2, rel=1e-12)
        # the perp part has no xi component in its covector slot
        assert np.linalg.norm(xi @ s.perp.reshape(n, dE)) < 1e-12


def test_decompose_line_idempotent():
    rng = np.random.default_rng(8)
    xi = _unit(rng, 4)
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    s = decompose_line(u, xi, 4, 2)
    again = decompose_line(s.line, xi, 4, 2)
    assert np.allclose(again.line, s.line)
    assert np.linalg.norm(again.perp) < 1e-12


def test_decompose_line_rejects_non_unit():
    with pytest.raises(NotUnit):
        decompose_line(np.ones(4, dtype=complex), np.array([1.0, 1.0]), 2, 2)


# ---------------------------------------------------------------------------
# four-block split, with a minor-matrix oracle


def _exterior_matrix_of(R: np.ndarray, n: int, k: int) -> np.ndarray:
    """Induced map on degree-k forms: entries are k x k minors of R."""
    labels = exterior_power(n, k).labels
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
    labels = exterior_power(n, k).labels
    diag = np.diag([1.0 if 1 in J else 0.0 for J in labels])
    return Rk @ diag @ Rk.T


def _wedge(v, n, k, dE):
    return _form_kit(n, k).flat_maps(dE)[0] @ v


def _contract(v, n, k, dE):
    return _form_kit(n, k).flat_maps(dE)[1] @ v


@pytest.mark.parametrize("n,k,dE", [(2, 1, 1), (3, 1, 1), (3, 2, 2), (4, 2, 1)])
def test_four_block_matches_minor_oracle(n, k, dE):
    rng = np.random.default_rng(n * 10 + k)
    xi = _unit(rng, n)
    dimk = math.comb(n, k)
    v = rng.standard_normal(n * dimk * dE) + 1j * rng.standard_normal(n * dimk * dE)
    split = four_block_decompose(v, xi, n, k, dE)
    Q = _contains_projector_oracle(xi, n, k)
    P_line = np.kron(np.outer(xi, xi), np.kron(Q, np.eye(dE)))
    P_line_out = np.kron(np.outer(xi, xi), np.kron(np.eye(dimk) - Q, np.eye(dE)))
    P_perp = np.kron(np.eye(n) - np.outer(xi, xi), np.kron(Q, np.eye(dE)))
    P_perp_out = np.kron(np.eye(n) - np.outer(xi, xi),
                         np.kron(np.eye(dimk) - Q, np.eye(dE)))
    assert np.allclose(split.v11, P_line @ v, atol=1e-10)
    assert np.allclose(split.v12, P_line_out @ v, atol=1e-10)
    assert np.allclose(split.v21, P_perp @ v, atol=1e-10)
    assert np.allclose(split.v22, P_perp_out @ v, atol=1e-10)


def test_four_block_hand_values_axis_direction():
    v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    s = four_block_decompose(v, np.array([1.0, 0.0]), 2, 1, 1)
    assert np.allclose(s.v11, [1, 0, 0, 0])
    assert np.allclose(s.v12, [0, 2, 0, 0])
    assert np.allclose(s.v21, [0, 0, 3, 0])
    assert np.allclose(s.v22, [0, 0, 0, 4])


def test_four_block_orthogonal_decomposition():
    rng = np.random.default_rng(99)
    for n, k, dE in [(3, 1, 2), (4, 2, 1), (5, 3, 1), (5, 4, 1)]:
        xi = _unit(rng, n)
        dim = n * math.comb(n, k) * dE
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        s = four_block_decompose(v, xi, n, k, dE)
        parts = s.parts()
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
        s = four_block_decompose(v, xi, n, k, dE)
        assert np.linalg.norm(_wedge(s.v11, n, k, dE)) < 1e-10
        assert np.linalg.norm(_contract(s.v12, n, k, dE)) < 1e-10


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
            s = four_block_decompose(v, xi, n, k, 1)
            w = _wedge(s.v21, n, k, 1)
            assert (np.linalg.norm(w) ** 2
                    <= k * np.linalg.norm(s.v21) ** 2 + 1e-10)
            q = _contract(s.v22, n, k, 1)
            assert (np.linalg.norm(q) ** 2
                    <= (n - k) * np.linalg.norm(s.v22) ** 2 + 1e-10)


def test_four_block_border_degrees_conformal():
    # in degree 1 the wedge acts conformally on the perp-and-contains
    # block; in degree n-1 the contraction does on perp-and-avoids
    rng = np.random.default_rng(16)
    for n in [2, 3, 5]:
        xi = _unit(rng, n)
        v = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        s = four_block_decompose(v, xi, n, 1, 1)
        w = _wedge(s.v21, n, 1, 1)
        assert np.linalg.norm(w) ** 2 == pytest.approx(
            np.linalg.norm(s.v21) ** 2, rel=1e-10)
        dim = n * math.comb(n, n - 1)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        s = four_block_decompose(v, xi, n, n - 1, 1)
        q = _contract(s.v22, n, n - 1, 1)
        assert np.linalg.norm(q) ** 2 == pytest.approx(
            np.linalg.norm(s.v22) ** 2, rel=1e-10)


def test_four_block_rejects_bad_degree():
    with pytest.raises(BadDegree):
        four_block_decompose(np.zeros(4, dtype=complex), np.array([1.0, 0.0]), 2, 2, 1)


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


def test_spectral_bounds_tight_for_dirac():
    # the perp component of the dirac symbol has top eigenvalue exactly
    # rho^2 - epsilon = n - 1
    op = catalog("dirac", 3)
    b = verify_spectral_bounds(op, np.array([1.0, 0.0, 0.0]))
    assert b.max_perp_eigenvalue == pytest.approx(2.0, abs=1e-9)
    assert b.min_line_eigenvalue == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# key lemma on the form-block geometries


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 2), (5, 3)])
def test_key_lemma_setups_exact_bounds(n, k):
    for label, C, sub, bound in key_lemma_setups(n, k):
        measured = _restricted_top_eigenvalue(C, sub)
        assert measured == pytest.approx(bound, abs=1e-9), label


def test_key_lemma_random_margins():
    rng = np.random.default_rng(11)
    for label, C, sub, bound in key_lemma_setups(4, 2):
        for trial in range(20):
            u1 = rng.standard_normal(C.domain.dim) + 1j * rng.standard_normal(C.domain.dim)
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
    from katolab.linmap import LinearMap
    from katolab.spaces import fiber_space
    C = LinearMap(fiber_space(2, "u"), fiber_space(2, "y"),
                  np.array([[1.0, 0.0], [0.0, 0.0]]))
    sub = np.array([[0.0], [1.0]], dtype=complex)  # second axis maps to zero
    with pytest.raises(ZeroOperator):
        equality_witness(C, sub)


def test_line_component_setup_bound():
    label, C, sub, bound = line_component_setup(catalog("dirac", 3))
    measured = _restricted_top_eigenvalue(C, sub)
    assert measured <= bound + 1e-9
    report = fuzz_key_lemma(C, sub, 2000, seed=3, label=label)
    assert report.passed
    assert report.extras["spectral_bound"] <= bound + 1e-9


# ---------------------------------------------------------------------------
# operator inequality, scalar paths


def _kernel_vector(op, rng):
    M = op.full_symbol.matrix
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
    phi = rng.standard_normal(op.domain_fiber.dim) + 1j * rng.standard_normal(op.domain_fiber.dim)
    verdict = check_operator_inequality(op, u, phi, c=3.0)
    assert verdict.branch == "vanishing"
    assert verdict.gain == pytest.approx(0.5, abs=1e-12)  # 1/(n-1) at n=3
    assert verdict.margin >= -1e-9 * verdict.scale


def test_operator_inequality_twistor_kernel_constant():
    rng = np.random.default_rng(22)
    op = catalog("twistor", 3)
    u = _kernel_vector(op, rng)
    phi = rng.standard_normal(op.domain_fiber.dim) + 1j * rng.standard_normal(op.domain_fiber.dim)
    verdict = check_operator_inequality(op, u, phi, c=0.0)
    assert verdict.branch == "vanishing"
    assert verdict.gain == pytest.approx(2.0, abs=1e-12)  # n - 1 at n=3
    assert verdict.margin >= -1e-9 * verdict.scale


def test_operator_inequality_generic_margin_and_gain():
    rng = np.random.default_rng(23)
    op = catalog("dirac", 4)
    dim = op.full_symbol.domain.dim
    for _ in range(25):
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        phi = rng.standard_normal(op.domain_fiber.dim) + 1j * rng.standard_normal(op.domain_fiber.dim)
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
    dim = op.full_symbol.domain.dim
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi = rng.standard_normal(op.domain_fiber.dim) + 1j * rng.standard_normal(op.domain_fiber.dim)
    v1 = check_operator_inequality(op, u, phi, c=2.0)
    v2 = check_operator_inequality(op, 10 * u, 3 * phi, c=2.0)
    assert v2.lhs == pytest.approx(100 * v1.lhs, rel=1e-12)
    assert v2.rhs == pytest.approx(100 * v1.rhs, rel=1e-12)


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
    from katolab.kato import _form_kit, _null_space
    kit = _form_kit(n, k)
    eps_mat = kit.flat_maps(1)[0]
    null = _null_space(eps_mat)
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
        s = four_block_decompose(v, xi0, n, k, 1)
        dnorm_sq = bn ** 2 / np.linalg.norm(phi) ** 2
        line_sq = np.linalg.norm(s.v11) ** 2 + np.linalg.norm(s.v12) ** 2
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


def test_fuzz_hodge_small_batches():
    for n, k in [(3, 1), (4, 2)]:
        report = fuzz_hodge_inequality(n, k, 1, 2500, seed=104)
        assert report.passed, (n, k, report.min_relative_margin)
        assert report.extras["pythagoras_residual"] < 1e-12
        assert report.extras["block_identity_residual"] < 1e-10
        assert report.extras["dominance_residual"] <= 1e-10
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


def test_fuzz_key_lemma_row_blocks_do_not_change_the_report(monkeypatch):
    # whole chunks in one block against blocks that split every chunk
    # unevenly, with a short last chunk and forced rows across blocks
    label, C, sub, _ = key_lemma_setups(5, 2)[1]
    monkeypatch.setattr(kato, "_LEMMA_BLOCK", 10**6)
    whole = fuzz_key_lemma(C, sub, 5000, seed=107, label=label, chunk=2300)
    monkeypatch.setattr(kato, "_LEMMA_BLOCK", 333)
    blocked = fuzz_key_lemma(C, sub, 5000, seed=107, label=label, chunk=2300)
    assert blocked.to_json_dict() == whole.to_json_dict()
    rows = kato._complex_row_blocks(np.random.default_rng(3), 1000, 7)
    assert [len(b) for b in rows] == [333, 333, 333, 1]
    want = kato._complex_rows(np.random.default_rng(3), 1000, 7)
    assert np.array_equal(np.concatenate(rows), want)


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
        KatoVerdict("foldo", "nonvanishing", 1.5, None, 4.0, 3.0, 1.0, 0.5,
                    7.0, seed=9),
        KatoVerdict("hodge", "vanishing", 0.0, 2.0, 5.0, 0.0, 5.0, INF, 5.0,
                    corollary_margin=4.5),
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
