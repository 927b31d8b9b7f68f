"""Engine tests: gain formulas, splits, spectral bounds, inequality checks.

The four-block split is checked against an independent oracle that
builds the "form contains the covector" projector from minor matrices
of an orthogonal change of frame, not from the symbol composition the
implementation uses.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import kato, linmap
from katolab.errors import BadConstants, BadDegree, NotUnit, ZeroOperator, ZeroSection
from katolab.kato import (
    INF,
    FuzzReport,
    HodgeGains,
    KatoVerdict,
    check_hodge_inequality,
    check_key_lemma,
    check_operator_inequality,
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
    _form_maps,
    _restricted_gram,
)
from katolab.projections import line_image_basis
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
# four-block split, with a minor-matrix oracle


def _unit(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


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
    return _form_maps(n, k, dE)[0] @ v


def _contract(v, n, k, dE):
    return _form_maps(n, k, dE)[1] @ v


@pytest.mark.parametrize("n,k,dE", [(2, 1, 1), (3, 1, 1), (3, 2, 2), (4, 2, 1)])
def test_four_block_matches_minor_oracle(n, k, dE):
    rng = np.random.default_rng(n * 10 + k)
    xi = _unit(rng, n)
    dimk = math.comb(n, k)
    v = rng.standard_normal(n * dimk * dE) + 1j * rng.standard_normal(n * dimk * dE)
    split = four_block_decompose(v, xi, n, k, dE)
    with pytest.raises(NotUnit):
        four_block_decompose(v, 2.0 * xi, n, k, dE)
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


@pytest.mark.parametrize("name,n,k", SPECTRAL_OPS)
def test_perp_gram_matches_an_explicit_frame(name, n, k):
    # the frameless perp Gram P1 P1* - T T* against P1 on a frame completing xi0
    op = catalog(name, n, k=k) if k is not None else catalog(name, n)
    xi = _unit(np.random.default_rng(5), n)
    dE = op.domain_fiber.dim
    F1 = line_image_basis(op.full_symbol, xi, dE)
    P1 = (F1.conj().T @ op.full_symbol.matrix).reshape(-1, n, dE)
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
    u1, u2 = np.ones(C.domain.dim, dtype=complex), bad[:, 0]
    with pytest.raises(ValueError, match="orthonormal"):
        check_key_lemma(C, bad, u1, u2, 1.0)
    with pytest.raises(ValueError, match="orthonormal"):
        fuzz_key_lemma(C, bad, 100, seed=1, label=label)


def test_key_lemma_refuses_a_u2_outside_the_sub_basis_span():
    # the top right singular vector of C with u1 = -u2 breaks the lemma's
    # hypothesis; it used to come back as a failed verdict
    for n, k in [(3, 1), (4, 2), (5, 2)]:
        for label, C, sub, _ in key_lemma_setups(n, k):
            u2 = np.linalg.svd(C.matrix)[2][0].conj()
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
    from katolab.linmap import LinearMap
    from katolab.spaces import fiber_space
    C = LinearMap(fiber_space(2, "u"), fiber_space(2, "y"),
                  np.array([[1.0, 0.0], [0.0, 0.0]]))
    sub = np.array([[0.0], [1.0]], dtype=complex)  # second axis maps to zero
    with pytest.raises(ZeroOperator):
        equality_witness(C, sub)


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


def _crow(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _scale_free_checks(rng, m):
    # (name, check(scale, row), rows) per single-shot check: random rows, then as many
    # rows on the vanishing branch (inside ker P, inside ker(wedge) and ker(contraction),
    # and with C(u1 + u2) = 0); the scale multiplies the gradient part of a row
    op = catalog("twistor", 4)
    dim, dE = op.full_symbol.domain.dim, op.domain_fiber.dim
    foldo = [(_crow(rng, dim), _crow(rng, dE)) for _ in range(m)]
    foldo += [(_kernel_vector(op, rng), _crow(rng, dE)) for _ in range(m)]
    null = kato._null_space(np.vstack(_form_maps(4, 2, 1)))
    hodge = [(_crow(rng, 24), _crow(rng, 6)) for _ in range(m)]
    hodge += [(null @ _crow(rng, null.shape[1]), _crow(rng, 6)) for _ in range(m)]
    _, C, sub, _ = key_lemma_setups(4, 2)[0]
    u2s = [sub @ _crow(rng, sub.shape[1]) for _ in range(2 * m)]
    lemma = [(_crow(rng, C.domain.dim), u2) for u2 in u2s[:m]]
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


def test_block_identity_residual_is_scale_invariant():
    # a relative residual: rescaling the rows must not move it by orders
    rng = np.random.default_rng(37)
    dim_k = math.comb(5, 2)
    v = rng.standard_normal((200, 5 * dim_k)) + 1j * rng.standard_normal((200, 5 * dim_k))
    phi = rng.standard_normal((200, dim_k)) + 1j * rng.standard_normal((200, dim_k))
    res = [kato.batch_hodge_margins(5, 2, 1, s * v, phi, 1.0, 1.0, diagnostics=True)
           ["block_identity_residual"] for s in (1e-6, 1.0, 1e6)]
    assert 0.0 < max(res) <= 10.0 * min(res), res


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


def _key_lemma_rows(monkeypatch, C, sub, label):
    # the fuzzer's report and every row its kernel returned, in draw chunks of 2300 rows
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
    # 2300-row chunks into 6 or 7 blocks of 328-384 rows with the 575 forced rows
    # across a block edge, then a short last chunk (400 rows, 100 forced); on a real
    # restriction and on a complex one (2x real block form)
    for label, C, sub in (key_lemma_setups(5, 2)[1][:3],
                          line_component_setup(catalog("dirac", 3))[:3]):
        monkeypatch.setattr(linmap, "_FORM_BLOCK", 10**6)
        whole = _key_lemma_rows(monkeypatch, C, sub, label)
        monkeypatch.setattr(linmap, "_FORM_BLOCK", 333)
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


def test_fuzz_key_lemma_memory_is_one_chunk_of_draws():
    # (5,2) contraction: u1 has 28 and z 24 complex coordinates, so one default chunk
    # of draws as real halves is 2 * 20000 * 52 * 8 B (15.9 MiB); the allowance covers
    # the chunk's weights and one-row-per-entry arrays (outputs, norms and the fuzz
    # loop's masks, about 2.5 MiB at 20,000 rows) and one block's temporaries
    draws, allowance = 2 * 20_000 * 52 * 8, 5 * 2**20
    peaks = [_key_lemma_peak(samples) for samples in (100_000, 500_000)]
    assert max(peaks) <= 1.1 * min(peaks), peaks
    assert max(peaks) <= draws + allowance, peaks


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
    return max(r.stop - r.start for r in linmap._row_blocks(count, 2 * dim)) * dim * 8


def test_complex_rows_hold_one_block_beyond_their_output():
    # 20,000 rows of 24 coordinates are 7.3 MiB; a real half drawn whole would add 3.7 MiB
    rng = np.random.default_rng(109)
    peak = _traced_peak(lambda: kato._complex_rows(rng, 20000, 24))
    assert peak <= 20000 * 24 * 16 + _half_block_bytes(20000, 24) + 2**16, peak


def test_kernel_redraws_hold_their_coefficients_and_one_block():
    # a quarter of 20,000 rows redrawn inside the 16-dimensional kernel of hodge:4:2:
    # the 5,000 drawn coefficient rows (1.2 MiB) and one block, and no 1.8 MiB product
    # of the slice's size
    null = kato._null_space(catalog("hodge", 4, 2).full_symbol.matrix)
    rows = np.zeros((20000, len(null)), dtype=complex)
    nk, dim, rng = 5000, null.shape[1], np.random.default_rng(110)
    peak = _traced_peak(lambda: kato._redraw_in_kernels(rng, rows, [null], 0.25))
    assert peak <= nk * dim * 16 + _half_block_bytes(nk, dim) + 2**16, peak
    want = kato._complex_rows(np.random.default_rng(110), nk, dim) @ null.T
    assert np.array_equal(rows[:nk], want) and not np.any(rows[nk:])


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
