import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import katolab
from katolab import cli, kato, projections
from katolab.errors import BadDegree, NotConformal, NotSurjective
from katolab.projections import (
    FAMILIES,
    ProjectionReport,
    _row_blocks,
    clifford_generators,
    clifford_projection,
    conformity_factor,
    conformity_report,
    contraction_projection,
    exterior_projection,
    gram_schmidt_columns,
    interior_projection,
    symmetrization_projection,
    twistor_projection,
)
from katolab.spaces import symmetric_power
from katolab.symbols import catalog

# frozen factors: (constructor, n, k) -> rho^2
FROZEN_FACTORS = {
    ("exterior", 2, 0): 1.0,
    ("exterior", 2, 1): 2.0,
    ("exterior", 5, 2): 3.0,
    ("interior", 2, 1): 2.0,
    ("interior", 5, 2): 4.0,
    ("interior", 6, 6): 1.0,
    ("symmetrization", 2, 0): 1.0,
    ("symmetrization", 3, 2): 9.0,
    ("symmetrization", 5, 3): 16.0,
    ("contraction", 3, 2): 2.0,
    ("contraction", 6, 3): 8.0 / 3.0,
    ("contraction", 4, 1): 4.0,
    ("clifford", 3, None): 3.0,
    ("clifford", 6, None): 6.0,
    ("twistor", 2, None): 1.0,
    ("twistor", 5, None): 1.0,
}

BUILDERS = {
    "exterior": lambda n, k: exterior_projection(n, k),
    "interior": lambda n, k: interior_projection(n, k),
    "symmetrization": lambda n, k: symmetrization_projection(n, k),
    "contraction": lambda n, k: contraction_projection(n, k),
    "clifford": lambda n, k: clifford_projection(n),
    "twistor": lambda n, k: twistor_projection(n),
}


@pytest.mark.parametrize("key,expected", sorted(FROZEN_FACTORS.items()))
def test_frozen_conformity_factors(key, expected):
    ctor, n, k = key
    rep = conformity_factor(BUILDERS[ctor](n, k), tol=1e-12)
    assert rep.certified
    assert abs(rep.rho_squared - expected) <= 1e-12 * expected


@pytest.mark.parametrize("n", range(2, 7))
def test_factor_formulas_full_grid(n):
    for k in range(0, n):
        assert abs(conformity_factor(exterior_projection(n, k)).rho_squared - (k + 1)) < 1e-12
    for k in range(1, n + 1):
        assert abs(conformity_factor(interior_projection(n, k)).rho_squared - (n - k + 1)) < 1e-12
    for k in range(0, n):
        rep = conformity_factor(symmetrization_projection(n, k))
        assert abs(rep.rho_squared - (k + 1) ** 2) < 1e-12 * (k + 1) ** 2
    for k in range(1, n):
        rep = conformity_factor(contraction_projection(n, k))
        assert abs(rep.rho_squared - (n + k - 1) / k) < 1e-12 * n


def test_exterior_hand_checked_matrices():
    # n=2, k=1: e_i* ^ e_j* in the ordered domain (1,(1,)), (1,(2,)), (2,(1,)), (2,(2,))
    m = exterior_projection(2, 1)
    assert np.array_equal(m.real, np.array([[0.0, 1.0, -1.0, 0.0]]))
    # n=2, k=0 is plain relabeling
    assert np.array_equal(exterior_projection(2, 0).real, np.eye(2))


def test_interior_hand_checked_matrices():
    m = interior_projection(2, 1)
    assert np.array_equal(m.real, np.array([[1.0, 0.0, 0.0, 1.0]]))
    m2 = interior_projection(2, 2)
    assert np.array_equal(m2.real, np.array([[0.0, -1.0], [1.0, 0.0]]))


def _direction_block(P, n, i):
    # block of the covector direction e_i inside a V* (x) fiber domain
    d = P.shape[1] // n
    return P[:, i * d:(i + 1) * d]


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3)])
def test_wedge_contraction_anticommutator_identity(n, k):
    # eps_xi iota_xi + iota_xi eps_xi = |xi|^2 on degree-k forms; pins all signs
    rng = np.random.default_rng(5)
    e_up = exterior_projection(n, k)        # Lambda^k -> Lambda^{k+1} blocks
    e_dn = exterior_projection(n, k - 1)
    i_up = interior_projection(n, k + 1)
    i_dn = interior_projection(n, k)
    for _ in range(5):
        xi = rng.standard_normal(n)
        eps_k = sum(xi[i] * _direction_block(e_up, n, i) for i in range(n))
        eps_km = sum(xi[i] * _direction_block(e_dn, n, i) for i in range(n))
        iot_kp = sum(xi[i] * _direction_block(i_up, n, i) for i in range(n))
        iot_k = sum(xi[i] * _direction_block(i_dn, n, i) for i in range(n))
        acc = iot_kp @ eps_k + eps_km @ iot_k
        assert np.allclose(acc, np.dot(xi, xi) * np.eye(eps_k.shape[1]), atol=1e-12)


# ---------------------------------------------------------------------------
# symmetric side against an explicit tensor-power embedding


def _sym_embedding(n, k):
    """Isometric embedding of the symmetric power into the k-th tensor power."""
    Sk = symmetric_power(n, k)
    E = np.zeros((n ** k, len(Sk)))
    for col, a in enumerate(Sk):
        arrangements = set(permutations(a))
        w = 1.0 / np.sqrt(len(arrangements))
        for b in arrangements:
            row = 0
            for idx in b:
                row = row * n + (idx - 1)
            E[row, col] = w
    return E


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_symmetrization_matches_tensor_embedding_oracle(n, k):
    Ek = _sym_embedding(n, k)
    Ek1 = _sym_embedding(n, k + 1)
    assert np.allclose(Ek.T @ Ek, np.eye(Ek.shape[1]), atol=1e-12)
    oracle = (k + 1) * Ek1.T @ np.kron(np.eye(n), Ek)
    ours = symmetrization_projection(n, k).real
    assert np.allclose(ours, oracle, atol=1e-12)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_contraction_matches_tensor_embedding_oracle(n, k):
    Ek = _sym_embedding(n, k)
    Ekm = _sym_embedding(n, k - 1)
    D = np.zeros((n ** (k - 1), n ** (k + 1)))
    for i in range(n):
        for row in range(n ** k):
            head, tail = divmod(row, n ** (k - 1))
            if head == i:
                D[tail, i * n ** k + row] = 1.0
    oracle = Ekm.T @ D @ np.kron(np.eye(n), Ek)
    ours = contraction_projection(n, k).real
    assert np.allclose(ours, oracle, atol=1e-12)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_symmetrization_adjoint_is_scaled_inclusion(n, k):
    # S* = (k+1) * canonical inclusion of S^{k+1} into V* (x) S^k
    Ek = _sym_embedding(n, k)
    Ek1 = _sym_embedding(n, k + 1)
    inclusion = np.kron(np.eye(n), Ek).T @ Ek1
    S = symmetrization_projection(n, k)
    assert np.allclose(S.conj().T.real, (k + 1) * inclusion, atol=1e-12)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 3)])
def test_contraction_adjoint_is_scaled_symmetrization(n, k):
    # (C_f)* B = (1/k) S(f (x) B), blockwise in the direction f = e_i*
    C = contraction_projection(n, k)
    S = symmetrization_projection(n, k - 1)
    for i in range(n):
        ci = _direction_block(C, n, i)
        si = _direction_block(S, n, i)
        assert np.allclose(ci.conj().T, si / k, atol=1e-12)


# ---------------------------------------------------------------------------
# spinor constructions


@pytest.mark.parametrize("n", range(1, 7))
def test_clifford_projection_conformity(n):
    rep = conformity_factor(clifford_projection(n), tol=1e-12)
    assert rep.certified and abs(rep.rho_squared - n) <= 1e-12 * n


@pytest.mark.parametrize("n", range(2, 7))
def test_twistor_projection_conformity_and_rank(n):
    P = twistor_projection(n)
    assert len(P) == (n - 1) * 2 ** (n // 2)
    rep = conformity_factor(P, tol=1e-12)
    assert rep.certified and abs(rep.rho_squared - 1.0) <= 1e-12


def _twistor_projector_by_pairs(n):
    # the reference: Pi = I + K / n, with block (i, j) of K the product c_i c_j
    gens = clifford_generators(n)
    dS = len(gens[0])
    K = np.zeros((n * dS, n * dS), dtype=np.complex128)
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            K[i * dS:(i + 1) * dS, j * dS:(j + 1) * dS] = gi @ gj
    return np.eye(n * dS) + K / n


@pytest.mark.parametrize("n", range(2, 9))
def test_twistor_projection_equals_the_pairwise_clifford_oracle(n):
    # I - C* C / n has exact entries, so the shipped projector and the loop of
    # c_i c_j products give one matrix, and one Gram-Schmidt basis, bit for bit
    B = gram_schmidt_columns(_twistor_projector_by_pairs(n))
    assert np.array_equal(twistor_projection(n), B.conj().T)


@pytest.mark.parametrize("n", range(2, 7))
def test_twistor_point_symbol_eigenvalue(n):
    # P_v* P_v = ((n-1)/n) id on spinors for every unit covector v
    P = twistor_projection(n)
    dS = 2 ** (n // 2)
    rng = np.random.default_rng(23)
    for _ in range(10):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        emb = np.zeros((n * dS, dS))
        for e in range(dS):
            emb[e::dS, e] = v
        pv = P @ emb
        assert np.allclose(pv.conj().T @ pv, ((n - 1) / n) * np.eye(dS), atol=1e-10)


def test_twistor_rejects_n1():
    with pytest.raises(BadDegree):
        twistor_projection(1)


def test_twistor_projection_refuses_a_kernel_basis_of_the_wrong_rank(monkeypatch):
    # a Gram-Schmidt sweep that lost a column leaves the kernel of Clifford action
    # short of its (n-1) dim S dimensions
    sweep = projections.gram_schmidt_columns
    monkeypatch.setattr(projections, "gram_schmidt_columns", lambda M: sweep(M)[:, 1:])
    with pytest.raises(NotSurjective, match="came out rank 3, expected 4"):
        twistor_projection(3)


# ---------------------------------------------------------------------------
# conformity certification and splits


def test_adjoint_is_conformal_immersion():
    # ||P* w||^2 = rho^2 ||w||^2 for certified projections
    rng = np.random.default_rng(31)
    for P in (exterior_projection(4, 2), contraction_projection(4, 2), clifford_projection(4)):
        rep = conformity_factor(P)
        for _ in range(5):
            w = rng.standard_normal(len(P)) + 1j * rng.standard_normal(len(P))
            lhs = np.linalg.norm(P.conj().T @ w) ** 2
            assert abs(lhs - rep.rho_squared * np.linalg.norm(w) ** 2) <= 1e-10 * lhs


@pytest.mark.parametrize("P", [np.eye(3), np.ones(3, dtype=complex),
                               np.ones((1, 3, 3), dtype=complex), [[1.0 + 0j]]])
def test_conformity_takes_only_a_2d_complex_matrix(P):
    for certify in (conformity_report, conformity_factor):
        with pytest.raises(ValueError, match="2-D complex128 matrix"):
            certify(P)


def test_projection_builders_hand_over_complex_matrices():
    for name, fam in FAMILIES.items():
        for k in fam.degrees(4):
            P = fam.build(4, k)
            assert isinstance(P, np.ndarray) and P.dtype == np.complex128, (name, k)
            assert conformity_report(P).certified, (name, k)


def test_not_surjective_raises():
    P = exterior_projection(3, 1)
    with pytest.raises(NotSurjective) as exc:
        conformity_factor(P.conj().T)
    assert exc.value.residual is not None


def test_not_surjective_raises_on_a_wide_rank_deficient_map():
    # onto a 3-dim codomain, with the last row repeating the first
    P = exterior_projection(3, 1)
    m = P.copy()
    m[-1] = m[0]
    with pytest.raises(NotSurjective):
        conformity_factor(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_map_is_not_surjective_without_an_svd(monkeypatch, bad):
    P = np.ones((2, 3), dtype=np.complex128)
    P[0, 1] = bad

    def no_svd(*args, **kwargs):
        raise AssertionError("conformity_report ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rep = conformity_report(P)
    assert not rep.surjective and not rep.certified
    assert np.isnan(rep.residual)
    with pytest.raises(NotSurjective):
        conformity_factor(P)


def test_finite_map_whose_gram_overflows_is_measured_rescaled():
    # 1e200 entries: m m* overflows, so the map is measured over its largest entry;
    # the verdict and residual are the unscaled map's, warning-free
    E = exterior_projection(3, 1)
    ones = np.full((2, 3), 1e200 + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = conformity_report(1e200 * E)
        flat = conformity_report(ones)
    want = conformity_report(E)
    assert (big.surjective, big.certified) == (want.surjective, want.certified) == (True, True)
    assert big.residual <= 1e-15 and big.rho_squared == math.inf
    assert not flat.surjective and not flat.certified and flat.residual == 1.0
    with pytest.raises(NotSurjective):
        conformity_factor(ones)
    # a Gram whose entries are finite but whose trace overflows: rho^2 = 1.5e308 on each
    # of the three diagonal entries, or of the four (dense) twistor ones
    for P in (E, twistor_projection(3)):
        huge = math.sqrt(1.5e308 / conformity_report(P).rho_squared) * P
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = conformity_report(huge)
        assert rep.certified and rep.residual <= 1e-15
        assert abs(rep.rho_squared - 1.5e308) <= 1e-15 * 1.5e308
    # the twistor matrix B* is stored column-major: its largest part is read all the same
    twistor = conformity_report(1e200 * twistor_projection(3))
    assert not twistor_projection(3).flags.c_contiguous
    assert twistor.certified and twistor.rho_squared == math.inf


def _off_balance_stack():
    # the unnormalized (5,2) wedge/contraction stack: onto, not conformal
    return np.vstack((exterior_projection(5, 2), interior_projection(5, 2)))


def test_finite_map_whose_gram_underflows_is_measured_rescaled():
    # 1e-200 entries: m m* is 0, which read as residual 0 certified any onto map
    P = _off_balance_stack()
    want, tiny = conformity_report(P), conformity_report(1e-200 * P)
    assert tiny.surjective and not tiny.certified and tiny.rho_squared == 0.0
    assert abs(tiny.residual - want.residual) <= 1e-14


def _svd_rank_report(P, tol):
    # the dense reference: the one product m m*, its np.trace, the LAPACK 2-norm of
    # its shift, and the rank test run on every map: surjective when the singular
    # values above the relative cutoff number dim W
    m, dw = P, len(P)
    G = m @ m.conj().T
    rho2 = float(np.real(np.trace(G))) / dw
    sv = np.linalg.svd(m, compute_uv=False)
    cutoff = projections._SURJECTIVITY_CUTOFF * max(float(sv[0]), 1e-300)
    surjective = int(np.sum(sv > cutoff)) == dw
    residual = float(np.linalg.norm(G - rho2 * np.eye(dw), 2)) / max(rho2, 1e-300)
    return ProjectionReport(rho2, residual, surjective, surjective and residual <= tol, tol)


def _random_map(rng, kind, dw, extra, spread):
    d = dw + extra
    a = rng.standard_normal((dw, d)) + 1j * rng.standard_normal((dw, d))
    if kind == "zero":
        a[:] = 0.0
    elif kind == "rank-deficient":
        a[-1] = rng.standard_normal(dw - 1) @ a[:-1]
    elif kind == "near-conformal":
        # orthonormal rows scaled to eigenvalues of G around 1: the residual is spread
        q = np.linalg.qr(a.conj().T)[0].conj().T
        lam = np.ones(dw)
        lam[0], lam[-1] = 1.0 + spread, 1.0 - spread
        a = np.sqrt(lam)[:, None] * q
    return a


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["full-rank", "rank-deficient", "near-conformal", "zero"]),
       st.integers(2, 8), st.integers(0, 6),
       st.sampled_from([0.0, 1e-12, 0.3, 0.4999, 0.5001, 0.7, 0.999]),
       st.sampled_from([1e-10, 0.45, 0.6]))
def test_conformity_report_matches_svd_rank_reference(seed, kind, dw, extra, spread, tol):
    P = _random_map(np.random.default_rng(seed), kind, dw, extra, spread)
    assert conformity_report(P, tol) == _svd_rank_report(P, tol)


def _random_monomial_map(rng, kind, dw, d):
    # column j holds one complex entry, in row rows[j]; "gaps" leaves rows empty, so
    # the map is not onto, and "conformal" scales every row to norm 1
    rows = rng.integers(0, dw, d)
    if kind == "gaps":
        rows = np.where(rng.random(d) < 0.5, rows, dw)
    a = np.zeros((dw + 1, d), dtype=np.complex128)
    a[rows, np.arange(d)] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    a = a[:dw]
    if kind == "conformal":
        norms = np.linalg.norm(a, axis=1)
        a = a / np.where(norms > 0, norms, 1.0)[:, None]
    return a


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["full", "gaps", "conformal"]),
       st.integers(1, 12), st.integers(1, 40), st.sampled_from([1e-10, 0.45, 0.6]))
def test_monomial_conformity_report_matches_svd_rank_reference(seed, kind, dw, d, tol):
    # the diagonal Gram against the dense one: the same flags, rho^2 within 1e-13
    # relative, and the residual, already relative to rho^2, within 1e-13 of it
    P = _random_monomial_map(np.random.default_rng(seed), kind, dw, d)
    assert np.count_nonzero(P, axis=0).max() <= 1
    got, want = conformity_report(P, tol), _svd_rank_report(P, tol)
    assert (got.surjective, got.certified) == (want.surjective, want.certified)
    assert abs(got.rho_squared - want.rho_squared) <= 1e-13 * want.rho_squared
    assert abs(got.residual - want.residual) <= 1e-13 * max(want.residual, 1.0)


def test_projections_verify_runs_no_svd_in_conformity_report(monkeypatch, capsys):
    # nor a spectral norm, but for the four twistor maps at 3 <= n <= 6: every other
    # catalog map has at most one nonzero entry per column, so its Gram is diagonal
    inside, calls, normed, reports = [False], [], [], []
    svd, norm, report = np.linalg.svd, np.linalg.norm, projections.conformity_report

    def counting_svd(*args, **kwargs):
        if inside[0]:
            calls.append(args[0].shape)
        return svd(*args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        if inside[0] and ord == 2:
            normed.append(reports[-1])
        return norm(x, ord, *args, **kwargs)

    def marked_report(*args, **kwargs):
        reports.append(args[0].shape)
        inside[0] = True
        try:
            return report(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(projections, "conformity_report", marked_report)
    assert cli.main(["projections", "verify", "--max-n", "6"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert len(reports) == 80 and calls == []
    assert normed == [twistor_projection(n).shape for n in range(3, 7)]


_DENSE_REFERENCE_CHECK = """
from katolab.projections import FAMILIES, conformity_report
from test_projections import _svd_rank_report

for n in range(2, 7):
    for name, fam in FAMILIES.items():
        for k in fam.degrees(n):
            P = fam.build(n, k)
            rep = conformity_report(P)
            assert rep.certified and rep == _svd_rank_report(P, rep.tolerance), (name, n, k)
"""


def test_conformity_report_is_the_dense_reference_bit_for_bit_on_the_catalog():
    # conformity_report forms only the diagonal of a monomial map's Gram, block by
    # block, and the Gram of any other map in column blocks; on every catalog map,
    # 2 <= n <= 6, every field of its report must be the dense reference's (the one
    # product, np.trace, the LAPACK 2-norm of the shift and the SVD rank), among them
    # symmetrization(6, 5), whose 462 rows of 3,024 reals run in several blocks.
    # The claim is the catalog's, whose entries are sparse: on dense random complex
    # maps (462 x 1512, say) the last bits of a blocked Gram differ, because the
    # complex GEMM kernel handles a narrower product differently.  In a
    # single-threaded child, as the benchmark runs, since threaded OpenBLAS splits
    # one product among its threads.
    assert len(list(_row_blocks(462, 2 * 1512))) > 1
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join((os.path.dirname(os.path.dirname(katolab.__file__)),
                                           os.path.dirname(__file__))))
    subprocess.run([sys.executable, "-c", _DENSE_REFERENCE_CHECK], env=env, check=True)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conformity_report_holds_a_block_of_the_map_not_a_copy():
    # the 462 x 1512 complex symmetrization map S^5 -> S^6 at n = 6 is 10.7 MiB; one
    # 36-row block's conjugate (0.83 MiB) and the diagonal of its product peak at
    # 0.86 MiB over it, where the dense Gram (3.3 MiB) beside that block took 4.3 MiB
    # and the whole conjugate and G - rho^2 I beside G 13.9 MiB
    P = symmetrization_projection(6, 5)
    rep, peak = _traced_peak(lambda: conformity_report(P))
    assert rep.certified
    assert peak <= 2**20, peak


def test_symmetrization_map_is_built_once_in_complex():
    # the 462 x 1512 map S^5 -> S^6 at n = 6 is written straight into its complex
    # matrix, which an OperatorSpec keeps without a copy: the build peaks at that matrix
    # (10.7 MiB) plus the labels, where float entries and their complex copy took 16.0
    P, peak = _traced_peak(lambda: FAMILIES["symmetrization"].build(6, 5))
    assert P.dtype == np.complex128 and not P.flags.writeable
    assert peak <= P.nbytes + 2**19, (peak, P.nbytes)


def test_projections_verify_max_n_6_memory(capsys):
    # the build of the symmetrization map S^5 -> S^6 sets the peak: 16.4 MiB traced
    # for the whole command while the build made float entries and then their complex
    # copy, where conformity_report took it to 24.8
    code, peak = _traced_peak(lambda: cli.main(["projections", "verify", "--max-n", "6"]))
    assert code == 0 and '"passed": true' in capsys.readouterr().out
    assert peak <= 18 * 2**20, peak


def test_not_conformal_raises_with_residual():
    P = _off_balance_stack()
    rep = conformity_report(P)
    assert rep.surjective and not rep.certified
    with pytest.raises(NotConformal) as exc:
        conformity_factor(P)
    assert exc.value.residual == rep.residual > 1e-2


def test_line_image_basis_orthonormal():
    # the wedge symbol exterior_projection(4, 1) is an isometry on the 3 forms
    # orthogonal to xi, so on the orthonormal frame of P(xi (x) E) its line part
    # T = F1* P_xi has T T* = 1
    op = catalog("exterior-only", 4, 1)
    assert np.array_equal(op.full_symbol, exterior_projection(4, 1))
    T = kato._line_split(op, np.array([0.5, -0.5, 0.5, 0.5]))[1]
    assert np.allclose(T @ T.conj().T, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("build, n, k, window", [
    (exterior_projection, 3, -1, "0 <= k <= 2"), (exterior_projection, 3, 3, "0 <= k <= 2"),
    (interior_projection, 3, 0, "1 <= k <= 3"), (interior_projection, 3, 4, "1 <= k <= 3"),
    (symmetrization_projection, 2, -1, "k >= 0"), (contraction_projection, 2, 0, "k >= 1")])
def test_each_builder_refuses_a_degree_outside_its_window(build, n, k, window):
    with pytest.raises(BadDegree, match=f"needs {window}, got k={k}"):
        build(n, k)


def test_a_map_with_no_rows_is_vacuously_conformal():
    # an empty codomain: rho^2 is reported as 0 and the map certified
    rep = conformity_report(np.zeros((0, 6), dtype=complex))
    assert rep == ProjectionReport(0.0, 0.0, True, True, projections.DEFAULT_CONFORMITY_TOL)
