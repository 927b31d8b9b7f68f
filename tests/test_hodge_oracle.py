"""The closed-form form kernel against the 3-operand einsum reference.

The reference below is the einsum formulation of the two-sided form
inequality kept as a test oracle: direction blocks of the wedge and
contraction symbols, symbol application by einsum, and the explicit
four-block split by two chained 3-operand einsums per covector part
(conftest.reference_split), from which the corollary is computed.  The kernel reads the corollary
from closed forms in the symbol images instead, so the comparison
cross-checks them.  The differential test runs both on random rows,
rows sampled inside the kernels of the symbols, rows with forced branch
flags, and rows whose pairing vanishes (xi falls back to e_1*), for
every (n, k) with 2 <= n <= 6 and fiber dimensions 1 and 3.  The
identities of the tables behind the closed forms are certified once by
kato._certify_form_algebra; its tests close the file.
"""

import math

import numpy as np
import pytest
from conftest import degree_tables, reference_split
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import kato
from katolab.errors import BrokenIdentity
from katolab.kato import (
    _along,
    _branch,
    _form_maps,
    _null_space,
    _sq,
    batch_hodge_margins,
    batch_lemma_gain,
    fuzz_hodge_inequality,
)
from katolab.symbols import unit_covector

PAIRS = [(n, k) for n in range(2, 7) for k in range(1, n)]
TOL = 1e-12


def _kernel_xi(n, v, phi):
    # the kernel's covector, the normalized pairing b (e_1* where it vanishes), and |b|
    b = np.real(np.einsum("nix,nx->ni", v.reshape(len(v), n, -1), phi.conj()))
    bnorm = np.linalg.norm(b, axis=1)
    return np.where((bnorm > 1e-14)[:, None],
                    b / np.maximum(bnorm, 1e-300)[:, None], unit_covector(n)), bnorm


def _reference_margins(n, k, fiber_dim, v, phi, c, c_star,
                       d_vanishing=None, dstar_vanishing=None):
    eps_k, iota_k = degree_tables(n, k)
    eps_km = degree_tables(n, k - 1)[0]
    dim_k = math.comb(n, k)
    m = v.shape[0]
    V = v.reshape(m, n, dim_k, fiber_dim)
    scale = _sq(v)
    eps_sq = _sq(np.einsum("iab,nibf->naf", eps_k, V))
    iota_sq = _sq(np.einsum("iab,nibf->naf", iota_k, V))
    dvan = _branch(d_vanishing, eps_sq, scale)
    svan = _branch(dstar_vanishing, iota_sq, scale)
    xi, bnorm = _kernel_xi(n, v, phi)
    dnorm_sq = bnorm ** 2 / _sq(phi)
    v11, v12, v21, v22 = reference_split(eps_km, iota_k, V, xi)
    n11, n12 = _sq(v11), _sq(v12)
    eps_part_sq = _sq(np.einsum("iab,nibf->naf", eps_k, v12 + v21))
    iota_part_sq = _sq(np.einsum("iab,nibf->naf", iota_k, v11 + v22))
    c = np.asarray(c, dtype=float)
    cs = np.asarray(c_star, dtype=float)
    gmin = np.minimum(batch_lemma_gain(c, k, dvan), batch_lemma_gain(cs, n - k, svan))
    lhs = scale + c * eps_sq + cs * iota_sq
    rhs = (1.0 + gmin) * dnorm_sq
    dvc = _branch(None, eps_part_sq, scale) | dvan
    dsc = _branch(None, iota_part_sq, scale) | svan
    lhs_cor = scale + c * eps_part_sq + cs * iota_part_sq
    rhs_cor = (1.0 + np.minimum(batch_lemma_gain(c, k, dvc),
                                batch_lemma_gain(cs, n - k, dsc))) * (n11 + n12)
    return {
        "margin": lhs - rhs, "lhs": lhs, "rhs": rhs,
        "full_scale": lhs + rhs, "margin_cor": lhs_cor - rhs_cor,
        "cor_scale": lhs_cor + rhs_cor, "d_vanishing": dvan,
        "dstar_vanishing": svan, "vanishing": dvan & svan, "gain": gmin,
    }


def _rows(rng, m, dim):
    return rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))


def _sample(rng, n, k, f, m, mode):
    dim_phi = math.comb(n, k) * f
    dim = n * dim_phi
    phi = _rows(rng, m, dim_phi)
    if mode == "pairing-zero":
        # real rows against imaginary sections: b = 0 exactly, xi = e_1*
        return rng.standard_normal((m, dim)) + 0j, 1j * rng.standard_normal((m, dim_phi))
    if mode == "random":
        return _rows(rng, m, dim), phi
    null = _null_space(_form_maps(n, k, f)[0 if mode == "ker-wedge" else 1])
    return _rows(rng, m, null.shape[1]) @ null.T, phi


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(PAIRS), st.sampled_from([1, 3]),
       st.integers(1, 6),
       st.sampled_from(["random", "ker-wedge", "ker-contraction", "pairing-zero"]),
       st.sampled_from([None, True, False]), st.sampled_from([None, True, False]))
def test_matmul_kernel_matches_einsum_reference(seed, nk, f, m, mode, d_flag, s_flag):
    n, k = nk
    rng = np.random.default_rng(seed)
    v, phi = _sample(rng, n, k, f, m, mode)
    c = 50.0 * rng.random(m) ** 2
    cs = 50.0 * rng.random(m) ** 2
    c[0] = 0.0
    got = batch_hodge_margins(n, k, f, v, phi, c, cs, d_flag, s_flag)
    want = _reference_margins(n, k, f, v, phi, c, cs, d_flag, s_flag)
    assert _differing_keys(got, want) == []


def _differing_keys(got, want):
    assert set(got) == set(want)
    row_scale = np.maximum(want["full_scale"], want["cor_scale"])
    bad = []
    for key, ref in want.items():
        new = got[key]
        if ref.dtype == bool:
            ok = np.array_equal(new, ref)
        else:
            ok = np.all(np.abs(new - ref) <= TOL * (np.abs(ref) + row_scale))
        if not ok:
            bad.append(key)
    return bad


@pytest.mark.parametrize("n,k", PAIRS)
def test_closed_forms_equal_the_four_block_norms(n, k):
    # |eps(v12 + v21)|^2 = |iota_xi eps V|^2, |iota(v11 + v22)|^2 = |xi ^ iota V|^2
    # and |v11|^2 + |v12|^2 = |xi . V|^2, against the explicit split
    rng = np.random.default_rng(100 * n + k)
    eps_km, iota_k = degree_tables(n, k - 1)[0], degree_tables(n, k)[1]
    for f in (1, 3):
        eps, iota = _form_maps(n, k, f)
        for mode in ("random", "ker-wedge", "ker-contraction", "pairing-zero"):
            v, phi = _sample(rng, n, k, f, 6, mode)
            m = len(v)
            xi = _kernel_xi(n, v, phi)[0]
            up, dn = (v @ eps.T).reshape(m, -1, f), (v @ iota.T).reshape(m, -1, f)
            closed = (_sq(_along(n, k + 1, False, xi, up)),
                      _sq(_along(n, k - 1, True, xi, dn)),
                      _sq(np.einsum("ni,nix->nx", xi, v.reshape(m, n, -1))))
            v11, v12, v21, v22 = (b.reshape(m, -1) for b in
                                  reference_split(eps_km, iota_k, v.reshape(m, n, -1, f), xi))
            split = (_sq((v12 + v21) @ eps.T), _sq((v11 + v22) @ iota.T), _sq(v11) + _sq(v12))
            for name, a, b in zip(("wedge", "contraction", "line"), closed, split):
                assert np.all(np.abs(a - b) <= TOL * _sq(v)), (f, mode, name)


def _corrupted_tables(shipped):
    # the shipped tables, but direction block 1 of the contraction on Lambda^3 at
    # n = 4 with its sign flipped
    def table(n, j, up):
        T = shipped(n, j, up)
        if (n, j, up) == (4, 3, False):
            T = T.copy()
            T[1] *= -1.0
        return T
    return table


@pytest.mark.parametrize("corrupt", [False, True])
def test_a_flipped_contraction_block_is_caught(monkeypatch, corrupt):
    # the kernel, certified on the shipped tables, then reads the flipped block through
    # the cut along xi and leaves the reference; certified again, the table is refused
    kato._certify_form_algebra(4, 2)
    if corrupt:
        monkeypatch.setattr(kato, "_direction_table", _corrupted_tables(kato._direction_table))
    rng = np.random.default_rng(5)
    v, phi = _sample(rng, 4, 2, 1, 6, "random")
    c, cs = 50.0 * rng.random(6), 50.0 * rng.random(6)
    got = batch_hodge_margins(4, 2, 1, v, phi, c, cs)
    bad = _differing_keys(got, _reference_margins(4, 2, 1, v, phi, c, cs))
    kato._signed_permutation.cache_clear()
    kato._certify_form_algebra.cache_clear()
    if corrupt:
        assert "margin_cor" in bad
        try:
            with pytest.raises(BrokenIdentity, match="n=4, degree 3: iota_i = eps_i"):
                fuzz_hodge_inequality(4, 2, 1, 1000, 9)
        finally:  # no signed permutation of the flipped table outlives the test
            kato._signed_permutation.cache_clear()
    else:
        assert bad == [] and fuzz_hodge_inequality(4, 2, 1, 1000, 9).passed


def _identities_hold(n, j):
    # the three identities on degree j by 4-D einsum in integers, independent of the
    # certificate's block rows: iota_i = eps_i^T, eps_i eps_l + eps_l eps_i = 0 from
    # degree j - 1 and iota_i eps_l + eps_l iota_i = delta_il on degree j
    def wedge(d):
        return (kato._direction_table(n, d, True).astype(np.int64) if d >= 0
                else np.zeros((n, 1, 0), dtype=np.int64))
    E, below = wedge(j), wedge(j - 1)
    iota = kato._direction_table(n, j, False)
    anti = np.einsum("iab,lbc->ilac", E, below)
    car = np.einsum("iba,lbc->ilac", E, E) + np.einsum("lab,icb->ilac", below, below)
    unit = np.einsum("il,ac->ilac", np.eye(n, dtype=np.int64), np.eye(E.shape[2], dtype=np.int64))
    return (np.array_equal(iota, below.transpose(0, 2, 1)) and np.isin(iota, (-1, 0, 1)).all()
            and not (anti + anti.transpose(1, 0, 2, 3)).any() and np.array_equal(car, unit))


def test_the_form_algebra_is_certified_exactly_on_every_degree():
    # every (n, k) with 0 <= k <= n, so every degree 0..n of n = 1..8, from cold caches
    kato._signed_permutation.cache_clear()
    kato._certify_form_algebra.cache_clear()
    for n in range(1, 9):
        for k in range(n + 1):
            assert kato._certify_form_algebra(n, k) is None
    assert all(_identities_hold(n, j) for n in range(1, 7) for j in range(n + 1))


def _window_tables(n, k):
    # the tables the certificate of degree k reads: wedge on degrees k-2..k+1 and
    # contraction on k-1..k+1, those with an entry
    return [(j, up) for up, degrees in ((True, range(k - 2, k + 2)), (False, range(k - 1, k + 2)))
            for j in degrees if 0 <= j <= n and kato._direction_table(n, j, up).any()]


def test_a_flipped_sign_in_any_table_is_refused(flip_table):
    # one entry of one table of the window, negated: the certificate, run again from a
    # cleared cache, raises and names n; the kernel and the fuzzer refuse too
    rng = np.random.default_rng(41)
    for n in range(2, 7):
        for k in range(1, n):
            for j, up in _window_tables(n, k):
                nonzero = np.count_nonzero(kato._direction_table(n, j, up))
                flip_table(n, j, up, int(rng.integers(nonzero)))
                with pytest.raises(BrokenIdentity, match=f"form algebra at n={n}, degree "):
                    kato._certify_form_algebra(n, k)
    flip_table(4, 2, True, 5)
    with pytest.raises(BrokenIdentity):
        batch_hodge_margins(4, 2, 1, np.ones((3, 24)), np.ones((3, 6)), 1.0, 1.0)
    with pytest.raises(BrokenIdentity):
        fuzz_hodge_inequality(4, 2, 1, 100, 0)


def test_a_table_that_is_not_a_signed_partial_permutation_is_refused(flip_table):
    # an entry of 2 in a wedge table, which no other identity reads until the tables are
    # known to be signed partial permutations: the certificate names that check
    flip_table(3, 1, True, 0, factor=2)
    with pytest.raises(BrokenIdentity, match="n=3, degree 1: a signed partial permutation "
                                             "per direction fails"):
        kato._certify_form_algebra(3, 1)
