"""The matmul form kernel against the 3-operand einsum reference.

The reference below is the einsum formulation of the two-sided form
inequality kept as a test oracle: direction blocks of the wedge and
contraction symbols, symbol application by einsum, and the four-block
split by two chained 3-operand einsums per covector part.  The
differential test runs both on random rows, rows sampled inside the
kernels of the symbols, rows with forced branch flags, and rows whose
pairing vanishes (xi falls back to e_1*), for every (n, k) with
2 <= n <= 6 and fiber dimensions 1 and 3.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab.kato import (
    _branch,
    _form_kit,
    _null_space,
    _sq,
    batch_hodge_margins,
    batch_lemma_gain,
    four_block_decompose,
)
from katolab.projections import exterior_projection, interior_projection
from katolab.symbols import unit_covector

PAIRS = [(n, k) for n in range(2, 7) for k in range(1, n)]
TOL = 1e-12


def _direction_blocks(P, width):
    n = P.domain.dim // width
    return np.stack([P.matrix[:, i * width:(i + 1) * width].real for i in range(n)])


def _reference_tables(n, k):
    dk, dn = math.comb(n, k), math.comb(n, k - 1)
    return (_direction_blocks(exterior_projection(n, k), dk),
            _direction_blocks(exterior_projection(n, k - 1), dn),
            _direction_blocks(interior_projection(n, k), dk))


def _reference_split(eps_km, iota_k, V, xi):
    w = np.einsum("ni,nixf->nxf", xi, V)
    line = np.einsum("ni,nxf->nixf", xi, w)
    perp = V - line
    blocks = []
    for cov in (line, perp):
        z = np.einsum("nj,jcb,nibf->nicf", xi, iota_k, cov)
        has = np.einsum("nj,jac,nicf->niaf", xi, eps_km, z)
        blocks += [has, cov - has]
    return tuple(blocks)


def _reference_margins(n, k, fiber_dim, v, phi, c, c_star,
                       d_vanishing=None, dstar_vanishing=None):
    eps_k, eps_km, iota_k = _reference_tables(n, k)
    dim_k = math.comb(n, k)
    m = v.shape[0]
    V = v.reshape(m, n, dim_k, fiber_dim)
    scale = _sq(v)
    eps_sq = _sq(np.einsum("iab,nibf->naf", eps_k, V))
    iota_sq = _sq(np.einsum("iab,nibf->naf", iota_k, V))
    dvan = _branch(d_vanishing, eps_sq, scale)
    svan = _branch(dstar_vanishing, iota_sq, scale)
    Phi = phi.reshape(m, dim_k * fiber_dim)
    b = np.real(np.einsum("nix,nx->ni", V.reshape(m, n, -1), Phi.conj()))
    bnorm = np.linalg.norm(b, axis=1)
    dnorm_sq = bnorm ** 2 / _sq(phi)
    xi = np.where((bnorm > 1e-14)[:, None],
                  b / np.maximum(bnorm, 1e-300)[:, None], unit_covector(n))
    v11, v12, v21, v22 = _reference_split(eps_km, iota_k, V, xi)
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
    safe = np.maximum(scale, 1e-300)
    dead_eps = np.einsum("iab,nibf->naf", eps_k, v11)
    dead_iota = np.einsum("iab,nibf->naf", iota_k, v12)
    return {
        "margin": lhs - rhs, "lhs": lhs, "rhs": rhs, "scale": scale,
        "full_scale": lhs + rhs, "margin_cor": lhs_cor - rhs_cor,
        "cor_scale": lhs_cor + rhs_cor, "d_vanishing": dvan,
        "dstar_vanishing": svan, "vanishing": dvan & svan,
        "dnorm_sq": dnorm_sq, "eps_sq": eps_sq, "iota_sq": iota_sq,
        "gain": gmin,
        "pythagoras_residual": float(np.max(
            np.abs(n11 + n12 + _sq(v21) + _sq(v22) - scale) / safe)),
        "block_identity_residual": max(
            float(np.max(np.sqrt(_sq(dead_eps) / safe))),
            float(np.max(np.sqrt(_sq(dead_iota) / safe)))),
        "dominance_residual": float(np.max(
            np.maximum(eps_part_sq - eps_sq, iota_part_sq - iota_sq) / safe)),
    }


def _rows(rng, m, dim):
    return rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))


def _sample(rng, n, k, f, m, mode):
    kit = _form_kit(n, k)
    dim, dim_phi = n * kit.dim_k * f, kit.dim_k * f
    phi = _rows(rng, m, dim_phi)
    if mode == "pairing-zero":
        # real rows against imaginary sections: b = 0 exactly, xi = e_1*
        return rng.standard_normal((m, dim)) + 0j, 1j * rng.standard_normal((m, dim_phi))
    if mode == "random":
        return _rows(rng, m, dim), phi
    null = _null_space(kit.flat_maps(f)[0 if mode == "ker-wedge" else 1])
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
    got = batch_hodge_margins(n, k, f, v, phi, c, cs, d_flag, s_flag, diagnostics=True)
    want = _reference_margins(n, k, f, v, phi, c, cs, d_flag, s_flag)
    assert set(got) == set(want)
    row_scale = np.maximum(want["full_scale"], want["cor_scale"])
    for key, ref in want.items():
        new = got[key]
        if isinstance(ref, float):          # scale-relative diagnostics
            assert abs(new - ref) <= TOL, key
        elif ref.dtype == bool:
            assert np.array_equal(new, ref), key
        else:
            assert np.all(np.abs(new - ref) <= TOL * (np.abs(ref) + row_scale)), key


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(PAIRS), st.sampled_from([1, 3]))
def test_four_block_decompose_matches_einsum_split(seed, nk, f):
    n, k = nk
    rng = np.random.default_rng(seed)
    dim_k = math.comb(n, k)
    v = _rows(rng, 1, n * dim_k * f)[0]
    xi = rng.standard_normal(n)
    xi /= np.linalg.norm(xi)
    _, eps_km, iota_k = _reference_tables(n, k)
    want = _reference_split(eps_km, iota_k, v.reshape(1, n, dim_k, f), xi[None, :])
    got = four_block_decompose(v, xi, n, k, f).parts()
    scale = np.linalg.norm(v)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w.reshape(-1))) <= TOL * scale
