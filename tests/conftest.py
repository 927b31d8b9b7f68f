"""Shared fixtures, and the explicit four-block split the form kernel is checked against."""

import math

import numpy as np
import pytest

from katolab import kato
from katolab.projections import exterior_projection, interior_projection


@pytest.fixture
def flip_table(monkeypatch):
    """flip_table(n, j, up, entry) makes kato._direction_table(n, j, up) come back with the
    sign of its entry-th nonzero entry flipped.  The caches of the maps and signed
    permutations built from the tables and of their certificate are cleared at each flip
    and after the test, so no map or certificate of a flipped table outlives it."""
    shipped = kato._direction_table
    caches = (kato._form_map, kato._form_images, kato._signed_permutation,
              kato._certify_form_algebra)

    def flip(n, j, up, entry=0):
        def table(*key):
            T = shipped(*key)
            if key == (n, j, up):
                T = T.copy()
                T.flat[np.flatnonzero(T)[entry]] *= -1
            return T

        monkeypatch.setattr(kato, "_direction_table", table)
        for cache in caches:
            cache.cache_clear()

    yield flip
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()


def _direction_blocks(P, width):
    n = P.shape[1] // width
    return np.stack([P[:, i * width:(i + 1) * width].real for i in range(n)])


def degree_tables(n, j):
    """(wedge, contraction) direction blocks on Lambda^j; None for a map whose target
    degree is outside 0..n."""
    width = math.comb(n, j)
    return (_direction_blocks(exterior_projection(n, j), width) if j < n else None,
            _direction_blocks(interior_projection(n, j), width) if j > 0 else None)


def reference_split(eps_km, iota_k, V, xi):
    """(v11, v12, v21, v22) of rows V (m, n, C(n, k), fiber) along unit covectors xi (m, n),
    by einsum: the first index is 1 on the xi line of the covector slot, the second on the
    forms containing xi, the image of Q = eps(xi) iota(xi) with eps_km the wedge direction
    blocks on Lambda^(k-1) and iota_k the contraction ones on Lambda^k."""
    w = np.einsum("ni,nixf->nxf", xi, V)
    line = np.einsum("ni,nxf->nixf", xi, w)
    perp = V - line
    blocks = []
    for cov in (line, perp):
        z = np.einsum("nj,jcb,nibf->nicf", xi, iota_k, cov)
        has = np.einsum("nj,jac,nicf->niaf", xi, eps_km, z)
        blocks += [has, cov - has]
    return tuple(blocks)


def four_blocks(v, xi, n, k, fiber_dim=1):
    """reference_split of one flat row v of V* (x) Lambda^k (x) E along the unit covector
    xi, each block flat as v is."""
    V = np.asarray(v, dtype=complex).reshape(1, n, math.comb(n, k), fiber_dim)
    eps_km, iota_k = degree_tables(n, k - 1)[0], degree_tables(n, k)[1]
    xi = np.asarray(xi, dtype=float)[None, :]
    return tuple(b.reshape(-1) for b in reference_split(eps_km, iota_k, V, xi))
