"""Shared fixtures."""

import numpy as np
import pytest

from katolab import kato


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
