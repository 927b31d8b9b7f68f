"""The image-based key-lemma kernel against the full-space reference.

The reference below is the full-space formulation of the two-component
lemma kept as a test oracle: the second component is embedded as
u2 = z @ sub_basis.T, C is applied to u1 + u2 and to u1, forced rows
solve C(u1 + u2) = 0 on the embedded rows, and squared norms are
np.abs(x)**2 sums.  The differential test replays the draws of
fuzz_key_lemma with _complex_rows (the same generator stream, chunks and
forced slice as its draws folded into images) and compares every kernel row
of the fuzzer with the reference rows for the eleven restrictions of
acceptance criterion 4 at two seeds.

The fuzzer moves its forced rows on their images and norms alone.  A second
test checks those against the explicit u1 - C+(C u1 + C u2) on maps the
catalog does not have: random real and complex C of rank below both of its
dimensions, with random orthonormal sub_basis columns that mix coordinates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import kato
from katolab.kato import (
    MARGIN_TOL_FACTOR,
    _branch,
    _complex_rows,
    _weights,
    batch_lemma_gain,
    fuzz_key_lemma,
    key_lemma_setups,
    line_component_setup,
)
from katolab.linmap import LinearMap
from katolab.symbols import catalog

TOL = 1e-12
SAMPLES, CHUNK = 10_000, 6000   # two chunks, each over several kernel row blocks


def _setups():
    out = [(f"{label} n={n} k={k}", C, sub)
           for n, k in ((3, 1), (4, 1), (4, 2), (5, 2))
           for label, C, sub, _ in key_lemma_setups(n, k)]
    out += [line_component_setup(op)[:3]
            for op in (catalog("dirac", 3), catalog("twistor", 3), catalog("hodge", 4, 2))]
    return out


SETUPS = _setups()


def _sq(x):
    return np.sum(np.abs(x) ** 2, axis=1)


def _reference_margins(C, a, u1, u2, c):
    tot_sq = _sq((u1 + u2) @ C.T)
    first_sq = _sq(u1 @ C.T)
    u2_sq = _sq(u2)
    scale = _sq(u1) + u2_sq
    vanishing = _branch(None, tot_sq, scale)
    lhs = u2_sq + c * tot_sq
    rhs = batch_lemma_gain(c, a, vanishing) * first_sq
    return {"margin": lhs - rhs, "lhs": lhs, "rhs": rhs, "full_scale": scale,
            "vanishing": vanishing}


def _reference_rows(C, sub, seed, forced_fraction=0.25):
    Chat = C.matrix @ sub
    a = float(np.linalg.eigvalsh(Chat @ Chat.conj().T)[-1])
    pinv = np.linalg.pinv(C.matrix)
    rng = np.random.default_rng(seed)
    outs, done = [], 0
    while done < SAMPLES:
        m = min(CHUNK, SAMPLES - done)
        u1 = _complex_rows(rng, m, C.matrix.shape[1])
        u2 = _complex_rows(rng, m, sub.shape[1]) @ sub.T
        c = _weights(rng, m)
        nf = int(forced_fraction * m)
        u1[:nf] = u1[:nf] - ((u1[:nf] + u2[:nf]) @ C.matrix.T) @ pinv.T
        outs.append(_reference_margins(C.matrix, a, u1, u2, c))
        done += m
    return {key: np.concatenate([out[key] for out in outs]) for key in outs[0]}


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("which", range(len(SETUPS)))
def test_image_kernel_matches_full_space_reference(monkeypatch, seed, which):
    label, C, sub = SETUPS[which]
    rows = []
    kernel = kato._key_lemma_margins

    def recording(*args):
        out = kernel(*args)
        rows.append(out)
        return out

    monkeypatch.setattr(kato, "_key_lemma_margins", recording)
    monkeypatch.setitem(kato._DRAW_CHUNK, "key-lemma", CHUNK)
    report = fuzz_key_lemma(C, sub, SAMPLES, seed, label=label)
    got = {key: np.concatenate([out[key] for out in rows]) for key in rows[0]}
    want = _reference_rows(C, sub, seed)
    assert np.array_equal(got["vanishing"], want["vanishing"]), label
    violations = int(np.sum(~(want["margin"] >= -MARGIN_TOL_FACTOR * want["full_scale"])))
    assert report.violations == violations, label
    assert report.branch_counts["vanishing"] == int(np.sum(want["vanishing"])), label
    scale = want["full_scale"]
    for key in ("margin", "lhs", "rhs", "full_scale"):
        assert np.all(np.abs(got[key] - want[key]) <= TOL * (np.abs(want[key]) + scale)), key


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(2, 7), st.integers(2, 7),
       st.data())
def test_forced_rows_match_the_explicit_fix_up_off_the_catalog(seed, complex_, F, D, data):
    # C = A B of rank below min(F, D), sub_basis the first width columns of a random
    # unitary (orthogonal when real); the forced rows the fuzzer hands its kernel have
    # the image and squared norm of the explicit u1 - C+(C u1 + C u2) on the replayed
    # draws, within rounding scaled by the condition of C on its range
    rank = data.draw(st.integers(1, min(F, D) - 1))
    width = data.draw(st.integers(0, D - 1))
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    Cm, sub = draw(F, rank) @ draw(rank, D), np.linalg.qr(draw(D, D))[0][:, :width]
    samples, chunk = 150, 70
    rows, kernel = [], kato._key_lemma_margins

    def recording(a, Cu1, Cu2, u1_sq, u2_sq, c):
        rows.append([x.copy() for x in (Cu1, Cu2, u1_sq, u2_sq)])
        return kernel(a, Cu1, Cu2, u1_sq, u2_sq, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kato, "_key_lemma_margins", recording)
        mp.setitem(kato._DRAW_CHUNK, "key-lemma", chunk)
        fuzz_key_lemma(LinearMap(Cm), sub, samples, seed)
    s = np.linalg.svd(Cm, compute_uv=False)
    cond = s[0] / s[rank - 1]
    pinv = np.linalg.pinv(Cm)
    replay, done = np.random.default_rng(seed), 0
    for Cu1, Cu2, u1_sq, u2_sq in rows:
        m = min(chunk, samples - done)
        u1 = _complex_rows(replay, m, D)
        u2 = _complex_rows(replay, m, width) @ sub.T
        _weights(replay, m)
        f = slice(0, m // 4)
        fixed = u1[f] - ((u1[f] + u2[f]) @ Cm.T) @ pinv.T
        scale = _sq(u1[f]) + _sq(u2[f])
        assert np.array_equal(Cu1[f], -Cu2[f])
        err_img = _sq(Cu1[f, 0] + 1j * Cu1[f, 1] - fixed @ Cm.T)
        assert np.all(err_img <= (TOL * cond * s[0]) ** 2 * scale)
        assert np.all(np.abs(u1_sq[f] - _sq(fixed)) <= TOL * cond ** 2 * scale)
        assert np.allclose(u2_sq, _sq(u2), rtol=1e-13, atol=0)
        done += m
    assert done == samples
