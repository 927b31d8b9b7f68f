"""The image-based key-lemma kernel against the full-space reference.

The reference below is the full-space formulation of the two-component
lemma kept as a test oracle: the second component is embedded as
u2 = z @ sub_basis.T, C is applied to u1 + u2 and to u1, forced rows
solve C(u1 + u2) = 0 on the embedded rows, and squared norms are
np.abs(x)**2 sums.  The differential test replays the draws of
fuzz_key_lemma (the same generator stream, chunks and forced slice) and
compares every kernel row of the fuzzer with the reference rows for the
eleven restrictions of acceptance criterion 4 at two seeds.
"""

import numpy as np
import pytest

from katolab import kato
from katolab.kato import (
    MARGIN_TOL_FACTOR,
    _branch,
    _complex_row_blocks,
    _weights,
    batch_lemma_gain,
    fuzz_key_lemma,
    key_lemma_setups,
    line_component_setup,
)
from katolab.symbols import catalog

TOL = 1e-12
SAMPLES, CHUNK = 10_000, 6000   # two chunks; the first splits into two row blocks


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
        u1 = np.concatenate(_complex_row_blocks(rng, m, C.domain.dim))
        u2 = np.concatenate(_complex_row_blocks(rng, m, sub.shape[1])) @ sub.T
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
    report = fuzz_key_lemma(C, sub, SAMPLES, seed, label=label, chunk=CHUNK)
    got = {key: np.concatenate([out[key] for out in rows]) for key in rows[0]}
    want = _reference_rows(C, sub, seed)
    assert np.array_equal(got["vanishing"], want["vanishing"]), label
    violations = int(np.sum(~(want["margin"] >= -MARGIN_TOL_FACTOR * want["full_scale"])))
    assert report.violations == violations, label
    assert report.branch_counts["vanishing"] == int(np.sum(want["vanishing"])), label
    scale = want["full_scale"]
    for key in ("margin", "lhs", "rhs", "full_scale"):
        assert np.all(np.abs(got[key] - want[key]) <= TOL * (np.abs(want[key]) + scale)), key
