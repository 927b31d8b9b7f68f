"""One arithmetic path: single-shot checks are one-row calls of the batch
kernels, and every float gain is the exact lemma gain.

The differential tests run a batch kernel on m rows and compare it with
m single-shot verdicts on the same rows: random rows, rows sampled
inside the kernel of the symbol, and rows with forced certificates.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab.errors import BadConstants
from katolab.kato import (
    INF,
    KatoVerdict,
    _fuzz,
    _key_lemma_margins,
    _null_space,
    _restricted_top_eigenvalue,
    _form_kit,
    batch_hodge_margins,
    batch_lemma_gain,
    batch_operator_margins,
    check_hodge_inequality,
    check_key_lemma,
    check_operator_inequality,
    fuzz_operator_inequality,
    hodge_gain_pair,
    kato_gain_lemma,
    kato_gain_operator,
    key_lemma_setups,
    line_component_setup,
    matching_first_component,
)
from katolab.symbols import parse_op_string


def _rows(rng, m, dim):
    return rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))


def _weights(rng, m):
    c = 50.0 * rng.random(m) ** 2
    c[0] = 0.0
    return c


def _assert_rows_match(out, verdicts, cor=False):
    for i, v in enumerate(verdicts):
        assert v.branch == ("vanishing" if out["vanishing"][i] else "nonvanishing")
        assert v.gain == out["gain"][i]
        for name, key in (("lhs", "lhs"), ("rhs", "rhs"), ("margin", "margin"),
                          ("scale", "full_scale")):
            got, want = getattr(v, name), out[key][i]
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13 * v.scale), name
        if cor:
            assert v.corollary_margin == pytest.approx(
                out["margin_cor"][i], rel=1e-13, abs=1e-13 * v.scale)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["dirac:2", "dirac:3", "twistor:3", "connection:2",
                        "hodge:4:2"]),
       st.integers(1, 6), st.booleans())
def test_operator_batch_equals_single_shots(seed, ref, m, in_kernel):
    op = parse_op_string(ref)
    rng = np.random.default_rng(seed)
    n, dE = op.base_dim, op.domain_fiber.dim
    u = _rows(rng, m, n * dE)
    null = _null_space(op.full_symbol.matrix)
    if in_kernel and null.shape[1]:
        u = _rows(rng, m, null.shape[1]) @ null.T
    phi = _rows(rng, m, dE)
    c = _weights(rng, m)
    out = batch_operator_margins(op, u, phi, c)
    verdicts = [check_operator_inequality(op, u[i], phi[i], c[i]) for i in range(m)]
    _assert_rows_match(out, verdicts)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(2, 1, 1), (3, 1, 2), (4, 2, 1), (5, 3, 1)]),
       st.integers(1, 5), st.sampled_from(["random", "ker-wedge", "ker-contraction"]),
       st.sampled_from([None, True, False]), st.sampled_from([None, True, False]))
def test_hodge_batch_equals_single_shots(seed, nkf, m, rows, d_flag, s_flag):
    n, k, f = nkf
    kit = _form_kit(n, k)
    rng = np.random.default_rng(seed)
    v = _rows(rng, m, n * kit.dim_k * f)
    if rows != "random":
        mat = kit.flat_maps(f)[0 if rows == "ker-wedge" else 1]
        null = _null_space(mat)
        v = _rows(rng, m, null.shape[1]) @ null.T
    phi = _rows(rng, m, kit.dim_k * f)
    c, cs = _weights(rng, m), _weights(rng, m)
    out = batch_hodge_margins(n, k, f, v, phi, c, cs, d_flag, s_flag)
    verdicts = [check_hodge_inequality(v[i], phi[i], n, k, f, c[i], cs[i],
                                       d_vanishing=d_flag, dstar_vanishing=s_flag)
                for i in range(m)]
    _assert_rows_match(out, verdicts, cor=True)


def _lemma_geometries():
    out = [(label, C, sub) for n, k in ((3, 1), (4, 2))
           for label, C, sub, _ in key_lemma_setups(n, k)]
    out += [line_component_setup(parse_op_string(ref))[:3]
            for ref in ("dirac:3", "twistor:3", "connection:2")]
    return out


LEMMA_GEOMETRIES = _lemma_geometries()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, len(LEMMA_GEOMETRIES) - 1),
       st.integers(1, 6), st.booleans())
def test_key_lemma_batch_equals_single_shots(seed, which, m, matched):
    _, C, sub = LEMMA_GEOMETRIES[which]
    rng = np.random.default_rng(seed)
    u1 = _rows(rng, m, C.domain.dim)
    u2 = _rows(rng, m, sub.shape[1]) @ sub.T
    if matched:
        u1 = np.array([matching_first_component(C, row) for row in u2])
    c = _weights(rng, m)
    out = _key_lemma_margins(C.matrix, _restricted_top_eigenvalue(C, sub), u1, u2, c)
    verdicts = [check_key_lemma(C, sub, u1[i], u2[i], c[i]) for i in range(m)]
    _assert_rows_match(out, verdicts)


# ---------------------------------------------------------------------------
# the vectorized gain against the exact references

# dyadic values: the float inputs are exact and the float gain rounds once
WEIGHTS = [Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1), Fraction(3),
           Fraction(1024)]
BOUNDS = [Fraction(0), Fraction(1, 4), Fraction(1), Fraction(2), Fraction(5)]
OPERATOR_CONSTANTS = [(Fraction(3), Fraction(1)), (Fraction(4), Fraction(1)),
                      (Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(3, 4)),
                      (Fraction(1), Fraction(1))]


def _within_one_ulp(got, exact):
    if exact == INF:
        return got == INF
    return abs(float(got) - float(exact)) <= math.ulp(float(exact))


@pytest.mark.parametrize("vanishing", [False, True])
def test_batch_gain_matches_exact_lemma_gain(vanishing):
    for c in WEIGHTS:
        for bound in BOUNDS:
            got = batch_lemma_gain(float(c), float(bound), vanishing)
            assert _within_one_ulp(got, kato_gain_lemma(c, bound, vanishing)), (c, bound)


@pytest.mark.parametrize("vanishing", [False, True])
def test_batch_gain_matches_exact_operator_gain(vanishing):
    for c in WEIGHTS:
        for rho2, eps in OPERATOR_CONSTANTS:
            got = batch_lemma_gain(float(c), float(rho2 - eps), vanishing,
                                   weight=float(eps))
            want = kato_gain_operator(c, rho2, eps, vanishing)
            assert _within_one_ulp(got, want), (c, rho2, eps)


def test_batch_gain_matches_exact_hodge_pair():
    for n, k in ((2, 1), (4, 1), (4, 2), (5, 3)):
        for c in WEIGHTS:
            for cs in WEIGHTS:
                for dv in (False, True):
                    for sv in (False, True):
                        pair = hodge_gain_pair(c, cs, n, k, dv, sv)
                        gd = batch_lemma_gain(float(c), k, dv)
                        gs = batch_lemma_gain(float(cs), n - k, sv)
                        assert _within_one_ulp(gd, pair.d_gain)
                        assert _within_one_ulp(gs, pair.dstar_gain)
                        assert _within_one_ulp(min(gd, gs), pair.overall)


def test_batch_gain_is_vectorized_over_rows():
    c = np.array([0.0, 0.5, 2.0])
    van = np.array([False, True, False])
    got = batch_lemma_gain(c, 2, van)
    assert list(got) == [0.0, 0.5, 2.0 / 5.0]


# ---------------------------------------------------------------------------
# bad weights are rejected, and NaN never passes


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_gains_reject_negative_and_nonfinite_weights(bad):
    with pytest.raises(BadConstants):
        batch_lemma_gain(bad, 1.0, False)
    with pytest.raises(BadConstants):
        batch_lemma_gain(np.array([1.0, bad]), 1.0, True)
    with pytest.raises(BadConstants):
        kato_gain_lemma(bad, 1, False)
    with pytest.raises(BadConstants):
        hodge_gain_pair(1, bad, 4, 2, False, True)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_kernels_reject_bad_weights(bad):
    rng = np.random.default_rng(0)
    op = parse_op_string("dirac:3")
    with pytest.raises(BadConstants):
        batch_operator_margins(op, _rows(rng, 3, 6), _rows(rng, 3, 2), bad)
    with pytest.raises(BadConstants):
        batch_hodge_margins(3, 1, 1, _rows(rng, 3, 9), _rows(rng, 3, 3), 1.0, bad)
    with pytest.raises(BadConstants):
        check_operator_inequality(op, _rows(rng, 1, 6)[0], _rows(rng, 1, 2)[0], bad)


def test_nan_margin_never_passes():
    verdict = KatoVerdict("foldo", "nonvanishing", 1.0, None, math.nan, 1.0,
                          math.nan, 0.5, 1.0)
    assert not verdict.passed

    def sample(rng, m):
        return (m,)

    def kernel(m):
        margin = np.full(m, math.nan)
        margin[0] = 1.0
        return {"margin": margin, "full_scale": np.ones(m),
                "vanishing": np.zeros(m, dtype=bool)}

    report, _ = _fuzz("foldo", "stub", 10, 0, (0.0, 0.0), 4, sample, kernel)
    # one finite row per chunk of 4, 4, 2 rows
    assert report.violations == 7
    assert not report.passed


def test_overflowing_rows_fail_and_are_counted():
    op = parse_op_string("dirac:3")
    rng = np.random.default_rng(3)
    u, phi = _rows(rng, 1, 6)[0], _rows(rng, 1, 2)[0]
    verdict = check_operator_inequality(op, u, phi, 1e308)
    assert math.isinf(verdict.lhs)
    assert not verdict.passed
    report = fuzz_operator_inequality(op, 500, 0, c_fixed=1e308)
    assert report.nonfinite > 0
    assert report.violations >= report.nonfinite
    assert math.isfinite(report.min_margin)
    assert report.to_json_dict()["nonfinite"] == report.nonfinite
