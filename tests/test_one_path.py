"""One arithmetic path: single-shot checks are one-row calls of the batch
kernels, and every float gain is the exact lemma gain.

The differential tests run a batch kernel on m rows and compare it with
m single-shot verdicts on the same rows: random rows, rows sampled
inside the kernel of the symbol, and rows with forced certificates.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import fields, kato, projections
from katolab.errors import BadConstants
from katolab.kato import (
    INF,
    KatoVerdict,
    _fuzz,
    _key_lemma_margins,
    _null_space,
    _restricted_gram,
    _form_maps,
    batch_hodge_margins,
    batch_lemma_gain,
    batch_operator_margins,
    check_hodge_inequality,
    check_key_lemma,
    check_operator_inequality,
    failing_rows,
    fuzz_hodge_inequality,
    fuzz_key_lemma,
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
    n, dE = op.base_dim, op.fiber_dim
    u = _rows(rng, m, n * dE)
    null = _null_space(op.full_symbol)
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
    dim_phi = math.comb(n, k) * f
    rng = np.random.default_rng(seed)
    v = _rows(rng, m, n * dim_phi)
    if rows != "random":
        null = _null_space(_form_maps(n, k, f)[0 if rows == "ker-wedge" else 1])
        v = _rows(rng, m, null.shape[1]) @ null.T
    phi = _rows(rng, m, dim_phi)
    c, cs = _weights(rng, m), _weights(rng, m)
    out = batch_hodge_margins(n, k, f, v, phi, c, cs, d_flag, s_flag)
    verdicts = [check_hodge_inequality(v[i], phi[i], n, k, f, c[i], cs[i],
                                       d_vanishing=d_flag, dstar_vanishing=s_flag)
                for i in range(m)]
    _assert_rows_match(out, verdicts, cor=True)


@pytest.mark.parametrize("forced", [False, True])
def test_kernels_on_zero_rows_return_empty_rows(forced):
    # the keys of a one-row batch, every per-row array empty, with the branch flags
    # detected or forced
    rng = np.random.default_rng(5)
    flags = (True, False) if forced else (None, None)
    empty = batch_hodge_margins(3, 1, 1, np.zeros((0, 9)), np.zeros((0, 3)), 1.0, 1.0, *flags)
    one = batch_hodge_margins(3, 1, 1, _rows(rng, 1, 9), _rows(rng, 1, 3), 1.0, 1.0, *flags)
    assert sorted(empty) == sorted(one)
    for key, x in empty.items():
        assert x.shape == (0,) and x.dtype == one[key].dtype, key
    # as the operator kernel does
    op = parse_op_string("dirac:3")
    out = batch_operator_margins(op, np.zeros((0, 6)), np.zeros((0, 2)), 1.0)
    assert all(np.shape(x) == (0,) for x in out.values())


# the form kernel's row budget: one block for every call, the shipped size, and
# blocks of 700-701 fiber-1 rows (budgets of 70,000 entries for wider rows)
FORM_BLOCKS = [10**9, 1024, 700]


def _hodge_rows(rng, n, k, f, m):
    # random rows with a third inside ker(wedge), so both branches occur
    dim_phi = math.comb(n, k) * f
    v = _rows(rng, m, n * dim_phi)
    null = _null_space(_form_maps(n, k, f)[0])
    v[: m // 3] = _rows(rng, m // 3, null.shape[1]) @ null.T
    return v, _rows(rng, m, dim_phi)


@pytest.mark.parametrize("n,k,f", [(4, 2, 1), (3, 1, 3), (5, 2, 3)])
@pytest.mark.parametrize("weights", ["scalar", "per-row"])
@pytest.mark.parametrize("flags", ["none", "bool", "per-row"])
def test_hodge_kernel_does_not_depend_on_the_row_block(monkeypatch, n, k, f,
                                                       weights, flags):
    # 2101 rows: blocks of 1050/1051 and 700/700/701 rows (of 350/351 and 233/234
    # rows at (5,2) fiber 3, whose rows are 300 reals wide), bit for bit; and
    # 300 blocks of 7 rows, where OpenBLAS's small-matrix path for the symbol
    # products sums in another order, so they agree to rounding only.  The operator
    # kernel runs on the same rows, as hodge:n:k at fiber 1 and as the connection on
    # the C(n,k) f-dimensional fiber otherwise; it has no branch flags.
    rng = np.random.default_rng(71)
    m = 2101
    v, phi = _hodge_rows(rng, n, k, f, m)
    c, cs = (1.5, 0.25) if weights == "scalar" else (_weights(rng, m), _weights(rng, m))
    d_flag, s_flag = {"none": (None, None), "bool": (True, False),
                      "per-row": (rng.random(m) < 0.5, rng.random(m) < 0.5)}[flags]
    op = parse_op_string(f"hodge:{n}:{k}" if f == 1 else f"connection:{n}:{len(phi[0])}")
    outs = {}
    for size in FORM_BLOCKS + [7]:
        monkeypatch.setattr(projections, "_FORM_BLOCK", size)
        outs[size] = (batch_hodge_margins(n, k, f, v, phi, c, cs, d_flag, s_flag),
                      batch_operator_margins(op, v, phi, c))
    for kernel, whole in enumerate(outs[10**9]):
        for size in FORM_BLOCKS[1:]:
            assert outs[size][kernel].keys() == whole.keys()
            for key, want in whole.items():
                assert np.array_equal(outs[size][kernel][key], want), (size, kernel, key)
        scale = np.maximum(whole["full_scale"], whole.get("cor_scale", 0.0))
        for key, want in whole.items():
            got = outs[7][kernel][key]
            if want.dtype == bool:
                assert np.array_equal(got, want), (kernel, key)
            else:
                assert np.all(np.abs(got - want) <= 1e-13 * scale), (kernel, key)


def _hodge_report(monkeypatch, chunk, *args):
    monkeypatch.setitem(kato._DRAW_CHUNK, "hodge", chunk)
    return fuzz_hodge_inequality(*args).to_json_dict()


def test_hodge_reports_do_not_depend_on_the_row_block(monkeypatch):
    reports = []
    for size in FORM_BLOCKS:
        monkeypatch.setattr(projections, "_FORM_BLOCK", size)
        reports.append([_hodge_report(monkeypatch, 10000, 4, 2, 1, 3000, 5),
                        _hodge_report(monkeypatch, 1100, 3, 1, 3, 2500, 6),
                        _hodge_report(monkeypatch, 1500, 5, 2, 3, 3000, 8),
                        fields.run_scenario("closed-form", 4, 2, points=1500, seed=2),
                        fields.run_scenario("yang-mills-F", 3, 2, points=1500, seed=3),
                        # 300- and 144-real rows: 7 and 3 blocks at the shipped budget
                        fields.run_scenario("yang-mills-F", 5, 2, points=2500, seed=4),
                        fields.run_scenario("instanton-F", 4, 2, points=2500, seed=5)])
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_nan_row_in_a_later_block_fails_as_unblocked(monkeypatch):
    # the NaN row, and only it, fails whichever block it lands in
    rng = np.random.default_rng(72)
    v, phi = _hodge_rows(rng, 4, 2, 1, 2101)
    v[1500, 3] = math.nan
    for size in FORM_BLOCKS + [7]:
        monkeypatch.setattr(projections, "_FORM_BLOCK", size)
        out = batch_hodge_margins(4, 2, 1, v, phi, 1.0, 1.0)
        nonfinite, failing = failing_rows(out, kato.MARGIN_TOL_FACTOR)
        assert np.flatnonzero(nonfinite).tolist() == np.flatnonzero(failing).tolist() == [1500]


@pytest.mark.parametrize("key", ["c", "c_star"])
@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_bad_weight_in_the_last_row_of_a_later_block_is_refused(key, bad):
    # 2,101 rows run in two blocks; the weights are checked once over the batch
    rng = np.random.default_rng(74)
    v, phi = _hodge_rows(rng, 4, 2, 1, 2101)
    weights = {"c": np.ones(2101), "c_star": np.ones(2101)}
    weights[key][-1] = bad
    with pytest.raises(BadConstants):
        batch_hodge_margins(4, 2, 1, v, phi, **weights)


def test_hodge_kernel_refuses_rows_of_phi_that_do_not_match_v():
    # blocks slice v and phi alike, so a longer phi would be cut short unseen
    v, phi = _hodge_rows(np.random.default_rng(75), 4, 2, 1, 2101)
    for short_or_long in (phi[:-1], np.vstack((phi, phi[:1]))):
        with pytest.raises(ValueError, match="2101 gradient rows but"):
            batch_hodge_margins(4, 2, 1, v, short_or_long, 1.0, 1.0)


def test_operator_kernel_refuses_rows_of_phi_that_do_not_match_u():
    # a one-row phi was broadcast over every row of u; blocks would cut a longer one short
    rng = np.random.default_rng(77)
    u = _rows(rng, 4, 6)
    for short_or_long in (_rows(rng, 1, 2), _rows(rng, 5, 2)):
        with pytest.raises(ValueError, match="4 gradient rows but"):
            batch_operator_margins(parse_op_string("dirac:3"), u, short_or_long, 1.0)


def test_forced_flags_come_back_as_fresh_arrays():
    # margins run once over the batch; a forced flag is copied, never handed back
    v, phi = _hodge_rows(np.random.default_rng(76), 3, 1, 1, 50)
    flags = np.arange(50) % 2 == 0
    out = batch_hodge_margins(3, 1, 1, v, phi, 1.0, 1.0, flags, True)
    assert np.array_equal(out["d_vanishing"], flags) and out["dstar_vanishing"].all()
    for key in ("d_vanishing", "dstar_vanishing"):
        assert out[key].flags.writeable and not np.shares_memory(out[key], flags)


def _hodge_working_bytes(f, m):
    # traced peak of the (5,2) kernel on m rows beyond its outputs (the inputs
    # exist before tracing starts)
    v, phi = _hodge_rows(np.random.default_rng(73), 5, 2, f, m)
    tracemalloc.start()
    try:
        out = batch_hodge_margins(5, 2, f, v, phi, 1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(np.asarray(x).nbytes for x in out.values())


def test_hodge_kernel_memory_is_one_block():
    # at 4 and 16 blocks of the shipped 1024 rows
    four, sixteen = _hodge_working_bytes(1, 4 * 1024), _hodge_working_bytes(1, 16 * 1024)
    assert 0 < sixteen <= 1.1 * four, (four, sixteen)


def test_wide_hodge_kernel_memory_stays_in_the_fiber_one_budget():
    # fiber-3 rows are 300 reals, 3x the fiber-1 width: a budget of 1024 * 100
    # entries holds 342 of them, and at 4 and 16 budgets' worth of rows the working
    # memory is no more than that of fiber-1 blocks of 1024 rows
    budget = _hodge_working_bytes(1, 4 * 1024)
    for budgets in (4, 16):
        wide = _hodge_working_bytes(3, budgets * 342)
        assert 0 < wide <= budget, (budgets, wide, budget)


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
    u1 = _rows(rng, m, C.shape[1])
    u2 = _rows(rng, m, sub.shape[1]) @ sub.T
    if matched:
        u1 = np.array([matching_first_component(C, row) for row in u2])
    c = _weights(rng, m)
    # the kernel takes images and squared norms, here from complex products
    Cu1, Cu2 = u1 @ C.T, u2 @ C.T
    u1_sq, u2_sq = (np.sum(np.abs(x) ** 2, axis=1) for x in (u1, u2))
    out = _key_lemma_margins(_restricted_gram(C, sub)[2], Cu1, Cu2, u1_sq, u2_sq, c)
    verdicts = [check_key_lemma(C, sub, u1[i], u2[i], c[i]) for i in range(m)]
    _assert_rows_match(out, verdicts)


# ---------------------------------------------------------------------------
# the vectorized gain against the exact references

# dyadic values: the float inputs are exact and the float gain rounds once;
# at 1e308, bound*c overflows and the float gain is the limit weight/bound
WEIGHTS = [Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1), Fraction(3),
           Fraction(1024), Fraction(1e308)]
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


@pytest.mark.parametrize("c,bound", [(1e308, 2), (1e200, 1e200), (1e308, 1e308)])
def test_exact_gain_takes_the_batch_limit_where_bound_times_c_overflows(c, bound):
    # c / (1 + bound c) is c / inf = 0 in floats; both gains return the limit 1/bound
    want = batch_lemma_gain(c, float(bound), False)
    assert want == 1 / bound
    assert kato_gain_lemma(c, bound, False) == want
    assert kato_gain_operator(c, bound + 1, 1, False) == batch_lemma_gain(
        c, float(bound), False, weight=1.0)


def test_exact_hodge_pair_takes_the_batch_limit_where_bound_times_c_overflows():
    # k = n - k = 2: 2 * 1e308 overflows on both sides
    pair = hodge_gain_pair(1e308, 1e308, 4, 2, False, False)
    batch = float(batch_lemma_gain(1e308, 2, False))
    assert (pair.d_gain, pair.dstar_gain, pair.overall) == (batch, batch, batch) == (0.5,) * 3


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


def test_nan_margin_never_passes(monkeypatch):
    verdict = KatoVerdict("foldo", "nonvanishing", 1.0, None, math.nan, 1.0,
                          math.nan, 0.5, 1.0, None, None)
    assert not verdict.passed

    def sample(rng, m):
        return (m,)

    def kernel(m):
        margin = np.full(m, math.nan)
        margin[0] = 1.0
        return {"margin": margin, "full_scale": np.ones(m),
                "vanishing": np.zeros(m, dtype=bool)}

    monkeypatch.setitem(kato._DRAW_CHUNK, "foldo", 4)
    report = _fuzz("foldo", "stub", 10, 0, 0.0, sample, kernel)
    # one finite row per chunk of 4, 4, 2 rows
    assert report.violations == 7
    assert not report.passed


def _corollary_miss(*args, **kwargs):
    """Form kernel rows, as many as the gradient rows in args[3], whose margin passes by
    far and whose corollary margin misses its own scale by 5x: -5e-8 against a scale
    of 1, beside a full scale of 1e3."""
    one = np.ones(len(args[3]))
    no = np.zeros(len(one), dtype=bool)
    return {"margin": one, "lhs": 2 * one, "rhs": one, "full_scale": 1e3 * one,
            "margin_cor": -5e-8 * one, "cor_scale": one, "gain": one,
            "d_vanishing": no, "dstar_vanishing": no, "vanishing": no}


@pytest.mark.parametrize("consumer", ["fuzz", "single-shot", "field lab"])
def test_one_pass_rule_fails_a_corollary_miss(monkeypatch, consumer):
    # the fuzzer, the single-shot verdict and the field lab read one failing-row mask,
    # so a row whose corollary misses its own scale fails in all three
    if consumer == "fuzz":
        report = _fuzz("hodge", "stub", 10, 0, 0.0,
                       lambda rng, m: (None, None, None, np.empty(m)), _corollary_miss)
        assert report.violations == 10
    elif consumer == "single-shot":
        monkeypatch.setattr(kato, "batch_hodge_margins", _corollary_miss)
        verdict = check_hodge_inequality(np.ones(9), np.ones(3), 3, 1, 1, 1.0, 1.0)
        assert verdict.corollary_margin == -5e-8 and verdict.corollary_scale == 1.0
        assert not verdict.passed and not verdict.to_json_dict()["passed"]
    else:
        monkeypatch.setattr(fields, "batch_hodge_margins", _corollary_miss)
        sc = fields.make_scenario("generic-form", 3, seed=0)
        ev = fields.evaluate_scenario(sc, fields.sample_points(3, 20), 1.0, 1.0)
        assert not np.any(ev["ok"])


def test_single_shot_verdicts_fail_where_the_corollary_does(monkeypatch):
    # with every gain inflated tenfold, some rows pass the final inequality and miss
    # the corollary; their single-shot verdicts fail, as the fuzzer counts them
    gain = kato.batch_lemma_gain
    monkeypatch.setattr(kato, "batch_lemma_gain", lambda *a, **kw: 10 * gain(*a, **kw))
    rng = np.random.default_rng(3)
    v, phi = _rows(rng, 300, 24), _rows(rng, 300, 6)
    c, cs = _weights(rng, 300), _weights(rng, 300)
    out = batch_hodge_margins(4, 2, 1, v, phi, c, cs)
    full_ok = out["margin"] >= -kato.MARGIN_TOL_FACTOR * out["full_scale"]
    cor_ok = out["margin_cor"] >= -kato.MARGIN_TOL_FACTOR * out["cor_scale"]
    assert np.any(full_ok & ~cor_ok)
    passed = [check_hodge_inequality(v[i], phi[i], 4, 2, 1, c[i], cs[i]).passed
              for i in range(300)]
    assert np.array_equal(passed, full_ok & cor_ok)



def _fuzz_at(theorem, samples, fiber_dim=1):
    if theorem == "foldo":
        return fuzz_operator_inequality(parse_op_string("dirac:3"), samples, 0)
    if theorem == "hodge":
        return fuzz_hodge_inequality(3, 1, fiber_dim, samples, 0)
    _, C, sub, _ = key_lemma_setups(3, 1)[0]
    return fuzz_key_lemma(C, sub, samples, 0)


@pytest.mark.parametrize("theorem", ["foldo", "hodge", "key-lemma"])
@pytest.mark.parametrize("samples, chunk", [(0, 100), (-3, 100)])
def test_fuzzers_refuse_sizes_below_one(monkeypatch, theorem, samples, chunk):
    # no report on zero samples, at any draw chunk; chunks of 4 rows end in a short one
    monkeypatch.setitem(kato._DRAW_CHUNK, theorem, chunk)
    with pytest.raises(ValueError, match="samples >= 1"):
        _fuzz_at(theorem, samples)
    monkeypatch.setitem(kato._DRAW_CHUNK, theorem, 4)
    assert _fuzz_at(theorem, 10).samples == 10


@pytest.mark.parametrize("fiber_dim", [0, -1])
def test_hodge_fuzz_refuses_empty_fiber(fiber_dim):
    with pytest.raises(ValueError, match="form split needs fiber_dim >= 1"):
        _fuzz_at("hodge", 10, fiber_dim)


@pytest.mark.parametrize("fiber_dim", [0, -1])
def test_hodge_kernel_and_single_shot_refuse_empty_fiber(fiber_dim):
    # rows shaped for fiber 1 at (n, k) = (3, 1): the fiber is refused before a
    # reshape of them can fail on its own terms
    rng = np.random.default_rng(4)
    v, phi = _rows(rng, 1, 9), _rows(rng, 1, 3)
    with pytest.raises(ValueError, match=f"needs fiber_dim >= 1, got fiber_dim={fiber_dim}"):
        batch_hodge_margins(3, 1, fiber_dim, v, phi, 1.0, 1.0)
    with pytest.raises(ValueError, match=f"needs fiber_dim >= 1, got fiber_dim={fiber_dim}"):
        check_hodge_inequality(v[0], phi[0], 3, 1, fiber_dim, 1.0, 1.0)


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
