"""The input contract of README "Exit codes" and "Library", property-tested.

Every argument list the CLI is given exits 0, 1 or 2 within a second: an exit 2 is one
`error:` line on stderr and nothing on stdout, an exit 0 or 1 a report in standard JSON.
Every public library entry point returns, or raises the class README "Library" gives
for its arguments, within a second.  Arguments are drawn from edge values, with sample
and point counts at most 100.  Hypothesis runs derandomized and without its example
database, so every run draws the same cases.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from katolab import (
    BadDegree,
    UnknownName,
    UnknownScenario,
    catalog,
    clifford_projection,
    coderivative,
    contraction_projection,
    ellipticity_constant,
    exterior_derivative,
    exterior_projection,
    fuzz_hodge_inequality,
    fuzz_key_lemma,
    fuzz_operator_inequality,
    hodge_gain_pair,
    interior_projection,
    key_lemma_setups,
    make_scenario,
    random_field,
    run_scenario,
    sample_points,
    symmetrization_projection,
    twist,
    twistor_projection,
)
from katolab.cli import main
from katolab.fields import SCENARIO_NAMES
from katolab.spaces import fiber_space
from katolab.symbols import quasi_unit_covectors

_BIG = "1" + "0" * 24   # 25 digits: more than an index holds
_EDGE = ("0", "-1", "2.0", "2.5", "nan", "inf", "-inf", "5e-324", "", "x", "\u0663", _BIG)
_CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=30)


def _run(argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _refuse(constant):
    raise AssertionError(f"non-standard JSON constant {constant}")


def _assert_contract(argv):
    code, out, err, seconds = _run(argv)
    assert seconds < 1.0, (argv, seconds)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        json.loads(out, parse_constant=_refuse)


# ---------------------------------------------------------------------------
# the CLI: each flag absent, one of its valid values or an edge value


def _flag(name, *valid, required=False):
    value = st.sampled_from(valid + _EDGE)
    if not required:
        value = st.none() | value
    return value.map(lambda v: [] if v is None else [f"--{name}={v}"])


def _ops(*valid):
    # a valid reference, or one whose integer fields are an edge value
    templates = ("dirac:{}", "twistor:{}", "hodge:{}:1", "hodge:3:{}", "exterior-only:{}",
                 "exterior-only:3:{}", "interior-only:{}:{}", "connection:2:{}")
    edged = st.builds(lambda t, e: t.format(e, e), st.sampled_from(templates),
                      st.sampled_from(_EDGE))
    return st.sampled_from(valid) | edged


def _argv(prefix, *flags):
    return st.tuples(*flags).map(lambda parts: prefix + [a for p in parts for a in p])


_FOLDO_OPS = ("dirac:3", "twistor:3", "hodge:4:2", "connection:2", "connection:2:3",
              "exterior-only:3:0", "interior-only:3:3")
_COMMANDS = {
    "projections verify": _argv(
        ["projections", "verify"], _flag("max-n", "2", "3", required=True),
        _flag("tolerance", "1e-10", "0.5")),
    "ellipticity": _argv(
        ["ellipticity"], _ops(*_FOLDO_OPS).map(lambda op: [f"--op={op}"]),
        _flag("coarse", "1", "8"), _flag("refine", "0", "3")),
    "kato fuzz foldo": _argv(
        ["kato", "fuzz", "--theorem=foldo"], (st.none() | _ops(*_FOLDO_OPS)).map(
            lambda op: [] if op is None else [f"--op={op}"]),
        _flag("samples", "1", "7", "100", required=True), _flag("seed", "0", "3"),
        _flag("c", "0", "2.5"), st.sampled_from([[], [], [], ["--n=3"], ["--c-star=1"]])),
    "kato fuzz hodge": _argv(
        ["kato", "fuzz", "--theorem=hodge"],
        st.sampled_from([[], [], ["--op=hodge:3:1"], ["--op=dirac:3"]]),
        _flag("n", "2", "3", "4"), _flag("k", "1", "2"), _flag("dim-e", "1", "2"),
        _flag("samples", "1", "7", "100", required=True), _flag("seed", "0", "3"),
        _flag("c", "0", "2.5"), _flag("c-star", "0", "2.5")),
    "field run": _argv(
        ["field", "run"], st.sampled_from(SCENARIO_NAMES + ("x",)).map(
            lambda name: [f"--scenario={name}"]),
        _flag("n", "1", "2", "3", "4", required=True), _flag("k", "1", "2"),
        _flag("grid", "1", "7", "100", required=True), _flag("seed", "0", "3"),
        _flag("c", "0", "2.5"), _flag("c-star", "0", "2.5")),
    "suite all": _argv(["suite", "all"], _flag("seed", "0", "3")),
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_argument_list_exits_within_the_contract(command):
    @_CONTRACT
    @given(_COMMANDS[command])
    def check(argv):
        _assert_contract(argv)

    check()


# the hangs and escaped tracebacks an integer past an index used to cause, and the scan
# of `None in range(n)` for a family operator without its degree: each now exits 2 with
# one error line, before any work
@pytest.mark.parametrize("argv", [
    ["ellipticity", "--op", "exterior-only:10000000"],
    ["ellipticity", "--op", "interior-only:10000000"],
    ["ellipticity", "--op", f"exterior-only:{_BIG}"],
    ["ellipticity", "--op", f"dirac:{_BIG}"],
    ["ellipticity", "--op", f"twistor:{_BIG}"],
    ["ellipticity", "--op", f"hodge:{_BIG}:1"],
    ["ellipticity", "--op", f"exterior-only:{_BIG}:0"],
    ["ellipticity", "--op", f"interior-only:{_BIG}:{_BIG}"],
    ["kato", "fuzz", "--theorem", "hodge", "--n", _BIG],
    ["kato", "fuzz", "--theorem", "hodge", "--n", _BIG, "--k", "1"],
    ["field", "run", "--scenario", "generic-form", "--n", _BIG],
    ["ellipticity", "--op", "dirac:3", "--coarse", _BIG],
    ["projections", "verify", "--max-n", _BIG],
])
def test_an_integer_past_an_index_exits_2_at_once(argv):
    code, out, err, seconds = _run(argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    assert seconds < 0.1


# ---------------------------------------------------------------------------
# the library: each integer argument one of its valid values or an edge value

_LIB_EDGE = (0, -1, 2.0, 2.5, math.nan, math.inf, -math.inf, 5e-324, "", "x", "\u0663",
             int(_BIG))


def _arg(*valid):
    return st.sampled_from(valid + _LIB_EDGE)


def _assert_raises_only(call, args, *classes):
    """call(*args) returns or raises one of classes within a second; a string in place
    of a number may raise TypeError, Python's rule for a value of the wrong type."""
    if any(isinstance(a, str) for a in args):
        classes += (TypeError,)
    start = time.perf_counter()
    try:
        call(*args)
    except classes:
        pass
    assert time.perf_counter() - start < 1.0, args


_FAMILY_OPS = st.sampled_from(["dirac", "twistor", "hodge", "exterior-only",
                               "interior-only", "x"])
_BUILDERS = [exterior_projection, interior_projection, symmetrization_projection,
             contraction_projection]
_CASES = {
    "catalog": (st.tuples(_FAMILY_OPS, _arg(2, 3), st.none() | _arg(0, 1, 2)),
                catalog, (BadDegree, UnknownName)),
    "connection": (st.tuples(_arg(1, 2), st.none() | _arg(1, 3)),
                   lambda n, d: catalog("connection", n, fiber_dim=d), (BadDegree,)),
    "degree builders": (st.tuples(st.sampled_from(_BUILDERS), _arg(2, 3), _arg(0, 1, 2)),
                        lambda build, n, k: build(n, k), (BadDegree,)),
    "spinor builders": (st.tuples(st.sampled_from([clifford_projection, twistor_projection]),
                                  _arg(1, 2, 3)),
                        lambda build, n: build(n), (BadDegree,)),
    "ellipticity": (st.tuples(_arg(1, 8), _arg(0, 3)),
                    lambda c, r: ellipticity_constant(catalog("dirac", 3), c, r),
                    (ValueError,)),
    "operator fuzz": (st.tuples(_arg(1, 100)),
                      lambda m: fuzz_operator_inequality(catalog("twistor", 3), m, 0),
                      (ValueError,)),
    "form fuzz": (st.tuples(_arg(2, 3), _arg(1, 2), _arg(1, 2), _arg(1, 100)),
                  lambda n, k, d, m: fuzz_hodge_inequality(n, k, d, m, 0),
                  (BadDegree, ValueError)),
    "key-lemma fuzz": (st.tuples(_arg(1, 100)),
                       lambda m: fuzz_key_lemma(*key_lemma_setups(3, 1)[0][1:3], m, 0),
                       (ValueError,)),
    "key-lemma setups": (st.tuples(_arg(2, 3), _arg(1, 2)), key_lemma_setups, (BadDegree,)),
    "hodge gains": (st.tuples(_arg(2, 3), _arg(1, 2)),
                    lambda n, k: hodge_gain_pair(1.0, 1.0, n, k, False, True),
                    (BadDegree,)),
    "twist": (st.tuples(_arg(1, 2)),
              lambda d: twist(catalog("dirac", 2), fiber_space(d)), (ValueError, BadDegree)),
    "sample points": (st.tuples(_arg(1, 3), _arg(1, 100)), sample_points, (ValueError,)),
    "covector sweep": (st.tuples(_arg(1, 3), _arg(1, 100)), quasi_unit_covectors,
                       (ValueError,)),
    "random field": (st.tuples(_arg(1, 3), _arg(0, 2), _arg(1, 8), _arg(0, 3)),
                     lambda n, d, m, q: random_field(n, d, m, q, np.random.default_rng(0)),
                     (ValueError,)),
    "scenario": (st.tuples(st.sampled_from(SCENARIO_NAMES + ("x",)), _arg(1, 2, 3, 4),
                           st.none() | _arg(1, 2)),
                 make_scenario, (UnknownScenario,)),
    "scenario run": (st.tuples(st.sampled_from(SCENARIO_NAMES), _arg(2, 3), _arg(1, 100)),
                     lambda name, n, m: run_scenario(name, n, points=m),
                     (UnknownScenario, ValueError)),
    "form derivatives": (st.tuples(st.sampled_from([exterior_derivative, coderivative]),
                                   _arg(0, 1, 2, 3)),
                         lambda derivative, k: derivative(
                             random_field(3, 3, 4, 2, np.random.default_rng(1)), k),
                         (BadDegree,)),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_every_library_call_returns_or_raises_its_documented_class(case):
    args, call, classes = _CASES[case]

    @_CONTRACT
    @given(args)
    def check(drawn):
        _assert_raises_only(call, drawn, *classes)

    check()


@pytest.mark.parametrize("call", [
    lambda: sample_points(10**24, 5),
    lambda: random_field(10**24, 1, 8, 3, np.random.default_rng(0)),
    lambda: quasi_unit_covectors(10**24, 3),
])
def test_a_size_past_an_index_is_refused_at_once(call):
    # each ran past 10 s: [None] * n, 7 ** n and a list of n golden-ratio powers
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"needs 1 <= n <= \d+, got n=10{24}$"):
        call()
    assert time.perf_counter() - start < 1.0
