"""The three benchmark workloads and the verdict records they produce.

Every library call goes through a module attribute looked up at call
time (``kato.fuzz_hodge_inequality``, ``cli.main``, ...), never through a
name bound here, so the tracer's wrappers are reached when installed.

A workload has a configuration list derived from the workload seed, a
warm-up that runs each configuration once at minimal size, and the
calls of one pass, which run each configuration once at full size.
Each call returns a ``Verdict``; the checks in ``run.py`` compare them.
Why each workload was chosen is recorded in BENCHMARK.json and
README.md.
"""

import contextlib
import functools
import hashlib
import io
import json
import time
from dataclasses import dataclass

from katolab import cli, fields, kato, symbols

# The libraries' own tolerance factors: a difference in minimum relative
# margin below these cannot flip a verdict.
FUZZ_MARGIN_TOL = kato.MARGIN_TOL_FACTOR
FIELD_MARGIN_TOL = fields.FIELD_MARGIN_TOL_FACTOR


def derive_seed(workload: str, seed: int, index: int) -> int:
    """Per-configuration seed, a pure function of the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class Verdict:
    """Outcome of one verdict call.

    ``counts`` must repeat exactly run to run; ``min_rel`` may drift by
    less than ``tol``.  ``problem`` is set when the call raised, did not
    pass or exited non-zero.
    """

    counts: dict
    min_rel: float | None = None
    tol: float = 0.0
    problem: str | None = None
    report_bytes: int = 0
    label: str = ""


def _fuzz_verdict(rep) -> Verdict:
    counts = {"samples": rep.samples, "violations": rep.violations,
              **{f"branch.{k}": v for k, v in sorted(rep.branch_counts.items())}}
    return Verdict(counts, rep.min_relative_margin, FUZZ_MARGIN_TOL,
                   None if rep.passed else "fuzz report did not pass")


def _guarded(call) -> Verdict:
    # A failing configuration is recorded, never skipped: the pass goes on.
    try:
        return call()
    except Exception as exc:  # boundary: every configuration must report
        return Verdict({}, problem=f"raised {type(exc).__name__}: {exc}")


def run_pass(wl, between=None) -> tuple:
    """Run every call of the workload once, in order, closed loop.

    Returns the verdicts and the seconds spent inside the calls.
    ``between`` runs after each call, outside the timed part.
    """
    verdicts, busy = [], 0.0
    for label, call in wl.calls():
        t0 = time.perf_counter()
        verdict = _guarded(call)
        busy += time.perf_counter() - t0
        verdict.label = label
        verdicts.append(verdict)
        if between is not None:
            between()
    return verdicts, busy


@dataclass
class Workload:
    name: str
    # layers every pass must call, and layers it must never call
    exercises: tuple = ()
    bypasses: tuple = ()

    def prepare(self, seed: int) -> None:
        """Build the configuration list from the workload seed."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run every configuration once at minimal size."""
        raise NotImplementedError

    def calls(self) -> list:
        """(label, call) pairs of one pass; each call returns a Verdict."""
        raise NotImplementedError


class HodgeFuzz(Workload):
    SAMPLES = 10_000
    PAIRS = tuple((n, k) for n in range(2, 6) for k in range(1, n))

    def __init__(self):
        super().__init__(
            "hodge-fuzz",
            exercises=("kato.batch_hodge_margins", "kato.fuzz_hodge_inequality"),
            bypasses=("fields.TrigField.evaluate", "cli.main",
                      "kato.batch_operator_margins", "kato.fuzz_key_lemma",
                      "projections.conformity_report", "symbols.catalog"))

    def prepare(self, seed):
        self.configs = [(n, k, derive_seed(self.name, seed, i))
                        for i, (n, k) in enumerate(self.PAIRS)]

    def warm_up(self):
        for n, k, s in self.configs:
            kato.fuzz_hodge_inequality(n, k, 1, 16, s)

    def _verdict(self, n, k, s) -> Verdict:
        return _fuzz_verdict(kato.fuzz_hodge_inequality(n, k, 1, self.SAMPLES, s))

    def calls(self):
        return [(f"hodge n={n} k={k}", functools.partial(self._verdict, n, k, s))
                for n, k, s in self.configs]


class FieldLab(Workload):
    POINTS = 2500

    def __init__(self):
        super().__init__(
            "field-lab",
            exercises=("kato.batch_hodge_margins", "fields.TrigField.evaluate",
                       "fields.evaluate_scenario"),
            bypasses=("cli.main", "kato.fuzz_hodge_inequality",
                      "kato.fuzz_key_lemma", "projections.conformity_report"))

    def prepare(self, seed):
        self.configs = [(name, n, k, derive_seed(self.name, seed, i))
                        for i, (name, n, k) in
                        enumerate(fields.scenario_grid(range(2, 6)))]

    def warm_up(self):
        for name, n, k, s in self.configs:
            fields.run_scenario(name, n, k, points=16, seed=s)

    def _verdict(self, name, n, k, s) -> Verdict:
        rep = fields.run_scenario(name, n, k, points=self.POINTS, seed=s)
        counts = {"sample_points": rep.sample_points,
                  "skipped_points": rep.skipped_points,
                  "violations": rep.violations, "branch": rep.branch}
        return Verdict(counts, rep.min_relative_margin, FIELD_MARGIN_TOL,
                       None if rep.passed else "scenario did not pass")

    def calls(self):
        return [(f"{name} n={n} k={k}", functools.partial(self._verdict, name, n, k, s))
                for name, n, k, s in self.configs]


# criterion 5's seven operators, as CLI operator references
OPERATORS = ("dirac:2", "dirac:3", "dirac:4", "twistor:3", "twistor:4",
             "connection:3", "hodge:4:2")


def _lemma_setups():
    # criterion 4's eleven restrictions; the key lemma has no subcommand
    setups = []
    for n, k in ((3, 1), (4, 1), (4, 2), (5, 2)):
        setups.extend((f"{label} n={n} k={k}", C, sub)
                      for label, C, sub, _ in kato.key_lemma_setups(n, k))
    for op in ("dirac:3", "twistor:3", "hodge:4:2"):
        label, C, sub, _ = kato.line_component_setup(symbols.parse_op_string(op))
        setups.append((label, C, sub))
    return setups


def _cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_label(argv: list) -> str:
    # the derived seed is left out: labels key the digest for every seed
    return " ".join(argv[:-2] if "--seed" in argv else argv)


def _cli_verdict(argv: list) -> Verdict:
    code, text, err = _cli(argv)
    if code != 0:
        return Verdict({"exit": code}, problem=f"exit {code}: {err.strip()}",
                       report_bytes=len(text.encode()))
    payload = json.loads(text)
    counts = {"exit": code, "passed": payload["passed"]
              if "passed" in payload else payload["matches_declared"]}
    min_rel = None
    if argv[0] == "projections":
        counts["rows"] = len(payload["rows"])
    elif argv[0] == "ellipticity":
        counts["method"] = payload["method"]
    else:
        counts.update(samples=payload["samples"],
                      violations=payload["violations"],
                      **{f"branch.{k}": v for k, v in
                         sorted(payload["branch_counts"].items())})
        min_rel = payload["min_relative_margin"]
    problem = None if counts["passed"] is not False else "check did not pass"
    return Verdict(counts, min_rel, FUZZ_MARGIN_TOL, problem, len(text.encode()))


class OperatorSuite(Workload):
    LEMMA_SAMPLES = 100_000  # criterion 4's size; the CLI calls use their defaults

    def __init__(self):
        super().__init__(
            "operator-suite",
            exercises=("cli.main", "kato.fuzz_key_lemma",
                       "kato.batch_operator_margins",
                       "projections.conformity_report",
                       "symbols.ellipticity_constant"),
            bypasses=("kato.batch_hodge_margins", "fields.TrigField.evaluate",
                      "fields.evaluate_scenario"))

    def prepare(self, seed):
        self.lemma = [(label, C, sub, derive_seed(self.name, seed, 100 + i))
                      for i, (label, C, sub) in enumerate(_lemma_setups())]
        self.argvs = [["projections", "verify", "--max-n", "6"]]
        self.argvs += [["ellipticity", "--op", op] for op in OPERATORS]
        self.argvs += [["kato", "fuzz", "--theorem", "foldo", "--op", op,
                        "--seed", str(derive_seed(self.name, seed, i))]
                       for i, op in enumerate(OPERATORS)]

    def warm_up(self):
        _cli(["projections", "verify", "--max-n", "2"])
        for argv in self.argvs[1:]:
            if argv[0] == "ellipticity":
                _cli(argv + ["--coarse", "1", "--refine", "0"])
            else:
                _cli(argv + ["--samples", "16"])
        for label, C, sub, s in self.lemma:
            kato.fuzz_key_lemma(C, sub, 16, s, label=label)

    def _lemma_verdict(self, label, C, sub, s) -> Verdict:
        return _fuzz_verdict(kato.fuzz_key_lemma(C, sub, self.LEMMA_SAMPLES, s,
                                                 label=label))

    def calls(self):
        out = [(_cli_label(argv), functools.partial(_cli_verdict, argv))
               for argv in self.argvs]
        out += [(f"key-lemma {label}", functools.partial(self._lemma_verdict,
                                                         label, C, sub, s))
                for label, C, sub, s in self.lemma]
        return out


WORKLOADS = {w.name: w for w in (HodgeFuzz(), FieldLab(), OperatorSuite())}
