"""katolab benchmark: time the verdict workloads and check every verdict.

    python3 perfbench/run.py --workload hodge-fuzz --seed 1 --seconds 20 --trace 0

Run from the repository root; katolab is imported from ``src/``, so no
install or build is needed.  The load is a closed loop in one process
and one thread: each pass runs the workload's configurations one after
the other, and the next pass starts when the previous one returns.
Passes repeat until ``--seconds`` have elapsed (at least three).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics, plus the tracing overhead.

Every verdict call is checked, none is skipped: it must pass (CLI exit
0), its counts must equal those of the first pass and of the digest in
``digests.json``, and its minimum relative margin must agree within the
library's tolerance factor.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a full record, with
the environment and (traced) the spans, goes to ``.perfbench_out/``.
The exit code is 0 only when every check passed.
"""

import os

# One BLAS/OpenMP thread, pinned before numpy is imported: pass-to-pass
# spread is several times wider with the default thread pool on 2 cores.
PINNED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 7
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):  # older numpy: no dict mode
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **{var: os.environ.get(var) for var in PINNED_VARS},
    }


def setup_probe(workload: str, seed: int) -> tuple:
    """(raw, scaled) set-up seconds of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["setup_s"] * calibrate.speed_factor(
        "setup", probe["rounds"])


def differs(a, b, tol) -> bool:
    """Minimum relative margins disagree; a NaN never agrees."""
    if a is None or b is None:
        return a is not b
    if isinstance(a, str) or isinstance(b, str):
        return a != b
    return not abs(a - b) <= tol


def check_verdicts(passes, digest, seed):
    """Count failed verdict calls over all passes; return (failed, notes)."""
    ref = {v.label: v for v in passes[0]}
    want_counts = digest.get("counts", {})
    want_rel = digest.get("seeds", {}).get(str(seed), {}).get("min_rel")
    failed, notes = 0, []
    for i, verdicts in enumerate(passes):
        for v in verdicts:
            why = []
            if v.problem:
                why.append(v.problem)
            if v.counts != ref[v.label].counts:
                why.append(f"counts {v.counts} != first pass {ref[v.label].counts}")
            if differs(v.min_rel, ref[v.label].min_rel, v.tol):
                why.append(f"min_rel {v.min_rel} != first pass {ref[v.label].min_rel}")
            if v.counts != want_counts.get(v.label):
                why.append(f"counts {v.counts} != digest {want_counts.get(v.label)}")
            if want_rel is not None and differs(v.min_rel, want_rel.get(v.label), v.tol):
                why.append(f"min_rel {v.min_rel} != digest {want_rel.get(v.label)}")
            if why:
                failed += 1
                notes.append(f"pass {i} {v.label}: " + "; ".join(why))
    return failed, notes


def check_layers(wl, per_pass, traced, digest, seed):
    """Trace self-checks and per-layer count digests; return problems."""
    problems = []
    for spans, _ in traced:
        problems += tracing.self_check(spans)
        calls = {layer: 0 for layer in tracing.LAYERS}
        for span in spans:
            calls[span[0]] += 1
        problems += [f"{layer} not called" for layer in wl.exercises if not calls[layer]]
        problems += [f"{layer} called {calls[layer]} times, expected 0"
                     for layer in wl.bypasses if calls[layer]]
    counts = [{k: v for k, v in m.items() if tracing.is_count(k)} for m in per_pass]
    problems += [f"traced pass {i} counts differ from pass 0: " + str(
                 {k: (c[k], counts[0][k]) for k in c if c[k] != counts[0][k]})
                 for i, c in enumerate(counts) if c != counts[0]]
    want = dict(digest.get("layer_counts", {}))
    want.update(digest.get("seeds", {}).get(str(seed), {}).get("layer_counts", {}))
    problems += [f"{k} = {counts[0].get(k)}, digest {v}"
                 for k, v in want.items() if counts[0].get(k) != v]
    return problems


def run_passes(wl, run_pass, seconds, tracer):
    """Closed loop of passes; with a tracer, every other pass is traced.

    After each call one calibration round runs, outside the timed part;
    a pass's time is scaled by the reference round over the pass's
    median round, which takes out most of the machine's speed drift.
    """
    times = {"untraced": [], "traced": []}
    raw = {"untraced": [], "traced": []}
    round_s = {"untraced": [], "traced": []}   # median calibration round
    passes, traced = [], []   # traced: (spans, verdicts) of each traced pass
    min_untraced, min_traced = (2, 2) if tracer else (MIN_PASSES, 0)
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(passes) % 2 == 1
        if (len(times["untraced"]) >= min_untraced
                and len(times["traced"]) >= min_traced
                and time.perf_counter() - start >= seconds):
            break
        rounds = []
        if trace_this:
            tracer.spans = []
            tracer.install()
        try:
            verdicts, busy = run_pass(
                wl, lambda: rounds.append(calibrate.calibration_s(wl.name)))
        finally:
            if trace_this:
                tracer.uninstall()
        if trace_this:
            traced.append((tracer.spans, verdicts))
        kind = "traced" if trace_this else "untraced"
        raw[kind].append(busy)
        round_s[kind].append(statistics.median(rounds))
        times[kind].append(busy * calibrate.speed_factor(wl.name, rounds))
        passes.append(verdicts)
    return times, raw, round_s, passes, traced


def json_safe(x):
    """Standard JSON: non-finite floats become the strings inf, -inf, nan."""
    if isinstance(x, dict):
        return {str(k): json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_safe(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return x


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "katolab" / "__init__.py").is_file():
        print(f"error: no katolab sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    setup = ([] if args.trace else
             [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)])

    sys.path.insert(0, str(SRC))
    import workloads  # imports katolab

    wl = workloads.WORKLOADS[args.workload]
    digest = json.loads(DIGESTS.read_text()).get(args.workload, {})
    wl.prepare(args.seed)
    wl.warm_up()
    tracer = tracing.Tracer() if args.trace else None
    times, raw, round_s, passes, traced = run_passes(wl, workloads.run_pass,
                                                     args.seconds, tracer)

    failed, notes = check_verdicts(passes, digest, args.seed)
    attempted = sum(len(p) for p in passes)
    untraced_s = statistics.median(times["untraced"])
    if args.trace:
        per_pass = [tracing.layer_metrics(spans, sum(v.report_bytes for v in vs))
                    for spans, vs in traced]
        notes += check_layers(wl, per_pass, traced, digest, args.seed)
        values = {k: (per_pass[0][k] if tracing.is_count(k)
                      else statistics.median(m[k] for m in per_pass))
                  for k in per_pass[0]}
        values["trace.overhead_frac"] = statistics.median(times["traced"]) / untraced_s - 1.0
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s for _, s in setup),
            "pass_s": untraced_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        notes.append(f"metric names differ from BENCHMARK.json: "
                     f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    correct = failed == 0 and not notes

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": notes,
        "pass_s": times, "pass_wall_s": raw, "calibration_round_s": round_s,
        "setup_wall_s": [w for w, _ in setup], "setup_s": [s for _, s in setup],
        "metrics": metrics,
        "bindings": tracer.bindings if tracer else None,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(json_safe(record), indent=1, allow_nan=False) + "\n")
    if traced:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            json_safe([spans for spans, _ in traced]), allow_nan=False) + "\n")

    print("env: " + json.dumps(json_safe(env), allow_nan=False))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes untraced {len(times['untraced'])} traced {len(times['traced'])}")
    for note in notes:
        print(f"FAIL {note}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<48} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} verdict calls)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": json_safe(metrics)},
                     allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
