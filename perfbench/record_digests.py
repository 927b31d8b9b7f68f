"""Record the verdict digests that run.py checks every pass against.

    python3 perfbench/record_digests.py --seeds 0-31 [--workload NAME ...]

For each workload and seed this runs one untraced and one traced pass
after the warm-up, then writes to digests.json:

- ``counts``: per-configuration counts (samples, violations, branch
  counts, points, exit codes), which must be the same for every seed;
  a seed that disagrees stops the recording;
- ``layer_counts``: per-layer counts that agree across all recorded
  seeds, so they are checked for any seed;
- ``seeds``: per seed, the minimum relative margins and the per-layer
  counts that depend on the seed (such as report bytes).

Re-record only when a change is meant to alter verdicts or counts, and
say so in the change.
"""

import argparse
import json
import sys

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))
import tracing  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(wl, seed: int) -> tuple:
    wl.prepare(seed)
    wl.warm_up()
    verdicts, _ = workloads.run_pass(wl)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = workloads.run_pass(wl)
    finally:
        tracer.uninstall()
    bad = [v for v in verdicts + traced if v.problem]
    if bad:
        raise SystemExit(f"{wl.name} seed {seed}: {bad[0].label}: {bad[0].problem}")
    layers = tracing.layer_metrics(tracer.spans, sum(v.report_bytes for v in traced))
    return verdicts, {k: v for k, v in layers.items() if tracing.is_count(k)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="range such as 0-31")
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    digests = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        counts, per_seed = None, {}
        for seed in seeds:
            verdicts, layers = record(wl, seed)
            seed_counts = {v.label: v.counts for v in verdicts}
            if counts is not None and seed_counts != counts:
                raise SystemExit(f"{name}: verdict counts of seed {seed} differ "
                                 "from the first seed")
            counts = seed_counts
            per_seed[str(seed)] = {
                "min_rel": {v.label: v.min_rel for v in verdicts}, "layers": layers}
            print(f"{name} seed {seed}: {len(verdicts)} verdicts", flush=True)
        first = per_seed[str(seeds[0])]["layers"]
        common = {k: v for k, v in first.items()
                  if all(s["layers"][k] == v for s in per_seed.values())}
        digests[name] = {
            "counts": counts,
            "layer_counts": common,
            "seeds": {s: {"min_rel": d["min_rel"],
                          "layer_counts": {k: v for k, v in d["layers"].items()
                                           if k not in common}}
                      for s, d in per_seed.items()},
        }
    run.DIGESTS.write_text(json.dumps(run.json_safe(digests), indent=1,
                                      sort_keys=True, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
