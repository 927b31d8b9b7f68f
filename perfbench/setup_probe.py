"""Time one fresh-process set-up of a workload and print it as JSON.

Set-up is what a CLI user pays on every invocation: ``import katolab``
(numpy included) plus one warm-up call per configuration at minimal
size, which builds the form kits, catalog operators and null spaces
later calls reuse.  ``run.py`` starts this script several times per run
and reports the median as ``setup_s``, scaled by the calibration rounds
this script runs after the timed part.

    python3 perfbench/setup_probe.py --workload hodge-fuzz --seed 1
"""

import os

# pinned before numpy is imported, as in run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

CALIBRATION_ROUNDS = 9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import workloads  # imports katolab and numpy
    wl = workloads.WORKLOADS[args.workload]
    wl.prepare(args.seed)
    wl.warm_up()
    setup_s = time.perf_counter() - t0
    import calibrate  # after the timed part, which must include numpy's import
    rounds = [calibrate.calibration_s("setup") for _ in range(CALIBRATION_ROUNDS)]
    print(json.dumps({"setup_s": setup_s, "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
