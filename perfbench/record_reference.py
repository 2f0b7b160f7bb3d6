"""Record the reference outputs that ``run.py`` checks against.

    python3 perfbench/record_reference.py --workload fit_p2000_r4 --seeds 0-23

For every seed in the range and every instance of the workload's cycle, run
the operation once and store its output summary in
``perfbench/reference/<workload>.json``, merged with the seeds already there.
Re-record only when the program's outputs are meant to change, and say so in
the change that does it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-23")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    wl = workloads.WORKLOADS[args.workload]
    table = workloads.load_references(wl.name)
    path = workloads.REFERENCE_DIR / f"{wl.name}.json"
    for seed in seeds:
        ctx = wl.prepare(seed)
        table[str(seed)] = [wl.summary(wl.run(ctx, wl.instance(ctx, seed, k)))
                            for k in range(wl.cycle)]
        print(f"{wl.name} seed {seed}: recorded {wl.cycle} instance(s)", file=sys.stderr)
        path.parent.mkdir(exist_ok=True)
        ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
