"""Run-to-run spread of every end-to-end metric, the way the bounds are judged.

    python benchmarks/e2e/spread.py --sets 2 --out benchmarks/e2e/out/spread.json

Each set runs every workload ten times (timed, one seed each) and takes,
per metric, the distance between the first and third quartile as a share
of the median.  A bound holds when that spread stays inside it and the
second set's median is not worse than the first's by more than it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
RUNS = 10


def _one(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", "0", "--seed", str(seed)],
        check=True, capture_output=True, text=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _set(spec: dict, first_seed: int) -> dict:
    """workload -> metric -> {"values", "median", "spread"}."""
    table = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_one(workload, first_seed + n) for n in range(RUNS)]
        table[workload] = {}
        for name in runs[0]:
            values = [run[name] for run in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            table[workload][name] = {
                "values": values, "median": median, "spread": (q3 - q1) / median,
            }
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args()
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    sets = [_set(spec, args.first_seed + RUNS * n) for n in range(args.sets)]
    status = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for workload in sets[0]:
            cells = [table[workload][name] for table in sets]
            drift = max(
                sign * (cell["median"] - cells[0]["median"]) / cells[0]["median"]
                for cell in cells
            )
            spread = max(cell["spread"] for cell in cells)
            ok = drift <= bound and (name == "setup_s" or spread <= bound)
            status |= not ok
            print(
                f"{'ok  ' if ok else 'FAIL'} {workload:24s} {name:38s} bound {bound:<5g}"
                f" spread {spread:.4f} drift {drift:+.4f}  medians "
                + " ".join(f"{cell['median']:.6g}" for cell in cells)
            )
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(sets, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
