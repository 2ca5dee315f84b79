"""The live-stack ledger: end-to-end and per-layer metrics on four workloads.

    python benchmarks/e2e/run.py --workload all --seed 7

A fully specified run (``--workload NAME --trace 0|1``) measures in this
process and prints, as its last line, the JSON object BENCHMARK.json's
contract asks for.  Anything less specified fans out into one fresh
subprocess per workload and mode, so peak RSS, GF tables and connection
pools never leak from one run into the next.

``--seed`` drives the payload bytes, the coordinator rng and
``LocalCluster(seed=...)``; nothing else reaches the program.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))

from workloads import BY_NAME, WORKLOADS  # noqa: E402

#: Run length per phase under ``--smoke``.
SMOKE_SECONDS = 1.5


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *BY_NAME])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], help="default: both, timed first")
    parser.add_argument("--smoke", action="store_true", help="small files, short runs")
    parser.add_argument("--out", type=pathlib.Path, help="write the full result as JSON")
    parser.add_argument("--work-dir", type=pathlib.Path, default=HERE / ".work")
    return parser.parse_args(argv)


def _environment() -> dict:
    """The effective values of every knob the run left at its default."""
    import numpy

    from repro.gf import kernels
    from repro.net import default_pool_size
    from repro.obs import obs_enabled

    return {
        "nproc": os.cpu_count(),
        "REPRO_OBS": "on" if obs_enabled() else "off",
        "REPRO_GF_WORKERS": kernels.default_workers(),
        "REPRO_GF_BACKEND": kernels.active_backend(),
        "REPRO_NET_POOL_SIZE": default_pool_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loopback": "127.0.0.1 TCP, sandbox filesystem",
    }


def _measure(args, spec: dict) -> int:
    """One workload, one mode, in this process."""
    sys.path.insert(0, str(REPO / "src"))
    import harness
    import ledger
    from tracer import Span

    workload = BY_NAME[args.workload].sized(args.smoke)
    environment = _environment()
    if args.trace and environment["REPRO_OBS"] == "off":
        print("the traced run reads repro.obs counters; unset REPRO_OBS", file=sys.stderr)
        return 2
    raw = harness.run(
        workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.work_dir
    )
    result = ledger.report(workload, raw, bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    problems = result["problems"]
    if not problems and set(units) != set(result["metrics"]):
        problems.append(
            f"BENCHMARK.json and the harness disagree on "
            f"{sorted(set(units) ^ set(result['metrics']))}"
        )
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
        if name in result["metrics"]
    }
    extras = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["extras"].items()
    }
    mode = "traced" if args.trace else "timed"
    print(f"# {workload.name} ({mode}, seed {args.seed}, {args.seconds:g} s): {workload.why}")
    print(f"# environment: {json.dumps(environment)}")
    for name, metric in {**metrics, **extras}.items():
        print(f"{workload.name} {name} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"PROBLEM {workload.name}: {problem}", file=sys.stderr)
    if args.trace:
        spans = HERE / "out" / f"{workload.name}.seed{args.seed}.spans.json"
        spans.parent.mkdir(exist_ok=True)
        spans.write_text(json.dumps({"fields": Span._fields, "spans": raw["spans"]}))
        print(f"# spans: {spans}")
    summary = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    if args.out:
        args.out.write_text(
            json.dumps(
                {
                    "workload": workload.name,
                    "why": workload.why,
                    "mode": mode,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "smoke": args.smoke,
                    "environment": environment,
                    "report_only": extras,
                    "problems": problems,
                    **summary,
                },
                indent=1,
            )
        )
    if problems:
        return 1
    print(json.dumps(summary))
    return 0


def _fan_out(args) -> int:
    """Every requested (workload, mode) in its own fresh subprocess."""
    names = [w.name for w in WORKLOADS] if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.trace is None else [args.trace]
    args.work_dir.mkdir(parents=True, exist_ok=True)
    runs, status = [], 0
    for name in names:
        for mode in modes:
            out = args.work_dir / f"{name}.{mode}.{os.getpid()}.json"
            command = [
                sys.executable, __file__,
                "--workload", name, "--trace", str(mode), "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--work-dir", str(args.work_dir),
                "--out", str(out), *(["--smoke"] if args.smoke else []),
            ]
            try:
                status = max(status, subprocess.run(command, check=False).returncode)
                if out.exists():
                    runs.append(json.loads(out.read_text()))
            finally:
                out.unlink(missing_ok=True)
    if args.out:
        args.out.write_text(json.dumps({"claim": None, "runs": runs}, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (REPO / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.workload == "all" or args.trace is None:
        return _fan_out(args)
    return _measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
