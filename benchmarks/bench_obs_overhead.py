"""Obs overhead guard: metrics must stay near-free on the live net stack.

Drives the same storm of small piece-level operations (store then fetch
of a ~1 KiB blob, round-robin over a localhost cluster -- the regime
where per-request bookkeeping is the largest share of the work) with the
coordinator's metrics registry disabled and enabled, and reports the
throughput ratio: the median over interleaved off/on rounds of each
round's off/on time ratio.  Exits nonzero when instrumentation costs
more than ``--obs-threshold`` allows (default: on must stay >= 0.9x of
off)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \\
        --ops 200 --rounds 21 --json obs-overhead.json

Where the time of a whole insert/repair/reconstruct goes is the e2e
ledger's job (``benchmarks/e2e/README.md``), not this script's.
"""

import argparse
import asyncio
import json
import statistics
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.tables import render_table
from repro.core.blocks import Piece
from repro.core.params import RCParams
from repro.core.serialization import piece_to_bytes
from repro.gf.field import GF
from repro.net import Coordinator, LocalCluster
from repro.obs import MetricsRegistry

#: Small code so each operation is a handful of tiny requests.
STORM_PARAMS = RCParams(2, 2, 3, 1)
STORM_PEERS = 4
STORM_FILE_BYTES = 1024
STORM_OPS = 100


async def _storm(root: Path, ops: int, obs_enabled: bool) -> dict:
    """Drive ``ops`` piece stores/fetches through one coordinator's cached
    clients; returns timing + connection counters."""
    field = GF(16)
    rng = np.random.default_rng(17)
    symbols = STORM_FILE_BYTES // 4  # 2 rows of 2-byte symbols
    blob = piece_to_bytes(
        Piece(
            index=1,
            data=field.asarray(rng.integers(0, 1 << 16, size=(2, symbols))),
            coefficients=field.asarray(rng.integers(0, 1 << 16, size=(2, 3))),
        ),
        field,
    )
    async with (
        LocalCluster(STORM_PEERS, root, seed=9) as cluster,
        Coordinator(
            STORM_PARAMS,
            rng=np.random.default_rng(13),
            registry=MetricsRegistry(enabled=obs_enabled),
        ) as coordinator,
    ):
        loop = asyncio.get_running_loop()
        start = loop.time()
        performed = 0
        for number in range(ops // 2):
            client = coordinator.client(cluster.addresses[number % STORM_PEERS])
            key = f"storm/{number}"
            await client.store_piece(key, blob)
            assert await client.get_piece(key) == blob
            performed += 2
        seconds = loop.time() - start
        transport = coordinator.transport_stats()
    return {
        "operations": performed,
        "seconds": round(seconds, 6),
        "ops_per_second": round(performed / seconds, 2),
        **transport,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Throughput of a small-piece storm with metrics off vs on"
    )
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="write the comparison record to FILE")
    parser.add_argument("--ops", type=int, default=STORM_OPS)
    parser.add_argument("--rounds", type=int, default=3,
                        help="interleaved off/on rounds; the median round ratio is reported")
    parser.add_argument("--obs-threshold", type=float, default=0.9,
                        help="minimum acceptable on/off throughput ratio")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_obs_overhead_") as scratch:
        root = Path(scratch)
        # Warm-up absorbs interpreter/import costs.  Each round runs off
        # then on back to back, so both see the same machine state; the
        # median of the per-round ratios discards the rounds a scheduler
        # hiccup or speed-mode change landed in, where a best-per-mode
        # estimator pairs two rounds from different moments.
        asyncio.run(_storm(root / "warmup", ops=10, obs_enabled=False))
        runs: dict[str, list[dict]] = {"off": [], "on": []}
        for number in range(args.rounds):
            for mode in ("off", "on"):
                runs[mode].append(asyncio.run(
                    _storm(root / f"{mode}{number}", args.ops, obs_enabled=mode == "on")
                ))
    round_ratios = [
        off["seconds"] / on["seconds"] for off, on in zip(runs["off"], runs["on"])
    ]
    # median_high is always one round's ratio (the median for odd counts);
    # that round stands for both modes in the record and the table.
    ratio = statistics.median_high(round_ratios)
    median_round = round_ratios.index(ratio)
    off, on = runs["off"][median_round], runs["on"][median_round]
    record = {
        "bench": "net_obs_overhead",
        "peers": STORM_PEERS,
        "file_bytes": STORM_FILE_BYTES,
        "operations": args.ops,
        "obs_off": off,
        "obs_on": on,
        "rounds": args.rounds,
        "round_ratios": [round(value, 3) for value in round_ratios],
        "ratio": round(ratio, 3),
        "threshold": args.obs_threshold,
    }
    print("NET-OBS-OVERHEAD " + json.dumps(record, sort_keys=True))
    rows = [
        [mode, f"{run['ops_per_second']:.1f}", f"{run['seconds'] * 1e3:.0f}"]
        for mode, run in (("obs off", off), ("obs on", on))
    ]
    print(f"\nObs overhead, {args.ops} ops of {STORM_FILE_BYTES} byte pieces "
          f"(localhost TCP, pooled; median of {args.rounds} rounds)")
    print(render_table(["mode", "ops/s", "ms"], rows))
    print(f"on/off throughput ratio: {ratio:.3f} (threshold {args.obs_threshold})")
    if args.json is not None:
        args.json.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    if ratio < args.obs_threshold:
        raise SystemExit(
            f"obs overhead too high: on/off ratio {ratio:.3f} < {args.obs_threshold}"
        )


if __name__ == "__main__":
    main()
