"""Command-line interface: back up real files with Regenerating Codes.

Subcommands mirror the paper's life cycle, on disk and over the wire:

    repro encode  FILE -k 8 -H 8 -d 10 -i 1 --out-dir pieces/
    repro info    pieces/piece_00.rgc
    repro repair  --manifest pieces/manifest.json --lost 3 \
                  --out pieces/piece_03.rgc pieces/piece_*.rgc
    repro decode  --manifest pieces/manifest.json --out restored.bin \
                  pieces/piece_*.rgc

    repro serve   --root /var/backup/peer0 --port 9470
    repro stats   host1:9470
    repro net put FILE --peers host1:9470,host2:9470 -k 8 -H 8 -d 10 -i 1 \
                  --manifest file.netmanifest.json --stats-json put-stats.json
    repro net repair --manifest file.netmanifest.json --lost 3 \
                  --newcomer host3:9470
    repro net get --manifest file.netmanifest.json --out restored.bin

    repro scenario run --model diurnal --seed 7 --peers 6 --windows 8 \
                  --report scenario.json
    repro scenario replay scenario.json

Pieces use the versioned binary format of
:mod:`repro.core.serialization`; the manifest is a small JSON file with
the code parameters and original file size (plus, for ``net``, the
piece -> peer placement map).

Fatal errors (unreadable input files, truncated or corrupt piece
files, missing manifests, unreachable peers, code or policy parameters
no scheme accepts) print one clear message to stderr and exit 1.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

import repro.codes as codes
from repro.core.params import RCParams
from repro.core.regenerating import DecodingError, RandomLinearRegeneratingCode
from repro.core.serialization import (
    SerializationError,
    piece_from_bytes,
    piece_to_bytes,
)
from repro.gf.field import GF

__all__ = ["main", "build_parser", "CLIError"]

MANIFEST_NAME = "manifest.json"


class CLIError(Exception):
    """A fatal, user-facing CLI failure: message to stderr, exit code 1."""


def _load_manifest(path: pathlib.Path) -> dict:
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise CLIError(f"manifest {path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise CLIError(f"manifest {path} is not valid JSON: {exc}") from None
    for key in ("k", "h", "d", "i", "q", "file_size"):
        if key not in manifest:
            raise CLIError(f"manifest {path} is missing the '{key}' field")
    return manifest


def _code_from_manifest(manifest: dict, seed: int | None) -> RandomLinearRegeneratingCode:
    params = RCParams(k=manifest["k"], h=manifest["h"], d=manifest["d"], i=manifest["i"])
    rng = np.random.default_rng(seed)
    return RandomLinearRegeneratingCode(params, field=GF(manifest["q"]), rng=rng)


def _read_pieces(paths: list[str]):
    pieces = []
    for path in paths:
        try:
            blob = pathlib.Path(path).read_bytes()
        except OSError as exc:
            raise CLIError(f"cannot read piece file {path}: {exc}") from None
        try:
            piece, _ = piece_from_bytes(blob)
        except SerializationError as exc:
            raise CLIError(
                f"{path}: invalid piece file ({exc}); "
                f"drop it and retry with the remaining pieces"
            ) from None
        pieces.append(piece)
    return pieces


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _read_source(source: pathlib.Path) -> bytes:
    try:
        return source.read_bytes()
    except OSError as exc:
        raise CLIError(f"cannot read {source}: {exc}") from None


def cmd_encode(args: argparse.Namespace) -> int:
    source = pathlib.Path(args.file)
    data = _read_source(source)
    params = RCParams(k=args.k, h=args.h, d=args.d, i=args.i)
    code = RandomLinearRegeneratingCode(
        params, field=GF(args.q), rng=np.random.default_rng(args.seed)
    )
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "k": params.k,
        "h": params.h,
        "d": params.d,
        "i": params.i,
        "q": code.field.q,
        "file_size": len(data),
        "source_name": source.name,
    }
    if args.chunk_size:
        from repro.core.chunking import ChunkedCodec

        codec = ChunkedCodec(code, chunk_size=args.chunk_size)
        chunked = codec.insert(data)
        for chunk_index, chunk in enumerate(chunked.chunks):
            chunk_dir = out_dir / f"chunk_{chunk_index:04d}"
            chunk_dir.mkdir(exist_ok=True)
            for piece in chunk.pieces:
                path = chunk_dir / f"piece_{piece.index:03d}.rgc"
                path.write_bytes(piece_to_bytes(piece, code.field))
        manifest["chunks"] = chunked.chunk_count
        manifest["chunk_size"] = args.chunk_size
        description = f"{chunked.chunk_count} chunks x {len(chunked.chunks[0])} pieces"
    else:
        encoded = code.insert(data)
        for piece in encoded.pieces:
            path = out_dir / f"piece_{piece.index:03d}.rgc"
            path.write_bytes(piece_to_bytes(piece, code.field))
        manifest["padded_size"] = encoded.padded_size
        description = f"{len(encoded)} pieces"
    with open(out_dir / MANIFEST_NAME, "w") as handle:
        json.dump(manifest, handle, indent=2)
    print(
        f"encoded {source} ({len(data)} bytes) into {description} "
        f"under {out_dir} ({params})"
    )
    return 0


def _decode_chunked(args: argparse.Namespace, manifest: dict) -> int:
    """Decode a --chunk-size encoding: positional arg is the pieces root."""
    code = _code_from_manifest(manifest, args.seed)
    if len(args.pieces) != 1:
        raise CLIError(
            "chunked decode takes the pieces root directory as its only "
            "positional argument"
        )
    root = pathlib.Path(args.pieces[0])
    parts = []
    for chunk_index in range(manifest["chunks"]):
        chunk_dir = root / f"chunk_{chunk_index:04d}"
        piece_paths = sorted(chunk_dir.glob("piece_*.rgc"))
        if len(piece_paths) < code.params.k:
            print(
                f"chunk {chunk_index}: only {len(piece_paths)} pieces present, "
                f"need {code.params.k}",
                file=sys.stderr,
            )
            return 1
        pieces = _read_pieces([str(path) for path in piece_paths])
        try:
            remaining = manifest["file_size"] - chunk_index * manifest["chunk_size"]
            chunk_bytes = min(manifest["chunk_size"], max(remaining, 0))
            parts.append(code.reconstruct(pieces, chunk_bytes))
        except DecodingError as exc:
            print(f"chunk {chunk_index} decode failed: {exc}", file=sys.stderr)
            return 1
    pathlib.Path(args.out).write_bytes(b"".join(parts))
    print(
        f"decoded {manifest['file_size']} bytes from {manifest['chunks']} chunks "
        f"into {args.out}"
    )
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    manifest = _load_manifest(pathlib.Path(args.manifest))
    if "chunks" in manifest:
        return _decode_chunked(args, manifest)
    code = _code_from_manifest(manifest, args.seed)
    pieces = _read_pieces(args.pieces)
    try:
        data = code.reconstruct(pieces, manifest["file_size"])
    except DecodingError as exc:
        print(f"decode failed: {exc}", file=sys.stderr)
        print("fetch one more piece and retry", file=sys.stderr)
        return 1
    pathlib.Path(args.out).write_bytes(data)
    print(f"decoded {len(data)} bytes from {len(pieces)} pieces into {args.out}")
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    manifest = _load_manifest(pathlib.Path(args.manifest))
    code = _code_from_manifest(manifest, args.seed)
    pieces = [piece for piece in _read_pieces(args.pieces) if piece.index != args.lost]
    if len(pieces) < code.params.d:
        print(
            f"repair needs d={code.params.d} surviving pieces, got {len(pieces)}",
            file=sys.stderr,
        )
        return 1
    result = code.repair(pieces[: code.params.d], index=args.lost)
    pathlib.Path(args.out).write_bytes(piece_to_bytes(result.piece, code.field))
    print(
        f"regenerated piece {args.lost} from d={code.params.d} peers; "
        f"repair moved {result.total_bytes} bytes "
        f"(payload {result.payload_bytes} + coefficients {result.coefficient_bytes})"
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    for path in args.pieces:
        try:
            blob = pathlib.Path(path).read_bytes()
        except OSError as exc:
            raise CLIError(f"cannot read piece file {path}: {exc}") from None
        try:
            piece, field = piece_from_bytes(blob)
        except SerializationError as exc:
            print(f"{path}: invalid ({exc})")
            continue
        print(
            f"{path}: piece {piece.index}, {piece.n_piece} fragments x "
            f"{piece.fragment_length} elements over GF(2^{field.q}), "
            f"{piece.storage_bytes(field)} bytes on disk "
            f"({piece.coefficient_bytes(field)} of coefficients)"
        )
    return 0


#: ``repro simulate --scheme`` names, each with the factory that builds
#: its scheme from the parsed arguments and the run's generator; the
#: parser's choices are this table's keys.
SIMULATE_SCHEMES = {
    "replication": lambda args, rng: codes.ReplicationScheme(args.k + args.h),
    "erasure": lambda args, rng: codes.RandomLinearErasureScheme(args.k, args.h, rng=rng),
    "rc": lambda args, rng: codes.RegeneratingCodeScheme(
        RCParams(args.k, args.h, args.d or args.k, args.i), rng=rng
    ),
    "pm-mbr": lambda args, rng: codes.ProductMatrixMBR(
        n=args.k + args.h, k=args.k, d=args.d or args.k
    ),
    "pm-msr": lambda args, rng: codes.ProductMatrixMSR(n=args.k + args.h, k=args.k),
}


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a churn simulation and print the cost/durability summary."""
    from repro.codes.base import ReconstructError
    from repro.p2p.availability import ExponentialOnOff
    from repro.p2p.churn import ExponentialLifetime
    from repro.p2p.maintenance import EagerMaintenance, LazyMaintenance
    from repro.p2p.placement import PlacementError
    from repro.p2p.system import BackupSystem, SimulationConfig
    from repro.p2p.traces import ChurnTrace, apply_trace, generate_trace

    rng = np.random.default_rng(args.seed)
    try:
        scheme = SIMULATE_SCHEMES[args.scheme](args, rng)
        policy = (
            LazyMaintenance(threshold=args.lazy_threshold)
            if args.lazy_threshold is not None
            else EagerMaintenance()
        )
    except ValueError as exc:
        raise CLIError(f"invalid {args.scheme} simulation: {exc}") from None
    if args.lazy_threshold is not None and args.lazy_threshold < scheme.reconstruction_degree:
        raise CLIError(
            f"--lazy-threshold {args.lazy_threshold} is below the {scheme.name} "
            f"reconstruction degree {scheme.reconstruction_degree}: "
            f"the policy would lose files by design"
        )

    if args.trace:
        trace = ChurnTrace.load(args.trace)
        config = SimulationConfig(initial_peers=0, seed=args.seed)
        system = BackupSystem(scheme, config, policy=policy)
        apply_trace(system, trace)
        system.queue.run_until(0.0)
        horizon = min(args.horizon, trace.horizon)
    else:
        availability = (
            ExponentialOnOff(args.mean_online, args.mean_offline)
            if args.mean_offline
            else None
        )
        config_kwargs = dict(
            initial_peers=args.peers,
            lifetime_model=ExponentialLifetime(args.mean_lifetime),
            peer_arrival_rate=args.arrival_rate,
            seed=args.seed,
        )
        if availability is not None:
            config_kwargs["availability_model"] = availability
        system = BackupSystem(scheme, SimulationConfig(**config_kwargs), policy=policy)
        horizon = args.horizon
        if args.save_trace:
            generate_trace(
                peers=args.peers,
                horizon=args.horizon,
                lifetime_model=ExponentialLifetime(args.mean_lifetime),
                arrival_rate=args.arrival_rate,
                seed=args.seed,
            ).save(args.save_trace)

    data = rng.integers(0, 256, size=args.file_size, dtype=np.uint8).tobytes()
    try:
        file_ids = [system.insert_file(data) for _ in range(args.files)]
    except PlacementError as exc:
        raise CLIError(f"cannot insert: {exc}") from None
    system.run(horizon)
    restored = 0
    for file_id in file_ids:
        try:
            if not system.files[file_id].lost and system.restore_file(file_id) == data:
                restored += 1
        except (ReconstructError, DecodingError):
            # Churn destroyed too many blocks: counted as not restored in
            # the summary.  Anything else (including KeyboardInterrupt on
            # a long run) propagates instead of being silently eaten.
            continue

    print(f"scheme: {scheme.name}, policy: {policy!r}, horizon: {horizon}")
    for key, value in system.metrics.summary().items():
        print(f"  {key:22s} {value:,.10g}")
    print(f"  {'files_restored_ok':22s} {restored}/{args.files}")
    return 0 if restored == args.files else 2


def cmd_export(args: argparse.Namespace) -> int:
    """Export the analytic paper artifacts (figures 1, 3, 4, 5) as CSV."""
    from repro.analysis.reporting import export_all

    written = export_all(
        args.out_dir, k=args.k, h=args.h, file_size=args.file_size
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _parse_peer(text: str):
    from repro.net.coordinator import PeerAddress

    try:
        return PeerAddress.parse(text)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def cmd_serve(args: argparse.Namespace) -> int:
    """Run one peer daemon serving a blockstore until interrupted."""
    import asyncio

    from repro.net.blockstore import BlockStore
    from repro.net.server import PeerDaemon

    daemon = PeerDaemon(
        BlockStore(args.root, fsync=not args.no_fsync),
        host=args.host,
        port=args.port,
        rng=np.random.default_rng(args.seed),
        idle_timeout=args.idle_timeout if args.idle_timeout > 0 else None,
    )

    async def run() -> None:
        await daemon.start()
        print(
            f"peer daemon serving {args.root} on {daemon.host}:{daemon.port}",
            flush=True,
        )
        await daemon.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("daemon stopped", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Fetch one daemon's metrics snapshot over GET_STATS and print it."""
    import asyncio

    from repro.net.client import PeerClient
    from repro.net.errors import NetError

    peer = _parse_peer(args.peer)

    async def fetch() -> dict:
        client = PeerClient(
            peer.host, peer.port, connect_timeout=args.connect_timeout
        )
        try:
            return await client.get_stats()
        finally:
            await client.aclose()

    try:
        snapshot = asyncio.run(fetch())
    except NetError as exc:
        raise CLIError(f"cannot fetch stats from {peer}: {exc}") from None
    print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _run_net_op(coordinator, coro):
    """Run one coordinator operation, closing pooled connections after."""
    import asyncio

    async def go():
        async with coordinator:
            return await coro

    return asyncio.run(go())


def cmd_net_put(args: argparse.Namespace) -> int:
    """Encode a file and scatter its pieces over live peer daemons."""
    from repro.net.coordinator import Coordinator
    from repro.net.errors import NetError

    source = pathlib.Path(args.file)
    data = _read_source(source)
    peers = [_parse_peer(text) for text in args.peers.split(",") if text]
    if not peers:
        raise CLIError("--peers needs at least one host:port")
    params = RCParams(k=args.k, h=args.h, d=args.d, i=args.i)
    coordinator = Coordinator(
        params,
        field=GF(args.q),
        rng=np.random.default_rng(args.seed),
    )
    file_id = args.file_id or source.name
    try:
        stats = _run_net_op(coordinator, coordinator.insert(data, peers, file_id))
    except NetError as exc:
        raise CLIError(f"insertion failed: {exc}") from None
    stats.manifest.save(args.manifest)
    if args.stats_json:
        # The registry outlives the pools _run_net_op closed, so the
        # snapshot still carries the insert's spans and RPC histograms.
        pathlib.Path(args.stats_json).write_text(
            json.dumps(coordinator.metrics_snapshot(), indent=2, sort_keys=True)
        )
        print(f"metrics snapshot -> {args.stats_json}")
    print(
        f"inserted {source} ({len(data)} bytes) as '{file_id}': "
        f"{len(stats.manifest.pieces)} pieces on {stats.peers_used} peers, "
        f"{stats.bytes_uploaded} bytes uploaded "
        f"({stats.peers_skipped} dead peers skipped); manifest -> {args.manifest}"
    )
    return 0


def cmd_net_repair(args: argparse.Namespace) -> int:
    """Regenerate a lost piece onto a newcomer peer over the wire."""
    from repro.net.coordinator import Coordinator
    from repro.net.errors import NetError

    manifest = _load_net_manifest(args.manifest)
    if args.lost not in manifest.pieces:
        raise CLIError(
            f"manifest has no piece {args.lost} "
            f"(valid: {sorted(manifest.pieces)})"
        )
    newcomer = _parse_peer(args.newcomer)
    coordinator = Coordinator.from_manifest(
        manifest, rng=np.random.default_rng(args.seed)
    )
    try:
        stats = _run_net_op(
            coordinator, coordinator.repair(manifest, args.lost, newcomer)
        )
    except NetError as exc:
        raise CLIError(f"repair failed: {exc}") from None
    manifest.save(args.manifest)
    substituted = (
        f" ({len(stats.helpers_failed)} dead helpers substituted)"
        if stats.helpers_failed
        else ""
    )
    print(
        f"regenerated piece {args.lost} onto {newcomer} from "
        f"d={len(stats.helpers)} helpers{substituted}; repair moved "
        f"{stats.total_bytes} bytes (payload {stats.payload_bytes} + "
        f"coefficients {stats.coefficient_bytes})"
    )
    return 0


def cmd_net_get(args: argparse.Namespace) -> int:
    """Reconstruct a file from the swarm (coefficient-first download)."""
    from repro.net.coordinator import Coordinator
    from repro.net.errors import NetError

    manifest = _load_net_manifest(args.manifest)
    coordinator = Coordinator.from_manifest(
        manifest, rng=np.random.default_rng(args.seed)
    )
    try:
        data, stats = _run_net_op(coordinator, coordinator.reconstruct(manifest))
    except NetError as exc:
        raise CLIError(f"reconstruction failed: {exc}") from None
    pathlib.Path(args.out).write_bytes(data)
    print(
        f"reconstructed {len(data)} bytes into {args.out}: downloaded "
        f"{stats.fragments_downloaded} fragments ({stats.payload_bytes} payload "
        f"bytes + {stats.coefficient_bytes} coefficient bytes) from "
        f"{stats.pieces_used} of {stats.pieces_probed} probed pieces"
    )
    return 0


def _load_net_manifest(path: str):
    from repro.net.coordinator import NetManifest
    from repro.net.errors import NetError

    try:
        return NetManifest.load(path)
    except FileNotFoundError:
        raise CLIError(f"net manifest {path} does not exist") from None
    except (json.JSONDecodeError, KeyError, NetError) as exc:
        raise CLIError(f"net manifest {path} is invalid: {exc}") from None


def cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.costs import coefficient_overhead

    candidates = list(RCParams.grid(args.k, args.h))
    minimum_storage = min(candidates, key=lambda p: (p.piece_fraction, p.repair_fraction))
    minimum_repair = min(
        candidates, key=lambda p: (p.repair_download_size(1), p.piece_fraction)
    )
    floor = minimum_storage.piece_fraction
    balanced = min(
        (p for p in candidates if p.piece_fraction <= floor * 101 / 100),
        key=lambda p: p.repair_download_size(1),
    )
    print(f"for k={args.k}, h={args.h}, file size {args.file_size} bytes:")
    for label, params in [
        ("min storage ", minimum_storage),
        ("min repair  ", minimum_repair),
        ("balanced    ", balanced),
    ]:
        storage = float(params.storage_size(args.file_size))
        repair = float(params.repair_download_size(args.file_size))
        overhead = float(coefficient_overhead(params, args.file_size))
        print(
            f"  {label} {params}: storage {storage:.0f} B, "
            f"repair {repair:.0f} B, coefficients {overhead:.4f} bits/bit"
        )
    return 0


def _scenario_runner_from_meta(meta: dict, root):
    """Rebuild the exact (schedule, runner) pair a report's meta describes."""
    from repro.scenario import ScenarioRunner, compile_model

    schedule = compile_model(
        meta["model"],
        peers=meta["peers"],
        windows=meta["windows"],
        seed=meta["schedule_seed"],
        max_down=meta["max_down"],
        **meta.get("model_params", {}),
    )
    knobs = meta["runner"]
    params = RCParams(k=knobs["k"], h=knobs["h"], d=knobs["d"], i=knobs["i"])
    return ScenarioRunner(
        schedule,
        params,
        root,
        seed=knobs["seed"],
        meta=meta,
        ops_per_window=knobs["ops_per_window"],
        initial_files=knobs["initial_files"],
        file_size=knobs["file_size"],
        max_repair_lag=knobs["max_repair_lag"],
        drain_windows=knobs["drain_windows"],
    )


def _scenario_execute(meta: dict, report_path) -> "object":
    """Run one scenario in a temporary cluster root; save and return the report."""
    import asyncio
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-scenario-") as tmp:
        runner = _scenario_runner_from_meta(meta, pathlib.Path(tmp))
        report = asyncio.run(runner.run_scenario())
    if report_path is not None:
        report.save(report_path)
    return report


def _scenario_print_summary(report) -> None:
    attempted = sum(
        count for name, count in report.ops.items() if name.endswith("attempted")
    )
    failed = sum(count for name, count in report.ops.items() if name.endswith("failed"))
    print(
        f"scenario '{report.meta['model']}' seed {report.meta['runner']['seed']}: "
        f"{report.schedule_events} events over {report.initial_peers} peers, "
        f"{attempted} ops ({failed} failed), {report.files_inserted} files, "
        f"max repair lag {report.max_repair_lag}"
    )
    for name, held in sorted(report.invariants.items()):
        print(f"  invariant {name}: {'ok' if held else 'VIOLATED'}")
    for violation in report.violations:
        print(f"  violation: {violation}")


def cmd_scenario_run(args: argparse.Namespace) -> int:
    """Compile a churn model and execute it against a live local cluster."""
    from repro.net.errors import NetError
    from repro.scenario import MODELS

    if args.model not in MODELS:
        raise CLIError(
            f"unknown churn model {args.model!r} (known: {', '.join(sorted(MODELS))})"
        )
    params = RCParams(k=args.k, h=args.h, d=args.d, i=args.i)
    max_down = args.max_down if args.max_down is not None else args.h
    meta = {
        "model": args.model,
        "peers": args.peers,
        "windows": args.windows,
        "schedule_seed": args.seed,
        "max_down": max_down,
        "model_params": {},
        "runner": {
            "seed": args.seed,
            "k": params.k,
            "h": params.h,
            "d": params.d,
            "i": params.i,
            "ops_per_window": args.ops_per_window,
            "initial_files": args.initial_files,
            "file_size": args.file_size,
            "max_repair_lag": args.max_repair_lag,
            "drain_windows": args.drain_windows,
        },
    }
    try:
        report = _scenario_execute(meta, args.report)
    except (NetError, OSError) as exc:
        raise CLIError(f"scenario run failed: {exc}") from None
    _scenario_print_summary(report)
    if args.report:
        print(f"report -> {args.report}")
    return 0 if report.ok else 1


def cmd_scenario_replay(args: argparse.Namespace) -> int:
    """Re-run a saved report's scenario and check it reproduces exactly."""
    from repro.net.errors import NetError
    from repro.scenario import ScenarioReport

    try:
        payload = ScenarioReport.load_jsonable(args.report_file)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise CLIError(f"cannot load scenario report: {exc}") from None
    meta = payload["meta"]
    if not meta.get("model"):
        raise CLIError(
            f"report {args.report_file} carries no replay metadata "
            "(was it produced by 'repro scenario run'?)"
        )
    try:
        report = _scenario_execute(meta, args.report)
    except (NetError, OSError) as exc:
        raise CLIError(f"scenario replay failed: {exc}") from None
    _scenario_print_summary(report)
    recorded_history = [tuple(entry) for entry in payload["event_history"]]
    matches = (
        report.event_history == recorded_history
        and report.invariants == payload["invariants"]
    )
    print(
        "replay reproduces the recorded run"
        if matches
        else "REPLAY DIVERGED from the recorded run"
    )
    if args.report:
        print(f"report -> {args.report}")
    return 0 if matches and report.ok else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerating-code backup tool (Duminuco & Biersack, ICDCS 2009)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    encode = subparsers.add_parser("encode", help="split a file into coded pieces")
    encode.add_argument("file")
    encode.add_argument("-k", type=int, default=8, help="pieces needed to decode")
    encode.add_argument("-H", "--redundancy", dest="h", type=int, default=8,
                        help="extra pieces (losses tolerated)")
    encode.add_argument("-d", type=int, default=None, help="repair degree (default k)")
    encode.add_argument("-i", type=int, default=0, help="piece expansion index")
    encode.add_argument("-q", type=int, default=16, choices=(8, 16), help="field exponent")
    encode.add_argument("--out-dir", default="pieces")
    encode.add_argument("--chunk-size", type=int, default=None,
                        help="split the file into independently coded chunks "
                             "of this many bytes (see also 'advise')")
    encode.add_argument("--seed", type=int, default=None)
    encode.set_defaults(handler=cmd_encode)

    decode = subparsers.add_parser("decode", help="reconstruct a file from pieces")
    decode.add_argument("pieces", nargs="+")
    decode.add_argument("--manifest", required=True)
    decode.add_argument("--out", required=True)
    decode.add_argument("--seed", type=int, default=None)
    decode.set_defaults(handler=cmd_decode)

    repair = subparsers.add_parser("repair", help="regenerate a lost piece")
    repair.add_argument("pieces", nargs="+", help="surviving piece files")
    repair.add_argument("--manifest", required=True)
    repair.add_argument("--lost", type=int, required=True, help="index to regenerate")
    repair.add_argument("--out", required=True)
    repair.add_argument("--seed", type=int, default=None)
    repair.set_defaults(handler=cmd_repair)

    info = subparsers.add_parser("info", help="describe piece files")
    info.add_argument("pieces", nargs="+")
    info.set_defaults(handler=cmd_info)

    simulate = subparsers.add_parser(
        "simulate", help="run a P2P churn simulation and report costs"
    )
    simulate.add_argument(
        "--scheme",
        default="rc",
        choices=list(SIMULATE_SCHEMES),
    )
    simulate.add_argument("-k", type=int, default=8)
    simulate.add_argument("-H", "--redundancy", dest="h", type=int, default=8)
    simulate.add_argument("-d", type=int, default=None)
    simulate.add_argument("-i", type=int, default=0)
    simulate.add_argument("--peers", type=int, default=48)
    simulate.add_argument("--mean-lifetime", type=float, default=300.0)
    simulate.add_argument("--arrival-rate", type=float, default=0.15)
    simulate.add_argument("--mean-online", type=float, default=50.0)
    simulate.add_argument("--mean-offline", type=float, default=0.0,
                          help="enable transient churn with this mean outage")
    simulate.add_argument("--files", type=int, default=3)
    simulate.add_argument("--file-size", type=int, default=16 << 10)
    simulate.add_argument("--horizon", type=float, default=500.0)
    simulate.add_argument("--lazy-threshold", type=int, default=None,
                          help="use lazy maintenance with this threshold")
    simulate.add_argument("--trace", default=None, help="replay a churn trace file")
    simulate.add_argument("--save-trace", default=None,
                          help="also save the equivalent generated trace")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(handler=cmd_simulate)

    advise = subparsers.add_parser("advise", help="recommend (d, i) parameters")
    advise.add_argument("-k", type=int, default=32)
    advise.add_argument("-H", "--redundancy", dest="h", type=int, default=32)
    advise.add_argument("--file-size", type=int, default=1 << 20)
    advise.set_defaults(handler=cmd_advise)

    export = subparsers.add_parser(
        "export", help="export the paper's analytic figures/tables as CSV"
    )
    export.add_argument("--out-dir", default="artifacts")
    export.add_argument("-k", type=int, default=32)
    export.add_argument("-H", "--redundancy", dest="h", type=int, default=32)
    export.add_argument("--file-size", type=int, default=1 << 20)
    export.set_defaults(handler=cmd_export)

    serve = subparsers.add_parser(
        "serve", help="run a peer daemon serving an on-disk blockstore"
    )
    serve.add_argument("--root", required=True, help="blockstore directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks an ephemeral one)")
    serve.add_argument("--seed", type=int, default=None,
                       help="seed for helper-side repair randomness")
    serve.add_argument("--idle-timeout", type=float, default=60.0,
                       help="seconds an idle persistent connection is kept "
                            "before the daemon closes it (0 = forever)")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip blockstore durability fsyncs (throwaway "
                            "data only; see docs/NET.md)")
    serve.set_defaults(handler=cmd_serve)

    stats = subparsers.add_parser(
        "stats", help="print a peer daemon's metrics snapshot (JSON)"
    )
    stats.add_argument("peer", help="host:port of the daemon to query")
    stats.add_argument("--connect-timeout", type=float, default=5.0)
    stats.set_defaults(handler=cmd_stats)

    net = subparsers.add_parser(
        "net", help="run the life cycle against live peer daemons"
    )
    net_sub = net.add_subparsers(dest="net_command", required=True)

    net_put = net_sub.add_parser("put", help="encode and scatter a file")
    net_put.add_argument("file")
    net_put.add_argument("--peers", required=True,
                         help="comma-separated host:port daemon addresses")
    net_put.add_argument("-k", type=int, default=8)
    net_put.add_argument("-H", "--redundancy", dest="h", type=int, default=8)
    net_put.add_argument("-d", type=int, default=None)
    net_put.add_argument("-i", type=int, default=0)
    net_put.add_argument("-q", type=int, default=16, choices=(8, 16))
    net_put.add_argument("--manifest", required=True,
                         help="where to write the placement manifest")
    net_put.add_argument("--file-id", default=None,
                         help="swarm-wide name (default: the file name)")
    net_put.add_argument("--seed", type=int, default=None)
    net_put.add_argument("--stats-json", default=None,
                         help="write the coordinator's metrics snapshot "
                              "(repro-obs-snapshot-v1 JSON) here after the "
                              "insert")
    net_put.set_defaults(handler=cmd_net_put)

    net_repair = net_sub.add_parser("repair", help="regenerate a lost piece")
    net_repair.add_argument("--manifest", required=True)
    net_repair.add_argument("--lost", type=int, required=True)
    net_repair.add_argument("--newcomer", required=True,
                            help="host:port of the peer receiving the new piece")
    net_repair.add_argument("--seed", type=int, default=None)
    net_repair.set_defaults(handler=cmd_net_repair)

    net_get = net_sub.add_parser("get", help="reconstruct a file from the swarm")
    net_get.add_argument("--manifest", required=True)
    net_get.add_argument("--out", required=True)
    net_get.add_argument("--seed", type=int, default=None)
    net_get.set_defaults(handler=cmd_net_get)

    scenario = subparsers.add_parser(
        "scenario",
        help="replay simulated churn against a live local cluster",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_run = scenario_sub.add_parser(
        "run", help="compile a churn model and execute it against live daemons"
    )
    scenario_run.add_argument(
        "--model", required=True,
        help="churn family: diurnal, exponential, correlated, flashcrowd, straggler",
    )
    scenario_run.add_argument("--seed", type=int, default=0,
                              help="master seed: schedule, faults, and ops")
    scenario_run.add_argument("--peers", type=int, default=6,
                              help="initial cluster size")
    scenario_run.add_argument("--windows", type=int, default=8,
                              help="scenario horizon in maintenance windows")
    scenario_run.add_argument("-k", type=int, default=3)
    scenario_run.add_argument("-H", dest="h", type=int, default=3)
    scenario_run.add_argument("-d", type=int, default=4)
    scenario_run.add_argument("-i", type=int, default=1)
    scenario_run.add_argument("--max-down", type=int, default=None,
                              help="survivability clamp (default: h = n - k)")
    scenario_run.add_argument("--ops-per-window", type=int, default=3,
                              help="reconstruction probes per window")
    scenario_run.add_argument("--initial-files", type=int, default=2)
    scenario_run.add_argument("--file-size", type=int, default=1024)
    scenario_run.add_argument("--max-repair-lag", type=int, default=3,
                              help="repair-bounded invariant threshold")
    scenario_run.add_argument("--drain-windows", type=int, default=3,
                              help="event-free windows before the final sweep")
    scenario_run.add_argument("--report", default=None,
                              help="write the JSON scenario report here")
    scenario_run.set_defaults(handler=cmd_scenario_run)

    scenario_replay = scenario_sub.add_parser(
        "replay",
        help="re-run a saved report's scenario and verify it reproduces",
    )
    scenario_replay.add_argument("report_file", help="report from 'scenario run'")
    scenario_replay.add_argument("--report", default=None,
                                 help="write the replay's own report here")
    scenario_replay.set_defaults(handler=cmd_scenario_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "encode" and args.d is None:
        args.d = args.k
    if getattr(args, "command", None) == "net" and getattr(args, "d", 1) is None:
        args.d = args.k
    try:
        return args.handler(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
