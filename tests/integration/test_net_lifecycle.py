"""End-to-end life cycle over real TCP: insert -> peer loss -> repair ->
reconstruct, on a localhost cluster of PeerDaemons.

This is the networked twin of test_lifecycle.py: the same insertion /
maintenance / reconstruction story from the paper, but every byte moves
through the repro.net wire protocol instead of in-process calls.
"""

import asyncio
import collections

import numpy as np
import pytest

from repro.core.params import RCParams
from repro.core.serialization import HEADER_SIZE
from repro.net import (
    Coordinator,
    FaultPlan,
    FaultRule,
    LocalCluster,
    NetRepairError,
    RetryPolicy,
)
from repro.net.blockstore import BlockStore

pytestmark = pytest.mark.net

PARAMS = RCParams(8, 8, 10, 1)  # 16 pieces, d = 10 helpers per repair


def payload(size, seed=0):
    return bytes(np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8))


def make_coordinator(seed=7):
    return Coordinator(
        PARAMS,
        rng=np.random.default_rng(seed),
        retry=RetryPolicy(retries=1, backoff=0.01),
    )


class TestFullLifecycle:
    def test_insert_loss_repair_reconstruct(self, tmp_path):
        """The acceptance scenario: a cluster of 8 daemons carries a file
        through the full life cycle and returns it byte-identical."""
        data = payload(30_000, seed=42)

        async def scenario():
            async with (
                LocalCluster(8, tmp_path, seed=3) as cluster,
                make_coordinator() as coordinator,
            ):

                # Insert: 16 pieces scattered round-robin over 8 peers.
                stats = await coordinator.insert(
                    data, cluster.addresses, file_id="backup-1"
                )
                manifest = stats.manifest
                assert stats.peers_used == 8
                assert stats.peers_skipped == 0
                assert sorted(manifest.pieces) == list(range(16))

                # Peer loss: kill daemon 0 and regenerate one piece it
                # held onto a freshly spawned newcomer.
                lost_address = await cluster.kill(0)
                lost_index = min(
                    index
                    for index, location in manifest.pieces.items()
                    if location == lost_address
                )
                newcomer = await cluster.spawn()
                repair = await coordinator.repair(manifest, lost_index, newcomer)
                assert manifest.pieces[lost_index] == newcomer
                assert len(repair.helpers) == PARAMS.d
                # Helpers are piece holders; the lost piece cannot help.
                assert lost_index not in repair.helpers
                assert repair.payload_bytes > 0

                # Reconstruct while peer 0 is still down, going through
                # the regenerated piece's host as needed.
                restored, stats = await coordinator.reconstruct(manifest)
                return restored, stats

        restored, stats = asyncio.run(scenario())
        assert restored == data
        # Coefficient-first optimization (section 4.3): exactly n_file
        # data fragments cross the wire, never whole pieces.
        assert stats.fragments_downloaded == PARAMS.n_file

    def test_repaired_file_survives_k_piece_decode(self, tmp_path):
        """After repair, the regenerated piece is a full citizen: decode
        from a subset that includes it."""
        data = payload(9_000, seed=5)

        async def scenario():
            async with (
                LocalCluster(8, tmp_path, seed=11) as cluster,
                make_coordinator(seed=13) as coordinator,
            ):
                stats = await coordinator.insert(
                    data, cluster.addresses, file_id="f"
                )
                manifest = stats.manifest

                lost_address = await cluster.kill(2)
                lost = [
                    index
                    for index, location in manifest.pieces.items()
                    if location == lost_address
                ]
                newcomer = await cluster.spawn()
                for index in lost:
                    await coordinator.repair(manifest, index, newcomer)
                restored, _ = await coordinator.reconstruct(manifest)
                return restored

        assert asyncio.run(scenario()) == data


class TestRepairUnderFailure:
    def test_dead_helper_is_substituted(self, tmp_path):
        """Kill a daemon that holds a piece among the first d candidates:
        repair must swap in a substitute helper and still succeed."""
        data = payload(12_000, seed=8)

        async def scenario():
            async with (
                LocalCluster(9, tmp_path, seed=21) as cluster,
                make_coordinator(seed=23) as coordinator,
            ):
                stats = await coordinator.insert(
                    data, cluster.addresses, file_id="f"
                )
                manifest = stats.manifest

                # Piece 15's repair selects helper pieces 0..9 (sorted,
                # excluding the lost index).  Kill the daemon holding
                # piece 1 so a first-round helper fails mid-repair.
                lost_index = 15
                saboteur = manifest.pieces[1]
                dead_pieces = {
                    index
                    for index, location in manifest.pieces.items()
                    if location == saboteur
                }
                await cluster.kill(cluster.addresses.index(saboteur))

                newcomer = await cluster.spawn()
                repair = await coordinator.repair(manifest, lost_index, newcomer)

                # The dead helper was noticed and replaced.
                assert 1 in repair.helpers_failed
                assert len(repair.helpers) == PARAMS.d
                assert not dead_pieces & set(repair.helpers)

                # The file still reconstructs, avoiding the dead peer.
                for index in dead_pieces:
                    del manifest.pieces[index]
                restored, _ = await coordinator.reconstruct(manifest)
                return restored

        assert asyncio.run(scenario()) == data

    def test_repair_fails_below_d_helpers(self, tmp_path):
        """With fewer than d candidate pieces left, repair raises the
        typed error instead of limping along -- the durability boundary."""

        async def scenario():
            async with (
                LocalCluster(4, tmp_path, seed=31) as cluster,
                make_coordinator(seed=33) as coordinator,
            ):
                stats = await coordinator.insert(
                    payload(4_000, seed=1), cluster.addresses, file_id="f"
                )
                manifest = stats.manifest
                # Forget all but d - 1 = 9 pieces (plus the lost one).
                for index in range(PARAMS.d - 1, 15):
                    del manifest.pieces[index]
                newcomer = await cluster.spawn()
                with pytest.raises(NetRepairError, match="needs d=10"):
                    await coordinator.repair(manifest, 15, newcomer)

        asyncio.run(scenario())

    def test_reconstruct_skips_dead_pieces(self, tmp_path):
        """Reconstruction tops up its coefficient set when some of the
        first k piece holders are gone."""
        data = payload(6_000, seed=17)

        async def scenario():
            async with (
                LocalCluster(8, tmp_path, seed=41) as cluster,
                make_coordinator(seed=43) as coordinator,
            ):
                stats = await coordinator.insert(
                    data, cluster.addresses, file_id="f"
                )
                manifest = stats.manifest
                # Kill the daemons holding pieces 0 and 1 -- both are in
                # the first k candidates that reconstruction probes.
                numbers = {
                    cluster.address_of(n): n for n in range(len(cluster))
                }
                doomed = {manifest.pieces[0], manifest.pieces[1]}
                for address in doomed:
                    await cluster.kill(numbers[address])
                restored, stats = await coordinator.reconstruct(manifest)
                return restored, stats

        restored, stats = asyncio.run(scenario())
        assert restored == data
        assert stats.fragments_downloaded == PARAMS.n_file

    def test_piece_holder_dying_between_phases_triggers_replan(self, tmp_path):
        """The mid-flight re-plan path, deterministically: the probe round
        reads the split piece's coefficients fine (piece 7: the plan uses
        pieces 0..6 whole and 3 of piece 7's 4 rows), then its daemon
        crashes on the one GET_ROWS.  Reconstruction must drop that piece,
        probe a substitute (counted in ``pieces_probed``), and still
        restore the file byte-identical."""
        data = payload(10_000, seed=29)
        # A seeded server-side crash, aimed at exactly one request: the
        # first GET_ROWS for piece 7.  Its GET_PIECE is untouched, so the
        # piece enters the plan before its holder dies.
        plan = FaultPlan(
            seed=71,
            rules=[
                FaultRule(
                    kind="crash", side="server", operation="get_rows",
                    key="f/7", times=1,
                )
            ],
        )
        restored, rstats = asyncio.run(
            reconstruct_under(plan, data, tmp_path, cluster_seed=59, seed=61)
        )
        assert restored == data
        # One extra coefficient probe beyond the k the happy path needs.
        assert rstats.pieces_probed == PARAMS.k + 1
        assert rstats.fragments_downloaded == PARAMS.n_file
        # The crash actually fired (it is what forced the re-plan).
        assert [event.kind.value for event in plan.injected] == ["crash"]

    def test_whole_piece_holder_crash_is_substituted(self, tmp_path):
        """The mirror case: piece 2's daemon crashes on the probe round's
        whole-piece GET_PIECE.  The next candidate is downloaded whole in
        its place, and no data row is fetched twice."""
        data = payload(10_000, seed=31)
        plan = FaultPlan(
            seed=73,
            rules=[
                FaultRule(
                    kind="crash", side="server", operation="get_piece",
                    key="f/2", times=1,
                )
            ],
        )
        restored, rstats = asyncio.run(
            reconstruct_under(plan, data, tmp_path, cluster_seed=63, seed=65)
        )
        assert restored == data
        assert rstats.pieces_probed == PARAMS.k + 1
        assert rstats.fragments_downloaded == PARAMS.n_file
        assert [event.kind.value for event in plan.injected] == ["crash"]

    def test_rank_deficient_probe_tops_up(self, tmp_path):
        """Piece 3 overwritten with a byte copy of piece 1: the first k
        pieces span one piece too little, so the plan raises and the
        coordinator probes one more piece's coefficients.  Piece 3 was
        downloaded whole and none of its rows is used; the counts say so."""
        data = payload(10_000, seed=37)

        async def scenario():
            async with (
                LocalCluster(8, tmp_path, seed=67) as cluster,
                make_coordinator(seed=69) as coordinator,
            ):
                manifest = (
                    await coordinator.insert(data, cluster.addresses, file_id="f")
                ).manifest
                copy = await coordinator.client(manifest.pieces[1]).get_piece("f/1")
                await coordinator.client(manifest.pieces[3]).store_piece("f/3", copy)
                return await coordinator.reconstruct(manifest)

        restored, rstats = asyncio.run(scenario())
        assert restored == data
        assert rstats.pieces_probed == PARAMS.k + 1
        # Pieces 0..6 whole, then all of piece 7 and 3 rows of piece 8.
        unused = PARAMS.n_piece
        assert rstats.fragments_downloaded == PARAMS.n_file + unused
        row_bytes = PARAMS.aligned_file_size(len(data)) // PARAMS.n_file
        assert rstats.payload_bytes == (PARAMS.n_file + unused) * row_bytes
        assert rstats.pieces_used == PARAMS.k


async def reconstruct_under(plan, data, root, cluster_seed, seed):
    """Insert ``data`` on 8 daemons sharing ``plan``, then reconstruct it."""
    async with (
        LocalCluster(8, root, seed=cluster_seed, fault_plan=plan) as cluster,
        make_coordinator(seed=seed) as coordinator,
    ):
        stats = await coordinator.insert(data, cluster.addresses, file_id="f")
        return await coordinator.reconstruct(stats.manifest)


class TestReconstructRounds:
    """One probe round plus at most one GET_ROWS, counted on the daemons."""

    @pytest.mark.parametrize(
        "params, get_rows",
        [(PARAMS, 1), (RCParams(4, 4, 4, 0), 0)],
        ids=["rc8-8-10-1", "rc4-4-4-0"],
    )
    def test_requests_and_blob_reads_per_reconstruct(
        self, tmp_path, monkeypatch, params, get_rows
    ):
        monkeypatch.setenv("REPRO_OBS", "on")
        reads = []
        original_get = BlockStore.get

        def counting_get(store, key):
            reads.append(key)
            return original_get(store, key)

        monkeypatch.setattr(BlockStore, "get", counting_get)
        data = payload(20_000, seed=41)

        def requests(cluster):
            totals = collections.Counter()
            for daemon in cluster.daemons:
                for entry in daemon.obs.snapshot()["counters"]:
                    if entry["name"] == "daemon.requests_total":
                        totals[entry["labels"]["op"]] += entry["value"]
            return totals

        async def scenario():
            async with (
                LocalCluster(8, tmp_path, seed=71) as cluster,
                Coordinator(params, rng=np.random.default_rng(73)) as coordinator,
            ):
                manifest = (
                    await coordinator.insert(data, cluster.addresses, file_id="f")
                ).manifest
                before, reads[:] = requests(cluster), []
                restored, stats = await coordinator.reconstruct(manifest)
                return restored, stats, requests(cluster) - before

        restored, stats, delta = asyncio.run(scenario())
        assert restored == data
        k = params.k
        # k - 1 pieces whole plus one coefficients-only (all k whole when
        # n_file = k * n_piece), then the split piece's rows.
        assert delta == collections.Counter(get_piece=k, get_rows=get_rows)
        assert len(reads) == k + get_rows
        # The same bytes as the paper's coefficient-first download.
        assert stats.fragments_downloaded == params.n_file
        assert stats.payload_bytes == params.aligned_file_size(len(data))
        assert stats.coefficient_bytes == k * (
            HEADER_SIZE + params.n_piece * params.n_file * 2
        )
        assert stats.pieces_probed == stats.pieces_used == k
