"""Regression tests for coordinator-layer bugfixes.

- ``PeerAddress`` IPv6 literals: parse/str/JSON round-trips.
- ``Coordinator.repair`` wraps *every* peer failure from the newcomer's
  ``store_piece`` in :class:`NetRepairError` (it used to let
  ``RemoteError``/``ProtocolError`` escape untyped).
- One cached ``PeerClient`` per ``PeerAddress``.
"""

import asyncio

import numpy as np
import pytest

from repro.core.params import RCParams
from repro.net import (
    Coordinator,
    LocalCluster,
    NetManifest,
    NetRepairError,
    PeerAddress,
    RetryPolicy,
)
from repro.net.protocol import Error, ErrorCode, encode_message, read_message

PARAMS = RCParams(4, 4, 5, 1)


class TestPeerAddressIPv6:
    def test_parse_strips_brackets(self):
        address = PeerAddress.parse("[::1]:9000")
        assert address.host == "::1"  # dialable, no brackets
        assert address.port == 9000

    def test_str_rebrackets_ipv6(self):
        assert str(PeerAddress(host="::1", port=9000)) == "[::1]:9000"
        assert str(PeerAddress(host="2001:db8::7", port=80)) == "[2001:db8::7]:80"

    @pytest.mark.parametrize(
        "text",
        ["127.0.0.1:9470", "[::1]:9000", "[2001:db8::7]:8080", "peer.example:4242"],
    )
    def test_parse_str_round_trip(self, text):
        address = PeerAddress.parse(text)
        assert str(address) == text
        assert PeerAddress.parse(str(address)) == address

    @pytest.mark.parametrize(
        "host", ["127.0.0.1", "::1", "2001:db8::7", "peer.example"]
    )
    def test_manifest_json_round_trip(self, host):
        manifest = NetManifest(
            file_id="f", k=4, h=4, d=5, i=1, q=16, file_size=100,
            pieces={0: PeerAddress(host=host, port=9470)},
        )
        again = NetManifest.from_json(manifest.to_json())
        assert again.pieces[0] == manifest.pieces[0]
        assert again.pieces[0].host == host

    @pytest.mark.parametrize(
        "text", ["nohost", ":90", "[::1]", "[]:90", "::1:9000", "host:"]
    )
    def test_invalid_addresses_rejected(self, text):
        with pytest.raises(ValueError):
            PeerAddress.parse(text)


class _BadNewcomer:
    """A stub peer that accepts connections but never stores anything.

    mode='error': answers every request with a typed ERROR.
    mode='garbage': answers with bytes that fail frame parsing.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        port = self._server.sockets[0].getsockname()[1]
        self.address = PeerAddress(host="127.0.0.1", port=port)
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        try:
            while True:
                try:
                    await read_message(reader)
                except asyncio.IncompleteReadError:
                    break
                if self.mode == "garbage":
                    writer.write(b"this is not an RGNP frame, not even close")
                else:
                    writer.write(
                        encode_message(
                            Error(
                                code=int(ErrorCode.INTERNAL),
                                message="disk full (simulated)",
                            )
                        )
                    )
                await writer.drain()
        finally:
            writer.close()


class TestRepairNewcomerFailures:
    @pytest.mark.parametrize("mode", ["error", "garbage"])
    def test_newcomer_failure_is_typed_repair_error(self, tmp_path, mode):
        """Whatever way the newcomer fails the upload -- a typed ERROR
        refusal or an unparseable reply -- repair must surface
        NetRepairError, and the manifest must keep the old placement."""
        data = bytes(
            np.random.default_rng(3).integers(0, 256, 4_000, dtype=np.uint8)
        )

        async def scenario():
            async with (
                LocalCluster(8, tmp_path, seed=17) as cluster,
                Coordinator(
                    PARAMS,
                    rng=np.random.default_rng(19),
                    retry=RetryPolicy(retries=1, backoff=0.01),
                ) as coordinator,
                _BadNewcomer(mode) as newcomer,
            ):
                stats = await coordinator.insert(
                    data, cluster.addresses, file_id="f"
                )
                manifest = stats.manifest
                old_location = manifest.pieces[7]
                with pytest.raises(NetRepairError, match="refused"):
                    await coordinator.repair(manifest, 7, newcomer.address)
                assert manifest.pieces[7] == old_location

        asyncio.run(scenario())


class TestClientCaching:
    def test_one_client_per_address(self):
        coordinator = Coordinator(PARAMS)
        first = PeerAddress(host="127.0.0.1", port=9470)
        twin = PeerAddress(host="127.0.0.1", port=9470)
        other = PeerAddress(host="127.0.0.1", port=9471)
        assert coordinator.client(first) is coordinator.client(twin)
        assert coordinator.client(first) is not coordinator.client(other)

    def test_aclose_empties_the_cache(self):
        coordinator = Coordinator(PARAMS)
        address = PeerAddress(host="127.0.0.1", port=9470)
        cached = coordinator.client(address)

        async def close():
            await coordinator.aclose()

        asyncio.run(close())
        assert coordinator.client(address) is not cached
