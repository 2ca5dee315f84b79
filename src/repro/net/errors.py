"""Exception hierarchy of the networked subsystem.

Everything raised by :mod:`repro.net` derives from :class:`NetError`,
so callers embedding the daemon or the coordinator can catch one type.
The split mirrors where a failure is detected:

- :class:`ProtocolError` -- the byte stream itself is malformed
  (bad magic, unknown message type, oversized frame); its subclass
  :class:`ChecksumError` is a payload that changed in transit, which
  the client retries like a cut frame;
- :class:`RemoteError` -- the peer answered with a well-formed ERROR
  message (missing piece, corrupt blockstore object, bad request);
- :class:`PeerUnavailableError` -- the peer could not be reached at all
  after the client's retry budget (dead daemon, timeout);
- :class:`InsufficientPeersError` -- an insertion could not place every
  piece on a live peer;
- :class:`NetRepairError` / :class:`NetReconstructError` -- a life-cycle
  operation ran out of live helpers / decodable pieces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.coordinator import PeerAddress

__all__ = [
    "NetError",
    "ProtocolError",
    "ChecksumError",
    "RemoteError",
    "PeerUnavailableError",
    "InsufficientPeersError",
    "NetRepairError",
    "NetReconstructError",
]


class NetError(Exception):
    """Base class for every networked-subsystem failure."""


class ProtocolError(NetError):
    """The peer sent bytes that do not parse as a protocol frame."""


class ChecksumError(ProtocolError):
    """A frame parsed, but its payload failed its CRC32."""


class RemoteError(NetError):
    """The peer answered with an ERROR message.

    ``code`` is one of :class:`repro.net.protocol.ErrorCode`; the
    original server-side description is in ``args[0]``.
    """

    code: int

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[error {self.code}] {self.args[0]}"


class PeerUnavailableError(NetError):
    """A peer stayed unreachable through the whole retry schedule."""


class InsufficientPeersError(NetError):
    """Not every piece of an insertion found a live peer.

    ``placed`` maps piece index -> the address that accepted it (useful
    for cleanup); ``unplaced`` lists the piece indices left homeless.
    """

    placed: dict[int, PeerAddress]
    unplaced: tuple[int, ...]

    def __init__(
        self,
        message: str,
        placed: Mapping[int, PeerAddress] | None = None,
        unplaced: Iterable[int] = (),
    ) -> None:
        super().__init__(message)
        self.placed = dict(placed or {})
        self.unplaced = tuple(unplaced)


class NetRepairError(NetError):
    """Fewer than d live helpers remain: the repair cannot proceed."""


class NetReconstructError(NetError):
    """The reachable pieces do not span the file: reconstruction failed."""
