"""RL502 fixture: the blocking sink five sync hops below the coroutine,
the shape of a daemon's connection handler reaching a blockstore hash."""

import hashlib


class Daemon:
    def __init__(self, store):
        self.store = store

    async def handle_connection(self, blob):
        self._timed_dispatch(blob)  # line 12: five hops to hashlib

    def _timed_dispatch(self, blob):
        return self._dispatch(blob)

    def _dispatch(self, blob):
        return self._store_piece(blob)

    def _store_piece(self, blob):
        return self.store.put("key", blob)


class BlockStore:
    def put(self, key, blob):
        return key, digest_bytes(blob)


def digest_bytes(blob):
    return hashlib.sha256(blob).hexdigest()
