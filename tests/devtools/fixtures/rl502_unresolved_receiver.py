"""RL502 fixture: a method called on a call's result resolves to nothing.

``hashlib.sha256(data).digest()`` is stdlib hashing, not the project's
``BlockStore.digest`` file read that shares its name.
"""

import hashlib


class BlockStore:
    def __init__(self, root):
        self.root = root

    def digest(self, key):
        return (self.root / key).read_text()


async def checksum(data):
    return hashlib.sha256(data).digest()  # line 19: the hashing only
