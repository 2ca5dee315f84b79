"""The project-knowledge tables the reprolint rules match against.

Everything reprolint knows about *this* codebase and the stdlib it
drives -- which calls block, which names are GF kernels, which
attributes hold which project class -- lives here, in one reviewable
place.  Adding a new blocking primitive or a new field kernel means
adding its name to the right set; the rules themselves never change.
"""

from __future__ import annotations

__all__ = [
    "LOCK_NAME_HINTS",
    "GF_LINALG_FUNCTIONS",
    "WALL_CLOCK_FUNCTIONS",
    "BLOCKING_MODULE_CALLS",
    "BLOCKING_FILE_METHODS",
    "CPU_HEAVY_GF_CALLS",
    "OFFLOAD_CALL_NAMES",
    "RESOURCE_ACQUIRE_CALLS",
    "RESOURCE_RELEASE_METHODS",
    "KNOWN_RECEIVER_CLASSES",
    "METHOD_RESOLUTION_STOPLIST",
    "STDLIB_MODULE_RECEIVERS",
]

#: Substrings identifying an ``async with`` context expression as a
#: mutual exclusion primitive; the RL501 walk tracks the locks held at
#: each statement, which is what covers a read-to-write window.
LOCK_NAME_HINTS = ("lock", "sem", "mutex")

#: :mod:`repro.gf.linalg` and :mod:`repro.gf.kernels` entry points that
#: run a whole product or elimination (RL502, via
#: :data:`CPU_HEAVY_GF_CALLS`).
GF_LINALG_FUNCTIONS = frozenset(
    {
        "gf_matmul",
        "gf_matvec",
        # repro.gf.kernels -- its bare "matmul"/"matvec" are left out
        # (they would false-positive on numpy's own); callers reach
        # those through gf_matmul / gf_matvec.
        "matmul_sharded",
        "rref",
        "inverse",
        "solve",
        "nullspace_vector",
        "random_matrix",
        "random_invertible_matrix",
        "extract_and_invert",
    }
)

#: ``time.<name>()`` calls whose difference is a wall-clock latency --
#: subject to NTP steps and smearing; RL401 wants
#: :func:`repro.obs.now_ns` (``perf_counter_ns``) for durations.
WALL_CLOCK_FUNCTIONS = frozenset({"time", "monotonic"})

# ---------------------------------------------------------------------------
# RL5xx flow-rule tables (see repro.devtools.rules.flow_rules)
# ---------------------------------------------------------------------------

#: ``module.name(...)`` calls that block the calling thread; executing one
#: on a path reachable from an ``async def`` stalls the event loop (RL502).
BLOCKING_MODULE_CALLS: dict = {
    ("time", "sleep"): "time.sleep()",
    ("os", "fsync"): "os.fsync()",
    ("os", "sync"): "os.sync()",
    ("os", "sendfile"): "os.sendfile()",
    ("shutil", "rmtree"): "shutil.rmtree()",
    ("shutil", "copyfile"): "shutil.copyfile()",
    ("shutil", "copytree"): "shutil.copytree()",
    ("shutil", "move"): "shutil.move()",
    ("subprocess", "run"): "subprocess.run()",
    ("subprocess", "call"): "subprocess.call()",
    ("subprocess", "check_call"): "subprocess.check_call()",
    ("subprocess", "check_output"): "subprocess.check_output()",
    ("subprocess", "Popen"): "subprocess.Popen()",
    ("socket", "create_connection"): "socket.create_connection()",
    ("hashlib", "sha256"): "hashlib.sha256()",
    ("hashlib", "sha1"): "hashlib.sha1()",
    ("hashlib", "sha512"): "hashlib.sha512()",
    ("hashlib", "md5"): "hashlib.md5()",
    ("hashlib", "blake2b"): "hashlib.blake2b()",
    ("hashlib", "blake2s"): "hashlib.blake2s()",
    ("hashlib", "new"): "hashlib.new()",
    ("hashlib", "file_digest"): "hashlib.file_digest()",
}

#: Method names that do synchronous file I/O wherever they appear
#: (``pathlib.Path`` data transfers; metadata ops like ``mkdir``/``exists``
#: are deliberately excluded -- they are fast and pervasive).
BLOCKING_FILE_METHODS = frozenset(
    {"read_bytes", "read_text", "write_bytes", "write_text"}
)

#: CPU-heavy GF(2^16) entry points: a multi-megabyte matmul or a rank
#: elimination pins the loop thread for tens of milliseconds, which at
#: daemon scale serializes every peer sharing the loop (RL502).
CPU_HEAVY_GF_CALLS = GF_LINALG_FUNCTIONS | {"linear_combination"}

#: Call names that move work off the event loop; the offload call itself
#: never counts as blocking, and callables passed to it *by reference*
#: are exempt (they run on a worker thread).
OFFLOAD_CALL_NAMES = frozenset({"to_thread", "run_in_executor"})

#: Call names that *acquire* a resource whose release is the caller's
#: responsibility (RL503).  The value names how the resource binds:
#: ``"value"`` tracks the assignment target, ``"writer"`` tracks the
#: second element of a ``reader, writer = ...`` tuple target (streams
#: close through the writer).
RESOURCE_ACQUIRE_CALLS: dict = {
    "acquire": "value",
    "open_connection": "writer",
    "start_server": "value",
    "__aenter__": "value",
}

#: Method names that release/retire a resource (as ``res.close()`` or
#: ``owner.release(res)``); reaching one ends an RL503 path.
RESOURCE_RELEASE_METHODS = frozenset(
    {
        "close",
        "aclose",
        "release",
        "discard",
        "stop",
        "abort",
        "shutdown",
        "terminate",
        "kill",
        "cancel",
        "wait_closed",
        "__aexit__",
    }
)

#: Attribute names whose runtime type is project knowledge: ``self.store``
#: is always the :class:`~repro.net.blockstore.BlockStore`, ``self.code``
#: the regenerating code, and so on.  The call-graph resolver uses these
#: to follow ``self.store.put(...)`` into the right class even where the
#: bare method name (``put``, ``get``) is too generic to resolve.
KNOWN_RECEIVER_CLASSES: dict = {
    "store": "BlockStore",
    "code": "RandomLinearRegeneratingCode",
    "pool": "ConnectionPool",
    "cluster": "LocalCluster",
    "coordinator": "Coordinator",
    "field": "GaloisField",
}

#: Method names too generic to resolve by project-wide uniqueness --
#: they collide with dict/list/set/stream builtins, so an edge through
#: one would be a guess.  :data:`KNOWN_RECEIVER_CLASSES` hints bypass
#: this list.
METHOD_RESOLUTION_STOPLIST = frozenset(
    {
        "get",
        "put",
        "pop",
        "append",
        "insert",
        "update",
        "keys",
        "values",
        "items",
        "add",
        "remove",
        "clear",
        "extend",
        "copy",
        "index",
        "count",
        "close",
        "read",
        "write",
        "send",
        "join",
        "split",
        "start",
        "stop",
        "run",
        "open",
        "name",
        "encode",
        "decode",
        "save",
        "load",
    }
)

#: Receiver names that are stdlib module aliases, never project objects;
#: calls through them resolve to the blocking table or nowhere.
STDLIB_MODULE_RECEIVERS = frozenset(
    {
        "asyncio",
        "time",
        "os",
        "sys",
        "json",
        "math",
        "struct",
        "zlib",
        "shutil",
        "subprocess",
        "socket",
        "hashlib",
        "logging",
        "pathlib",
        "random",
        "np",
        "numpy",
    }
)
