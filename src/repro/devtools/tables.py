"""The project-knowledge tables the reprolint rules match against.

Everything reprolint knows about *this* codebase -- which names are
coroutines, which names produce GF(2^q) values, which byte strings are
wire-format constants -- lives here, in one reviewable place.  Adding a
new async API or a new field kernel means adding its name to the right
set; the rules themselves never change.
"""

from __future__ import annotations

from repro.obs.registry import METRIC_DOMAINS, METRIC_NAME_RE

__all__ = [
    "ASYNC_MODULE_FUNCTIONS",
    "ASYNCIO_COROUTINE_FUNCTIONS",
    "ASYNC_METHODS",
    "TASK_SPAWN_NAMES",
    "NETWORK_AWAIT_NAMES",
    "LOCK_NAME_HINTS",
    "GF_FIELD_VALUE_METHODS",
    "GF_LINALG_FUNCTIONS",
    "GF_CONSUMER_METHODS",
    "NUMPY_CONSTRUCTORS",
    "WIRE_MAGIC_LITERALS",
    "WIRE_SIZE_LITERALS",
    "OBS_METRIC_DOMAINS",
    "OBS_METRIC_NAME_RE",
    "OBS_REGISTRY_RECEIVERS",
    "OBS_INSTRUMENT_METHODS",
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

#: Module-level coroutine functions of :mod:`repro.net.protocol`; calling
#: one anywhere without ``await`` is always a bug (RL101).
ASYNC_MODULE_FUNCTIONS = frozenset(
    {"read_message", "read_message_sized", "write_message"}
)

#: ``asyncio.<name>`` calls that return a coroutine/awaitable; discarding
#: one is always a bug (RL101).
ASYNCIO_COROUTINE_FUNCTIONS = frozenset(
    {
        "sleep",
        "wait_for",
        "gather",
        "wait",
        "open_connection",
        "start_server",
        "to_thread",
    }
)

#: Method names that are ``async def`` on the repro.net surface
#: (PeerClient, PeerDaemon, Coordinator, LocalCluster, ConnectionPool,
#: StreamWriter/StreamReader).  Calling one as a bare statement inside an
#: ``async def`` drops the coroutine un-awaited (RL101).  Names here must
#: be unambiguous enough that a discarded *sync* call of the same name
#: inside async code would itself be suspect.
ASYNC_METHODS = frozenset(
    {
        # PeerClient
        "ping",
        "is_alive",
        "store_piece",
        "get_piece",
        "get_coefficients",
        "get_rows",
        "get_stats",
        "repair_read",
        "request",
        "aclose",
        # Coordinator
        "insert",
        "repair",
        "reconstruct",
        # PeerDaemon / LocalCluster
        "serve_forever",
        "kill",
        "restart",
        "spawn",
        "decommission",
        # repro.scenario.ScenarioRunner
        "run_scenario",
        "apply_event",
        "run_window",
        "repair_degraded",
        "verify_files",
        # streams / sync primitives
        "drain",
        "wait_closed",
        "readexactly",
        "acquire",
    }
)

#: Call names that spawn a task whose handle must be kept (RL104).
TASK_SPAWN_NAMES = frozenset({"create_task", "ensure_future"})

#: Awaited call names that perform network I/O; holding a lock or
#: semaphore across one of these serializes the swarm behind a single
#: slow peer (RL103).
NETWORK_AWAIT_NAMES = frozenset(
    {
        "read_message",
        "read_message_sized",
        "write_message",
        "open_connection",
        "drain",
        "readexactly",
        "sendall",
        "connect",
        "request",
        "ping",
        "store_piece",
        "get_piece",
        "get_coefficients",
        "get_rows",
        "get_stats",
        "repair_read",
        "_converse",
        "_request_once",
        # scenario engine: each of these drives coordinator traffic
        "run_scenario",
        "run_window",
        "repair_degraded",
        "verify_files",
        "insert",
        "repair",
        "reconstruct",
    }
)

#: Substrings identifying a context-manager expression as a mutual
#: exclusion primitive in ``async with`` (RL103).
LOCK_NAME_HINTS = ("lock", "sem", "mutex")

#: ``GaloisField`` methods whose return value is a GF(2^q) element array;
#: plain integer arithmetic on such a value is wrong arithmetic (RL201).
GF_FIELD_VALUE_METHODS = frozenset(
    {
        "add",
        "subtract",
        "multiply",
        "multiply_direct",
        "divide",
        "inverse_elements",
        "power",
        "exp",
        "linear_combination",
        "random",
        "random_nonzero",
        "zeros",
        "ones",
        "eye",
        "asarray",
        "bytes_to_elements",
    }
)

#: :mod:`repro.gf.linalg` functions whose return value lives in the field
#: (RL201) and whose array arguments must carry the field dtype (RL202).
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

#: ``GaloisField`` methods that *consume* element arrays: feeding them a
#: raw numpy constructor without an explicit dtype risks silent uint8 /
#: uint16 truncation against GF(2^16) tables (RL202).
GF_CONSUMER_METHODS = frozenset(
    {
        "add",
        "subtract",
        "multiply",
        "multiply_direct",
        "divide",
        "linear_combination",
        "elements_to_bytes",
    }
)

#: numpy array constructors RL202 refuses to see inline (dtype-less) in a
#: GF API argument position.
NUMPY_CONSTRUCTORS = frozenset(
    {"array", "asarray", "zeros", "ones", "empty", "full", "arange"}
)

#: Byte literals that duplicate a wire-format source of truth (RL303).
WIRE_MAGIC_LITERALS = {
    b"RGNP": "repro.net.protocol.PROTOCOL_MAGIC",
    b"RGC1": "repro.core.serialization.MAGIC",
}

#: Integer literals (including ``1 << 28`` spellings) that duplicate the
#: frame-size limit (RL303).
WIRE_SIZE_LITERALS = {
    1 << 28: "repro.net.protocol.MAX_BODY_BYTES",
}

#: Files that *define* the wire-format constants and are therefore
#: allowed to spell them as literals.
WIRE_SOURCE_FILES = frozenset({"protocol.py", "serialization.py"})

#: The metric naming scheme (RL402) is owned by :mod:`repro.obs.registry`
#: -- the runtime validates every name against the same regex and domain
#: set, so the linter re-exports rather than duplicates them.
OBS_METRIC_DOMAINS = METRIC_DOMAINS
OBS_METRIC_NAME_RE = METRIC_NAME_RE

#: Receiver names that identify an expression as a metrics registry
#: (``self.obs.counter(...)``, ``registry.histogram(...)``); RL402 checks
#: the literal metric name at such call sites.
OBS_REGISTRY_RECEIVERS = frozenset({"obs", "registry", "metrics"})

#: The registry's instrument factories RL402 inspects.
OBS_INSTRUMENT_METHODS = frozenset({"counter", "gauge", "histogram"})

#: ``time.<name>()`` calls whose difference is a wall-clock latency --
#: subject to NTP steps and smearing; RL401 wants
#: :func:`repro.obs.now_ns` (``perf_counter_ns``) for durations.
WALL_CLOCK_FUNCTIONS = frozenset({"time", "monotonic"})

# ---------------------------------------------------------------------------
# RL5xx flow-analysis tables (see repro.devtools.flow)
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
