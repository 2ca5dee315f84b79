"""The batched GF kernel: exactness, edge cases, fan-out.

Three promises are pinned here:

1. **Exactness** -- the chunked take-based kernel agrees with a
   ``multiply_direct``-based first-principles reference (and with the
   seed broadcast algorithm, kept as ``kernels._matmul_reference``) on
   every shape: empty matrices, single rows, and row / column counts one
   either side of the kernel's own chunk and tile sizes.
2. **Zero safety** -- ``0 * x == 0`` elementwise through matmul and
   matvec for all three fields: the fused zero-extended tables must make
   the ``log[0]`` sentinel unreachable on every kernel path.
3. **Discipline** -- block sizes below 1 raise instead of silently
   returning zeros, wrong-dtype *and* same-dtype out-of-range operands
   raise instead of wrapping or clipping, and the row-sharded product
   is byte-identical for every worker count, on concurrent callers and
   in a forked child, without spawning threads after its first use.
"""

import os
import signal
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from repro.gf import kernels, linalg
from repro.gf.field import GF

FIELDS = [GF(4), GF(8), GF(16)]
FIELD_IDS = [f"GF(2^{f.q})" for f in FIELDS]


def direct_matmul(field, a, b):
    """First-principles reference: multiply_direct + XOR accumulation."""
    m, k = a.shape
    n = b.shape[1]
    out = field.zeros((m, n))
    for i in range(m):
        for j in range(k):
            out[i] ^= field.multiply_direct(a[i, j], b[j])
    return out


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestExactness:
    @pytest.mark.parametrize(
        "shape",
        [
            (0, 4, 6),   # no output rows
            (4, 0, 6),   # empty inner dimension
            (4, 6, 0),   # no output columns
            (1, 1, 1),   # single everything
            (1, 5, 300), # single row: the add-free offset-view step
            (3, 4, 5),
            (65, 3, 7),  # tall and narrow: many rows per step
            (7, 9, 1000),
        ],
    )
    def test_blocked_matches_direct_reference(self, field, shape):
        m, k, n = shape
        rng = np.random.default_rng(m * 1000 + k * 100 + n + field.q)
        a = field.random((m, k), rng)
        b = field.random((k, n), rng)
        expected = direct_matmul(field, a, b)
        assert np.array_equal(kernels.matmul(field, a, b), expected)
        assert np.array_equal(kernels._matmul_reference(field, a, b), expected)

    def test_odd_block_sizes_agree(self, field):
        rng = np.random.default_rng(field.q)
        a = field.random((13, 7), rng)
        b = field.random((7, 530), rng)
        expected = kernels._matmul_reference(field, a, b)
        for col_block in (1, 3, 256, 529, 530, 531, 1 << 20):
            got = kernels.matmul(field, a, b, col_block=col_block)
            assert np.array_equal(got, expected), col_block

    @pytest.mark.parametrize("rows_per_step", [1, 2, 5])
    def test_chunk_and_tile_boundaries(self, field, rows_per_step):
        """Row and column counts one either side of (and at multiples of)
        the kernel's own step sizes, read from the module: a tile of
        ``_CHUNK // r`` columns makes it run ``r`` output rows per step."""
        tile = kernels._CHUNK // rows_per_step
        assert tile <= kernels.DEFAULT_COL_BLOCK
        rng = np.random.default_rng(field.q + rows_per_step)
        for n in (tile - 1, tile, tile + 1, 2 * tile, 2 * tile + 1):
            for m in {max(rows_per_step - 1, 1), rows_per_step, rows_per_step + 1,
                      2 * rows_per_step, 2 * rows_per_step + 1}:
                a = field.random((m, 2), rng)
                b = field.random((2, n), rng)
                got = kernels.matmul(field, a, b, col_block=tile)
                assert np.array_equal(got, kernels._matmul_reference(field, a, b)), (m, n)
                assert np.array_equal(got, kernels.matmul(field, a, b)), (m, n)

    def test_zero_and_unit_coefficients(self, field):
        """Zero and unit coefficients are exact through the sentinel."""
        rng = np.random.default_rng(field.q + 7)
        b = field.random((5, 400), rng)
        zeros = field.zeros((3, 5))
        assert not kernels.matmul(field, zeros, b).any()
        identity = field.eye(5)
        assert np.array_equal(kernels.matmul(field, identity, b), b)

    def test_matvec_matches_matmul_column(self, field):
        rng = np.random.default_rng(field.q + 11)
        a = field.random((6, 9), rng)
        x = field.random((9,), rng)
        expected = kernels.matmul(field, a, x[:, None])[:, 0]
        assert np.array_equal(kernels.matvec(field, a, x), expected)
        assert np.array_equal(linalg.gf_matvec(field, a, x), expected)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
class TestZeroTimesXIsZero:
    """0 * x == 0 elementwise through every kernel path (the log[0]
    sentinel audit: a zero operand must never surface a table artifact)."""

    def test_elementwise_multiply(self, field):
        rng = np.random.default_rng(field.q)
        x = field.random((257,), rng)
        assert not field.multiply(field.zeros(x.shape), x).any()
        assert not field.multiply(x, field.zeros(x.shape)).any()

    @pytest.mark.parametrize("n", [1, 4, 257, 5000])
    def test_matmul_with_zero_rows_and_columns(self, field, n):
        """A zero coefficient row zeroes its output row; zero data
        columns stay zero -- at one row per step and at many."""
        rng = np.random.default_rng(field.q + n)
        a = field.random((4, 6), rng)
        a[2, :] = 0
        b = field.random((6, n), rng)
        b[:, 0] = 0
        out = kernels.matmul(field, a, b)
        assert not out[2].any()
        assert not out[:, 0].any()
        assert np.array_equal(out, direct_matmul(field, a, b))

    def test_matvec_zero_vector(self, field):
        rng = np.random.default_rng(field.q)
        a = field.random((5, 8), rng)
        assert not kernels.matvec(field, a, field.zeros(8)).any()
        assert not kernels.matvec(field, field.zeros((5, 8)), field.random(8, rng)).any()


class TestValidation:
    def test_block_sizes_below_one_raise(self):
        """A block size <= 0 would make range() yield nothing and the
        product silently come back all-zero."""
        field = GF(16)
        a = field.random((4, 4), np.random.default_rng(0))
        for bad in (0, -1, -64):
            with pytest.raises(ValueError, match="col_block"):
                kernels.matmul(field, a, a, col_block=bad)
            with pytest.raises(ValueError, match="col_block"):
                kernels.matmul_sharded(field, a, a, workers=1, col_block=bad)

    def test_shape_mismatch_raises(self):
        field = GF(16)
        with pytest.raises(ValueError, match="shape mismatch"):
            kernels.matmul(field, field.zeros((2, 3)), field.zeros((4, 2)))
        with pytest.raises(ValueError):
            kernels.matvec(field, field.zeros((2, 3)), field.zeros(5))

    def test_wrong_dtype_out_of_range_rejected(self):
        """int64 values beyond the field must raise, not wrap (the old
        behaviour silently truncated 70000 -> 4464 in GF(2^16))."""
        field = GF(16)
        bad = np.array([[70000]], dtype=np.int64)
        good = field.zeros((1, 1))
        with pytest.raises(ValueError, match="out of range"):
            kernels.matmul(field, bad, good)
        with pytest.raises(ValueError, match="out of range"):
            field.multiply(bad, good)
        with pytest.raises(ValueError, match="out of range"):
            field.linear_combination(
                np.array([70000], dtype=np.int64), field.zeros((1, 4))
            )
        with pytest.raises(TypeError, match="integers"):
            kernels.matmul(field, np.array([[1.5]]), good)

    @pytest.mark.parametrize("q", [4, 8, 16])
    def test_out_of_range_elements_never_yield_a_result(self, q):
        """The table lookups are bounds-checked where the index is an
        *element*: an out-of-range operand must raise from all four entry
        points -- as a same-dtype array in a narrow field (``_coerce``
        does not scan those; ``np.take(..., mode="clip")`` on them would
        return well-formed garbage), and as a wider integer dtype."""
        field = GF(q)
        good = field.ones((2, 2))
        bads = [np.full((2, 2), field.order + 3, dtype=np.int64)]
        if field.order <= np.iinfo(field.dtype).max:
            bads.append(np.full((2, 2), field.order + 3, dtype=field.dtype))
        for bad in bads:
            for a, b in ((bad, good), (good, bad)):
                with pytest.raises((ValueError, IndexError)):
                    field.multiply(a, b)
                with pytest.raises((ValueError, IndexError)):
                    field.linear_combination(a[0], b)
                with pytest.raises((ValueError, IndexError)):
                    kernels.matmul(field, a, b)
            with pytest.raises((ValueError, IndexError)):
                linalg.extract_and_invert(field, bad)

    def test_in_range_int64_coerces(self):
        field = GF(16)
        a = np.array([[3, 5]], dtype=np.int64)
        b = np.array([[7], [11]], dtype=np.int64)
        expected = direct_matmul(field, field.asarray(a), field.asarray(b))
        assert np.array_equal(kernels.matmul(field, a, b), expected)


class TestBackends:
    def test_default_backend_is_numpy(self):
        """The name the e2e ledger records with every run."""
        assert kernels.active_backend() == "numpy"


@pytest.fixture()
def fan_out(monkeypatch):
    """Shrink the fan-out threshold so test-sized products split into shards."""
    monkeypatch.setattr(kernels, "_MIN_SHARD_OPS", 1 << 10)


def fan_out_operands(seed, m=8):
    """A product wide enough for three column tiles, the last one ragged."""
    field = GF(16)
    rng = np.random.default_rng(seed)
    width = 2 * kernels.DEFAULT_COL_BLOCK + 4464
    return field, field.random((m, 31), rng), field.random((31, width), rng)


class _Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"the shard pool was used ({name})")


class TestSharded:
    def test_worker_count_invariance(self, fan_out):
        """Disjoint row shards: the result is byte-identical for any
        worker count -- including more workers than rows -- so
        REPRO_GF_WORKERS can never change encodings."""
        for m in (8, 2):
            field, a, b = fan_out_operands(3, m)
            expected = kernels._matmul_reference(field, a, b)
            for workers in (1, 2, 3, 7):
                got = kernels.matmul(field, a, b, workers=workers)
                assert got.tobytes() == expected.tobytes(), (m, workers)
                sharded = kernels.matmul_sharded(field, a, b, workers=workers)
                assert sharded.tobytes() == expected.tobytes(), (m, workers)

    def test_narrow_data_does_not_shard(self, monkeypatch):
        """Below the threshold the product runs inline on the caller."""
        field = GF(16)
        rng = np.random.default_rng(4)
        a = field.random((2, 3), rng)
        b = field.random((3, 50), rng)
        expected = kernels._matmul_reference(field, a, b)
        monkeypatch.setattr(kernels, "_POOL", _Untouchable())
        assert np.array_equal(kernels.matmul_sharded(field, a, b, workers=8), expected)

    def test_single_worker_never_touches_the_pool(self, fan_out, monkeypatch):
        field, a, b = fan_out_operands(5)
        expected = kernels._matmul_reference(field, a, b)
        monkeypatch.setenv(kernels.WORKERS_ENV, "1")
        monkeypatch.setattr(kernels, "_POOL", _Untouchable())
        assert kernels.matmul(field, a, b).tobytes() == expected.tobytes()

    def test_no_thread_is_spawned_after_the_first_fan_out(self, fan_out, monkeypatch):
        """The pool's threads are created once, not per call: a pool
        built and joined inside each call would leave ``enumerate()``
        alone too, so thread starts are counted as well."""
        field, a, b = fan_out_operands(6)
        first = kernels.matmul(field, a, b, workers=2)
        before = set(threading.enumerate())
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for _ in range(20):
            assert kernels.matmul(field, a, b, workers=2).tobytes() == first.tobytes()
        assert started == []
        assert set(threading.enumerate()) - before == set()

    def test_concurrent_callers_share_the_pool(self, fan_out, monkeypatch):
        """Three callers fanning out three ways at once on a fresh pool,
        with a short switch interval: exact results, and the pool grows to
        two threads once -- no second pool, no lost update of its size."""
        monkeypatch.setattr(kernels, "_POOL", kernels._ShardPool())
        operands = [fan_out_operands(seed) for seed in (7, 8, 9)]
        expected = [kernels.matmul(f, a, b, workers=1).tobytes() for f, a, b in operands]
        before = set(threading.enumerate())
        start = threading.Barrier(len(operands))
        results: list[list[bytes]] = [[] for _ in operands]

        def caller(slot):
            start.wait()
            for _ in range(5):
                results[slot].append(kernels.matmul(*operands[slot], workers=3).tobytes())

        callers = [threading.Thread(target=caller, args=(slot,)) for slot in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert results == [[blob] * 5 for blob in expected]
        spawned = set(threading.enumerate()) - before
        assert sorted(thread.name for thread in spawned) == ["gf-shard-1", "gf-shard-2"]

    def test_pool_lets_go_of_a_finished_product(self, fan_out):
        """Shard arguments are views of the output and the log tile; an
        idle pool thread must not keep them alive until its next task."""
        field, a, b = fan_out_operands(10)
        out = weakref.ref(kernels.matmul(field, a, b, workers=2))
        deadline = time.monotonic() + 10
        while out() is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert out() is None

    def test_pool_shard_error_reaches_the_caller(self):
        def shard(fail):
            if fail:
                raise RuntimeError("shard failed")

        with pytest.raises(RuntimeError, match="shard failed"):
            kernels._POOL.run(shard, [(True,), (False,)])
        kernels._POOL.run(shard, [(False,), (False,)])  # the pool survives it

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX fork only")
    def test_forked_child_can_fan_out(self, fan_out):
        """A child inherits the pool object but none of its threads; the
        first fan-out there must not wait forever on a dead thread."""
        field, a, b = fan_out_operands(9)
        expected = kernels.matmul(field, a, b, workers=2).tobytes()  # parent's pool is live
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports through its exit code
            code = 1
            try:
                code = 0 if kernels.matmul(field, a, b, workers=2).tobytes() == expected else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("fan-out in a forked child hung")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_workers_validation(self, monkeypatch):
        field = GF(16)
        a = field.zeros((2, 2))
        with pytest.raises(ValueError, match="workers"):
            kernels.matmul_sharded(field, a, a, workers=0)
        with pytest.raises(ValueError, match="workers"):
            kernels.matmul(field, a, a, workers=0)
        monkeypatch.setenv(kernels.WORKERS_ENV, "0")
        with pytest.raises(ValueError, match=kernels.WORKERS_ENV):
            kernels.default_workers()
        with pytest.raises(ValueError, match=kernels.WORKERS_ENV):
            kernels.matmul(field, a, a)
        monkeypatch.setenv(kernels.WORKERS_ENV, "5")
        assert kernels.default_workers() == 5

    def test_default_workers_counts_usable_cpus(self, monkeypatch):
        """A process pinned to 2 of 64 CPUs splits products 2 ways, not 64."""
        monkeypatch.delenv(kernels.WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
        assert kernels.default_workers() == 2
        monkeypatch.setenv(kernels.WORKERS_ENV, "3")
        assert kernels.default_workers() == 3
        monkeypatch.delenv(kernels.WORKERS_ENV)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert kernels.default_workers() == 64
