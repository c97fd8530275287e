"""Tests for the shared-memory fan-out subsystem (experiments.fanout)."""

import gc
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.fanout as fanout_mod
import repro.experiments.runner as runner_mod
import repro.kernels as kernels_mod
from repro.core.trajectory import TrajectoryArrays
from repro.experiments import estimate_dispersion
from repro.experiments.fanout import (
    SharedGraph,
    SharedGraphSpec,
    attach,
    fanout_estimate,
    plan_shards,
    run_shard,
)
from repro.graphs import cycle_graph, grid_graph, implicit_graph
from repro.graphs.csr import Graph
from repro.kernels import available_kernels
from repro.utils.rng import spawn_seed_sequences

_SHM_DIR = Path("/dev/shm")


def _segments() -> set[str]:
    """Names of live POSIX shared-memory segments created by Python."""
    if not _SHM_DIR.exists():
        pytest.skip("no /dev/shm on this platform")
    return {p.name for p in _SHM_DIR.iterdir() if p.name.startswith("psm_")}


class TestSharedGraph:
    def test_roundtrip_is_zero_copy(self):
        g = grid_graph(4, 4)
        with SharedGraph(g) as sg:
            assert sg.spec.n == g.n and sg.spec.nnz == g.indices.size
            shm, g2 = attach(sg.spec)
            try:
                assert g2 == g
                assert g2.name == g.name
                assert g2.degrees.tolist() == g.degrees.tolist()
                # the reattached CSR arrays are views of the mapping
                packed = np.ndarray(
                    (g.n + 1 + g.indices.size,), dtype=np.int64, buffer=shm.buf
                )
                assert np.shares_memory(g2.indptr, packed)
                assert np.shares_memory(g2.indices, packed)
                assert not g2.indptr.flags.writeable
            finally:
                del g2, packed
                shm.close()

    def test_context_exit_unlinks(self):
        with SharedGraph(cycle_graph(8)) as sg:
            name = sg.spec.block
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent(self):
        sg = SharedGraph(cycle_graph(8))
        sg.close()
        sg.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=sg.spec.block)

    def test_finalizer_backstop_unlinks_on_gc(self):
        sg = SharedGraph(cycle_graph(8))
        name = sg.spec.block
        del sg
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_exception_inside_context_still_unlinks(self):
        with pytest.raises(RuntimeError, match="boom"):
            with SharedGraph(cycle_graph(8)) as sg:
                name = sg.spec.block
                raise RuntimeError("boom")
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_from_shared_rejects_short_buffer(self):
        with pytest.raises(ValueError, match="too small"):
            Graph.from_shared(bytearray(8), n=4, nnz=8)


class TestPlanShards:
    def test_partitions_contiguously(self):
        for reps in (1, 2, 7, 16, 257):
            for n_jobs in (1, 2, 3, 8):
                shards = plan_shards(reps, n_jobs)
                assert len(shards) == min(n_jobs, reps)
                assert shards[0][0] == 0 and shards[-1][1] == reps
                for (a0, a1), (b0, b1) in zip(shards, shards[1:]):
                    assert a1 == b0  # contiguous, in order
                sizes = [stop - start for start, stop in shards]
                assert min(sizes) >= 1
                assert max(sizes) - min(sizes) <= 1  # balanced

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(0, 2)
        with pytest.raises(ValueError):
            plan_shards(4, 0)


class TestFanoutEstimate:
    # one synchronous and one tick-scheduled process; repetition counts
    # chosen so each 2-way shard crosses its batched-dispatch threshold
    @pytest.mark.parametrize("process,reps", [("parallel", 8), ("ctu", 32)])
    def test_tri_modal_bit_identity(self, process, reps):
        """Serial oracle, forced in-process batching and the shared-memory
        shard path must agree bit for bit over the same seed."""
        g = cycle_graph(16)
        serial = estimate_dispersion(g, process, reps=reps, seed=5, batched=False)
        batched = estimate_dispersion(g, process, reps=reps, seed=5, batched=True)
        fanned = estimate_dispersion(g, process, reps=reps, seed=5, n_jobs=2)
        assert np.array_equal(serial.samples, batched.samples)
        assert np.array_equal(serial.samples, fanned.samples)
        assert np.array_equal(serial.total_samples, fanned.total_samples)

    def test_more_jobs_than_reps(self):
        g = cycle_graph(12)
        a = estimate_dispersion(g, "sequential", reps=2, seed=4, n_jobs=1)
        b = estimate_dispersion(g, "sequential", reps=2, seed=4, n_jobs=8)
        assert np.array_equal(a.samples, b.samples)

    def test_forced_batched_composes_with_jobs(self):
        g = cycle_graph(12)
        a = estimate_dispersion(g, "parallel", reps=6, seed=3, batched=True)
        b = estimate_dispersion(g, "parallel", reps=6, seed=3, batched=True, n_jobs=2)
        assert np.array_equal(a.samples, b.samples)

    def test_forced_batched_rejects_unsupported_kwargs_before_fanout(self):
        # unknown kwargs now die in the upfront driver-kwargs validation
        # (TypeError naming the options), still before any worker spawns
        with pytest.raises(TypeError, match="faithful_r"):
            estimate_dispersion(
                cycle_graph(12),
                "parallel",
                reps=4,
                seed=0,
                batched=True,
                n_jobs=2,
                faithful_r=True,
            )

    def test_n_jobs_validation(self):
        with pytest.raises(ValueError, match="n_jobs"):
            estimate_dispersion(cycle_graph(8), reps=2, n_jobs=0)

    def test_no_leaked_segments(self):
        before = _segments()
        estimate_dispersion(cycle_graph(12), "parallel", reps=6, seed=1, n_jobs=2)
        assert _segments() - before == set()

    def test_worker_failure_propagates_and_cleans_up(self):
        """A shard raising mid-run must surface the error in the parent and
        still unlink the graph segment (the crash-cleanup guarantee)."""
        before = _segments()
        with pytest.raises(RuntimeError, match="max_rounds"):
            estimate_dispersion(
                cycle_graph(12),
                "parallel",
                reps=4,
                seed=2,
                n_jobs=2,
                batched=False,
                max_rounds=0,
            )
        assert _segments() - before == set()

    def test_shards_batch_at_any_repetition_count(self):
        """The old buffer cap could decline a large in-process batch that
        its half-shards would have accepted; with the streaming buffers
        there is no memory criterion left — full batch and shards both
        route through the lock-step drivers."""
        from repro.experiments.runner import _use_batched

        g = cycle_graph(8)
        full, half = 3000, 1500  # plan_shards(3000, 2) -> two 1500-rep shards
        assert _use_batched("parallel", g, full, 1, {}, "auto")
        assert _use_batched("parallel", g, half, 1, {}, "auto")

    def test_n_jobs_clamped_to_reps(self, monkeypatch):
        """n_jobs > reps must not plan empty shards or idle workers: the
        worker count is clamped to reps, and reps=1 never pays for a
        process pool at all (regression: n_jobs=4 with reps in {1, 2})."""
        import repro.experiments.fanout as fanout_mod

        g = cycle_graph(12)
        ref1 = estimate_dispersion(g, "sequential", reps=1, seed=9, n_jobs=1)
        ref2 = estimate_dispersion(g, "sequential", reps=2, seed=9, n_jobs=1)

        def _no_pool(*args, **kwargs):
            raise AssertionError("reps=1 must run in-process, not fan out")

        monkeypatch.setattr(fanout_mod, "fanout_estimate", _no_pool)
        solo = estimate_dispersion(g, "sequential", reps=1, seed=9, n_jobs=4)
        assert np.array_equal(ref1.samples, solo.samples)
        monkeypatch.undo()

        captured = {}
        real_fanout = fanout_mod.fanout_estimate

        def _spy(*args, **kwargs):
            captured["n_jobs"] = kwargs["n_jobs"]
            return real_fanout(*args, **kwargs)

        monkeypatch.setattr(fanout_mod, "fanout_estimate", _spy)
        duo = estimate_dispersion(g, "sequential", reps=2, seed=9, n_jobs=4)
        assert captured["n_jobs"] == 2
        assert np.array_equal(ref2.samples, duo.samples)


class TestRunShard:
    def test_run_shard_matches_serial_oracle(self):
        """Direct worker-entry-point check, without a pool in between."""
        g = cycle_graph(16)
        children = spawn_seed_sequences(17, 6)
        oracle = estimate_dispersion(
            g, "parallel", reps=6, seed=17, batched=False
        )
        with SharedGraph(g) as sg:
            out = run_shard(sg.spec, "parallel", 0, children[2:5], {}, "auto")
        assert [o[0] for o in out] == oracle.samples[2:5].tolist()

    def test_spec_is_plain_data(self):
        spec = SharedGraphSpec(block="x", n=1, nnz=0, name="g")
        assert (spec.block, spec.n, spec.nnz, spec.name) == ("x", 1, 0, "g")


needs_compiled = pytest.mark.skipif(
    not available_kernels()["cffi"], reason="no compiled kernel provider here"
)

PROCESSES = ["sequential", "parallel", "uniform", "ctu", "c-sequential"]


def _spy(monkeypatch, name: str) -> list:
    """Record every construction of ``fanout.<name>`` (still building it)."""
    calls = []
    real = getattr(fanout_mod, name)

    def build(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fanout_mod, name, build)
    return calls


@pytest.fixture
def pools(monkeypatch):
    """Construction logs of the three fan-out resources, by class name."""
    return {
        name: _spy(monkeypatch, name)
        for name in ("SharedGraph", "ProcessPoolExecutor", "ThreadPoolExecutor")
    }


def _same_outcomes(a, b) -> bool:
    """Outcome lists equal value for value, trajectory shapes included."""
    return len(a) == len(b) and all(
        (ta, sa, type(ja), ja, ca) == (tb, sb, type(jb), jb, cb)
        for (ta, sa, ja, ca), (tb, sb, jb, cb) in zip(a, b)
    )


@needs_compiled
class TestThreadRoute:
    """``n_jobs > 1`` on the per-repetition compiled route runs shards on
    threads sharing the graph: no segment export, no process pool, and
    outcomes bit-identical to ``n_jobs=1``."""

    REPS = 4

    @pytest.mark.parametrize("max_shard", [None, 1])
    @pytest.mark.parametrize("n_jobs", [2, 3, REPS + 1])
    @pytest.mark.parametrize("record", [False, True, "arrays"])
    @pytest.mark.parametrize("process", PROCESSES)
    def test_bit_identical_to_one_job(self, pools, process, record, n_jobs, max_shard):
        g = grid_graph(4, 4)
        kwargs = {"record": record, "kernels": "cffi"}
        children = spawn_seed_sequences(31, self.REPS)
        ref = runner_mod._round_outcomes(g, process, 0, children, 1, "auto", kwargs)
        out = fanout_estimate(
            g,
            process,
            origin=0,
            children=children,
            n_jobs=n_jobs,
            batched="auto",
            kwargs=kwargs,
            max_shard=max_shard,
        )
        assert _same_outcomes(ref, out)
        if record is True:
            assert all(isinstance(o[2], list) for o in out)
        elif record == "arrays":
            assert all(isinstance(o[2], TrajectoryArrays) for o in out)
        assert pools["SharedGraph"] == [] and pools["ProcessPoolExecutor"] == []
        assert len(pools["ThreadPoolExecutor"]) == 1

    def test_estimate_takes_threads(self, pools):
        g = grid_graph(6, 6)
        ref = estimate_dispersion(g, "parallel", reps=8, seed=3, record=True)
        out = estimate_dispersion(
            g, "parallel", reps=8, seed=3, record=True, n_jobs=2, kernels="cffi"
        )
        assert np.array_equal(ref.samples, out.samples)
        assert ref.trajectories == out.trajectories
        assert pools["SharedGraph"] == [] and pools["ProcessPoolExecutor"] == []
        assert len(pools["ThreadPoolExecutor"]) == 1

    def test_stress_more_threads_than_cores(self):
        """Many threads switching often share one graph and provider; a
        race on either would break bit-identity."""
        g = grid_graph(6, 6)
        kwargs = {"record": True, "kernels": "cffi"}
        children = spawn_seed_sequences(12, 24)
        ref = runner_mod._round_outcomes(g, "parallel", 0, children, 1, "auto", kwargs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = fanout_estimate(
                g,
                "parallel",
                origin=0,
                children=children,
                n_jobs=8,
                batched="auto",
                kwargs=kwargs,
                max_shard=1,
            )
        finally:
            sys.setswitchinterval(interval)
        assert _same_outcomes(ref, out)

    @pytest.mark.parametrize(
        "graph,process,kwargs",
        [
            ("csr", "parallel", {"kernels": "numpy"}),
            ("implicit", "parallel", {"kernels": "cffi"}),
            ("csr", "parallel", {"kernels": "cffi", "tail_threshold": 16}),
            ("csr", "parallel", {"kernels": "cffi", "batched": False}),
            ("csr", "uniform", {"kernels": "cffi", "faithful_r": True}),
        ],
        ids=["numpy", "implicit", "tail_threshold", "batched-false", "faithful_r"],
    )
    def test_off_route_still_forks(self, pools, graph, process, kwargs):
        g = grid_graph(4, 4) if graph == "csr" else implicit_graph("grid", sides=(4, 4))
        ref = estimate_dispersion(g, process, reps=4, seed=8, **kwargs)
        out = estimate_dispersion(g, process, reps=4, seed=8, n_jobs=2, **kwargs)
        assert np.array_equal(ref.samples, out.samples)
        assert len(pools["ProcessPoolExecutor"]) == 1
        assert pools["ThreadPoolExecutor"] == []
        assert len(pools["SharedGraph"]) == (graph == "csr")

    def test_provider_resolved_once(self, monkeypatch):
        """From a cold registry the parent loads the provider once and
        hands the instance to every thread; no thread resolves it."""
        calls = []
        real_load = kernels_mod._load

        def load(name):
            calls.append(name)
            return real_load(name)

        monkeypatch.setattr(kernels_mod, "_CACHE", {})
        monkeypatch.setattr(kernels_mod, "_load", load)
        children = spawn_seed_sequences(4, 8)
        fanout_estimate(
            grid_graph(4, 4),
            "parallel",
            origin=0,
            children=children,
            n_jobs=2,
            batched="auto",
            kwargs={"kernels": "cffi"},
            max_shard=1,
        )
        assert calls == ["cffi"]

    def test_failure_cancels_queued_shards_and_joins(self, monkeypatch):
        """One shard raising reaches the caller unchanged; shards still
        queued never start, and every pool thread has exited."""
        release = threading.Event()
        started = []
        real_shard = fanout_mod.run_reps

        def shard(*args, **kwargs):
            started.append(args[2])
            if len(started) > 1:
                # hold later shards until the pool is shutting down, so
                # the failure cannot race the workers through the queue
                release.wait(timeout=10)
            return real_shard(*args, **kwargs)

        class Pool(ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                release.set()
                super().shutdown(wait=wait)

        monkeypatch.setattr(fanout_mod, "run_reps", shard)
        monkeypatch.setattr(fanout_mod, "ThreadPoolExecutor", Pool)
        baseline = threading.active_count()
        reps, n_jobs = 16, 2
        with pytest.raises(RuntimeError, match=r"exceeded max_rounds=0"):
            fanout_estimate(
                grid_graph(4, 4),
                "parallel",
                origin=0,
                children=spawn_seed_sequences(2, reps),
                n_jobs=n_jobs,
                batched="auto",
                kwargs={"kernels": "cffi", "max_rounds": 0},
                max_shard=1,
            )
        # the failing shard, plus at most one more per worker thread
        assert 1 <= len(started) <= n_jobs + 1 < reps
        assert threading.active_count() == baseline

    def test_fork_after_threads_does_not_warn(self, pools):
        """The thread pool lives only inside the call, so a later fork-path
        estimate forks a single-threaded process (Python >= 3.12 warns
        when a multi-threaded process forks)."""
        g = grid_graph(4, 4)
        baseline = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            threaded = estimate_dispersion(
                g, "parallel", reps=4, seed=6, n_jobs=2, kernels="cffi"
            )
            assert threading.active_count() == baseline
            forked = estimate_dispersion(
                g, "parallel", reps=4, seed=6, n_jobs=2, kernels="numpy"
            )
        assert np.array_equal(threaded.samples, forked.samples)
        assert len(pools["ThreadPoolExecutor"]) == 1
        assert len(pools["ProcessPoolExecutor"]) == 1
