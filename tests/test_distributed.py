"""Tests for the simulated distributed compression pipeline."""

import numpy as np
import pytest

from repro.compress.uniform import RandomUniformSampling
from repro.distributed.engine import distributed_uniform_sampling
from repro.distributed.partition import EdgePartition
from repro.distributed.rma import RMAError, Window
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.weights import with_exponential_weights


def _named_graph(name: str, er300: CSRGraph) -> CSRGraph:
    return {
        "er300": er300,
        "weighted": with_exponential_weights(er300, seed=5),
        "rmat_directed": gen.rmat(9, 6, seed=0, directed=True),
        "path": gen.path_graph(7),
    }[name]


def _assert_same_graph(a: CSRGraph, b: CSRGraph) -> None:
    assert a.n == b.n and a.directed == b.directed
    assert np.array_equal(a.edge_src, b.edge_src)
    assert np.array_equal(a.edge_dst, b.edge_dst)
    if b.is_weighted:
        assert np.array_equal(a.edge_weights, b.edge_weights)
    else:
        assert a.edge_weights is None


class TestPartition:
    def test_contiguous_tiles_exactly(self, er300):
        part = EdgePartition.contiguous(er300, 7)
        part.validate(er300.num_edges)
        assert sum(hi - lo for lo, hi in part.ranges) == er300.num_edges

    def test_more_ranks_than_edges(self):
        g = gen.path_graph(3)
        part = EdgePartition.contiguous(g, 10)
        part.validate(g.num_edges)

    def test_validation(self, er300):
        with pytest.raises(ValueError):
            EdgePartition.contiguous(er300, 0)

    @pytest.mark.parametrize("num_ranks", [1, 2, 7, 64])
    def test_contiguous_sizes_differ_by_at_most_one(self, er300, num_ranks):
        part = EdgePartition.contiguous(er300, num_ranks)
        sizes = [hi - lo for lo, hi in part.ranges]
        assert part.num_ranks == len(part.ranges) == num_ranks
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize(
        "ranges",
        [
            ((0, 4), (5, 10)),  # gap
            ((0, 6), (4, 10)),  # overlap
            ((0, 4), (4, 9)),  # short cover
            ((4, 10), (0, 4)),  # out of order
        ],
        ids=["gap", "overlap", "short", "unordered"],
    )
    def test_validate_rejects_bad_tilings(self, ranges):
        part = EdgePartition(num_ranks=len(ranges), ranges=ranges)
        with pytest.raises(AssertionError):
            part.validate(10)


class TestWindow:
    def test_put_get_roundtrip(self):
        win = Window(10, dtype="int64")
        win.fence()
        win.put(2, [5, 6, 7])
        assert win.get(2, 3).tolist() == [5, 6, 7]
        win.fence()

    def test_access_requires_epoch_or_lock(self):
        win = Window(4)
        with pytest.raises(RMAError, match="epoch"):
            win.put(0, [1])
        win.lock(0)
        win.put(0, [1])
        win.unlock(0)
        with pytest.raises(RMAError):
            win.get(0, 1)

    def test_lock_discipline(self):
        win = Window(4)
        win.lock(1)
        with pytest.raises(RMAError, match="locked"):
            win.lock(2)
        with pytest.raises(RMAError, match="lock"):
            win.unlock(2)
        win.unlock(1)

    def test_bounds_checked(self):
        win = Window(4)
        win.fence()
        with pytest.raises(RMAError):
            win.put(3, [1, 2])
        with pytest.raises(RMAError):
            win.get(-1, 2)

    def test_accumulate_ops(self):
        win = Window(3, dtype="int64")
        win.fence()
        win.put(0, [1, 5, 3])
        win.accumulate(0, [2, 2, 2], op="sum")
        assert win.get(0, 3).tolist() == [3, 7, 5]
        win.accumulate(0, [4, 0, 9], op="max")
        assert win.get(0, 3).tolist() == [4, 7, 9]
        win.accumulate(0, [1, 1, 1], op="min")
        assert win.get(0, 3).tolist() == [1, 1, 1]
        with pytest.raises(ValueError):
            win.accumulate(0, [1], op="xor")

    def test_shared_memory_backend(self):
        with Window(8, dtype="uint8", shared=True) as win:
            win.fence()
            win.put(0, [1] * 8)
            attached = Window(8, dtype="uint8", shared=True, name=win.name)
            attached.fence()
            assert attached.get(0, 8).tolist() == [1] * 8
            attached._shm.close()

    def test_failed_construction_leaves_no_segment(self, monkeypatch):
        # create=True succeeds, then the ndarray wrap blows up: without
        # cleanup the segment would outlive the process (nothing holds a
        # Window to close), leaking /dev/shm until reboot.
        from multiprocessing import shared_memory

        from repro.distributed import rma as rma_mod

        created: list[str] = []
        real = shared_memory.SharedMemory

        class Recording(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if kwargs.get("create"):
                    created.append(self.name)

        class ExplodingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def ndarray(*args, **kwargs):
                raise RuntimeError("simulated wrap failure")

        monkeypatch.setattr(shared_memory, "SharedMemory", Recording)
        monkeypatch.setattr(rma_mod, "np", ExplodingNumpy())
        with pytest.raises(RuntimeError, match="wrap failure"):
            Window(8, dtype="uint8", shared=True)
        monkeypatch.undo()
        assert created, "test never created a segment"
        for name in created:
            with pytest.raises(FileNotFoundError):
                seg = real(name=name)
                seg.close()  # pragma: no cover — only on leak

    def test_close_is_idempotent(self):
        win = Window(8, dtype="uint8", shared=True)
        name = win.name
        win.close()
        assert win.name is None
        win.close()  # second close: no-op, no error
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_survives_external_unlink(self):
        win = Window(8, dtype="uint8", shared=True)
        win._shm.unlink()  # e.g. a sibling raced us to cleanup
        win.close()  # FileNotFoundError swallowed
        assert win.name is None


class TestDistributedEngine:
    def test_rank_count_invariance(self, er300):
        graphs = [
            distributed_uniform_sampling(er300, 0.5, num_ranks=r, seed=7).result.graph
            for r in (1, 3, 8)
        ]
        for g in graphs[1:]:
            assert np.array_equal(graphs[0].edge_src, g.edge_src)

    def test_backend_invariance(self, er300):
        a = distributed_uniform_sampling(
            er300, 0.4, num_ranks=4, seed=2, backend="inprocess"
        ).result.graph
        b = distributed_uniform_sampling(
            er300, 0.4, num_ranks=4, seed=2, backend="process"
        ).result.graph
        assert np.array_equal(a.edge_src, b.edge_src)

    @pytest.mark.parametrize("graph", ["er300", "weighted", "rmat_directed"])
    def test_matches_single_node_scheme(self, er300, graph):
        g = {
            "er300": er300,
            "weighted": with_exponential_weights(er300, seed=5),
            "rmat_directed": gen.rmat(9, 6, seed=0, directed=True),
        }[graph]
        dist = distributed_uniform_sampling(g, 0.6, num_ranks=5, seed=9).result.graph
        single = RandomUniformSampling(0.6).compress(g, seed=9).graph
        assert dist.directed == single.directed == g.directed
        assert np.array_equal(dist.edge_src, single.edge_src)
        assert np.array_equal(dist.edge_dst, single.edge_dst)
        if g.is_weighted:
            assert np.array_equal(dist.edge_weights, single.edge_weights)
        else:
            assert dist.edge_weights is None and single.edge_weights is None

    @pytest.mark.parametrize("backend", ["inprocess", "process"])
    @pytest.mark.parametrize("graph", ["er300", "weighted", "rmat_directed", "path"])
    def test_every_rank_count_matches_single_node(self, er300, graph, backend):
        g = _named_graph(graph, er300)
        single = RandomUniformSampling(0.45).compress(g, seed=11).graph
        for ranks in (1, 3, 8):
            dist = distributed_uniform_sampling(
                g, 0.45, num_ranks=ranks, seed=11, backend=backend
            ).result.graph
            _assert_same_graph(dist, single)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_probability_endpoints(self, er300, p):
        res = distributed_uniform_sampling(er300, p, num_ranks=3, seed=4)
        assert res.result.graph.num_edges == (er300.num_edges if p else 0)
        _assert_same_graph(
            res.result.graph, RandomUniformSampling(p).compress(er300, seed=4).graph
        )

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_invalid_probability_rejected(self, er300, p):
        with pytest.raises(ValueError, match="p must be in"):
            distributed_uniform_sampling(er300, p)

    @pytest.mark.parametrize("backend", ["inprocess", "process"])
    def test_edgeless_graph(self, backend):
        g = CSRGraph.empty(5)
        res = distributed_uniform_sampling(g, 0.5, num_ranks=3, seed=1, backend=backend)
        assert res.result.graph.n == 5 and res.result.graph.num_edges == 0
        assert res.edges_per_rank == () and res.deleted_per_rank == ()

    def test_result_records_scheme_and_params(self, er300):
        res = distributed_uniform_sampling(er300, 0.3, num_ranks=6, seed=0)
        assert res.result.scheme == "distributed_uniform"
        assert res.result.params == {"p": 0.3, "num_ranks": 6}
        assert res.result.original is er300
        assert res.num_ranks == len(res.edges_per_rank) == 6

    def test_per_rank_accounting(self, er300):
        res = distributed_uniform_sampling(er300, 0.5, num_ranks=4, seed=1)
        assert sum(res.edges_per_rank) == er300.num_edges
        assert sum(res.deleted_per_rank) == er300.num_edges - res.result.graph.num_edges

    def test_unknown_backend(self, er300):
        with pytest.raises(ValueError):
            distributed_uniform_sampling(er300, 0.5, backend="mpi")

    def test_directed_web_graph(self):
        """Fig. 8 runs on directed crawls."""
        g = gen.rmat(9, 6, seed=0, directed=True)
        res = distributed_uniform_sampling(g, 0.4, num_ranks=4, seed=3)
        assert res.result.graph.directed
        assert res.result.graph.num_edges < g.num_edges
