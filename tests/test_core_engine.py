"""Tests for the execution engine and runtime loop."""

import numpy as np
import pytest

from repro.core.engine import run_kernels
from repro.core.kernels import EdgeKernel, TriangleKernel, VertexKernel
from repro.core.runtime import SlimGraphRuntime
from repro.core.sg import SG
from repro.compress.uniform import RandomUniformKernel
from repro.compress.spanner import Spanner
from repro.graphs import generators as gen


class DeleteHighDegreeEdges(EdgeKernel):
    """Toy deterministic kernel: drop edges whose endpoint degrees sum high."""

    def __init__(self, cutoff: int):
        self.cutoff = cutoff

    def __call__(self, e, sg):
        if e.u.deg + e.v.deg > self.cutoff:
            sg.delete(e)


class CountingVertexKernel(VertexKernel):
    def __init__(self):
        self.calls = 0

    def __call__(self, v, sg):
        self.calls += 1


class TestRunKernels:
    def test_vertex_scope_enumerates_all(self, er300):
        kernel = CountingVertexKernel()
        sg = SG(er300)
        result = run_kernels(er300, kernel, sg)
        assert result.num_instances == er300.n
        assert kernel.calls == er300.n

    def test_edge_scope(self, er300):
        sg = SG(er300)
        kernel = DeleteHighDegreeEdges(0)  # deletes everything
        result = run_kernels(er300, kernel, sg)
        assert result.num_deleted_edges == er300.num_edges

    def test_triangle_scope(self, plc300):
        from repro.algorithms.triangles import count_triangles

        class CountT(TriangleKernel):
            def __init__(self):
                self.calls = 0

            def __call__(self, t, sg):
                self.calls += 1

        kernel = CountT()
        run_kernels(plc300, kernel, SG(plc300))
        assert kernel.calls == count_triangles(plc300)

    def test_subgraph_scope_requires_mapping(self, er300):
        from repro.compress.spanner import DeriveSpannerKernel

        with pytest.raises(RuntimeError, match="mapping"):
            run_kernels(er300, DeriveSpannerKernel(), SG(er300))

    def test_unknown_backend(self, er300):
        with pytest.raises(ValueError):
            run_kernels(er300, RandomUniformKernel(), SG(er300, {"p": 0.5}), backend="gpu")

    def test_deterministic_kernel_backend_equivalence(self, er300):
        """A deterministic kernel gives identical results on every backend."""
        outputs = []
        for backend in ("serial", "chunked", "process"):
            sg = SG(er300)
            run_kernels(
                er300, DeleteHighDegreeEdges(12), sg, backend=backend, num_chunks=4, seed=0
            )
            outputs.append(sg.buffer.edge_deleted.copy())
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[0], outputs[2])

    def test_chunked_process_equivalence_random_kernel(self, er300):
        """Random kernels: chunked and process backends merge identically."""
        masks = []
        for backend in ("chunked", "process"):
            sg = SG(er300, {"p": 0.5})
            run_kernels(
                er300, RandomUniformKernel(), sg, backend=backend, num_chunks=4, seed=9
            )
            masks.append(sg.buffer.edge_deleted.copy())
        assert np.array_equal(masks[0], masks[1])

    def test_chunked_worker_count_invariant(self, er300):
        """Same chunk count -> same result regardless of worker processes."""
        sg1 = SG(er300, {"p": 0.4})
        run_kernels(er300, RandomUniformKernel(), sg1, backend="chunked", num_chunks=3, seed=5)
        sg2 = SG(er300, {"p": 0.4})
        run_kernels(er300, RandomUniformKernel(), sg2, backend="chunked", num_chunks=3, seed=5)
        assert np.array_equal(sg1.buffer.edge_deleted, sg2.buffer.edge_deleted)


class TestElementSpace:
    """Views are enumerated lazily — no up-front n/m-sized Python list."""

    def test_views_are_generated_on_demand(self, er300):
        from repro.core.engine import _ElementSpace

        space = _ElementSpace(er300, RandomUniformKernel(), SG(er300))
        assert space.count == er300.num_edges
        it = space.views(0, space.count)
        assert iter(it) is it  # a generator, not a materialized list
        first = next(it)
        assert first.id == 0

    def test_chunk_ranges_partition_all_scopes(self, plc300):
        from repro.algorithms.triangles import count_triangles
        from repro.core.engine import _ElementSpace

        class TriangleProbe(TriangleKernel):
            pass

        sg = SG(plc300)
        space = _ElementSpace(plc300, TriangleProbe(), sg)
        assert space.count == count_triangles(plc300)
        mid = space.count // 2
        halves = list(space.views(0, mid)) + list(space.views(mid, space.count))
        assert len(halves) == space.count
        assert all(len(t.edge_ids) == 3 for t in halves)

    def test_early_stop_constructs_no_further_views(self, er300):
        from repro.core.engine import _ElementSpace

        space = _ElementSpace(er300, CountingVertexKernel(), SG(er300))
        it = space.views(0, space.count)
        seen = [next(it) for _ in range(5)]
        assert [v.id for v in seen] == [0, 1, 2, 3, 4]
        it.close()  # abandoning the sweep allocates nothing more


class TestRuntime:
    def test_single_round_for_nonconverging_schemes(self, er300):
        runtime = SlimGraphRuntime(RandomUniformKernel(), params={"p": 0.5})
        result = runtime.run(er300, seed=0)
        assert result.rounds == 1
        assert result.graph.num_edges < er300.num_edges

    def test_subgraph_requires_mapping_fn(self, er300):
        from repro.compress.spanner import DeriveSpannerKernel

        runtime = SlimGraphRuntime(DeriveSpannerKernel())
        with pytest.raises(RuntimeError, match="mapping_fn"):
            runtime.run(er300)

    def test_spanner_through_runtime(self, plc300):
        scheme = Spanner(4)
        runtime = SlimGraphRuntime(
            scheme.make_kernel(), mapping_fn=scheme.mapping_fn(), params={}
        )
        result = runtime.run(plc300, seed=2)
        assert result.graph.num_edges < plc300.num_edges
        from repro.algorithms.components import connected_components

        assert (
            connected_components(result.graph).num_components
            == connected_components(plc300).num_components
        )

    def test_max_rounds_bound(self, er300):
        class NeverConverges(VertexKernel):
            def __call__(self, v, sg):
                sg.update_convergence(False)

        runtime = SlimGraphRuntime(NeverConverges(), max_rounds=3)
        result = runtime.run(er300)
        assert result.rounds == 3


#: One configuration of every registered scheme that has a kernel program.
KERNEL_SCHEMES = (
    "low_degree(max_degree=1)",
    "spanner(k=8)",
    "spectral(p=0.5)",
    "summarization(epsilon=0.3)",
    "EO-0.8-1-TR",
    "uniform(p=0.5)",
    "vertex_sampling(p=0.7)",
)


class TestSchemeKernelBackends:
    @pytest.mark.parametrize("spec", KERNEL_SCHEMES)
    def test_chunked_and_process_backends_agree(self, plc300, spec):
        """A scheme's kernel program gives the same graph on both
        chunked backends."""
        from repro.compress.registry import build_scheme

        scheme = build_scheme(spec)
        chunked, process = (
            scheme.compress_via_kernels(plc300, seed=5, backend=backend, num_chunks=4).graph
            for backend in ("chunked", "process")
        )
        assert chunked.n == process.n
        assert np.array_equal(chunked.edge_src, process.edge_src)
        assert np.array_equal(chunked.edge_dst, process.edge_dst)
        if chunked.edge_weights is None:
            assert process.edge_weights is None
        else:
            assert np.array_equal(chunked.edge_weights, process.edge_weights)

    def test_every_kernel_scheme_is_covered(self):
        from repro.compress.registry import build_scheme, registered_schemes

        with_kernels = {
            name
            for name, entry in registered_schemes().items()
            if build_scheme(entry.example).make_kernel() is not None
        }
        assert with_kernels == {build_scheme(spec).name for spec in KERNEL_SCHEMES}


class TestLowDegreeKernelProgram:
    @pytest.mark.parametrize("backend", ["serial", "chunked", "process"])
    @pytest.mark.parametrize("max_degree", [0, 1, 5, 8])
    def test_kernel_program_equals_fast_path(self, plc300, er300, max_degree, backend):
        """One kernel pass drops exactly the vertices ``compress`` drops
        in its one round, whatever ``max_degree`` is."""
        from repro.compress.registry import build_scheme

        scheme = build_scheme(f"low_degree(max_degree={max_degree})")
        for g in (plc300, er300):
            fast = scheme.compress(g).graph
            kernel = scheme.compress_via_kernels(
                g, seed=5, backend=backend, num_chunks=4
            ).graph
            assert kernel.n == fast.n
            assert np.array_equal(kernel.edge_src, fast.edge_src)
            assert np.array_equal(kernel.edge_dst, fast.edge_dst)

    def test_max_degree_reaches_the_kernel(self, plc300):
        from repro.compress.registry import build_scheme

        kept = build_scheme("low_degree(max_degree=5)").compress_via_kernels(plc300)
        assert kept.graph.num_edges == 1095 < plc300.num_edges

    @pytest.mark.parametrize(
        "spec",
        [
            "low_degree(max_degree=1, rounds=none)",
            "low_degree(max_degree=1, rounds=2)",
            "low_degree(max_degree=1, relabel=true)",
        ],
    )
    def test_settings_one_pass_cannot_express_have_no_program(self, plc300, spec):
        from repro.compress.registry import build_scheme

        with pytest.raises(NotImplementedError, match="has no kernel program"):
            build_scheme(spec).compress_via_kernels(plc300)
