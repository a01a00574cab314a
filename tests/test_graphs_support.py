"""Tests for datasets, views, edge-list I/O, weights and properties."""

import numpy as np
import pytest

from repro.graphs import datasets
from repro.graphs.csr import CSRGraph
from repro.graphs.edgelist import (
    iter_edge_rows,
    parse_edge_row,
    read_text,
    storage_bytes,
    write_text,
)
from repro.graphs.properties import degree_statistics, density, summarize
from repro.graphs.views import cluster_subgraphs
from repro.graphs.weights import (
    with_exponential_weights,
    with_uniform_weights,
    with_unit_weights,
)
from repro.graphs import generators as gen


class TestDatasets:
    def test_registry_nonempty(self):
        names = datasets.available()
        assert len(names) >= 30
        assert "s-cds" in names and "v-usa" in names and "h-wdc" in names

    def test_load_basic(self):
        g = datasets.load("s-you", seed=0)
        assert g.num_edges > 0
        g.validate()

    def test_fig5_trio_triangle_regimes(self):
        """The Fig. 5 graphs are selected by T/n: s-cds >> v-ewk > s-pok."""
        from repro.algorithms.triangles import count_triangles

        ratios = {}
        for name in ("s-cds", "s-pok", "v-ewk"):
            g = datasets.load(name, seed=0)
            ratios[name] = count_triangles(g) / g.n
        assert ratios["s-cds"] > ratios["v-ewk"] > ratios["s-pok"]

    def test_road_network_weighted_and_triangle_free(self):
        from repro.algorithms.triangles import count_triangles

        g = datasets.load("v-usa", seed=0)
        assert g.is_weighted
        assert count_triangles(g) == 0

    def test_web_crawls_directed(self):
        g = datasets.load("h-dgh", seed=0)
        assert g.directed

    def test_weighted_flag(self):
        g = datasets.load("s-you", seed=0, weighted=True)
        assert g.is_weighted

    def test_describe_and_paper_stats(self):
        spec = datasets.describe("s-cds")
        assert spec.paper_m == 15_000_000
        assert datasets.PAPER_STATS["s-pok"] == (1_600_000, 30_000_000)
        with pytest.raises(KeyError):
            datasets.describe("nope")

    def test_deterministic(self):
        a = datasets.load("s-pok", seed=1)
        b = datasets.load("s-pok", seed=1)
        assert np.array_equal(a.edge_src, b.edge_src)


class TestViews:
    def test_cluster_subgraphs_partition(self, er300):
        mapping = np.arange(er300.n) % 5
        seen = []
        for cid, members in cluster_subgraphs(er300, mapping):
            seen.extend(members.tolist())
            assert np.all(mapping[members] == cid)
        assert sorted(seen) == list(range(er300.n))

    def test_cluster_subgraphs_validation(self, er300):
        with pytest.raises(ValueError):
            list(cluster_subgraphs(er300, np.zeros(3, dtype=np.int64)))


class TestEdgeList:
    def test_text_roundtrip(self, tiny, tmp_path):
        path = tmp_path / "g.txt"
        write_text(tiny, path)
        back = read_text(path)
        assert back.n == tiny.n
        assert np.array_equal(back.edge_src, tiny.edge_src)

    def test_text_roundtrip_weighted(self, tiny, tmp_path):
        wg = tiny.with_weights(np.linspace(0.5, 2.5, 5))
        path = tmp_path / "w.txt"
        write_text(wg, path)
        back = read_text(path)
        assert back.is_weighted
        assert np.allclose(back.edge_weights, wg.edge_weights)

    def test_text_infers_n_without_header(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("0 3\n1 2\n")
        g = read_text(path)
        assert g.n == 4
        assert g.num_edges == 2

    def test_storage_bytes_scales_with_edges(self, er300):
        half = er300.keep_edges(np.arange(er300.num_edges) < er300.num_edges // 2)
        assert storage_bytes(half) < storage_bytes(er300)


class TestEdgeListRobustness:
    """Real SNAP/KONECT dumps are messy; the reader must name offenders."""

    def test_blank_lines_crlf_and_percent_comments(self, tmp_path):
        path = tmp_path / "messy.txt"
        path.write_bytes(
            b"% KONECT header\r\n"
            b"\r\n"
            b"0 1\r\n"
            b"   \n"
            b"# plain comment\n"
            b"1 2\r\n"
        )
        g = read_text(path)
        assert g.n == 3 and g.num_edges == 2

    def test_too_few_fields_named(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("0 1\n7\n")
        with pytest.raises(ValueError, match=r"short.txt:2: malformed edge row '7'"):
            read_text(path)

    def test_too_many_fields_named(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("0 1 2.0 extra\n")
        with pytest.raises(ValueError, match=r"wide.txt:1: .*4 fields"):
            read_text(path)

    def test_non_integer_endpoint_named(self, tmp_path):
        path = tmp_path / "alpha.txt"
        path.write_text("0 1\na b\n")
        with pytest.raises(ValueError, match=r"alpha.txt:2: .*must be integers"):
            read_text(path)

    def test_non_numeric_weight_named(self, tmp_path):
        path = tmp_path / "badw.txt"
        path.write_text("0 1 heavy\n")
        with pytest.raises(ValueError, match=r"badw.txt:1: .*must be a number"):
            read_text(path)

    def test_mixed_weightedness_named_both_directions(self, tmp_path):
        gains = tmp_path / "gains.txt"
        gains.write_text("0 1\n1 2 2.5\n")
        with pytest.raises(ValueError, match=r"gains.txt:2: mixed"):
            read_text(gains)
        loses = tmp_path / "loses.txt"
        loses.write_text("0 1 2.5\n1 2\n")
        with pytest.raises(ValueError, match=r"loses.txt:2: mixed"):
            read_text(loses)

    def test_endpoint_beyond_header_n_named(self, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text("# n=3\n0 1\n\n0 5\n")
        with pytest.raises(
            ValueError, match=r"small.txt:4: endpoint v=5 out of range for header n=3"
        ):
            read_text(path)

    def test_endpoint_beyond_num_vertices_named(self, tmp_path):
        path = tmp_path / "under.txt"
        path.write_text("0 1\n2 1\n")
        with pytest.raises(
            ValueError, match=r"under.txt:2: endpoint u=2 out of range for num_vertices=2"
        ):
            read_text(path, num_vertices=2)

    def test_endpoint_equal_to_bound_rejected(self, tmp_path):
        edge = tmp_path / "edge.txt"
        edge.write_text("# n=4\n0 3\n")
        assert read_text(edge).n == 4
        over = tmp_path / "over.txt"
        over.write_text("# n=4\n0 3\n4 0\n")
        with pytest.raises(
            ValueError, match=r"over.txt:3: endpoint u=4 out of range for header n=4"
        ):
            read_text(over)

    def test_weighted_row_out_of_range_named(self, tmp_path):
        path = tmp_path / "wtd.txt"
        path.write_text("# n=3\n0 1 0.5\n1 9 2.0\n")
        with pytest.raises(
            ValueError, match=r"wtd.txt:3: endpoint v=9 out of range for header n=3"
        ):
            read_text(path)

    def test_num_vertices_overrides_header_n(self, tmp_path):
        path = tmp_path / "grow.txt"
        path.write_text("# n=3\n0 5\n")
        g = read_text(path, num_vertices=6)
        assert g.n == 6 and g.num_edges == 1
        with pytest.raises(ValueError, match=r"grow.txt:2: .*num_vertices=5"):
            read_text(path, num_vertices=5)

    def test_header_n_keeps_isolated_vertices(self, tmp_path):
        path = tmp_path / "iso.txt"
        path.write_text("# n=10 directed=1\n0 1\n1 2\n")
        g = read_text(path)
        assert g.n == 10 and g.directed and g.num_edges == 2
        assert g.degrees[3:].tolist() == [0] * 7

    def test_iter_edge_rows_linenos_point_into_the_file(self):
        rows = list(
            iter_edge_rows(["# c\n", "\n", "0 1\n", "% k\n", "2 3\r\n"])
        )
        assert rows == [(3, "0 1"), (5, "2 3")]

    def test_parse_edge_row_weight_optional(self):
        assert parse_edge_row("4 5") == (4, 5, None)
        assert parse_edge_row("4 5 0.25") == (4, 5, 0.25)


class TestWeights:
    def test_uniform_range(self, er300):
        wg = with_uniform_weights(er300, 2.0, 3.0, seed=0)
        assert np.all((wg.edge_weights >= 2.0) & (wg.edge_weights < 3.0))
        with pytest.raises(ValueError):
            with_uniform_weights(er300, 3.0, 2.0)

    def test_exponential_positive(self, er300):
        wg = with_exponential_weights(er300, 2.0, seed=0)
        assert np.all(wg.edge_weights > 0)
        with pytest.raises(ValueError):
            with_exponential_weights(er300, -1.0)

    def test_unit(self, er300):
        wg = with_unit_weights(er300)
        assert wg.total_weight() == er300.num_edges


class TestProperties:
    def test_summarize_fields(self, plc300):
        from repro.algorithms.triangles import count_triangles

        s = summarize(plc300)
        assert s.num_vertices == plc300.n
        assert s.num_triangles == count_triangles(plc300)
        assert s.triangles_per_vertex == pytest.approx(s.num_triangles / s.num_vertices)
        assert "T/n" in s.as_dict()

    def test_density(self):
        assert density(gen.complete_graph(5)) == pytest.approx(1.0)
        assert density(CSRGraph.empty(1)) == 0.0

    def test_degree_statistics(self, star20):
        stats = degree_statistics(star20)
        assert stats["max"] == 19
        assert stats["median"] == 1.0
