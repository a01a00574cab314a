"""The edge-delta batch model: canonical form, validation, round trips.

``EdgeDelta`` is the value object of the streaming subsystem — these
tests pin its contract: two batches describing the same edit are equal
(and share a delta id) regardless of input order, every malformed batch
fails with the offender named, and the text-stream round trip is
lossless.
"""

import numpy as np
import pytest

from repro.graphs.edgelist import read_text
from repro.stream.delta import EdgeDelta, read_stream, write_stream


class TestCanonicalForm:
    def test_input_order_is_irrelevant(self):
        a = EdgeDelta.build(inserts=[(3, 1), (0, 2)], deletes=[(5, 4)])
        b = EdgeDelta.build(inserts=[(2, 0), (1, 3)], deletes=[(4, 5)])
        assert a == b
        assert a.delta_id == b.delta_id

    def test_undirected_endpoints_are_lo_hi(self):
        d = EdgeDelta.build(inserts=[(7, 2)])
        assert d.insert_src.tolist() == [2]
        assert d.insert_dst.tolist() == [7]

    def test_directed_endpoints_are_kept(self):
        d = EdgeDelta.build(inserts=[(7, 2)], directed=True)
        assert (d.insert_src[0], d.insert_dst[0]) == (7, 2)

    def test_weights_follow_their_edges_through_the_sort(self):
        d = EdgeDelta.build(inserts=[(3, 1, 30.0), (0, 2, 10.0)])
        assert d.insert_src.tolist() == [0, 1]
        assert d.insert_weights.tolist() == [10.0, 30.0]

    def test_delta_id_tracks_content(self):
        base = EdgeDelta.build(inserts=[(0, 1)])
        assert base.delta_id != EdgeDelta.build(inserts=[(0, 2)]).delta_id
        assert base.delta_id != EdgeDelta.build(deletes=[(0, 1)]).delta_id
        assert (
            base.delta_id
            != EdgeDelta.build(inserts=[(0, 1)], directed=True).delta_id
        )
        assert (
            base.delta_id
            != EdgeDelta.build(inserts=[(0, 1)], num_vertices=9).delta_id
        )

    def test_arrays_are_frozen(self):
        d = EdgeDelta.build(inserts=[(0, 1)], updates=[(2, 3, 1.0)])
        for arr in (d.insert_src, d.update_weights):
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_size_and_empty(self):
        d = EdgeDelta.build(
            inserts=[(0, 1)], deletes=[(2, 3)], updates=[(4, 5, 1.0)]
        )
        assert (d.num_inserts, d.num_deletes, d.num_updates) == (1, 1, 1)
        assert d.size == 3
        assert not d.is_empty
        assert EdgeDelta.empty().is_empty
        # growth-only batches are not empty: they still change the graph
        assert not EdgeDelta.empty(num_vertices=5).is_empty

    def test_touched_vertices(self):
        d = EdgeDelta.build(
            inserts=[(0, 1)], deletes=[(2, 3)], updates=[(1, 4, 1.0)]
        )
        assert d.touched_vertices().tolist() == [0, 1, 2, 3, 4]


class TestValidation:
    def test_self_loop_named(self):
        with pytest.raises(ValueError, match=r"insert of self-loop \(3, 3\)"):
            EdgeDelta.build(inserts=[(3, 3)])

    def test_negative_endpoint_named(self):
        with pytest.raises(ValueError, match=r"delete endpoint of edge"):
            EdgeDelta.build(deletes=[(-1, 2)])

    def test_out_of_range_vs_num_vertices_named(self):
        with pytest.raises(ValueError, match=r"out of range for num_vertices=3"):
            EdgeDelta.build(inserts=[(0, 5)], num_vertices=3)

    def test_duplicate_within_op_named(self):
        # (1, 0) and (0, 1) are the same undirected edge.
        with pytest.raises(ValueError, match=r"duplicate insert of edge \(0, 1\)"):
            EdgeDelta.build(inserts=[(1, 0), (0, 1)])

    def test_edge_in_two_op_sets_named(self):
        with pytest.raises(ValueError, match=r"appears in both insert"):
            EdgeDelta.build(inserts=[(0, 1)], deletes=[(1, 0)])

    def test_mixed_insert_arity_rejected(self):
        with pytest.raises(ValueError, match="all \\(u, v\\) or all"):
            EdgeDelta.build(inserts=[(0, 1), (2, 3, 1.0)])

    def test_update_needs_weight(self):
        with pytest.raises(ValueError, match="updates must be"):
            EdgeDelta.build(updates=[(0, 1)])

    def test_negative_num_vertices_rejected(self):
        with pytest.raises(ValueError, match="num_vertices must be >= 0"):
            EdgeDelta.build(num_vertices=-1)


class TestRoundTrips:
    """The text stream file is the one on-disk delta form: it must keep
    every canonical field, so a read-back batch equals the written one and
    shares its delta id."""

    def make(self, weighted=False, directed=False):
        inserts = (
            [(0, 1, 1.5), (3, 2, 0.1 + 0.2)] if weighted else [(0, 1), (3, 2)]
        )
        return EdgeDelta.build(
            inserts=inserts,
            deletes=[(4, 5)],
            updates=[(6, 7, 2.0 / 3.0)],
            directed=directed,
            num_vertices=10,
        )

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_stream_roundtrip_is_lossless(self, weighted, directed, tmp_path):
        d = self.make(weighted, directed)
        (back,) = read_stream(write_stream([d], tmp_path / "d.txt"))
        assert back == d
        assert back.delta_id == d.delta_id
        assert back.directed == directed
        assert back.num_vertices == 10
        for op in ("insert", "delete", "update"):
            assert np.array_equal(getattr(back, f"{op}_src"), getattr(d, f"{op}_src"))
            assert np.array_equal(getattr(back, f"{op}_dst"), getattr(d, f"{op}_dst"))
        if weighted:
            # Full-precision repr: 0.1 + 0.2 survives bit for bit.
            assert back.insert_weights.tolist() == d.insert_weights.tolist()
        else:
            assert back.insert_weights is None
        assert back.update_weights.tolist() == d.update_weights.tolist()

    def test_commit_n_roundtrip_keeps_vertex_growth(self, tmp_path):
        grow = EdgeDelta.build(inserts=[(0, 1)], num_vertices=12)
        plain = EdgeDelta.build(inserts=[(0, 1)])
        path = write_stream([grow, plain], tmp_path / "n.txt")
        assert "commit n=12" in path.read_text()
        back = read_stream(path)
        assert [b.num_vertices for b in back] == [12, None]
        # num_vertices is part of the id: the two batches differ only there.
        assert back == [grow, plain]
        assert back[0].delta_id != back[1].delta_id

    def test_delta_id_is_pinned(self, tmp_path):
        # The id formula is the ledger's link between generations: a
        # stream written by any earlier build must replay to these ids.
        d = EdgeDelta.build(
            inserts=[(0, 9, 0.1 + 0.2), (3, 2, 1.5)],
            deletes=[(4, 5)],
            updates=[(6, 7, 2 / 3)],
            num_vertices=12,
        )
        want = "f9567c14944bc6437b6f1a706216c8d8310c3ed1acb3f78e22a5973d6a4d193a"
        assert d.delta_id == want
        (back,) = read_stream(write_stream([d], tmp_path / "pin.txt"))
        assert back.delta_id == want

    def test_empty_growth_only_batch_roundtrips(self, tmp_path):
        d = EdgeDelta.empty(num_vertices=5)
        (back,) = read_stream(write_stream([d], tmp_path / "e.txt"))
        assert back == d
        assert back.size == 0 and back.num_vertices == 5


class TestStreamFiles:
    def test_stream_roundtrip(self, tmp_path):
        deltas = [
            EdgeDelta.build(inserts=[(0, 1), (1, 2)], num_vertices=4),
            EdgeDelta.build(deletes=[(0, 1)], inserts=[(2, 3)]),
        ]
        path = write_stream(deltas, tmp_path / "s.txt")
        back = read_stream(path)
        assert back == deltas
        assert [d.delta_id for d in back] == [d.delta_id for d in deltas]

    def test_weighted_stream_roundtrip(self, tmp_path):
        deltas = [
            EdgeDelta.build(inserts=[(0, 1, 0.5)], num_vertices=3),
            EdgeDelta.build(updates=[(0, 1, 2.5)]),
        ]
        back = read_stream(write_stream(deltas, tmp_path / "w.txt"))
        assert back == deltas

    def test_plain_edge_list_is_a_one_batch_stream(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("0 1\n1 2\n\n% konect comment\n2 3\n")
        (delta,) = read_stream(path)
        assert delta.num_inserts == 3
        assert delta.num_deletes == 0

    def test_header_directedness_and_override(self, tmp_path):
        path = tmp_path / "dir.txt"
        path.write_text("# repro edge stream: directed=1\n+ 2 0\ncommit\n")
        (delta,) = read_stream(path)
        assert delta.directed
        assert (delta.insert_src[0], delta.insert_dst[0]) == (2, 0)
        (und,) = read_stream(path, directed=False)
        assert not und.directed

    def test_commit_n_grows_the_vertex_set(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("+ 0 1\ncommit n=9\n")
        (delta,) = read_stream(path)
        assert delta.num_vertices == 9

    def test_invalid_batch_names_the_commit_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+ 0 1\n- 1 0\ncommit\n")
        with pytest.raises(ValueError, match=r"bad.txt:3: invalid batch"):
            read_stream(path)

    def test_delete_row_with_weight_rejected(self, tmp_path):
        path = tmp_path / "delw.txt"
        path.write_text("- 0 1 2.5\n")
        with pytest.raises(ValueError, match="carries a weight"):
            read_stream(path)

    def test_update_row_without_weight_rejected(self, tmp_path):
        path = tmp_path / "updw.txt"
        path.write_text("= 0 1\n")
        with pytest.raises(ValueError, match="needs a weight"):
            read_stream(path)

    def test_malformed_commit_row_named(self, tmp_path):
        path = tmp_path / "badcommit.txt"
        path.write_text("+ 0 1\ncommit n=five\n")
        with pytest.raises(ValueError, match=r"badcommit.txt:2: malformed commit"):
            read_stream(path)

    def test_mixed_directedness_rejected_on_write(self, tmp_path):
        deltas = [
            EdgeDelta.build(inserts=[(0, 1)]),
            EdgeDelta.build(inserts=[(1, 2)], directed=True),
        ]
        with pytest.raises(ValueError, match="share the stream's directedness"):
            write_stream(deltas, tmp_path / "mixed.txt")


#: (readers, file text, the error's expected line and field) for untrusted
#: text that used to escape as a bare OverflowError / int() error or
#: parse silently.
BAD_TEXT = {
    "endpoint_overflow": (
        (read_text, read_stream),
        "0 1\n0 99999999999999999999\n",
        r":2: malformed edge row .*endpoint v=99999999999999999999",
    ),
    "header_n": ((read_text,), "# n=abc\n0 1\n", r":1: malformed header .*n="),
    "header_directed": (
        (read_text, read_stream),
        "# directed=x\n0 1\n",
        r":1: malformed header .*directed=",
    ),
    "header_directed_empty": (
        (read_text, read_stream),
        "# repro edge stream: directed=\n0 1\n",
        r":1: malformed header .*directed=",
    ),
    "nan_weight": (
        (read_text, read_stream),
        "0 1 1.5\n1 2 nan\n",
        r":2: malformed edge row .*weight must be finite; w='nan'",
    ),
    "inf_weight": (
        (read_text, read_stream),
        "0 1 inf\n",
        r":1: malformed edge row .*weight must be finite; w='inf'",
    ),
}


@pytest.mark.parametrize(
    "reader,case",
    [(r, c) for c, (readers, _, _) in BAD_TEXT.items() for r in readers],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_untrusted_text_errors_name_file_line_and_field(reader, case, tmp_path):
    _, text, pattern = BAD_TEXT[case]
    path = tmp_path / f"{case}.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"{case}.txt" + pattern):
        reader(path)
