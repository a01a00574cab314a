"""Tests for utility modules: RNG plumbing, chunking, stopwatch, validation."""

import numpy as np
import pytest

from repro.utils.chunking import chunk_ranges
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    check_in_range,
    check_nonnegative,
    check_positive,
    check_probability,
)


class TestRNG:
    def test_as_generator_from_int(self):
        a = as_generator(5)
        b = as_generator(5)
        assert a.random() == b.random()

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_spawn_independent_streams(self):
        streams = spawn_generators(7, 4)
        values = [s.random() for s in streams]
        assert len(set(values)) == 4

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn_generators(3, 3)]
        b = [g.random() for g in spawn_generators(3, 3)]
        assert a == b

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)


class TestChunking:
    def test_chunk_ranges_cover(self):
        ranges = chunk_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_chunk_ranges_more_chunks_than_items(self):
        ranges = chunk_ranges(2, 5)
        assert ranges == [(0, 1), (1, 2)]

    def test_chunk_ranges_empty(self):
        assert chunk_ranges(0, 3) == []

    def test_chunk_ranges_validation(self):
        with pytest.raises(ValueError):
            chunk_ranges(-1, 2)
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)

    @pytest.mark.parametrize(
        "total,num_chunks", [(1, 1), (7, 1), (7, 7), (100, 3), (101, 10), (5, 1000)]
    )
    def test_chunk_ranges_tile_evenly(self, total, num_chunks):
        ranges = chunk_ranges(total, num_chunks)
        assert len(ranges) == min(total, num_chunks)
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        sizes = [hi - lo for lo, hi in ranges]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        # The larger chunks come first.
        assert sizes == sorted(sizes, reverse=True)


class TestStopwatch:
    def test_stopwatch_measures_block(self):
        from repro.utils.timer import stopwatch

        with stopwatch() as sw:
            assert sw.seconds == 0.0
        assert sw.seconds > 0.0

    def test_stopwatch_records_on_raise(self):
        from repro.utils.timer import stopwatch

        with pytest.raises(RuntimeError):
            with stopwatch() as sw:
                raise RuntimeError("boom")
        assert sw.seconds > 0.0

    def test_timed_call(self):
        from repro.utils.timer import timed_call

        out, seconds = timed_call(lambda a, b=0: a + b, 2, b=3)
        assert out == 5
        assert seconds >= 0.0

    def test_session_shares_the_helper(self):
        # The session times runs with the shared utils helper, not a
        # private reimplementation.
        from repro.analytics import session
        from repro.utils.timer import timed_call

        assert session.timed_call is timed_call


class TestValidation:
    def test_probability(self):
        assert check_probability(0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability(-0.1)
        with pytest.raises(ValueError):
            check_probability(1.1)

    def test_positive_nonnegative(self):
        assert check_positive(1) == 1
        assert check_nonnegative(0) == 0
        with pytest.raises(ValueError):
            check_positive(0)
        with pytest.raises(ValueError):
            check_nonnegative(-1)

    def test_in_range(self):
        assert check_in_range(5, 0, 10) == 5
        with pytest.raises(ValueError):
            check_in_range(11, 0, 10)


class TestAtomicWrite:
    def test_round_trip(self, tmp_path):
        from repro.utils.fileio import atomic_write

        target = tmp_path / "nested" / "out.bin"
        result = atomic_write(target, lambda fh: fh.write(b"payload"))
        assert result == target
        assert target.read_bytes() == b"payload"
        # No temp droppings left behind.
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_failure_leaves_target_untouched(self, tmp_path):
        from repro.utils.fileio import atomic_write

        target = tmp_path / "out.bin"
        atomic_write(target, lambda fh: fh.write(b"original"))

        def explode(fh):
            fh.write(b"half-written garbage")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            atomic_write(target, explode)
        assert target.read_bytes() == b"original"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_non_durable_still_atomic(self, tmp_path):
        from repro.utils.fileio import atomic_write

        target = tmp_path / "out.bin"
        atomic_write(target, lambda fh: fh.write(b"scratch"), durable=False)
        assert target.read_bytes() == b"scratch"

    def test_torn_write_fault_surfaces_real_torn_file(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec, InjectedFault, injected_faults
        from repro.utils.fileio import atomic_write

        target = tmp_path / "out.bin"
        payload = b"0123456789" * 10
        plan = FaultPlan(
            faults=(FaultSpec("fileio.atomic_write", mode="torn_write"),)
        )
        with injected_faults(plan):
            with pytest.raises(InjectedFault):
                atomic_write(target, lambda fh: fh.write(payload))
        # The tear is *visible*: a truncated file replaced the target,
        # exactly the corruption readers must tolerate.
        torn = target.read_bytes()
        assert 0 < len(torn) < len(payload)
        assert payload.startswith(torn)
        # A clean retry heals it.
        atomic_write(target, lambda fh: fh.write(payload))
        assert target.read_bytes() == payload
