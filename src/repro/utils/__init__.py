"""Shared utilities: deterministic RNG plumbing, timing, chunking, validation."""

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.chunking import chunk_ranges
from repro.utils.validation import (
    check_probability,
    check_positive,
    check_nonnegative,
    check_in_range,
)

__all__ = [
    "as_generator",
    "spawn_generators",
    "chunk_ranges",
    "check_probability",
    "check_positive",
    "check_nonnegative",
    "check_in_range",
]
