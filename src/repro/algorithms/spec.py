"""Declarative algorithm specifications — the scheme-spec API mirrored
onto the algorithm axis.

An :class:`AlgorithmSpec` is the serializable description of a configured
algorithm: a canonical registry name plus a parameter mapping.  Every
string the benchmark harness, the session grid, or a remote caller uses to
name an algorithm parses into an ``AlgorithmSpec``, and every spec formats
back to the identical string::

    AlgorithmSpec.parse("pagerank(iterations=50)")
    AlgorithmSpec.parse("sssp(delta=2.0, source=0)")

Values are type-preserving exactly as for schemes: ``iterations=50`` stays
``int``, ``delta=2.0`` stays ``float``, booleans and ``none`` survive.
``to_dict``/``from_dict`` give the JSON-safe transport form.  ``parse``
resolves registry aliases (``"pr"`` → ``pagerank``) and per-algorithm
parameter aliases (``iterations`` → ``max_iterations``), so equal
configurations compare equal regardless of which surface spelled them.

This class intentionally shares its grammar with
:class:`repro.compress.spec.SchemeSpec` (minus pipelines and TR labels,
which have no algorithm analogue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.compress.spec import _NAMED_FORM, _format_value, _freeze, _parse_params

__all__ = ["AlgorithmSpec"]


@dataclass(frozen=True, eq=False)
class AlgorithmSpec:
    """An algorithm name + parameters; value-like and JSON-transportable."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))

    # -- identity ---------------------------------------------------------- #

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgorithmSpec):
            return NotImplemented
        return self.name == other.name and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.name, _freeze(self.params)))

    def __repr__(self) -> str:
        return f"AlgorithmSpec({self.to_string()!r})"

    # -- parsing ----------------------------------------------------------- #

    @classmethod
    def parse(cls, text: str) -> "AlgorithmSpec":
        """Parse ``"name"`` or ``"name(key=value, …)"`` (alias-aware)."""
        text = text.strip()
        if not text:
            raise ValueError("empty algorithm spec")
        m = _NAMED_FORM.match(text)
        if not m:
            raise ValueError(f"cannot parse algorithm spec {text!r}")
        name, args = m.groups()
        name = _canonical_name(name)
        params: dict[str, Any] = {}
        if args and args.strip():
            params = _parse_params(
                name,
                args,
                text,
                positional=_positional_name,
                canonical=_canonical_param,
                label="algorithm",
            )
        return cls(name, params)

    # -- formatting -------------------------------------------------------- #

    def to_string(self) -> str:
        """The canonical spec string; ``parse(s).to_string()`` is stable."""
        if not self.params:
            return self.name
        inner = ", ".join(
            f"{k}={_format_value(v)}" for k, v in self.params.items()
        )
        return f"{self.name}({inner})"

    # -- JSON transport ---------------------------------------------------- #

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "AlgorithmSpec":
        return cls(data["name"], dict(data.get("params", {})))

    # -- construction ------------------------------------------------------ #

    def build(self, **overrides):
        """Bind through the registry; returns a runnable
        :class:`~repro.algorithms.registry.BoundAlgorithm`."""
        from repro.algorithms.registry import build_algorithm

        return build_algorithm(self, **overrides)


def _canonical_name(name: str) -> str:
    """Resolve registry aliases; unknown names pass through lowercased
    (validation happens at build time, not parse time)."""
    from repro.algorithms.registry import resolve_algorithm

    return resolve_algorithm(name) or name.lower()


def _positional_name(name: str) -> str | None:
    from repro.algorithms.registry import algorithm_positional

    return algorithm_positional(name)


def _canonical_param(name: str, key: str) -> str:
    from repro.algorithms.registry import canonical_param

    return canonical_param(name, key)
