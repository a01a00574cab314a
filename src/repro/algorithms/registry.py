"""The open algorithm registry — the scheme registry mirrored onto the
"which algorithm do we run" axis.

Algorithms declare themselves with the :func:`register_algorithm` function
decorator::

    @register_algorithm(
        "pagerank",
        adapter="distribution",
        aliases=("pr",),
        extract=lambda res: res.ranks,
        param_aliases={"iterations": "max_iterations"},
        summary="power-iteration PageRank; output is a rank distribution",
        example="pagerank(iterations=50)",
    )
    def pagerank(g, *, damping=0.85, ...):
        ...

Registration makes an algorithm runnable from any spec surface —
``build_algorithm("pagerank(iterations=50)")``, an
:class:`~repro.algorithms.spec.AlgorithmSpec`, a JSON dict — and declares
the **typed result adapter** (:mod:`repro.algorithms.adapters`) that
canonicalizes its output and selects compatible metrics from the metric
registry (:mod:`repro.metrics.registry`).  The paper-style TR table names
(``pr``, ``cc``, ``tc``, ``bfs``, ``sssp``, ``mst``, ``bc``, …) are the
registered aliases, so benchmark/CLI strings match the paper's tables.

External code extends the battery with the same decorator the ~17
built-ins use; name/alias collisions are rejected at registration time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.algorithms.adapters import ResultAdapter, get_adapter
from repro.algorithms.spec import AlgorithmSpec
from repro.utils.registry import AliasNamespace

__all__ = [
    "DEFAULT_BATTERY",
    "AlgorithmEntry",
    "BoundAlgorithm",
    "register_algorithm",
    "unregister_algorithm",
    "registered_algorithms",
    "get_algorithm_entry",
    "resolve_algorithm",
    "algorithm_positional",
    "canonical_param",
    "build_algorithm",
]

#: The paper's Fig. 5 / Table 5 battery as registry names: the default
#: algorithms of a grid, a job and a named sweep.
DEFAULT_BATTERY = ("bfs", "pr", "cc", "tc")


@dataclass(frozen=True)
class AlgorithmEntry:
    """Everything the registry knows about one algorithm."""

    name: str
    fn: Callable
    adapter: str
    positional: str | None = None
    aliases: tuple[str, ...] = ()
    extract: Callable | None = None
    param_aliases: Mapping[str, str] = field(default_factory=dict)
    summary: str = ""
    example: str = ""


_NAMESPACE = AliasNamespace(
    "algorithm",
    describe=lambda entry: entry.fn.__qualname__,
    # Re-decorating the same function (module reload) is idempotent.
    same=lambda old, new: old.fn is new.fn,
)
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Import the built-in algorithm modules so their decorators run.

    Lazy so ``repro.algorithms.registry`` can be imported by the algorithm
    modules themselves without a cycle; triggered by every lookup.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.algorithms.arboricity  # noqa: F401
    import repro.algorithms.betweenness  # noqa: F401
    import repro.algorithms.bfs  # noqa: F401
    import repro.algorithms.coloring  # noqa: F401
    import repro.algorithms.components  # noqa: F401
    import repro.algorithms.independent_set  # noqa: F401
    import repro.algorithms.kcore  # noqa: F401
    import repro.algorithms.matching  # noqa: F401
    import repro.algorithms.mst  # noqa: F401
    import repro.algorithms.pagerank  # noqa: F401
    import repro.algorithms.paths  # noqa: F401
    import repro.algorithms.spectrum  # noqa: F401
    import repro.algorithms.sssp  # noqa: F401
    import repro.algorithms.triangles  # noqa: F401


def register_algorithm(
    name: str,
    *,
    adapter: str,
    positional: str | None = None,
    aliases: tuple[str, ...] | list[str] = (),
    extract: Callable | None = None,
    param_aliases: Mapping[str, str] | None = None,
    summary: str = "",
    example: str = "",
):
    """Function decorator adding an algorithm to the registry.

    Parameters
    ----------
    name:
        Canonical registry name.
    adapter:
        Result-adapter name (``scalar`` / ``distribution`` / ``ordering``
        / ``vertex_set`` / ``traversal``): the output's type, which routes
        it to compatible metrics.
    positional:
        The conventional first parameter; bare values in specs
        (``"bfs(3)"``) bind to it.
    aliases:
        Additional names resolving here (the paper's table labels:
        ``"pr"``, ``"cc"``, ``"tc"``…).
    extract:
        Maps the function's raw result to the adapter's value (e.g.
        ``res.num_components`` for CC).  ``None`` hands the raw result to
        the adapter unchanged.
    param_aliases:
        Spec-surface parameter spellings → real keyword names (e.g. the
        paper-friendly ``iterations`` → ``max_iterations``).
    summary, example:
        One-line description and a representative spec string for docs,
        tests, and the README algorithm table.

    The decorated function is returned unchanged, so stacking several
    registrations over one function (e.g. ``core_numbers`` serving both
    ``kcore`` and ``degeneracy``) works.
    """
    get_adapter(adapter)  # fail fast on typos

    def decorator(fn):
        entry = AlgorithmEntry(
            name=name.lower(),
            fn=fn,
            adapter=get_adapter(adapter).name,
            positional=positional,
            aliases=tuple(a.lower() for a in aliases),
            extract=extract,
            param_aliases=dict(param_aliases or {}),
            summary=summary,
            example=example or name.lower(),
        )
        _NAMESPACE.register(name, entry.aliases, entry)
        return fn

    return decorator


def unregister_algorithm(name: str) -> None:
    """Remove an algorithm (and its aliases) from the registry."""
    _ensure_builtins()
    _NAMESPACE.unregister(name)


def resolve_algorithm(name: str) -> str | None:
    """Canonical name for ``name`` (alias-aware), or None if unknown."""
    _ensure_builtins()
    return _NAMESPACE.resolve(name)


def algorithm_positional(name: str) -> str | None:
    """The registered positional parameter of ``name``, if any."""
    key = resolve_algorithm(name)
    return _NAMESPACE.entry_of(key).positional if key else None


def canonical_param(name: str, key: str) -> str:
    """Resolve a spec-surface parameter spelling to the real keyword."""
    canonical = resolve_algorithm(name)
    if canonical is None:
        return key
    return _NAMESPACE.entry_of(canonical).param_aliases.get(key, key)


def get_algorithm_entry(name: str) -> AlgorithmEntry:
    _ensure_builtins()
    return _NAMESPACE.get_known(name)


def registered_algorithms() -> dict[str, AlgorithmEntry]:
    """Canonical name -> entry, for iteration (docs, round-trip tests)."""
    _ensure_builtins()
    return _NAMESPACE.items()


class BoundAlgorithm:
    """A registered algorithm bound to one parameter configuration.

    Value-like (equality and hash follow the canonical spec), callable on
    a graph (returns the raw result), with :meth:`compute` for the
    adapter-canonicalized value.  This is the unit the session's baseline
    cache and grid sweeps key on.
    """

    __slots__ = ("entry", "spec")

    def __init__(self, entry: AlgorithmEntry, spec: AlgorithmSpec):
        self.entry = entry
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def adapter(self) -> ResultAdapter:
        return get_adapter(self.entry.adapter)

    def __call__(self, g):
        kwargs = {
            self.entry.param_aliases.get(k, k): v
            for k, v in self.spec.params.items()
        }
        return self.entry.fn(g, **kwargs)

    def compute(self, g):
        """Run on ``g`` and return the adapter-canonical value."""
        return self.extract(self(g))

    def extract(self, raw):
        """Canonicalize an already-computed raw result."""
        value = self.entry.extract(raw) if self.entry.extract else raw
        return self.adapter.canonicalize(value)

    def __repr__(self) -> str:
        return f"BoundAlgorithm({self.spec.to_string()!r}, adapter={self.entry.adapter!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundAlgorithm):
            return NotImplemented
        return self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)


def build_algorithm(spec, **overrides) -> BoundAlgorithm:
    """Bind an algorithm from any spec surface.

    ``spec`` may be a spec string (``"pagerank(iterations=50)"``, an alias
    like ``"pr"``), an :class:`AlgorithmSpec`, a dict (JSON transport
    form), or an existing :class:`BoundAlgorithm` (rebound with
    ``overrides`` applied).
    """
    _ensure_builtins()
    if isinstance(spec, BoundAlgorithm):
        spec = spec.spec
    if isinstance(spec, str):
        spec = AlgorithmSpec.parse(spec)
    elif isinstance(spec, Mapping):
        spec = AlgorithmSpec.from_dict(spec)
    if not isinstance(spec, AlgorithmSpec):
        raise TypeError(
            f"expected spec string, AlgorithmSpec, dict, or BoundAlgorithm; "
            f"got {spec!r}"
        )
    entry = get_algorithm_entry(spec.name)
    params: dict[str, Any] = {
        entry.param_aliases.get(k, k): v for k, v in spec.params.items()
    }
    for k, v in overrides.items():
        params[entry.param_aliases.get(k, k)] = v
    canonical = AlgorithmSpec(entry.name, params)
    return BoundAlgorithm(entry, canonical)
