"""The open compression-scheme registry.

Schemes declare themselves with the :func:`register_scheme` class
decorator::

    @register_scheme("spanner", positional="k",
                     summary="LDD spanning trees + one crossing edge",
                     example="spanner(k=8)")
    class Spanner(CompressionScheme):
        ...

Registration makes a scheme constructible from any spec surface —
``build_scheme("spanner(k=8)")``, ``SchemeSpec.parse(...)``, a JSON dict —
without the registry having to know about the class up front, so external
code can add schemes the same way the ~11 built-ins do.

:func:`build_scheme` accepts spec strings (including the paper's TR
labels and ``|`` pipelines), :class:`SchemeSpec` objects, or an
already-configured scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compress.base import CompressionScheme
from repro.compress.spec import SchemeSpec
from repro.utils.registry import AliasNamespace

__all__ = [
    "SchemeEntry",
    "register_scheme",
    "unregister_scheme",
    "registered_schemes",
    "get_entry",
    "resolve_name",
    "positional_param",
    "build_scheme",
]


@dataclass(frozen=True)
class SchemeEntry:
    """Everything the registry knows about one scheme."""

    name: str
    factory: type
    positional: str | None = None
    aliases: tuple[str, ...] = ()
    summary: str = ""
    example: str = ""


_NAMESPACE = AliasNamespace(
    "scheme",
    describe=lambda entry: entry.factory.__qualname__,
    # Re-decorating the same class (module reload) is idempotent.
    same=lambda old, new: old.factory.__qualname__ == new.factory.__qualname__,
)
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Import the built-in scheme modules so their decorators run.

    Lazy so ``repro.compress.registry`` can be imported by the scheme
    modules themselves without a cycle; triggered by every lookup.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.compress.chain  # noqa: F401
    import repro.compress.cut_sparsifier  # noqa: F401
    import repro.compress.lowrank  # noqa: F401
    import repro.compress.sampling  # noqa: F401
    import repro.compress.spanner  # noqa: F401
    import repro.compress.spectral  # noqa: F401
    import repro.compress.summarization  # noqa: F401
    import repro.compress.triangle_reduction  # noqa: F401
    import repro.compress.uniform  # noqa: F401
    import repro.compress.vertex_filters  # noqa: F401


def register_scheme(
    name: str,
    *,
    positional: str | None = None,
    aliases: tuple[str, ...] | list[str] = (),
    summary: str = "",
    example: str = "",
):
    """Class decorator adding a :class:`CompressionScheme` to the registry.

    Parameters
    ----------
    name:
        Canonical registry name; also assigned to ``cls.name``.
    positional:
        The conventional first parameter (``p`` / ``k`` / ``epsilon`` /
        ``rank``): bare values in specs (``"spanner(8)"``) bind to it, and
        it is passed positionally at construction.
    aliases:
        Additional names resolving to this scheme (e.g. ``"tr"``).
    summary, example:
        One-line description and a representative spec string, used by
        docs, tests, and the README scheme table.
    """

    def decorator(cls):
        key = name.lower()
        entry = SchemeEntry(
            name=key,
            factory=cls,
            positional=positional,
            aliases=tuple(a.lower() for a in aliases),
            summary=summary,
            example=example or key,
        )
        _NAMESPACE.register(name, entry.aliases, entry)
        cls.name = key
        return cls

    return decorator


def unregister_scheme(name: str) -> None:
    """Remove a scheme (and its aliases) from the registry."""
    _ensure_builtins()
    _NAMESPACE.unregister(name)


def resolve_name(name: str) -> str | None:
    """Canonical name for ``name`` (alias-aware), or None if unknown."""
    _ensure_builtins()
    return _NAMESPACE.resolve(name)


def positional_param(name: str) -> str | None:
    """The registered positional parameter of ``name``, if any."""
    key = resolve_name(name)
    return _NAMESPACE.entry_of(key).positional if key else None


def get_entry(name: str) -> SchemeEntry:
    _ensure_builtins()
    return _NAMESPACE.get_known(name)


def registered_schemes() -> dict[str, SchemeEntry]:
    """Canonical name -> entry, for iteration (docs, round-trip tests)."""
    _ensure_builtins()
    return _NAMESPACE.items()


def build_scheme(spec, **overrides) -> CompressionScheme:
    """Construct a configured scheme from any spec surface.

    ``spec`` may be a spec string (named form, paper-style TR label, or a
    ``|`` pipeline), a :class:`SchemeSpec`, or an existing scheme (returned
    unchanged, for idempotent call sites).

    Examples
    --------
    >>> build_scheme("uniform(p=0.5)").p
    0.5
    >>> build_scheme("EO-0.8-1-TR").variant
    'edge_once'
    >>> build_scheme("spanner(k=32)").k
    32
    """
    _ensure_builtins()
    if isinstance(spec, CompressionScheme) or (
        not isinstance(spec, (str, SchemeSpec)) and hasattr(spec, "compress")
    ):
        # Configured scheme (or duck-typed object): pass through unchanged.
        if overrides:
            raise ValueError("cannot apply overrides to an existing scheme")
        return spec
    if isinstance(spec, str):
        spec = SchemeSpec.parse(spec)
    if not isinstance(spec, SchemeSpec):
        raise TypeError(f"expected spec string, SchemeSpec, or scheme; got {spec!r}")
    if spec.stages:
        from repro.compress.chain import Chain

        if overrides:
            raise ValueError("overrides are not supported for chain specs")
        return Chain([build_scheme(stage) for stage in spec.stages])
    entry = get_entry(spec.name)
    kwargs = {**spec.params, **overrides}
    if entry.positional and entry.positional in kwargs:
        first = kwargs.pop(entry.positional)
        return entry.factory(first, **kwargs)
    return entry.factory(**kwargs)
