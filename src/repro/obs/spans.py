"""Hierarchical span tracing with Chrome trace-event export.

The paper's evaluation lives on measurement — relative runtimes (Fig. 5),
compression-routine cost (§7.4) — and every subsystem grown since has
invented its own timing fields.  This module is the one substrate they
now share: a :func:`span` context manager produces nested, attributed
timing records that

- nest through a **thread-local stack**, so N queue worker threads (or
  the session and a benchmark driver) never interleave each other's
  parent/child relationships;
- carry **wall-clock epochs** (``time.time``) for cross-process ordering
  and **monotonic durations** (``time.perf_counter``) for precision;
- survive process boundaries: a worker exports its finished spans as
  plain dicts (:meth:`Tracer.drain`) and the parent stitches them under
  its own tree (:meth:`Tracer.adopt`), so a parallel sweep yields one
  flame view spanning every process;
- export as **Chrome trace-event JSON** (`chrome://tracing` / Perfetto
  load the file directly) or a compact text tree
  (:meth:`Tracer.format_tree`).

Tracing is **off by default** and the disabled fast path is one
attribute check plus a constant yield — cheap enough to leave ``span``
calls on hot paths (``benchmarks/bench_core.py`` asserts the enabled
overhead stays ≤ 2% on the 1e6-edge transform path).

The process-global tracer (:func:`tracer`) is what every span writes
through — the session, ``python -m repro.runner --trace`` and the service
queue alike.  Library callers turn it on with :func:`enable_tracing` and
export with ``tracer().write_chrome_trace(path)``; worker processes
enable their own and ship spans back.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "Span",
    "Tracer",
    "TRACE_SCHEMA_VERSION",
    "span",
    "tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "current_span_id",
    "validate_trace",
    "tree_from_trace",
]

#: Version embedded in exported traces and the checked-in schema.
TRACE_SCHEMA_VERSION = 1

#: Process-unique span-id suffix source (ids must stay unique after
#: cross-process stitching, so the pid is part of every id).
_IDS = itertools.count(1)


def _new_span_id() -> str:
    return f"{os.getpid():x}.{next(_IDS):x}"


class Span:
    """One open measured region; becomes a plain dict when closed.

    Attributes are set at open time (``span("compress", scheme=s)``) or
    via :meth:`set`; named counters accumulate through :meth:`inc`.
    Exceptions crossing the region mark ``status="error"`` (the span
    still closes — failure paths stay accounted, mirroring
    :func:`repro.utils.timer.stopwatch`'s include-failures contract).
    """

    __slots__ = (
        "name", "span_id", "parent_id", "pid", "tid", "thread",
        "start", "attrs", "counters", "status", "error",
        "_start_perf", "_cpu_start", "_sample_resources",
    )

    def __init__(self, name, parent_id=None, attrs=None, sample_resources=False):
        self.name = str(name)
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.pid = os.getpid()
        current = threading.current_thread()
        self.tid = current.ident or 0
        self.thread = current.name
        self.start = time.time()
        self.attrs = dict(attrs) if attrs else {}
        self.counters: dict[str, float] = {}
        self.status = "ok"
        self.error: str | None = None
        self._start_perf = time.perf_counter()
        self._sample_resources = sample_resources
        self._cpu_start = time.process_time() if sample_resources else 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes to the open span; returns ``self``."""
        self.attrs.update(attrs)
        return self

    def inc(self, counter: str, delta: float = 1) -> "Span":
        """Bump a per-span counter (``sp.inc("cells")``); returns ``self``."""
        self.counters[counter] = self.counters.get(counter, 0) + delta
        return self

    def close(self, error: BaseException | None = None) -> dict:
        """Finish the span; returns its export dict."""
        duration = time.perf_counter() - self._start_perf
        if error is not None:
            self.status = "error"
            self.error = f"{type(error).__name__}: {error}"
        out = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
            "thread": self.thread,
            "start": self.start,
            "duration": duration,
            "attrs": self.attrs,
            "counters": self.counters,
            "status": self.status,
            "error": self.error,
        }
        if self._sample_resources:
            from repro.obs.resources import peak_rss_bytes

            out["resources"] = {
                "peak_rss_bytes": peak_rss_bytes(),
                "cpu_seconds": time.process_time() - self._cpu_start,
            }
        return out


class _NullSpan:
    """The no-op span yielded while tracing is disabled."""

    __slots__ = ()
    span_id = None

    def set(self, **attrs):
        return self

    def inc(self, counter, delta=1):
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """A collection point for finished spans plus per-thread open stacks.

    Thread-safe: every thread nests spans on its own stack (parents never
    cross threads), and finished spans append under one lock.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._finished: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ----------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, /, *, sample_resources: bool = False, **attrs):
        """Open a child of this thread's current span; always closes.

        An exception inside the block marks the span ``status="error"``
        (with the exception text) and re-raises after closing.
        """
        if not self.enabled:
            yield _NULL_SPAN
            return
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        sp = Span(name, parent_id, attrs, sample_resources)
        stack.append(sp)
        error = None
        try:
            yield sp
        except BaseException as err:
            error = err
            raise
        finally:
            stack.pop()
            record = sp.close(error)
            with self._lock:
                self._finished.append(record)

    def current_span_id(self) -> str | None:
        """Id of this thread's innermost open span, or ``None``."""
        stack = getattr(self._local, "stack", None)
        return stack[-1].span_id if stack else None

    # -- collection ---------------------------------------------------- #

    def export(self) -> list[dict]:
        """A copy of every finished span recorded so far."""
        with self._lock:
            return [dict(s) for s in self._finished]

    def drain(self) -> list[dict]:
        """Pop and return all finished spans (worker → parent shipping)."""
        with self._lock:
            out = self._finished
            self._finished = []
        return out

    def adopt(self, spans, parent_id: str | None = None) -> int:
        """Stitch spans exported by another process into this tracer.

        Spans whose parent is not part of the adopted batch (a worker's
        roots) are re-parented under ``parent_id``, so the worker's whole
        tree hangs off the span that scheduled it.  Returns the number of
        spans adopted.
        """
        spans = [dict(s) for s in spans]
        ids = {s["span_id"] for s in spans}
        for s in spans:
            if s.get("parent_id") not in ids:
                s["parent_id"] = parent_id
        with self._lock:
            self._finished.extend(spans)
        return len(spans)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    # -- export formats ------------------------------------------------ #

    def chrome_trace(self, metadata: dict | None = None) -> dict:
        """The finished spans as a Chrome trace-event JSON document.

        Complete (``ph="X"``) events with wall-clock microsecond
        timestamps, so events from different processes order correctly
        on one timeline; span/parent ids ride in ``args`` for tree
        reconstruction.  Load the written file in ``chrome://tracing``
        or https://ui.perfetto.dev.
        """
        from repro.obs.resources import sample_resources

        events = []
        for s in self.export():
            args = {
                "span_id": s["span_id"],
                "parent_id": s["parent_id"],
                "status": s["status"],
            }
            if s["attrs"]:
                args.update(s["attrs"])
            if s["counters"]:
                args["counters"] = s["counters"]
            if s.get("error"):
                args["error"] = s["error"]
            if s.get("resources"):
                args["resources"] = s["resources"]
            events.append(
                {
                    "name": s["name"],
                    "cat": "repro",
                    "ph": "X",
                    "ts": s["start"] * 1e6,
                    "dur": s["duration"] * 1e6,
                    "pid": s["pid"],
                    "tid": s["tid"],
                    "args": args,
                }
            )
        meta = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "tool": "repro.obs",
            "main_pid": os.getpid(),
            "resources": sample_resources(),
        }
        if metadata:
            meta.update(metadata)
        return {
            "traceEvents": sorted(events, key=lambda e: e["ts"]),
            "displayTimeUnit": "ms",
            "metadata": meta,
        }

    def write_chrome_trace(self, path, metadata: dict | None = None) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace(metadata), indent=1) + "\n")
        return path

    def format_tree(self, *, max_spans: int = 2000) -> str:
        """A compact text rendering of the span forest.

        Children sort by wall-clock start, so a stitched multi-process
        trace reads in true execution order.
        """
        return _format_span_tree(self.export(), max_spans=max_spans)


# ---------------------------------------------------------------------- #
# the process-global tracer
# ---------------------------------------------------------------------- #

_TRACER = Tracer(enabled=False)


def tracer() -> Tracer:
    """The process-wide tracer every ``span()`` call records into."""
    return _TRACER


def enable_tracing() -> Tracer:
    """Switch the global tracer on; returns it."""
    _TRACER.enabled = True
    return _TRACER


def disable_tracing() -> Tracer:
    """Switch the global tracer off (recorded spans are kept)."""
    _TRACER.enabled = False
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER.enabled


def span(name: str, /, *, sample_resources: bool = False, **attrs):
    """``with span("compress", scheme="spanner(k=4)") as sp: …``

    The module-level convenience over :meth:`Tracer.span` on the global
    tracer — a no-op (cheap) while tracing is disabled.
    """
    return _TRACER.span(name, sample_resources=sample_resources, **attrs)


def current_span_id() -> str | None:
    return _TRACER.current_span_id()


# ---------------------------------------------------------------------- #
# tree rendering & trace validation
# ---------------------------------------------------------------------- #


def _format_span_tree(spans: list[dict], *, max_spans: int = 2000) -> str:
    if not spans:
        return "(no spans recorded)"
    spans = sorted(spans, key=lambda s: s["start"])[:max_spans]
    ids = {s["span_id"] for s in spans}
    children: dict[str | None, list[dict]] = {}
    for s in spans:
        parent = s.get("parent_id")
        key = parent if parent in ids else None
        children.setdefault(key, []).append(s)
    lines: list[str] = []

    def walk(s: dict, depth: int) -> None:
        mark = " !ERR" if s["status"] == "error" else ""
        attrs = ", ".join(f"{k}={v}" for k, v in sorted(s["attrs"].items()))
        counters = ", ".join(
            f"{k}:{v:g}" for k, v in sorted(s.get("counters", {}).items())
        )
        detail = "; ".join(p for p in (attrs, counters) if p)
        lines.append(
            f"{'  ' * depth}{s['name']}  {s['duration'] * 1e3:.2f}ms"
            f"  [pid {s['pid']}]{mark}"
            + (f"  ({detail})" if detail else "")
        )
        for child in children.get(s["span_id"], []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


def _schema_path() -> Path:
    return Path(__file__).with_name("trace_schema.json")


def _type_ok(value, kind: str) -> bool:
    if kind == "str":
        return isinstance(value, str)
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "dict":
        return isinstance(value, dict)
    if kind == "list":
        return isinstance(value, list)
    return True


def validate_trace(trace: dict, schema: dict | None = None) -> list[str]:
    """Check ``trace`` against the checked-in trace schema.

    Returns a list of problem strings (empty = valid).  Beyond the
    schema's field/type requirements this enforces the semantic
    invariants the CI ``obs-smoke`` job relies on: every span closed
    (a non-negative duration), unique span ids, every non-null parent id
    resolving to a span in the same trace, and the metadata resource
    fields present.
    """
    if schema is None:
        schema = json.loads(_schema_path().read_text())
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    for key in schema.get("required_top_level", []):
        if key not in trace:
            problems.append(f"missing top-level key {key!r}")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        problems.append("traceEvents must be a non-empty list")
        return problems

    seen_ids: set[str] = set()
    parent_refs: list[tuple[int, str]] = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        for field, kind in schema.get("event_required", {}).items():
            if field not in event:
                problems.append(f"event {i} missing field {field!r}")
            elif not _type_ok(event[field], kind):
                problems.append(
                    f"event {i} field {field!r} is not a {kind}"
                )
        if event.get("ph") != "X":
            problems.append(f"event {i} phase {event.get('ph')!r} != 'X'")
        dur = event.get("dur")
        if isinstance(dur, (int, float)) and dur < 0:
            problems.append(f"event {i} has negative duration (span not closed?)")
        args = event.get("args")
        if isinstance(args, dict):
            for field, kind in schema.get("args_required", {}).items():
                if field not in args:
                    problems.append(f"event {i} args missing {field!r}")
                elif not _type_ok(args[field], kind):
                    problems.append(f"event {i} args {field!r} is not a {kind}")
            status = args.get("status")
            allowed = schema.get("span_statuses")
            if allowed and status not in allowed:
                problems.append(f"event {i} status {status!r} not in {allowed}")
            span_id = args.get("span_id")
            if isinstance(span_id, str):
                if span_id in seen_ids:
                    problems.append(f"duplicate span id {span_id!r}")
                seen_ids.add(span_id)
            parent = args.get("parent_id")
            if parent is not None:
                parent_refs.append((i, parent))
    for i, parent in parent_refs:
        if parent not in seen_ids:
            problems.append(
                f"event {i} parent id {parent!r} resolves to no span in the trace"
            )

    metadata = trace.get("metadata")
    if isinstance(metadata, dict):
        for field, kind in schema.get("metadata_required", {}).items():
            if field not in metadata:
                problems.append(f"metadata missing {field!r}")
            elif not _type_ok(metadata[field], kind):
                problems.append(f"metadata {field!r} is not a {kind}")
        resources = metadata.get("resources")
        if isinstance(resources, dict):
            for field in schema.get("resource_fields", []):
                if field not in resources:
                    problems.append(f"metadata resources missing {field!r}")
    return problems


def tree_from_trace(trace: dict, *, max_spans: int = 2000) -> str:
    """Re-render the text tree from an exported Chrome trace document."""
    spans = []
    for event in trace.get("traceEvents", []):
        args = event.get("args", {})
        spans.append(
            {
                "name": event.get("name", "?"),
                "span_id": args.get("span_id"),
                "parent_id": args.get("parent_id"),
                "pid": event.get("pid", 0),
                "start": event.get("ts", 0) / 1e6,
                "duration": event.get("dur", 0) / 1e6,
                "attrs": {
                    k: v
                    for k, v in args.items()
                    if k not in (
                        "span_id", "parent_id", "status", "counters",
                        "error", "resources",
                    )
                },
                "counters": args.get("counters", {}),
                "status": args.get("status", "ok"),
            }
        )
    return _format_span_tree(spans, max_spans=max_spans)
