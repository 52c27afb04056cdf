"""Per-segment effect summaries: the analyzer's intermediate form.

A :class:`SegmentSummary` says *what a segment can do* — whom it calls,
whom it sends to, which sinks it emits to, which state keys it reads and
writes — plus the determinism hazards the AST walk surfaced.  Summaries
come from two sources, in preference order:

1. **Structured metadata** recorded by the builders
   (:class:`~repro.csp.dsl.ProgramBuilder`,
   :func:`~repro.core.streaming.make_call_chain`,
   :func:`~repro.csp.process.server_program`) in ``Segment.meta``.
2. A **conservative AST walk** (:mod:`repro.analyze.astwalk`) of the raw
   generator body.

Both may leave ``opaque=True`` when something could not be resolved; rules
then stay silent (no false positives) while the static planner refuses to
certify the site (no false safety).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.analyze.astwalk import UNKNOWN, WalkResult, walk_function
from repro.csp.process import Program, Segment


@dataclass
class SegmentSummary:
    """Static summary of one segment's observable behaviour."""

    name: str
    index: int
    calls: Tuple[Tuple[str, str], ...] = ()     # (dst, op)
    sends: Tuple[Tuple[str, str], ...] = ()     # (dst, op)
    emits: Tuple[str, ...] = ()                 # sink names
    receives: bool = False
    reads: FrozenSet[str] = frozenset()         # state keys read
    writes: FrozenSet[str] = frozenset()        # state keys written
    #: reads outside certified commutative self-updates (a key in
    #: ``reads`` but not here is consumed only by ``state[k] += c`` bumps)
    plain_reads: FrozenSet[str] = frozenset()
    #: state key -> write-pattern tags (:data:`repro.analyze.astwalk.WRITE_PATTERNS`)
    write_patterns: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    exports: Tuple[str, ...] = ()
    #: ``.when()`` condition keys guarding (parts of) this segment
    conditions: Tuple[str, ...] = ()
    #: determinism hazards: (dotted module name, line)
    forbidden: Tuple[Tuple[str, int], ...] = ()
    #: writes to ``global`` names: (name, line)
    global_writes: Tuple[Tuple[str, int], ...] = ()
    #: yields of non-Effect literals: (source text, line)
    bad_yields: Tuple[Tuple[str, int], ...] = ()
    #: True when the summary is incomplete (unresolved names, no source, …)
    opaque: bool = False
    #: True when derived from structured builder metadata
    precise: bool = False
    #: True for DSL-built segments (enables DSL-only rules like dead-when)
    dsl: bool = False
    #: source file of the body, when known (AST findings location)
    source: Optional[str] = None

    def partners(self) -> FrozenSet[str]:
        """Every process this segment communicates with (known dsts)."""
        return frozenset(
            dst for dst, _ in (*self.calls, *self.sends) if dst != UNKNOWN
        )

    def has_unknown_partner(self) -> bool:
        return any(
            dst == UNKNOWN for dst, _ in (*self.calls, *self.sends)
        )


@dataclass
class ProgramSummary:
    """All segment summaries of one program, in order."""

    program: Program
    segments: List[SegmentSummary] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.program.name

    def segment(self, name: str) -> SegmentSummary:
        for s in self.segments:
            if s.name == name:
                return s
        raise KeyError(f"{self.name}: no summary for segment {name!r}")

    def downstream(self, index: int) -> List[SegmentSummary]:
        """Summaries of every segment after ``index`` (the right thread)."""
        return self.segments[index + 1:]

    def initial_keys(self) -> FrozenSet[str]:
        return frozenset(self.program.initial_state)


def _source_of(fn: Any) -> Optional[str]:
    import inspect

    try:
        path = inspect.getsourcefile(fn)
        line = fn.__code__.co_firstlineno
        return f"{path}:{line}" if path else None
    except (TypeError, AttributeError):
        return None


def _from_walk(seg: Segment, index: int, walk: WalkResult,
               *, precise: bool = False, dsl: bool = False,
               extra_reads: Tuple[str, ...] = (),
               conditions: Tuple[str, ...] = (),
               receives: bool = False,
               source: Optional[str] = None) -> SegmentSummary:
    return SegmentSummary(
        name=seg.name,
        index=index,
        calls=tuple(walk.calls),
        sends=tuple(walk.sends),
        emits=tuple(walk.emits),
        receives=walk.receives or receives,
        reads=frozenset(walk.reads) | frozenset(extra_reads),
        writes=frozenset(walk.writes) | frozenset(seg.exports),
        plain_reads=frozenset(walk.plain_reads) | frozenset(extra_reads),
        write_patterns={k: frozenset(v)
                        for k, v in walk.write_patterns.items()},
        exports=tuple(seg.exports),
        conditions=conditions,
        forbidden=tuple(walk.forbidden),
        global_writes=tuple(walk.global_writes),
        bad_yields=tuple(walk.bad_yields),
        opaque=walk.opaque,
        precise=precise,
        dsl=dsl,
        source=source,
    )


def _summarize_steps(seg: Segment, index: int,
                     steps: Tuple[Dict[str, Any], ...],
                     dsl: bool) -> SegmentSummary:
    """Fold the structured step records of a builder-made segment."""
    folded = WalkResult()
    conditions: List[str] = []
    reads: List[str] = []
    source = None
    for step in steps:
        kind = step.get("kind")
        cond = step.get("condition")
        if cond is not None:
            reads.append(cond)
            if dsl:
                conditions.append(cond)
        if kind == "call":
            folded.calls.append((step["dst"], step["op"]))
        elif kind == "send":
            folded.sends.append((step["dst"], step["op"]))
        elif kind == "emit":
            folded.emits.append(step["sink"])
            if step.get("from_state"):
                reads.append(step["from_state"])
        elif kind == "compute":
            pass
        elif kind == "step":
            walk = walk_function(step["fn"])
            folded.merge(walk)
            source = _source_of(step["fn"])
        else:  # unrecognized structured step: be conservative
            folded.opaque = True
    return _from_walk(
        seg, index, folded, precise=True, dsl=dsl,
        extra_reads=tuple(reads),
        conditions=tuple(dict.fromkeys(conditions)),
        source=source,
    )


def _summarize_server(seg: Segment, index: int,
                      meta: Dict[str, Any]) -> SegmentSummary:
    """A ``server_program`` loop: Receive + whatever the handler does."""
    handler = meta.get("handler")
    walk = walk_function(handler) if handler is not None else WalkResult(
        opaque=True, source_available=False
    )
    return _from_walk(
        seg, index, walk, precise=True, receives=True,
        source=_source_of(handler) if handler is not None else None,
    )


def summarize_segment(seg: Segment, index: int) -> SegmentSummary:
    meta = seg.meta or {}
    kind = meta.get("kind")
    if kind == "server":
        return _summarize_server(seg, index, meta)
    if kind in ("dsl", "chain") and "steps" in meta:
        return _summarize_steps(seg, index, tuple(meta["steps"]),
                                dsl=(kind == "dsl"))
    walk = walk_function(seg.fn)
    return _from_walk(seg, index, walk, source=_source_of(seg.fn))


def summarize_program(program: Program) -> ProgramSummary:
    """Build the per-segment summaries of ``program``."""
    return ProgramSummary(
        program=program,
        segments=[
            summarize_segment(seg, i)
            for i, seg in enumerate(program.segments)
        ],
    )
