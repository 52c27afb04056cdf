"""Programs, segments and process definitions.

A *program* is the paper's ``S0; S1; ...; Sk`` decomposition made explicit:
an ordered list of :class:`Segment` objects.  Each segment is a generator
function ``fn(state)`` that mutates the shared ``state`` dict and yields
effects.  Segment boundaries are the only legal fork points, exactly
matching the paper's model where the compiler chooses which boundaries to
parallelize.

Values "passed from S1 to S2" (the paper's ``{v_i}``) are the segment's
declared *exports*: state keys the segment promises to (re)define.  The
predictor guesses them; the verifier at the join compares guess to reality.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional, Sequence, Tuple

from repro.errors import ProgramError

#: A segment body: takes the mutable state dict, yields effects.
SegmentFn = Callable[[Dict[str, Any]], Generator]


@dataclass
class Segment:
    """One sequential program segment.

    Attributes
    ----------
    name:
        Identifier used in plans, traces and error messages.
    fn:
        Generator function ``fn(state)``.
    exports:
        State keys this segment defines that later segments may read.
        These are the values a fork at the following boundary must guess.
    compute:
        Virtual CPU time charged when the segment starts, as a convenience
        alternative to yielding :class:`~repro.csp.effects.Compute`.
    rebase_safe:
        Declares the segment *re-entrant*: restarting its generator from
        the current state while blocked at its receive is equivalent to
        continuing.  True for the ``server_program`` loop; enables journal
        compaction (:meth:`~repro.core.thread.OptimisticThread.rebase`) on
        long-running servers.
    meta:
        Structured description of what the body does, recorded by the
        builders (:mod:`repro.csp.dsl`, :func:`server_program`,
        :func:`~repro.core.streaming.make_call_chain`) and consumed by the
        static analyzer (:mod:`repro.analyze`).  Never affects execution;
        hand-written segments may leave it empty and the analyzer falls
        back to a conservative AST walk of ``fn``.
    """

    name: str
    fn: SegmentFn
    exports: Tuple[str, ...] = ()
    compute: float = 0.0
    rebase_safe: bool = False
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise ProgramError(f"segment {self.name!r}: fn is not callable")
        if not inspect.isgeneratorfunction(self.fn):
            raise ProgramError(
                f"segment {self.name!r}: fn must be a generator function "
                "(write `yield` at least once, or `return; yield`)"
            )

    def instantiate(self, state: Dict[str, Any]) -> Generator:
        """Create a fresh generator of this segment over ``state``."""
        return self.fn(state)


@dataclass
class Program:
    """An ordered list of segments with an initial state."""

    name: str
    segments: Sequence[Segment]
    initial_state: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ProgramError(f"program {self.name!r} has no segments")
        names = [s.name for s in self.segments]
        if len(set(names)) != len(names):
            raise ProgramError(
                f"program {self.name!r} has duplicate segment names: {names}"
            )

    def __len__(self) -> int:
        return len(self.segments)

    def segment_index(self, name: str) -> int:
        """Index of the named segment (ProgramError if unknown)."""
        for i, s in enumerate(self.segments):
            if s.name == name:
                return i
        raise ProgramError(f"program {self.name!r} has no segment {name!r}")


@dataclass
class ProcessDef:
    """A named process: its program plus its role in the system.

    ``external=True`` marks a sink that cannot participate in rollback
    (workstation display, printer); external processes may not have
    programs — they just absorb messages.
    """

    name: str
    program: Optional[Program] = None
    external: bool = False

    def __post_init__(self) -> None:
        if self.external and self.program is not None:
            raise ProgramError(
                f"external process {self.name!r} cannot run a program"
            )
        if not self.external and self.program is None:
            raise ProgramError(f"process {self.name!r} needs a program")


def server_program(
    name: str,
    handler: Callable[[Dict[str, Any], Any], Any],
    *,
    initial_state: Optional[Dict[str, Any]] = None,
    service_time: float = 0.0,
    ops: Optional[Tuple[str, ...]] = None,
) -> Program:
    """Build a request/reply server loop as a one-segment program.

    ``handler(state, request)`` computes the reply value for each incoming
    :class:`~repro.csp.payloads.Request`; one-way requests get no reply.
    A *generator* handler may itself yield effects (e.g. make nested calls
    to other services) and produce the reply via ``return value``.
    ``service_time`` is virtual compute charged per request.  The loop runs
    until the simulation drains (a blocked Receive schedules no events).
    """
    from repro.csp.effects import Compute, Receive, Reply

    handler_is_gen = inspect.isgeneratorfunction(handler)

    def loop(state: Dict[str, Any]) -> Generator:
        while True:
            req = yield Receive(ops=ops)
            if service_time:
                yield Compute(service_time)
            if handler_is_gen:
                value = yield from handler(state, req)
            else:
                value = handler(state, req)
            if req.is_call:
                yield Reply(req, value)

    return Program(
        name=name,
        segments=[Segment(
            name="serve", fn=loop, rebase_safe=True,
            meta={"kind": "server", "handler": handler, "ops": ops},
        )],
        initial_state=dict(initial_state or {}),
    )
