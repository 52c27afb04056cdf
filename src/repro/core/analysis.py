"""Post-run analysis of protocol behaviour.

Turns a run's spans and stats into the quantities the paper reasons
about informally: how deep speculation ran, how long guesses stayed in
doubt, how much work each abort destroyed, and where the completion time
actually went.

Every function takes a *span source*: a list of :class:`Span` or a result
object with a ``spans`` attribute, i.e. a run traced with
``tracer=RecordingTracer()``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.spans import (ABORT_OUTCOME, COMMIT_OUTCOME, GUESS, ROLLBACK,
                             SERVICE, Span, as_spans)


@dataclass
class GuessLifetime:
    """One guess's journey from fork to resolution."""

    guess: str
    process: str
    site: str
    forked_at: float
    resolved_at: Optional[float] = None
    outcome: Optional[str] = None        # committed | aborted
    abort_reason: Optional[str] = None

    @property
    def in_doubt_for(self) -> Optional[float]:
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.forked_at


def _resolved(span: Span) -> bool:
    """A guess span counts as resolved only by a real commit/abort."""
    return span.end is not None and not span.attrs.get("truncated")


def guess_lifetimes(source) -> List[GuessLifetime]:
    """Extract every guess's fork→resolution interval from a run."""
    lifetimes: List[GuessLifetime] = []
    for span in as_spans(source):
        if span.kind != GUESS:
            continue
        lt = GuessLifetime(
            guess=span.name, process=span.process,
            site=span.attrs.get("site", "?"), forked_at=span.start,
        )
        if _resolved(span):
            lt.resolved_at = span.end
            outcome = span.attrs.get("outcome")
            lt.outcome = ("committed" if outcome == COMMIT_OUTCOME
                          else "aborted" if outcome == ABORT_OUTCOME
                          else outcome)
            if outcome == ABORT_OUTCOME:
                lt.abort_reason = span.attrs.get("reason")
        lifetimes.append(lt)
    return lifetimes


def speculation_depth_series(source) -> List[Tuple[float, int]]:
    """(time, #guesses in doubt) step series over the run."""
    deltas: List[Tuple[float, int]] = []
    for span in as_spans(source):
        if span.kind != GUESS:
            continue
        deltas.append((span.start, +1))
        if _resolved(span):
            deltas.append((span.end, -1))
    deltas.sort()
    series: List[Tuple[float, int]] = []
    depth = 0
    for t, d in deltas:
        depth += d
        series.append((t, depth))
    return series


def max_speculation_depth(source) -> int:
    series = speculation_depth_series(source)
    return max((d for _, d in series), default=0)


def abort_cascades(source) -> List[List[str]]:
    """Group aborts that happened at the same instant in one process.

    Each group is one §3.2 abort event: the named guess plus the nested
    guesses its right-subtree destruction took down with it.
    """
    groups: Dict[Tuple[str, float], List[str]] = defaultdict(list)
    for span in as_spans(source):
        if (span.kind == GUESS and _resolved(span)
                and span.attrs.get("outcome") == ABORT_OUTCOME):
            groups[(span.process, span.end)].append(span.name)
    return [v for _, v in sorted(groups.items())]


def rollback_counts(source) -> Dict[str, int]:
    """Rollbacks per process."""
    counts: Dict[str, int] = defaultdict(int)
    for span in as_spans(source):
        if span.kind == ROLLBACK:
            counts[span.process] += 1
    return dict(counts)


@dataclass
class RunSummary:
    """One-glance analysis of an optimistic run."""

    forks: int
    commits: int
    aborts: int
    abort_reasons: Dict[str, int]
    max_depth: int
    mean_doubt_time: float
    cascades: int
    largest_cascade: int
    rollbacks: Dict[str, int]

    def lines(self) -> List[str]:
        reasons = ", ".join(f"{k}={v}" for k, v in
                            sorted(self.abort_reasons.items())) or "none"
        return [
            f"forks={self.forks} commits={self.commits} aborts={self.aborts}"
            f" (reasons: {reasons})",
            f"max speculation depth={self.max_depth}, mean time in doubt="
            f"{self.mean_doubt_time:.2f}",
            f"abort cascades={self.cascades} (largest {self.largest_cascade})",
            f"rollbacks per process: {self.rollbacks or 'none'}",
        ]


def summarize(source) -> RunSummary:
    """Build a :class:`RunSummary` from any span source."""
    spans = as_spans(source)
    lifetimes = guess_lifetimes(spans)
    commits = sum(1 for lt in lifetimes if lt.outcome == "committed")
    aborts = sum(1 for lt in lifetimes if lt.outcome == "aborted")
    reasons: Dict[str, int] = defaultdict(int)
    for lt in lifetimes:
        if lt.abort_reason:
            reasons[lt.abort_reason] += 1
    doubts = [lt.in_doubt_for for lt in lifetimes
              if lt.in_doubt_for is not None]
    cascades = abort_cascades(spans)
    return RunSummary(
        forks=len(lifetimes),
        commits=commits,
        aborts=aborts,
        abort_reasons=dict(reasons),
        max_depth=max_speculation_depth(spans),
        mean_doubt_time=(sum(doubts) / len(doubts)) if doubts else 0.0,
        cascades=len(cascades),
        largest_cascade=max((len(c) for c in cascades), default=0),
        rollbacks=rollback_counts(spans),
    )


def mechanism_lanes(source) -> Dict[str, Dict[str, object]]:
    """Per-mechanism lane statistics from the shared span schema.

    Baseline runtimes stamp ``mechanism=`` on their guess/service spans
    (``timewarp`` on processed-but-uncommitted events, ``promise`` on
    unresolved promises and promise-served calls, ``pipelining`` on
    pipelined service intervals); the optimistic runtime's guesses carry
    no mechanism attribute and fold into the default ``optimistic`` lane.
    Lanes with ``explicit=True`` were named by at least one span and get
    their own section in :func:`speculation_report`.
    """
    lanes: Dict[str, Dict[str, object]] = {}

    def lane(mode: str) -> Dict[str, object]:
        return lanes.setdefault(mode, {
            "guesses": 0, "commits": 0, "aborts": 0,
            "abort_reasons": defaultdict(int), "doubt": [],
            "services": 0, "service_time": 0.0, "explicit": False,
        })

    for span in as_spans(source):
        if span.kind == GUESS:
            mode = span.attrs.get("mechanism")
            row = lane(mode or "optimistic")
            row["explicit"] = row["explicit"] or bool(mode)
            row["guesses"] += 1
            if _resolved(span):
                outcome = span.attrs.get("outcome")
                if outcome == COMMIT_OUTCOME:
                    row["commits"] += 1
                elif outcome == ABORT_OUTCOME:
                    row["aborts"] += 1
                    reason = span.attrs.get("reason")
                    if reason:
                        row["abort_reasons"][reason] += 1
                row["doubt"].append(span.end - span.start)
        elif span.kind == SERVICE:
            mode = span.attrs.get("mechanism")
            row = lane(mode or "service")
            row["explicit"] = row["explicit"] or bool(mode)
            row["services"] += 1
            if span.end is not None:
                row["service_time"] += span.end - span.start
    for row in lanes.values():
        row["abort_reasons"] = dict(row["abort_reasons"])
    return lanes


def _lane_lines(mode: str, row: Dict[str, object]) -> List[str]:
    lines = [f"[{mode} lane]"]
    if row["guesses"]:
        reasons = ", ".join(
            f"{k}={v}" for k, v in sorted(row["abort_reasons"].items()))
        unresolved = row["guesses"] - row["commits"] - row["aborts"]
        lines.append(
            f"  in doubt: {row['guesses']} "
            f"(committed {row['commits']}, aborted {row['aborts']}"
            + (f" [{reasons}]" if reasons else "")
            + (f", unresolved {unresolved}" if unresolved else "") + ")")
        doubt = row["doubt"]
        if doubt:
            lines.append(
                f"  mean time in doubt: {sum(doubt) / len(doubt):.2f}")
    if row["services"]:
        lines.append(
            f"  service intervals: {row['services']} "
            f"(total time {row['service_time']:g})")
    return lines


def speculation_report(source, title: str = "speculation report") -> str:
    """Render a human-readable summary of any run's speculative behaviour.

    Works for every execution mode that emits the shared span schema —
    optimistic, sequential (trivially zero guesses), pipelining, promise
    pipelining, and Time Warp.  Runs whose spans name their mechanism
    (Time Warp's in-doubt events, promise and pipelining lanes) get one
    explicit section per mechanism after the shared summary.
    """
    spans = as_spans(source)
    summary = summarize(spans)
    lines = summary.lines()
    for mode, row in sorted(mechanism_lanes(spans).items()):
        if row["explicit"]:
            lines.extend(_lane_lines(mode, row))
    body = "\n".join(f"  {line}" for line in lines)
    return f"{title}\n{body}"
