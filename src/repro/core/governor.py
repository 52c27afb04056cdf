"""Adaptive speculation governor: graceful degradation under misspeculation.

Optimistic execution only pays off while guesses mostly commit; under a
fault storm every fork is wasted work plus a rollback cascade.  The
governor closes that loop using the same abort/commit resolutions the
forensics layer observes: per process it maintains an AIMD *admission
window* over outstanding own guesses — commits widen it additively, aborts
shrink it multiplicatively, down to zero (fully sequential execution).
While the window is closed, periodic *probe* forks test whether conditions
recovered; a committing probe starts re-opening the window.

The governor is purely advisory at the fork boundary: a denied fork makes
:meth:`~repro.core.runtime.ProcessRuntime.maybe_fork` fall through to
sequential execution of the segment, exactly like the §3.3 liveness
fallback, so it cannot affect correctness — only how much speculation is
attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.config import GovernorConfig


@dataclass
class _ProcessWindow:
    """Per-process AIMD state."""

    limit: float
    outstanding: int = 0
    last_probe: float = field(default=float("-inf"))
    throttled: int = 0
    probes: int = 0


class SpeculationGovernor:
    """AIMD throttle over each process's outstanding speculation."""

    def __init__(self, config: GovernorConfig, metrics=None) -> None:
        self.config = config
        self.m = metrics
        self._windows: Dict[str, _ProcessWindow] = {}

    def _window(self, process: str) -> _ProcessWindow:
        win = self._windows.get(process)
        if win is None:
            win = _ProcessWindow(limit=float(self.config.max_depth))
            self._windows[process] = win
        return win

    # ------------------------------------------------------------ decisions

    def allow_fork(self, process: str, now: float) -> bool:
        """May ``process`` open a new guess right now?"""
        win = self._window(process)
        if win.outstanding < int(win.limit):
            return True
        if (
            int(win.limit) == 0
            and win.outstanding == 0
            and now - win.last_probe >= self.config.probe_interval
        ):
            win.last_probe = now
            win.probes += 1
            if self.m is not None:
                self.m.gov_probes.inc()
            return True
        win.throttled += 1
        if self.m is not None:
            self.m.gov_throttled.inc()
        return False

    # -------------------------------------------------------------- signals

    def on_fork(self, process: str) -> None:
        self._window(process).outstanding += 1

    def on_resolution(self, process: str, outcome: str, now: float) -> None:
        """Feed one commit/abort resolution (from ``_resolve_metrics``)."""
        win = self._window(process)
        win.outstanding = max(0, win.outstanding - 1)
        if outcome == "commit":
            # A commit reopens a closed window outright (a successful probe
            # means conditions recovered — crawling from 0 in `increase`
            # steps would leave the window truncating to closed for several
            # more probe rounds), then grows it additively.
            win.limit = min(
                float(self.config.max_depth),
                max(1.0, win.limit + self.config.increase),
            )
        else:
            # floor 0: the window may close to fully sequential
            win.limit = max(0.0, win.limit * self.config.decrease)
        if self.m is not None:
            self.m.gov_window.set(win.limit, now)

    # -------------------------------------------------------------- queries

    def limit(self, process: str) -> float:
        return self._window(process).limit

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-process window state (bench/report surface)."""
        return {
            name: {
                "limit": win.limit,
                "outstanding": win.outstanding,
                "throttled": win.throttled,
                "probes": win.probes,
            }
            for name, win in sorted(self._windows.items())
        }
