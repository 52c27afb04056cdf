"""Predictor library: the paper's fork-site value-guessing mechanisms.

§2: "We assume that there is some mechanism by which the compiler is told
that it is desirable to parallelize S1 and S2.  This mechanism could be
programmer supplied pragmas, run-time profiling, static analysis, or a
combination of these methods."  §2 also requires "a way to guess the
result with a high probability of success".

* :func:`constant` — the pragma: always guess the same values
  (re-exported from :mod:`repro.csp.plan`).
* :class:`LastValue` — guess whatever the segment exported last time it
  committed (classic value prediction).
* :class:`Majority` — guess the most frequent committed outcome.
* :class:`StateFunction` — compute the guess from the fork-point state.

Learned predictors are fed by the runtime's join outcomes: wire one up
with :func:`learn_from` (or call :meth:`observe` yourself between runs of
a repeated workload).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Optional

from repro.csp.plan import constant_predictor as constant  # noqa: F401 — re-export


class LearnedPredictor:
    """Base for predictors that improve from observed outcomes.

    A predictor is *per fork site*; ``observe(actual)`` feeds it the
    actual export values after each (committed or aborted) join, and
    calling it with the fork-point state returns the current guess.
    ``default`` seeds the guess before any observation.
    """

    def __init__(self, default: Dict[str, Any]) -> None:
        self.default = dict(default)
        self.observations = 0

    def observe(self, actual: Dict[str, Any]) -> None:
        self.observations += 1
        self._learn(actual)

    def _learn(self, actual: Dict[str, Any]) -> None:
        raise NotImplementedError

    def __call__(self, state: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError


class LastValue(LearnedPredictor):
    """Guess the most recent actual exports."""

    def __init__(self, default: Dict[str, Any]) -> None:
        super().__init__(default)
        self._last: Optional[Dict[str, Any]] = None

    def _learn(self, actual: Dict[str, Any]) -> None:
        self._last = dict(actual)

    def __call__(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return dict(self._last) if self._last is not None else dict(self.default)


class Majority(LearnedPredictor):
    """Guess, per export key, the most frequently observed value."""

    def __init__(self, default: Dict[str, Any]) -> None:
        super().__init__(default)
        self._counts: Dict[str, Counter] = defaultdict(Counter)

    def _learn(self, actual: Dict[str, Any]) -> None:
        for key, value in actual.items():
            self._counts[key][value] += 1

    def __call__(self, state: Dict[str, Any]) -> Dict[str, Any]:
        guess = dict(self.default)
        for key, counts in self._counts.items():
            if counts:
                guess[key] = counts.most_common(1)[0][0]
        return guess


class StateFunction:
    """A pure function of the fork-point state (the static-analysis case)."""

    def __init__(self, fn: Callable[[Dict[str, Any]], Dict[str, Any]]) -> None:
        self._fn = fn

    def __call__(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return dict(self._fn(state))


def learn_from(system, process: str, site: str,
               predictor: LearnedPredictor) -> None:
    """Feed ``predictor`` every join outcome of ``process``/``site`` so far.

    Scans the system's protocol log for value-fault and commit events of
    the given fork site and replays their actual exports into the
    predictor.  Call between runs of a repeated workload (profiles carry
    across sessions exactly like the paper's "run-time profiling").
    """
    sites: Dict[str, str] = {}      # guess key -> fork site
    for entry in system.protocol_log:
        if entry["process"] != process:
            continue
        if entry["kind"] == "fork":
            sites[entry["guess"]] = entry["site"]
        elif (entry["kind"] in ("commit", "value_fault")
              and sites.get(entry["guess"]) == site):
            predictor.observe(entry["actual"])
