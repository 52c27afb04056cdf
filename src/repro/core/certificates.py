"""Effect certificates: what ``static_effects`` lets a fork skip.

With the option on, :class:`EffectCertificates` holds the static effects
index of one program (:mod:`repro.analyze.effects`, imported only then)
and applies its two certificates.  An export the continuation provably
never uses is *deferred*: left out of the guess at fork and taken from the
committed left thread instead.  An export whose downstream uses are all
additive is *bump-certified*: a wrong numeric guess shifts every later
value by a constant, so the join records a repair delta instead of
aborting.  Both are banked at commit and overlaid on the final state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.core.guess import GuessId
from repro.core.thread import OptimisticThread
from repro.csp.process import Program


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class EffectCertificates:
    """Static-effects shortcuts of one process (inert when disabled)."""

    def __init__(self, program: Program, system: Any) -> None:
        self._sys = system  # OptimisticSystem (untyped: it imports us)
        self._m = system.runtime_metrics
        self.process = program.name
        #: the static effects index; None when off or when analysis failed
        self.effects: Optional[Any] = None
        #: committed actuals of deferred exports, overlaid on the final state
        self._deferred_actuals: Dict[str, Any] = {}
        #: accumulated bump-repair deltas, applied to the final state
        self._repair_deltas: Dict[str, Any] = {}
        if system.config.static_effects:
            try:
                from repro.analyze.effects import infer_program_effects

                self.effects = infer_program_effects(program)
            except Exception as exc:
                # analysis failure = feature off, but never silently
                self._log("static_effects_unavailable", error=repr(exc))

    def _log(self, kind: str, **detail: Any) -> None:
        self._sys.log_protocol_event(self.process, kind, detail)

    def trim(self, seg_idx: int, site: str, guessed: Dict[str, Any]
             ) -> Tuple[Tuple[str, ...], FrozenSet[str]]:
        """Remove deferrable exports from ``guessed``, in place, at a fork.

        Returns the deferred keys and the bump-certified ones among the
        keys still guessed.
        """
        if self.effects is None or not guessed:
            return (), frozenset()
        deferred: Tuple[str, ...] = ()
        deferrable = self.effects.deferrable_exports(seg_idx)
        if deferrable:
            deferred = tuple(k for k in guessed if k in deferrable)
            for k in deferred:
                del guessed[k]
            self._m.guesses_deferred.inc(len(deferred))
            self._log("guess_deferred", site=site, keys=sorted(deferred))
            if not guessed:
                self._m.guess_free_forks.inc()
        return deferred, self.effects.bump_certified(seg_idx) & guessed.keys()

    def verify(self, guess: GuessId,
               verifier: Callable[[Mapping[str, Any], Mapping[str, Any]], bool],
               certified: FrozenSet[str], guessed: Mapping[str, Any],
               actual: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
        """The join's value check; None on a value fault, else repair deltas.

        A numeric mismatch on a bump-certified key is repairable — every
        downstream use is an additive self-update, so the error is a
        constant shift fixed at commit.  Such keys verify without value
        equality; non-numeric values fall back to the ordinary verifier.
        """
        repairs: Dict[str, Any] = {}
        if certified:
            guessed = dict(guessed)
            for k in certified:
                if k not in guessed or k not in actual:
                    continue
                g, a = guessed[k], actual[k]
                if _number(g) and _number(a):
                    if a != g:
                        repairs[k] = a - g
                    del guessed[k]
        if not verifier(guessed, actual):
            return None
        if repairs:
            self._m.commutative_repairs.inc(len(repairs))
            self._log("commutative_repair", guess=guess.key(),
                      keys=sorted(repairs))
        return repairs

    def bank(self, deferred_keys: Tuple[str, ...],
             repair: Optional[Mapping[str, Any]],
             left: Optional[OptimisticThread]) -> None:
        """Keep a committing guess's deferred actuals and repair deltas.

        Runs exactly once per guess, at commit — the only irrevocable
        point: a commit means every birth guard already resolved, so the
        left thread's values can never be rolled back.  :meth:`overlay`
        applies the banked values; patching live thread state instead
        would be unsound (rollback restores snapshots predating the patch).
        """
        if left is not None:
            for k in deferred_keys:
                if k in left.state:
                    self._deferred_actuals[k] = left.state[k]
        for k, delta in (repair or {}).items():
            self._repair_deltas[k] = self._repair_deltas.get(k, 0) + delta

    def overlay(self, state: Dict[str, Any]) -> Dict[str, Any]:
        """The process's final state with the banked values applied."""
        if not self._deferred_actuals and not self._repair_deltas:
            return state
        out = dict(state)
        out.update(self._deferred_actuals)
        for k, delta in self._repair_deltas.items():
            if k in out and isinstance(out[k], (int, float)):
                out[k] = out[k] + delta
        return out
