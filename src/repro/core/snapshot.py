"""Versioned copy-on-write snapshots of thread state.

The paper's analytical model (§3.1) charges an explicit *checkpoint cost*
for every state capture, and the whole optimistic bet is that captures are
cheap enough for speculation to win.  Every capture — on fork, on rollback
restore, and on the ``strict_exports`` export check — is a
structurally-shared snapshot:

* :func:`freeze` converts a state value into an immutable *frozen form*
  (scalars pass through untouched; lists/dicts/sets/tuples are converted
  recursively; unrecognized mutable values fall back to ``copy.deepcopy``
  and are counted).
* A :class:`StateSnapshot` maps state keys to frozen values.  Snapshots are
  immutable and freely shared: a fork's right-thread birth state, its
  ``strict_exports`` reference, and the thread's replay base are all the
  *same* snapshot object, where a ``copy.deepcopy`` per use would take
  three full copies.
* :func:`thaw`/:meth:`StateSnapshot.restore` rebuild a fresh mutable state.
  Scalars (the overwhelmingly common case) are shared, not copied, so a
  restore is a near-shallow dict copy — not a deepcopy-equivalent.
* :class:`CowState` is the dict subclass threads use for live state.  It
  tracks a mutation *version*; capturing an unchanged all-scalar state
  returns the cached snapshot with zero copying.  The cache is only kept
  for all-scalar states because a mutable value, once handed out, can be
  mutated without going through the dict — version tracking alone cannot
  see that, so such states are re-captured each time (still cheaper than
  deepcopy, and counted separately).

Every operation reports to a :class:`~repro.sim.stats.Stats` sink under the
``snap.*`` namespace (see ``Stats.perf``; ``benchmarks/e2e`` reports them
per scheduler event as ``core.snapshot.*``):

* ``snap.captures`` / ``snap.capture_hits`` / ``snap.capture_incremental``
  — captures requested / served from the version cache with no walk at
  all / rebuilt by re-freezing only the dirty keys;
* ``snap.full_copies`` — deepcopy-equivalent full-state copies: every
  fresh freeze walk counts one; cache hits and structurally-shared
  restores count zero;
* ``snap.restores`` — snapshot thaws (near-shallow);
* ``snap.deepcopy_fallbacks`` — values of unrecognized mutable types that
  had to be deep-copied inside a COW capture/restore;
* ``snap.nodes_copied`` — bytes-equivalent traffic: container nodes and
  elements actually materialized (shared scalars are free).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Mapping, Optional, Tuple

#: Types whose instances are immutable and freely shareable between a live
#: state and any number of snapshots.
_SCALARS = (type(None), bool, int, float, str, bytes, complex)

#: Unique, unforgeable tags marking frozen containers.  User data can never
#: compare equal to a frozen container by accident: the tag objects exist
#: only here, and equality on them is identity.
_LIST_TAG = object()
_DICT_TAG = object()
_SET_TAG = object()
_FALLBACK_TAG = object()


class _Counter:
    """Mutable tally for one freeze/thaw walk (cheaper than Stats.incr
    per node; flushed to the Stats sink once per operation)."""

    __slots__ = ("nodes", "fallbacks")

    def __init__(self) -> None:
        self.nodes = 0
        self.fallbacks = 0


def freeze(value: Any, _c: Optional[_Counter] = None) -> Any:
    """Immutable frozen form of ``value`` (structure-preserving).

    Frozen forms of two values compare equal exactly when thawing them
    yields equal values *of the same container types* — a list that became
    a tuple freezes differently, which is what ``strict_exports`` needs.
    """
    if isinstance(value, _SCALARS):
        return value
    if _c is not None:
        _c.nodes += 1
    t = type(value)
    if t is list:
        return (_LIST_TAG, tuple(freeze(v, _c) for v in value))
    if t is dict:
        return (_DICT_TAG, tuple((k, freeze(v, _c)) for k, v in value.items()))
    if t is tuple:
        return tuple(freeze(v, _c) for v in value)
    if t is set or t is frozenset:
        tag = _SET_TAG if t is set else None
        frozen_elems = frozenset(freeze(v, _c) for v in value)
        return (tag, frozen_elems) if tag is not None else frozen_elems
    if isinstance(value, CowState):
        return (_DICT_TAG, tuple((k, freeze(v, _c)) for k, v in value.items()))
    # Unrecognized (possibly mutable) value: deepcopy fallback, counted.
    if _c is not None:
        _c.fallbacks += 1
    return (_FALLBACK_TAG, copy.deepcopy(value))


def thaw(frozen: Any, _c: Optional[_Counter] = None) -> Any:
    """Fresh mutable value from a frozen form; scalars are shared."""
    if isinstance(frozen, _SCALARS):
        return frozen
    t = type(frozen)
    if t is tuple:
        if len(frozen) == 2:
            tag = frozen[0]
            if tag is _LIST_TAG:
                if _c is not None:
                    _c.nodes += 1
                return [thaw(v, _c) for v in frozen[1]]
            if tag is _DICT_TAG:
                if _c is not None:
                    _c.nodes += 1
                return {k: thaw(v, _c) for k, v in frozen[1]}
            if tag is _SET_TAG:
                if _c is not None:
                    _c.nodes += 1
                return {thaw(v, _c) for v in frozen[1]}
            if tag is _FALLBACK_TAG:
                if _c is not None:
                    _c.nodes += 1
                    _c.fallbacks += 1
                return copy.deepcopy(frozen[1])
        if _c is not None:
            _c.nodes += 1
        return tuple(thaw(v, _c) for v in frozen)
    if t is frozenset:
        if _c is not None:
            _c.nodes += 1
        return frozenset(thaw(v, _c) for v in frozen)
    return frozen


class StateSnapshot:
    """An immutable, structurally-shared capture of one state dict."""

    __slots__ = ("frozen", "all_scalar")

    def __init__(self, frozen: Dict[str, Any], all_scalar: bool) -> None:
        self.frozen = frozen
        self.all_scalar = all_scalar


class CowState(dict):
    """Live thread state with mutation-version and dirty-key tracking.

    Only *mutating* dict operations are intercepted (reads stay at plain
    dict speed).  The version lets :class:`Snapshotter` reuse a cached
    snapshot when the state provably has not changed, and the *dirty set*
    (keys written since the cached capture) lets it re-freeze only what
    changed.  Both are only trusted when the cached snapshot was
    all-scalar: with every value immutable, any observable change is
    forced through one of the overridden methods.  Operations that remove
    keys (``del``/``pop``/``clear``/...) set ``_dirty_overflow`` instead,
    falling back to a full re-walk at the next capture.
    """

    __slots__ = ("_version", "_snap_cache", "_snap_version", "_dirty",
                 "_dirty_overflow")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._version = 0
        self._snap_cache: Optional[StateSnapshot] = None
        self._snap_version = -1
        self._dirty: set = set()
        self._dirty_overflow = False
        super().__init__(*args, **kwargs)

    def _bump(self) -> None:
        self._version += 1

    def __setitem__(self, key: Any, value: Any) -> None:
        self._bump()
        self._dirty.add(key)
        super().__setitem__(key, value)

    def __delitem__(self, key: Any) -> None:
        self._bump()
        self._dirty_overflow = True
        super().__delitem__(key)

    def clear(self) -> None:
        self._bump()
        self._dirty_overflow = True
        super().clear()

    def pop(self, *args: Any) -> Any:
        self._bump()
        self._dirty_overflow = True
        return super().pop(*args)

    def popitem(self) -> Tuple[Any, Any]:
        self._bump()
        self._dirty_overflow = True
        return super().popitem()

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._bump()
        self._dirty.add(key)
        return super().setdefault(key, default)

    def update(self, *args: Any, **kwargs: Any) -> None:
        self._bump()
        if len(args) == 1 and isinstance(args[0], dict):
            self._dirty.update(args[0])
        elif args:
            # iterable of pairs: keys unknown without consuming it twice
            self._dirty_overflow = True
        self._dirty.update(kwargs)
        super().update(*args, **kwargs)

    def __ior__(self, other: Any) -> "CowState":
        self.update(other)
        return self

    def __reduce__(self) -> Tuple[Any, ...]:
        # copy/deepcopy/pickle support: rebuild from a plain item dict
        # (the version cache is deliberately not carried over).
        return (type(self), (dict(self),))


class Snapshotter:
    """State capture/restore bound to one Stats sink.

    Each :class:`~repro.core.runtime.ProcessRuntime` owns one.
    """

    __slots__ = ("stats",)

    def __init__(self, stats: Any = None) -> None:
        self.stats = stats

    # ----------------------------------------------------------- accounting

    def _count(self, name: str, amount: int = 1) -> None:
        if self.stats is not None and amount:
            self.stats.incr(name, amount)

    def _flush(self, c: _Counter) -> None:
        if self.stats is not None:
            if c.nodes:
                self.stats.incr("snap.nodes_copied", c.nodes)
            if c.fallbacks:
                self.stats.incr("snap.deepcopy_fallbacks", c.fallbacks)

    # -------------------------------------------------------------- capture

    def capture(self, state: Mapping[str, Any]) -> StateSnapshot:
        """Snapshot ``state``; counts one full copy unless cache-served."""
        self._count("snap.captures")
        if isinstance(state, CowState) and state._snap_cache is not None:
            cache = state._snap_cache
            if state._snap_version == state._version:
                self._count("snap.capture_hits")
                return cache
            if cache.all_scalar and not state._dirty_overflow:
                # Incremental: the cached snapshot was all-scalar, so every
                # change since then went through a recording dict method —
                # re-freeze only the written keys, share the rest.
                c = _Counter()
                frozen = dict(cache.frozen)
                all_scalar = True
                for k in state._dirty:
                    # raw dict read: capture is infrastructure, so it must
                    # not register in an ObservedState's access record
                    v = dict.__getitem__(state, k)
                    if isinstance(v, _SCALARS):
                        frozen[k] = v
                    else:
                        all_scalar = False
                        frozen[k] = freeze(v, c)
                c.nodes += len(state._dirty)
                snap = StateSnapshot(frozen, all_scalar)
                self._count("snap.capture_incremental")
                self._flush(c)
                if all_scalar:
                    _install_cache(state, snap)
                return snap
        c = _Counter()
        frozen = {}
        all_scalar = True
        for k, v in state.items():
            if isinstance(v, _SCALARS):
                frozen[k] = v
            else:
                all_scalar = False
                frozen[k] = freeze(v, c)
        c.nodes += len(frozen)
        snap = StateSnapshot(frozen, all_scalar)
        self._count("snap.full_copies")
        self._flush(c)
        if isinstance(state, CowState) and all_scalar:
            _install_cache(state, snap)
        return snap

    def derive(self, base: StateSnapshot,
               overlay: Mapping[str, Any]) -> StateSnapshot:
        """A snapshot equal to ``base`` updated with ``overlay``.

        Shares every frozen value of ``base``; only the overlay keys are
        frozen anew — this is what makes a fork's guessed-state snapshot a
        partial copy instead of a third full one.
        """
        if not overlay:
            return base
        c = _Counter()
        frozen = dict(base.frozen)
        all_scalar = base.all_scalar
        for k, v in overlay.items():
            if isinstance(v, _SCALARS):
                frozen[k] = v
            else:
                all_scalar = False
                frozen[k] = freeze(v, c)
        c.nodes += len(overlay)
        self._flush(c)
        return StateSnapshot(frozen, all_scalar)

    # -------------------------------------------------------------- restore

    def restore(self, snap: StateSnapshot,
                into: Optional[dict] = None) -> dict:
        """A fresh mutable state from ``snap`` (into ``into`` if given).

        This shares immutable leaves with the snapshot — it is *not*
        counted as a full copy; only rebuilt mutable containers and
        deepcopy fallbacks add copy traffic.
        """
        self._count("snap.restores")
        c = _Counter()
        if snap.all_scalar:
            items = dict(snap.frozen)
        else:
            items = {k: thaw(v, c) for k, v in snap.frozen.items()}
        self._flush(c)
        if into is None:
            if snap.all_scalar:
                # A state born from an all-scalar snapshot *is* that
                # snapshot until mutated: pre-install the capture cache so
                # the thread's next checkpoint is a hit or an incremental.
                out = CowState(items)
                _install_cache(out, snap)
                return out
            return items
        into.update(items)
        if (
            snap.all_scalar
            and isinstance(into, CowState)
            and len(into) == len(snap.frozen)
        ):
            # equal size after overwriting every snapshot key => no extra
            # keys survived in ``into``; its contents equal the snapshot
            _install_cache(into, snap)
        return into

    def copy_state(self, state: Mapping[str, Any]) -> dict:
        """Independent mutable copy of a state dict (capture + restore)."""
        return self.restore(self.capture(state))

    # ----------------------------------------------------- strict_exports

    def key_changed(self, snap: StateSnapshot, key: str, live: Any) -> bool:
        """Did ``live`` diverge from the value captured under ``key``?

        Equality semantics match the original deepcopy-based check (plain
        ``!=`` between the captured value and the live one); a key absent
        from the snapshot counts as changed.
        """
        if key not in snap.frozen:
            return True
        stored = snap.frozen[key]
        if isinstance(stored, _SCALARS):
            # fast path: both captured and (typically) live are scalars
            return stored != live
        if type(stored) is tuple and len(stored) == 2 \
                and stored[0] is _FALLBACK_TAG:
            return stored[1] != live
        return thaw(stored) != live


def _install_cache(state: CowState, snap: StateSnapshot) -> None:
    """Mark ``snap`` as an exact capture of ``state`` as it is right now."""
    state._snap_cache = snap
    state._snap_version = state._version
    state._dirty.clear()
    state._dirty_overflow = False


def live_state(state: Mapping[str, Any]) -> CowState:
    """Wrap ``state`` as a version-tracked live dict (idempotent)."""
    if isinstance(state, CowState):
        return state
    return CowState(state)
