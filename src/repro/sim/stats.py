"""Run statistics: counters, gauges and time series.

The optimistic runtime and the baselines all report through one
:class:`Stats` object, so benchmark harnesses can print uniform rows
(messages sent, control messages, aborts, rollbacks, bytes of guard
overhead, completion time...).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Optional


class Stats:
    """Counter / series sink shared by a simulation run."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = defaultdict(int)
        self.series: dict[str, list[tuple[float, float]]] = defaultdict(list)

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] += amount

    def record(self, name: str, time: float, value: float) -> None:
        """Append ``(time, value)`` to series ``name``."""
        self.series[name].append((time, value))

    def get(self, name: str) -> int:
        """Value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    def series_values(self, name: str) -> list[float]:
        """Just the values of series ``name``, in record order."""
        return [v for _, v in self.series.get(name, [])]

    def merge(self, other: "Stats") -> None:
        """Fold another Stats object into this one."""
        for k, v in other.counters.items():
            self.counters[k] += v
        for k, pts in other.series.items():
            self.series[k].extend(pts)

    def snapshot(self, names: Optional[Iterable[str]] = None) -> dict[str, int]:
        """Plain-dict copy of (selected) counters, for assertions/printing."""
        if names is None:
            return dict(self.counters)
        return {n: self.counters.get(n, 0) for n in names}

    def perf(self, prefix: str = "snap.") -> dict[str, int]:
        """Counters under one namespace, sorted by name.

        The runtime's implementation-cost counters live under ``snap.*``
        (snapshots taken, deepcopy-equivalent full copies, bytes-equivalent
        nodes copied, deepcopy fallbacks); guard-tag traffic is
        ``opt.guard_tag_units``.  ``benchmarks/e2e`` reports them per
        scheduler event (``core.snapshot.*``).
        """
        return {
            k: v for k, v in sorted(self.counters.items())
            if k.startswith(prefix)
        }

    def full_copies(self) -> int:
        """Deepcopy-equivalent full state copies performed so far."""
        return self.counters.get("snap.full_copies", 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Stats({dict(self.counters)!r})"
