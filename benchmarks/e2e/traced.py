"""Per-layer numbers from one profile of a workload's main rung.

The profile comes from ``cProfile`` driven by the benchmark's own files;
nothing inside ``src/`` is instrumented.  A profile stats table maps
``(file, line, name)`` to ``(cc, nc, tt, ct, callers)`` and each caller edge
to ``(nc, cc, tt, ct)``.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Optional, Tuple

from layers import CALL_COUNTS, COUNTER_RATIOS, EVENTS, LAYERS, layer_of

Func = Tuple[str, int, str]
Metric = Tuple[float, str]


def self_time_by_layer(stats: Dict[Func, Any]) -> Dict[str, float]:
    """Profiled self time per layer, in seconds.

    Self time of a built-in or stdlib function is charged to the layers of
    the ``repro`` functions that called it, through as many non-``repro``
    frames as lie between, in proportion to the time each caller's calls
    took.  Time no ``repro`` function asked for lands in ``other``.
    """
    owners: Dict[Func, Optional[Dict[str, float]]] = {}

    def owner_shares(func: Func) -> Dict[str, float]:
        if func in owners:
            return owners[func] or {}      # None: a cycle back to func
        owners[func] = None
        shares: Dict[str, float] = {}
        callers = stats[func][4]
        weight = sum(edge[3] for edge in callers.values())
        for caller, edge in callers.items():
            if weight <= 0:
                break
            layer = layer_of(caller[0])
            up = {layer: 1.0} if layer else owner_shares(caller)
            for name, share in up.items():
                shares[name] = shares.get(name, 0.0) + share * edge[3] / weight
        total = sum(shares.values())
        shares = ({name: share / total for name, share in shares.items()}
                  if total > 0 else {"other": 1.0})
        owners[func] = shares
        return shares

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(func[0])
        for name, share in ({layer: 1.0} if layer
                            else owner_shares(func)).items():
            totals[name] += tt * share
    return totals


def calls_into_layers(stats: Dict[Func, Any]) -> Dict[str, int]:
    """Calls that cross into each layer from outside it."""
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, nc, _tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is None:
            continue
        if not callers:          # called from outside the profiled region
            calls[layer] += nc
        for caller, edge in callers.items():
            if layer_of(caller[0]) != layer:
                calls[layer] += edge[0]
    return calls


def _calls_of(stats: Dict[Func, Any], module: str,
              qualname: str) -> Optional[int]:
    """Profiled calls of ``module.qualname``; None if it no longer exists."""
    try:
        target: Any = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
        code = target.__code__
    except (ImportError, AttributeError):
        return None
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry else 0


def layer_metrics(stats: Dict[Func, Any], counters: Dict[str, int],
                  missing: List[str]) -> Dict[str, Metric]:
    """Every per-layer metric the profile and the run counters give.

    ``counters`` holds the profiled rounds' summed ``Stats`` counters plus
    the ``ops`` and ``spans`` totals; names of vanished functions are
    appended to ``missing``.
    """
    events = counters.get(EVENTS, 0)

    def per(total: float, base: float) -> float:
        return total / base if base else 0.0

    metrics: Dict[str, Metric] = {}
    self_time = self_time_by_layer(stats)
    profiled = sum(self_time.values())
    calls = calls_into_layers(stats)
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (
            per(self_time[layer], profiled), "fraction")
        metrics[f"{layer}.self_us_per_event"] = (
            per(self_time[layer] * 1e6, events), "us/event")
        metrics[f"{layer}.calls_per_event"] = (
            per(calls[layer], events), "calls/event")
    for name, (module, qualname) in CALL_COUNTS.items():
        count = _calls_of(stats, module, qualname)
        if count is None:
            missing.append(name)
        metrics[name] = (per(count or 0, events), "calls/event")
    for name, (above, below, unit) in COUNTER_RATIOS.items():
        metrics[name] = (
            per(sum(counters.get(key, 0) for key in above),
                sum(counters.get(key, 0) for key in below)), unit)
    return metrics
