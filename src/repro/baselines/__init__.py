"""Comparison systems.

* :mod:`repro.baselines.pipelining` — the X-window-system style contrast
  from §1: asynchronous sends, asynchronous error notification, no
  rollback — fast but willing to show wrong output to the world.
* :mod:`repro.baselines.timewarp` — a small Time Warp kernel [Jefferson 85]
  for the §5 related-work comparison: one totally-ordered virtual time,
  state checkpoints, anti-messages and GVT, versus this paper's partial
  order determined during execution.
"""

from repro.baselines.pipelining import PipeliningResult, run_pipelined_chain
from repro.baselines.promises import (
    PCall,
    PipelineResult,
    Promise,
    PromiseSystem,
    PWait,
)
from repro.baselines.timewarp import (
    TimeWarpKernel,
    TimeWarpLP,
    TimeWarpResult,
)

__all__ = [
    "PipeliningResult",
    "run_pipelined_chain",
    "PromiseSystem",
    "PipelineResult",
    "Promise",
    "PCall",
    "PWait",
    "TimeWarpKernel",
    "TimeWarpLP",
    "TimeWarpResult",
]
