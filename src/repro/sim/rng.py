"""Named, seeded random streams.

Every source of randomness in a simulation (per-link jitter, workload
generation, guess oracles) draws from its own named stream derived from the
master seed.  This keeps experiments reproducible and — crucially — makes
adding a new random consumer *not* perturb the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import SimulationError

#: Doubles fetched per numpy call by :meth:`RngRegistry.uniform`.
BLOCK = 256


class RngRegistry:
    """Factory of independent :class:`numpy.random.Generator` streams.

    Each stream is keyed by a string name; the stream's seed is derived from
    ``(master_seed, name)`` by hashing, so streams are mutually independent
    and stable across runs and across unrelated code changes.

    A name is *raw* (:meth:`stream`) or *buffered* (:meth:`uniform`) for the
    registry's whole life; mixing the two raises, since a raw draw after a
    buffered block would silently shift every later buffered value.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._buffers: dict[str, list[float]] = {}  # pending, next one last
        self._raw: set[str] = set()

    def _generator(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.master_seed}:{name}".encode("utf-8")
            ).digest()
            seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(seed)
            self._streams[name] = gen
        return gen

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the raw stream for ``name``."""
        if name in self._buffers:
            raise SimulationError(f"rng stream {name!r} is buffered")
        self._raw.add(name)
        return self._generator(name)

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """The next ``Generator.uniform(low, high)`` draw of stream ``name``.

        Doubles come ``BLOCK`` per numpy call; numpy's scalar ``uniform``
        is ``low + (high - low) * u`` over the same doubles ``u``, so the
        values are bit-identical to per-call draws (docs/ROBUSTNESS.md).
        """
        buf = self._buffers.get(name)
        if not buf:
            if buf is None:
                if name in self._raw:
                    raise SimulationError(f"rng stream {name!r} is raw")
                buf = self._buffers[name] = []
            buf.extend(reversed(self._generator(name).random(BLOCK).tolist()))
        return low + (high - low) * buf.pop()

    def reset(self) -> None:
        """Drop all streams and buffers so the next access re-creates them."""
        self._streams.clear()
        for buf in self._buffers.values():
            buf.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RngRegistry(master_seed={self.master_seed}, "
            f"streams={sorted(self._streams)})"
        )
