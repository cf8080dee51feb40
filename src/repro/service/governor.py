"""RSS memory governor: measure real memory, evict warm state under
pressure, refuse admission before the OOM killer arrives.

The admission cost model (:mod:`repro.service.govern`) is an a-priori
*estimate*; this module closes the loop with the ground truth — the
process's resident set, sampled from ``/proc/self/statm`` (falling
back to ``resource.getrusage``, which reports the peak rather than the
current RSS but still bounds the damage on non-Linux POSIX).

Two thresholds, two behaviours:

* above ``soft_limit_bytes`` the governor **relieves pressure**: it
  walks the engine's sessions from least- to most-recently used,
  first releasing warm worker pools (cheap to rebuild — the graph and
  mirror stay cached), then evicting whole sessions down to
  ``min_sessions``, until the estimated released bytes cover the
  overshoot.  Eviction trades warm-run latency for survival, exactly
  the right direction under pressure;
* above ``hard_limit_bytes`` — after relieving — it **refuses
  admission** (:meth:`MemoryGovernor.refusal`, wired into the
  admission controller's ``refusal_hook``): a typed
  :class:`~repro.errors.ServiceOverloadError` beats an OOM kill of
  every in-flight request.

``rss_fn`` and the clock are injectable so tests drive the governor
with synthetic pressure instead of real multi-GB allocations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..ioutil import process_rss_bytes

__all__ = ["rss_bytes", "GovernorConfig", "MemoryGovernor"]


def rss_bytes(
    pid: Optional[int] = None, *, statm_path: Optional[str] = None
) -> int:
    """Current resident-set size of a process, in bytes.

    Prefers ``/proc/<pid>/statm`` (instantaneous, Linux; see
    :func:`repro.ioutil.process_rss_bytes`); for the calling process it
    falls back to ``resource.getrusage`` (``ru_maxrss``, the lifetime
    *peak*, in KiB on Linux/BSD) and finally 0 where neither exists —
    never raises.  ``statm_path`` overrides the proc file so tests can
    fake both the present and the absent path.
    """
    rss = process_rss_bytes(pid, statm_path=statm_path)
    if rss is not None:
        return rss
    if pid is not None:
        # getrusage only knows about *this* process (and its reaped
        # children in aggregate); no fallback for arbitrary pids.
        return 0
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - exotic platforms only
        return 0


@dataclass(frozen=True)
class GovernorConfig:
    """Thresholds the memory governor enforces."""

    #: start evicting warm state above this RSS (None = never).
    soft_limit_bytes: Optional[int] = None
    #: refuse admission above this RSS (None = never refuse).
    hard_limit_bytes: Optional[int] = None
    #: sessions the governor will not evict below (keep some warmth).
    min_sessions: int = 0
    #: minimum seconds between RSS samples (0 = sample every check).
    sample_interval: float = 0.0

    def __post_init__(self) -> None:
        if (
            self.soft_limit_bytes is not None
            and self.hard_limit_bytes is not None
            and self.hard_limit_bytes < self.soft_limit_bytes
        ):
            raise ValueError("hard limit must be >= soft limit")
        if self.min_sessions < 0:
            raise ValueError("min_sessions must be >= 0")


class MemoryGovernor:
    """Holds an :class:`~repro.engine.Engine` to its memory budget."""

    def __init__(
        self,
        engine,
        config: Optional[GovernorConfig] = None,
        *,
        rss_fn: Callable[[], int] = rss_bytes,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.engine = engine
        self.config = config or GovernorConfig()
        self._rss_fn = rss_fn
        self._clock = clock
        self._last_sample = 0.0
        self._last_rss = 0
        # stats
        self.samples = 0
        self.pools_released = 0
        self.sessions_evicted = 0
        self.refusals = 0
        self.peak_rss = 0

    # -- sampling -------------------------------------------------------
    def sample(self, *, force: bool = False) -> int:
        """The (rate-limited) current RSS in bytes."""
        now = self._clock()
        if (
            force
            or self.samples == 0
            or now - self._last_sample >= self.config.sample_interval
        ):
            self._last_rss = self._rss_fn()
            self._last_sample = now
            self.samples += 1
            self.peak_rss = max(self.peak_rss, self._last_rss)
        return self._last_rss

    # -- pressure relief ------------------------------------------------
    def relieve(self) -> int:
        """Evict warm state until the soft-limit overshoot is covered.

        Returns the *estimated* bytes released.  Eviction order is
        deliberate: condemn warm pools first (cheapest to rebuild,
        biggest off-heap footprint per byte of lost warmth), then whole
        LRU sessions, never dropping below ``min_sessions``.  Estimates
        — not a re-sampled RSS — drive the loop, because a Python
        process rarely returns freed pages to the OS immediately; the
        goal is to stop *pinning* memory, which is what lets the next
        allocation reuse it.
        """
        soft = self.config.soft_limit_bytes
        if soft is None:
            return 0
        overshoot = self.sample(force=True) - soft
        if overshoot <= 0:
            return 0
        released = 0
        # Pass 1: warm pools, LRU first.
        for sess in self.engine.sessions:
            if released >= overshoot:
                break
            pool = sess.pool
            if pool is not None and sess.release_pool():
                from ..runtime.cost import DEFAULT_MEMORY_MODEL as mm

                released += int(mm.worker_bytes * pool.num_workers)
                self.pools_released += 1
        # Pass 2: whole sessions, LRU first, keeping min_sessions warm
        # (mutable sessions are never evicted: see Engine._evict).
        while (
            released < overshoot
            and len(self.engine.sessions) > self.config.min_sessions
        ):
            victim = next(
                (s for s in self.engine.sessions if not s.mutable), None
            )
            if victim is None:
                break
            released += victim.estimated_bytes()
            self.sessions_evicted += self.engine.evict_lru(1)
        return released

    # -- admission veto -------------------------------------------------
    def refusal(self) -> Optional[str]:
        """Why admission should be refused right now, or None.

        Wired into :class:`~repro.service.govern.AdmissionController`
        as its ``refusal_hook``; relieves pressure first so a refusal
        means "over the hard limit *even after* shedding warm state".
        """
        hard = self.config.hard_limit_bytes
        if hard is None:
            return None
        rss = self.sample()
        if rss <= hard:
            return None
        self.relieve()
        rss = self.sample(force=True)
        if rss <= hard:
            return None
        self.refusals += 1
        return (
            f"resident memory {rss / 1e6:.0f} MB exceeds the "
            f"{hard / 1e6:.0f} MB hard limit"
        )

    def to_dict(self) -> dict:
        return {
            "rss_bytes": self._last_rss,
            "peak_rss_bytes": self.peak_rss,
            "samples": self.samples,
            "pools_released": self.pools_released,
            "sessions_evicted": self.sessions_evicted,
            "refusals": self.refusals,
            "soft_limit_bytes": self.config.soft_limit_bytes,
            "hard_limit_bytes": self.config.hard_limit_bytes,
        }
