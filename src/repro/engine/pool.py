"""Worker-pool lifecycle: the one place fork pools are constructed.

The supervised executor's ephemeral pools and the warm
:class:`~repro.engine.session.GraphSession` pools share this wrapper
around ``multiprocessing.Pool``:

* the worker context is armed by an ``arm`` callback *immediately*
  before every fork (initial spawn and every rebuild), and disarmed
  right after — workers keep their inherited copy, the parent's global
  stays clean;
* liveness inspection (:meth:`dead_workers`) distinguishes worker
  death from task hang after a deadline expires;
* a condemned pool is replaced wholesale by :meth:`rebuild` — a hung
  worker could keep mutating shared memory, so the supervisor never
  reuses a pool it has given up on;
* :meth:`terminate` is idempotent and safe on every exit path.  It
  stops the workers with SIGTERM, so every worker restores the default
  SIGTERM disposition first: a caller that ignores or handles SIGTERM
  (the serve drain that ``repro serve`` and ``repro batch`` install,
  sharded serve workers) would otherwise hand that to its workers, and
  a condemned pool could never be joined.

``spawns`` counts forks over the pool's lifetime; the session layer
uses it to prove warm runs pay no respawn.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
from typing import Callable, Optional

from .shm import disarm_worker_context

__all__ = ["WorkerPool", "fork_available"]


def _default_sigterm() -> None:
    """Pool initializer: SIGTERM kills the worker (see module doc)."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def fork_available() -> bool:
    """True when the 'fork' start method exists (POSIX)."""
    return "fork" in mp.get_all_start_methods()


class WorkerPool:
    """A rebuildable fork pool with context arming and liveness checks."""

    def __init__(
        self,
        num_workers: int,
        *,
        arm: Optional[Callable[[], None]] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not fork_available():  # pragma: no cover - non-POSIX only
            raise RuntimeError(
                "the supervised backend requires the 'fork' start method"
            )
        self.num_workers = num_workers
        self._arm = arm
        self._ctx = mp.get_context("fork")
        self._pool: Optional[mp.pool.Pool] = None
        #: total forks over this pool's lifetime (1 after start()).
        self.spawns = 0

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._pool is not None

    def start(self) -> "WorkerPool":
        """Fork the workers (no-op when already running)."""
        if self._pool is None:
            self._fork()
        return self

    def _fork(self) -> None:
        if self._arm is not None:
            self._arm()
        try:
            self._pool = self._ctx.Pool(
                processes=self.num_workers, initializer=_default_sigterm
            )
            self.spawns += 1
        finally:
            # Workers inherited their copy at fork; the parent-side
            # global must not leak into unrelated code.
            if self._arm is not None:
                disarm_worker_context()

    # ------------------------------------------------------------------
    def apply_async(self, fn, args=()):
        if self._pool is None:
            raise RuntimeError("pool is not running (call start())")
        return self._pool.apply_async(fn, args)

    def dead_workers(self) -> int:
        """Count dead worker processes (0 when the pool is down)."""
        if self._pool is None:
            return 0
        procs = getattr(self._pool, "_pool", None) or []
        return sum(1 for p in procs if not p.is_alive())

    def worker_pids(self) -> tuple:
        """PIDs of the live workers (the governor's RSS accounting)."""
        if self._pool is None:
            return ()
        procs = getattr(self._pool, "_pool", None) or []
        return tuple(p.pid for p in procs if p.is_alive() and p.pid)

    def rss_bytes(self) -> int:
        """Total resident-set bytes of the live workers.

        Memory pinned by a warm pool lives in the *children*, where
        the parent's ``/proc/self/statm`` never sees it; the governor
        adds this to its own RSS so a pool-heavy process still honours
        one budget.  Workers that vanish mid-scan count as 0.
        """
        from ..ioutil import process_rss_bytes

        return sum(
            process_rss_bytes(pid) or 0 for pid in self.worker_pids()
        )

    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Condemn the current workers and fork a fresh set."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._fork()

    def terminate(self) -> None:
        """Tear the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.terminate()
