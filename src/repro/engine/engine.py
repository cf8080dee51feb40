"""The unified execution engine: load once, run many.

:class:`Engine` is the serving front end the ROADMAP's production
north star asks for.  It owns a cache of :class:`~repro.engine.session.
GraphSession` objects keyed by graph fingerprint (and by load source,
so a manifest that names the same graph twice never reloads it),
resolves executors through :mod:`repro.engine.backends`, and
exposes:

* :meth:`Engine.run` — one SCC detection over a warm session,
  returning the library's existing :class:`~repro.core.result.
  SCCResult`; with ``checkpoint_dir`` / ``phase_timeout`` the paper
  pipelines also publish phase-boundary checkpoints and bound every
  phase, and :meth:`Engine.resume` finishes such a run after a crash;
* :meth:`Engine.run_many` — a manifest of jobs served over warm
  sessions as in-process ``run`` requests, with per-job error
  isolation (see :mod:`repro.engine.batch`), the ``repro batch``
  CLI's engine.

Determinism: by default the engine canonicalizes result labels (SCC
ids ordered by first node occurrence).  The SCC *partition* of a graph
is unique, so canonical labels are bit-identical across every backend
and across cold vs. warm sessions — the property the engine parity
gate pins.  Pass ``canonical=False`` to get each algorithm's raw label
order (bit-identical to calling the method functions directly).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.result import RunReport, SCCResult, canonical_labels
from ..errors import PhaseTimeoutError
from ..graph import CSRGraph
from ..ioutil import crc32_chunks
from ..kernels import jit_active
from ..runtime.cost import CostModel, DEFAULT_COST_MODEL
from .backends import get_executor
from .session import DELTA_LOG_ARRAYS, GraphSession, graph_fingerprint

__all__ = ["Engine", "UpdateReport", "check_method_options", "phase_deadline"]

#: methods that accept neither seed nor backend options.
_SEQUENTIAL = ("tarjan", "kosaraju", "gabow")


@contextmanager
def phase_deadline(seconds: Optional[float], phase: str):
    """SIGALRM watchdog bounding one unit of work (same machinery as
    the test suite's deadlock guard); raises
    :class:`~repro.errors.PhaseTimeoutError` labelled ``phase`` on
    expiry.  :meth:`Engine.run` arms it around each pipeline phase for
    the tighter of ``phase_timeout`` and the run deadline left, and
    around the other methods for the deadline.  A budget already spent
    fires at once.  No-op for ``None`` and where unavailable (non-POSIX
    or a non-main thread) — the cooperative ``ctx['deadline']`` bound
    still covers the pipelines' phase-2 executors there."""
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    seconds = max(seconds, 1e-3)

    def _timed_out(signum, frame):
        raise PhaseTimeoutError(phase, seconds)

    old_handler = signal.signal(signal.SIGALRM, _timed_out)
    outer, interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        if outer:
            # an enclosing watchdog kept counting meanwhile: re-arm it
            # with what is left (at once if it expired in here).
            left = outer - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3), interval)


def _phase_factory(method: str):
    """The phase-plan factory of a paper pipeline; None for the rest."""
    from ..core.method1 import method1_phases
    from ..core.method2 import method2_phases

    return {"method1": method1_phases, "method2": method2_phases}.get(method)


def method_options(method: str) -> frozenset:
    """The keywords an outside caller may set for ``method``: its own
    keyword-only parameters, minus the executor keywords
    :meth:`Engine.run` sets from its own parameters.  Raises
    ``ValueError`` for an unknown method."""
    import inspect

    from ..core.api import METHODS

    fn = _phase_factory(method) or METHODS.get(method)
    if fn is None:
        raise ValueError(
            f"unknown method {method!r}; choose from {sorted(METHODS)}"
        )
    return frozenset(
        p.name
        for p in inspect.signature(fn).parameters.values()
        if p.kind is p.KEYWORD_ONLY
    ) - {"backend", "num_threads", "supervisor", "seed", "cost"}


def check_method_options(method: str, options) -> None:
    """Refuse an outside ``options`` dict (a serve request's, a batch
    job's) naming anything but ``method``'s own keywords.

    Such a dict is spread into :meth:`Engine.run`, whose run-level
    parameters (``checkpoint_dir`` writes files, ``phase_timeout`` arms
    SIGALRM, ``deadline``, ...) are the caller's, not a client's.
    Raises ``ValueError`` (a permanent failure).
    """
    if not options:
        return
    if not isinstance(options, dict):
        raise ValueError("options must be a mapping of method keywords")
    known = method_options(method)
    unknown = sorted(set(options) - known)
    if unknown:
        raise ValueError(
            f"option(s) {unknown} are not {method!r} options; "
            f"known: {sorted(known)}"
        )


@dataclass
class UpdateReport:
    """What one :meth:`Engine.update` batch did to a mutable session.

    ``applied`` says the *graph* changed (at least one insert/delete
    was not an idempotent no-op); ``changed`` says the *labels* did.
    ``labels_crc32`` is the CRC of the canonicalized maintained labels
    — directly comparable to the CRC of a from-scratch run's canonical
    labels, which is exactly how the equivalence tests and the service
    certificates use it.
    """

    fingerprint: int
    version: int
    applied: bool
    changed: bool
    compacted: bool
    inserts: int
    deletes: int
    num_components: int
    labels_crc32: int
    stats: dict
    #: delta-log size relative to the base edge count *after* this
    #: batch — the compaction-debt signal streaming consumers watch to
    #: decide when to degrade to a snapshot recompute.
    log_ratio: float = 0.0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class Engine:
    """Warm-session executor for every SCC method in the library.

    Parameters
    ----------
    backend:
        Default phase-2 executor name (``"serial"`` or
        ``"supervised"``; :data:`repro.engine.backends.BACKEND_NAMES`).
    num_workers:
        Default worker count for the supervised executor.
    cost:
        Cost model attached to new sessions (overridable per run).
    canonical:
        Canonicalize result labels (default True; see module docstring).
    max_sessions:
        Session-cache capacity; least-recently-used sessions beyond it
        are closed and evicted — except mutable ones, whose committed
        edits no source can rebuild.
    integrity:
        Seal session arrays into block-CRC sidecars
        (:mod:`repro.integrity.checksums`) and verify them at session
        borrow, before a result is returned (``run:final``), and
        whenever an exception escapes a pipeline phase — rot that
        crashes a kernel then raises
        :class:`~repro.errors.IntegrityError` caused by the kernel's
        error.  While the unchecked compiled loops run
        (:func:`~repro.kernels.jit_active`) they are also verified at
        every phase entry.  The run state the phases write (labels,
        colours) is sealed after and verified before every phase.  A
        mismatch raises :class:`~repro.errors.IntegrityError` (exit
        20); the serving layer answers it with :meth:`quarantine`.
    compact_ratio:
        Delta-log size, as a fraction of the base edge count, past
        which a mutable session's overlay folds into a fresh base CSR
        (None = :data:`repro.graph.delta.DEFAULT_COMPACT_RATIO`).  Fixed
        when :meth:`update` promotes a session.
    """

    def __init__(
        self,
        *,
        backend: str = "serial",
        num_workers: int = 2,
        cost: CostModel = DEFAULT_COST_MODEL,
        canonical: bool = True,
        max_sessions: int = 8,
        integrity: bool = False,
        compact_ratio: float | None = None,
    ) -> None:
        get_executor(backend)  # validate eagerly
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if compact_ratio is not None and not compact_ratio > 0:
            raise ValueError("compact_ratio must be positive")
        self.backend = backend
        self.num_workers = num_workers
        self.cost = cost
        self.canonical = canonical
        self.max_sessions = max_sessions
        self.integrity = integrity
        self.compact_ratio = compact_ratio
        self.quarantines = 0
        self._sessions: "OrderedDict[int, GraphSession]" = OrderedDict()
        self._by_source: Dict[tuple, int] = {}
        self._closed = False

    # -- session management ---------------------------------------------
    def session(
        self, graph: Union[CSRGraph, GraphSession], *, name: str | None = None
    ) -> GraphSession:
        """The (cached) session for ``graph``, keyed by fingerprint."""
        self._check_open()
        if isinstance(graph, GraphSession):
            return graph
        key = graph_fingerprint(graph)
        sess = self._sessions.get(key)
        if sess is None or sess.closed:
            sess = GraphSession(
                graph, name=name, cost=self.cost, integrity=self.integrity
            )
            self._admit(key, sess)
        else:
            self._sessions.move_to_end(key)
        return sess

    def load(
        self,
        source: str,
        *,
        scale: float | None = None,
        seed: int | None = None,
        on_error: str = "strict",
        name: str | None = None,
    ) -> GraphSession:
        """Load a graph source into a session (cached by source).

        ``source`` is a surrogate dataset name (see ``repro datasets``)
        or an edge-list path.  Loading the same source again returns
        the existing warm session — *after* checking the file has not
        changed on disk (mtime + size): a rewritten edge list drops
        the stale mapping and reloads instead of silently serving the
        bytes it used to contain.  Generated datasets are immutable by
        construction and skip the check.
        """
        self._check_open()
        from ..generators import DATASETS, generate

        is_dataset = source in DATASETS
        skey = (source, scale, seed, on_error)
        entry = self._by_source.get(skey)
        if entry is not None:
            fp, token = entry
            sess = self._sessions.get(fp)
            if sess is not None and not sess.closed:
                fresh = None if is_dataset else self._source_token(source)
                # an unstat-able source (deleted, permissions) is
                # treated as unchanged: keep serving the warm session.
                if token is None or fresh is None or fresh == token:
                    self._sessions.move_to_end(fp)
                    return sess
                del self._by_source[skey]

        t0 = time.perf_counter()
        if is_dataset:
            token = None
            g = generate(source, scale=scale, seed=seed).graph
        else:
            from ..graph import read_edge_list

            # stat *before* reading: if the file changes mid-read, the
            # stored token is already stale and the next load reloads.
            token = self._source_token(source)
            g = read_edge_list(source, on_error=on_error)
        load_seconds = time.perf_counter() - t0
        key = graph_fingerprint(g)
        sess = self._sessions.get(key)
        if sess is None or sess.closed:
            sess = GraphSession(
                g,
                name=name or source,
                cost=self.cost,
                load_seconds=load_seconds,
                integrity=self.integrity,
            )
            self._admit(key, sess)
        else:
            self._sessions.move_to_end(key)
        self._by_source[skey] = (key, token)
        return sess

    @staticmethod
    def _source_token(source: str) -> Optional[Tuple[int, int]]:
        """Freshness token ``(st_mtime_ns, st_size)`` for a file path,
        or ``None`` when it cannot be stat'ed."""
        try:
            st = os.stat(source)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def _admit(self, key: int, sess: GraphSession) -> None:
        # make room first, so the new session is never its own victim.
        self._sessions.pop(key, None)
        self._evict(self.max_sessions - 1)
        self._sessions[key] = sess

    def _evict(self, keep: int, count: Optional[int] = None) -> int:
        """Close least-recently-used sessions while more than ``keep``
        are cached, at most ``count`` of them; returns how many went.

        Mutable sessions are never evicted: their committed edits live
        nowhere else, and a reload from source would silently answer
        from the pre-update graph.  They may push the cache past
        ``max_sessions``; the memory governor's hard-limit refusal
        still bounds what they pin.
        """
        evicted = 0
        for key, sess in list(self._sessions.items()):
            if len(self._sessions) <= keep or evicted == count:
                break
            if sess.mutable:
                continue
            del self._sessions[key]
            sess.close()
            evicted += 1
        return evicted

    def set_max_sessions(self, max_sessions: int) -> int:
        """Rebalance the session-cache capacity at runtime.

        The sharded serving tier calls this when a worker slot is lost
        for good and the survivors inherit its share of the global
        session budget (and, symmetrically, could shrink it back).
        Shrinking evicts LRU sessions down to the new capacity;
        returns how many were evicted.
        """
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        return self._evict(max_sessions)

    def evict_lru(self, count: int = 1) -> int:
        """Close and drop up to ``count`` least-recently-used sessions.

        The memory governor's pressure-relief hook; returns how many
        sessions were actually evicted.  The fingerprint and source
        caches self-heal: a later request for an evicted graph loads a
        fresh session.
        """
        return self._evict(0, count)

    def quarantine(self, fingerprint: int) -> bool:
        """Evict one session *because its bytes can no longer be
        trusted* (checksum mismatch, audit disagreement).

        Unlike LRU eviction this also purges every source-cache entry
        pointing at the fingerprint, so the next request for the same
        input rebuilds the session from the original source instead of
        resurrecting the rotten arrays.  Returns True when a session
        was actually quarantined; counted in :attr:`quarantines`.
        """
        sess = self._sessions.pop(fingerprint, None)
        if sess is None:
            return False
        sess.close()
        for skey in [
            k
            for k, v in self._by_source.items()
            if v[0] == fingerprint
        ]:
            del self._by_source[skey]
        self.quarantines += 1
        return True

    def estimated_bytes(self) -> int:
        """Approximate bytes pinned by every live session."""
        return sum(s.estimated_bytes() for s in self._sessions.values())

    @property
    def sessions(self) -> tuple:
        """Live sessions, least- to most-recently used."""
        return tuple(self._sessions.values())

    # -- execution ------------------------------------------------------
    def run(
        self,
        target: Union[CSRGraph, GraphSession],
        *,
        method: str = "method2",
        backend: str | None = None,
        num_workers: int | None = None,
        seed: int | None = 0,
        cost: CostModel | None = None,
        supervisor=None,
        canonical: bool | None = None,
        deadline: float | None = None,
        fault_plan=None,
        checkpoint_dir: str | os.PathLike | None = None,
        phase_timeout: float | None = None,
        **method_kwargs,
    ) -> SCCResult:
        """One SCC detection over a (warm) session.

        ``target`` is a graph or an existing session.  ``method`` may
        be any registered algorithm; the paper pipelines ``method1``/
        ``method2`` get the full warm-session treatment (cached
        transpose, shared mirror, persistent worker pool), everything
        else reuses the cached graph.  ``deadline`` bounds the run in
        wall-clock seconds.  On the main thread a SIGALRM watchdog
        (:func:`phase_deadline`) enforces it for every method: around
        each pipeline phase, armed for the tighter of ``phase_timeout``
        and the deadline left, and around the whole run of any other
        method.  The pipelines also check it at every phase boundary
        and thread it into the phase-2 executors (cooperative, so it
        holds on any thread; off the main thread the other methods run
        unbounded).  Expiry raises
        :class:`~repro.errors.PhaseTimeoutError`.  ``fault_plan`` arms
        faults at the ``"phase"`` site for the pipelines: ``corrupt``
        specs drive seeded bit flips into warm arrays at exact phase
        boundaries (the silent-data-corruption drill the integrity
        sidecars must catch), crash/hang/raise specs fire at phase
        entry (``pre``), completion (``mid``) or after the checkpoint
        (``post``).  Remaining keywords flow to the method
        (``queue_k``, ``pivot_strategy``, ...).

        The run lifecycle (pipelines only):

        * ``checkpoint_dir`` — persist the input graph once and an
          atomic, CRC-checked checkpoint after every phase (format:
          :mod:`repro.runtime.lifecycle`); :meth:`resume` finishes an
          interrupted run bit-identically;
        * ``phase_timeout`` — bound every phase by the same watchdog
          plus the cooperative phase-2 deadline; a wedged phase raises
          :class:`~repro.errors.PhaseTimeoutError`.

        Such a run — and one armed with phase-site control faults —
        ends with the full invariant gate
        (:meth:`~repro.core.state.SCCState.check_invariants`),
        cross-checked against Tarjan when faults were armed, and
        reports on ``result.lifecycle``.  :meth:`_run_plan` lists the
        order of these duties at a phase boundary.
        """
        return self._execute(
            self.session(target),
            None,
            method=method,
            backend=backend,
            num_workers=num_workers,
            seed=seed,
            cost=cost,
            supervisor=supervisor,
            canonical=canonical,
            deadline=deadline,
            fault_plan=fault_plan,
            checkpoint_dir=checkpoint_dir,
            phase_timeout=phase_timeout,
            **method_kwargs,
        )

    def resume(
        self,
        checkpoint: str | os.PathLike,
        target: Union[CSRGraph, GraphSession, None] = None,
        *,
        backend: str | None = None,
        num_workers: int | None = None,
        phase_timeout: float | None = None,
    ) -> SCCResult:
        """Finish a checkpointed pipeline run at its first incomplete
        phase.

        ``checkpoint`` is a checkpoint file or directory; the newest
        checkpoint that verifies is used (a torn or bit-rotted one is
        skipped).  With ``target=None`` the input graph is reloaded
        from the ``graph.npz`` persisted beside it; a given graph or
        session must match the checkpoint's CRC fingerprint (and, for
        a mutable session, its graph version) — resuming against
        different data is refused, not silently wrong.  State, queue
        and pivot RNG are restored, so the labels are bit-identical to
        an uninterrupted run on the serial driver.  The recorded
        configuration (method, seed, executor, budgets, method
        options) is reused; ``backend``, ``num_workers`` and
        ``phase_timeout`` override it.  Later checkpoints land in the
        same directory, and the final gate always cross-checks the
        labels against Tarjan.
        """
        from ..errors import CheckpointError
        from ..graph import load_npz
        from ..runtime.lifecycle import (
            GRAPH_FILENAME,
            latest_checkpoint,
            run_config,
        )

        self._check_open()
        path, arrays, meta = latest_checkpoint(checkpoint)
        directory = os.path.dirname(path)
        if target is None:
            gpath = os.path.join(directory, GRAPH_FILENAME)
            if not os.path.exists(gpath):
                raise CheckpointError(
                    f"no {GRAPH_FILENAME} beside the checkpoint; pass "
                    "the input graph explicitly",
                    path=path,
                )
            target = load_npz(gpath)
        session = self.session(target)
        # Compare the arrays actually resumed against, not the session's
        # base fingerprint: a mutable session serves a merged snapshot
        # whose CRC diverges from the frozen base once an update lands.
        if graph_fingerprint(session.graph) != meta["graph_crc"]:
            raise CheckpointError(
                "input graph does not match the checkpointed run "
                "(CRC fingerprint mismatch)",
                path=path,
            )
        if session.mutable and session.version != meta.get(
            "graph_version", 0
        ):
            raise CheckpointError(
                f"checkpoint was taken at graph version "
                f"{meta.get('graph_version', 0)} but the session has "
                f"advanced to version {session.version}; a stale "
                "checkpoint cannot be resumed against mutated state",
                path=path,
            )
        config = run_config(meta)
        overrides = dict(
            backend=backend, num_workers=num_workers, phase_timeout=phase_timeout
        )
        config.update((k, v) for k, v in overrides.items() if v is not None)
        return self._execute(
            session, (path, arrays, meta), checkpoint_dir=directory, **config
        )

    def _execute(
        self,
        session: GraphSession,
        resume,
        /,
        *,
        method: str = "method2",
        backend: str | None = None,
        num_workers: int | None = None,
        seed: int | None = 0,
        cost: CostModel | None = None,
        supervisor=None,
        canonical: bool | None = None,
        deadline: float | None = None,
        fault_plan=None,
        checkpoint_dir=None,
        phase_timeout: float | None = None,
        **method_kwargs,
    ) -> SCCResult:
        """The body shared by :meth:`run` and :meth:`resume`.

        ``resume`` (a loaded checkpoint, or None) is positional-only so
        no keyword reaching :meth:`run` can set it.
        """
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive")
        if phase_timeout is not None and phase_timeout <= 0:
            raise ValueError("phase_timeout must be positive")
        pipeline = method in ("method1", "method2")
        if not pipeline and (
            checkpoint_dir is not None or phase_timeout is not None
        ):
            raise ValueError(
                "checkpoint_dir and phase_timeout cover the paper "
                f"pipelines 'method1' and 'method2', not {method!r}"
            )
        session.verify_integrity(context="session:borrow")
        backend = backend if backend is not None else self.backend
        num_workers = (
            num_workers if num_workers is not None else self.num_workers
        )
        canonical = canonical if canonical is not None else self.canonical
        cost = cost if cost is not None else session.cost
        get_executor(backend)  # fail fast on typos, one resolution path

        setup_before = session.stats.setup_seconds()
        was_run = session.stats.runs > 0
        if pipeline:
            result = self._run_plan(
                session,
                method,
                resume,
                backend=backend,
                num_workers=num_workers,
                seed=seed,
                cost=cost,
                supervisor=supervisor,
                deadline=deadline,
                fault_plan=fault_plan,
                checkpoint_dir=checkpoint_dir,
                phase_timeout=phase_timeout,
                **method_kwargs,
            )
        else:
            with phase_deadline(deadline, method):
                result = self._run_other(
                    session,
                    method,
                    backend=backend,
                    num_workers=num_workers,
                    seed=seed,
                    cost=cost,
                    **method_kwargs,
                )
            session.verify_integrity(context="session:return")
        warm = was_run and (
            session.stats.setup_seconds() == setup_before
        )
        session.note_run(warm=warm)
        if canonical:
            result.labels = canonical_labels(result.labels)
        return result

    def _run_plan(
        self,
        session: GraphSession,
        method: str,
        resume,
        /,
        *,
        backend: str,
        num_workers: int,
        seed: int | None,
        cost: CostModel,
        supervisor,
        deadline: float | None = None,
        fault_plan=None,
        checkpoint_dir=None,
        phase_timeout: float | None = None,
        **method_kwargs,
    ) -> SCCResult:
        """Drive a paper pipeline's phase plan with every run-level
        duty, at one place per phase boundary.

        Per phase ``i`` (integrity context ``phase[i]:name``), inside
        the phase's wall timer, in this order:

        1. ``pre``-stage ``corrupt`` faults of ``fault_plan`` flip
           their seeded bits;
        2. while the unchecked compiled loops run
           (:func:`~repro.kernels.jit_active`), the session arrays are
           verified;
        3. the run-state seal (``labels``, ``color``) is verified;
        4. the run ``deadline`` is checked (past it:
           :class:`~repro.errors.PhaseTimeoutError`);
        5. ``pre`` control faults (crash/hang/raise) fire;
        6. the phase runs under the SIGALRM watchdog
           (:func:`phase_deadline`, main thread only) armed for the
           tighter of ``phase_timeout`` and the run deadline left, with
           ``ctx["deadline"]`` set to the same bound so the phase-2
           executors stop cooperatively on any thread;
        7. the phase is recorded in the lifecycle report;
        8. ``mid`` control faults fire;
        9. a CRC-sealed checkpoint is published into
           ``checkpoint_dir``;
        10. ``post`` control faults fire;
        11. the run state is resealed;
        12. ``mid``/``post`` ``corrupt`` faults flip their bits — where
            real rot lands, between the moments anything looks.

        A non-integrity exception from steps 4-10 first verifies the
        session arrays: if they rotted it re-raises as
        :class:`~repro.errors.IntegrityError` caused by the original
        exception (rot that crashes a kernel answers exit 20), else
        unchanged.  After the last phase the session arrays and the
        run state are verified (``run:final``), and a run with a
        lifecycle report — checkpointed, phase-bounded, resumed or
        armed with phase-site control faults — passes the invariant
        gate, cross-checked against Tarjan when it resumed or ran
        under faults.  Steps 2, 3, 11 and the final check run only
        when the session carries checksum sidecars; DESIGN.md §14 says
        why the checks sit where they do.
        """
        from ..core.state import SCCState
        from ..errors import IntegrityError
        from ..runtime.faults import (
            CONTROL_KINDS,
            apply_corruption,
            corruption_target,
        )
        from ..runtime.lifecycle import write_checkpoint

        session.ensure_transpose()
        plan = _phase_factory(method)(
            backend=backend,
            num_threads=num_workers,
            supervisor=supervisor,
            **method_kwargs,
        )
        expiry = None if deadline is None else time.monotonic() + deadline
        ctx: dict = {"session": session}
        state = SCCState(session.graph, seed=seed, cost=cost)
        start, report, meta = 0, None, None
        controls = fault_plan is not None and any(
            s.site == "phase" and s.kind in CONTROL_KINDS
            for s in fault_plan.specs
        )
        if (
            checkpoint_dir is not None
            or phase_timeout is not None
            or resume is not None
            or controls
        ):
            report = RunReport()
            if resume is not None:
                start = self._restore(state, ctx, plan, report, resume)
            if checkpoint_dir is not None:
                meta = self._checkpoint_meta(
                    session,
                    plan,
                    checkpoint_dir,
                    fresh=resume is None,
                    method=method,
                    seed=seed,
                    backend=backend,
                    num_workers=num_workers,
                    phase_timeout=phase_timeout,
                    supervisor=supervisor,
                    method_kwargs=method_kwargs,
                )
        seals = None
        if session.checksums is not None:
            from ..integrity import ChecksummedArrays

            seals = ChecksummedArrays()

        def reseal() -> None:
            if seals is not None:
                seals.seal("labels", state.labels)
                seals.seal("color", state.color)

        def verify_state(context: str) -> None:
            if seals is None:
                return
            try:
                seals.verify("labels", state.labels, context=context)
                seals.verify("color", state.color, context=context)
            except IntegrityError:
                session.stats.integrity_failures += 1
                raise
            session.stats.integrity_verifications += 2

        def flip(index: int, stages) -> None:
            if fault_plan is not None:
                for spec in fault_plan.corruptions("phase", index):
                    if spec.stage in stages:
                        target = corruption_target(session, spec.array, state)
                        apply_corruption(target, spec)

        def fire(index: int, stage: str) -> None:
            if fault_plan is not None:
                fault_plan.fire("phase", index, stage=stage)

        # seal the fresh (or restored) state at once: a flip landing
        # before the first phase must not be absorbed into the baseline.
        reseal()
        # rot must not reach loops that index unchecked
        verify_each_phase = jit_active()
        for i in range(start, len(plan)):
            ph = plan[i]
            context = f"phase[{i}]:{ph.name}"
            with state.profile.wall_timer(ph.timer):
                flip(i, ("pre",))
                if verify_each_phase:
                    session.verify_integrity(context=context)
                verify_state(context)
                try:
                    if expiry is not None and time.monotonic() >= expiry:
                        raise PhaseTimeoutError(ph.name, deadline)
                    fire(i, "pre")
                    limit = phase_timeout
                    if expiry is not None:
                        left = expiry - time.monotonic()
                        limit = left if limit is None else min(limit, left)
                    if limit is not None:
                        ctx["deadline"] = time.monotonic() + limit
                    with phase_deadline(limit, ph.name):
                        ph.fn(state, ctx)
                    if report is not None:
                        report.phases_run.append(ph.name)
                    fire(i, "mid")
                    if checkpoint_dir is not None:
                        with state.profile.wall_timer("checkpoint"):
                            path = write_checkpoint(
                                checkpoint_dir, i, state, ctx.get("queue"),
                                meta,
                            )
                        report.checkpoints.append(path)
                        state.profile.bump("lifecycle_checkpoints")
                    fire(i, "post")
                except IntegrityError:
                    raise
                except Exception as error:
                    try:
                        session.verify_integrity(context=context)
                    except IntegrityError as rot:
                        raise rot from error
                    raise
                reseal()
                flip(i, ("mid", "post"))
        session.verify_integrity(context="run:final")
        verify_state("run:final")
        state.check_done()
        if report is not None:
            # The lifecycle gate: full invariants, plus a Tarjan
            # cross-check for runs that resumed or ran under faults.
            report.cross_checked = (
                resume is not None or fault_plan is not None
            )
            state.check_invariants(
                require_complete=True, cross_check=report.cross_checked
            )
        return SCCResult(
            labels=state.labels,
            method=method,
            profile=state.profile,
            phase_of=state.phase_of,
            lifecycle=report,
        )

    @staticmethod
    def _restore(state, ctx, plan, report, resume) -> int:
        """Load a checkpoint into ``state``/``ctx``; returns the index
        of the first phase still to run."""
        from ..errors import CheckpointError
        from ..runtime.lifecycle import restore_state

        path, arrays, meta = resume
        names = [ph.name for ph in plan]
        if names != list(meta["plan"]):
            raise CheckpointError(
                f"phase plan mismatch: checkpoint has {meta['plan']}, "
                f"its configuration now builds {names}",
                path=path,
            )
        queue = restore_state(state, arrays, meta)
        if queue is not None:
            ctx["queue"] = queue
        start = int(meta["phase_index"]) + 1
        report.resumed_from = path
        report.resumed_phase = names[start] if start < len(names) else None
        return start

    @staticmethod
    def _checkpoint_meta(
        session, plan, checkpoint_dir, *, fresh, **config
    ) -> dict:
        """The run-level checkpoint fields; a fresh run also persists
        the input graph beside its checkpoints."""
        from ..graph import save_npz
        from ..runtime.lifecycle import GRAPH_FILENAME, run_meta

        meta = run_meta(  # validates the kwargs before any write
            plan=[ph.name for ph in plan],
            graph_crc=graph_fingerprint(session.graph),
            graph_version=session.version,
            **config,
        )
        os.makedirs(checkpoint_dir, exist_ok=True)
        if fresh:
            save_npz(
                session.graph, os.path.join(checkpoint_dir, GRAPH_FILENAME)
            )
        return meta

    def _run_other(
        self,
        session: GraphSession,
        method: str,
        *,
        backend: str,
        num_workers: int,
        seed: int | None,
        cost: CostModel,
        **method_kwargs,
    ) -> SCCResult:
        import inspect

        from ..core.api import METHODS, strongly_connected_components

        kwargs = dict(method_kwargs)
        kwargs["cost"] = cost
        if method not in _SEQUENTIAL:
            kwargs["seed"] = seed
            runner = METHODS.get(method)
            accepts = (
                set(inspect.signature(runner).parameters)
                if runner is not None
                else set()
            )
            # comparators like "coloring" have no executor knob at all;
            # only forward the backend options where they exist.
            if backend != "serial" and "backend" in accepts:
                kwargs["backend"] = backend
                kwargs["num_threads"] = num_workers
        return strongly_connected_components(
            session.graph, method, **kwargs
        )

    def update(
        self,
        target: Union[str, CSRGraph, GraphSession],
        inserts: Sequence[Tuple[int, int]] = (),
        deletes: Sequence[Tuple[int, int]] = (),
    ) -> UpdateReport:
        """Apply a batch of edge updates to a (mutable) session.

        ``target`` is a graph, a session, or a loadable source name
        (resolved through :meth:`load`).  The first update against a
        session *promotes* it: one full detection seeds the labels,
        the graph gains a :class:`~repro.graph.delta.DeltaCSR` overlay
        (compacting at the engine's ``compact_ratio``), and a
        :class:`~repro.engine.dynamic.DynamicSCC` maintainer
        takes over — subsequent batches touch only the affected
        region.  Inserts apply before deletes; both are idempotent
        (inserting a present edge / deleting an absent one is a no-op),
        which is what makes journal replay after a crash convergent.

        After an applied batch the session's version advances and the
        integrity sidecars (when armed) re-seal only what the batch
        wrote — the tombstone masks and flattened add-logs — then
        verify everything, so rot that reached the base CSR during
        ``apply`` raises :class:`~repro.errors.IntegrityError` instead
        of being sealed in.  A delta log past its compact ratio then
        folds into a fresh base, which is re-sealed whole.
        """
        self._check_open()
        if isinstance(target, str):
            session = self.load(target)
        else:
            session = self.session(target)
        session.verify_integrity(context="update:borrow")
        if session.dynamic is None:
            from .dynamic import DynamicSCC

            base = self.run(session, canonical=False)
            delta = session.make_mutable(compact_ratio=self.compact_ratio)
            session.dynamic = DynamicSCC(delta, base.labels)
            # the sidecars sealed the frozen base; switch them to the
            # delta state the mutable session now exposes.
            session.reseal_integrity()
        dyn = session.dynamic
        before = session.delta.mutations
        i0, d0 = dyn.stats.inserts, dyn.stats.deletes
        changed = dyn.apply(inserts, deletes)
        applied = session.delta.mutations != before
        if applied:
            session.mark_mutated()
            # the batch wrote only the log: the base keeps its seals,
            # so rot that reached it during apply fails the check below
            # instead of being sealed in (or folded in by compaction).
            session.reseal_integrity(DELTA_LOG_ARRAYS)
        session.verify_integrity(context="update:return")
        compacted = session.delta.maybe_compact()
        if compacted:
            session.reseal_integrity()
        labels = canonical_labels(
            np.ascontiguousarray(dyn.labels, dtype=np.int64)
        )
        return UpdateReport(
            fingerprint=session.fingerprint,
            version=session.version,
            applied=applied,
            changed=changed,
            compacted=compacted,
            inserts=dyn.stats.inserts - i0,
            deletes=dyn.stats.deletes - d0,
            num_components=dyn.num_components,
            labels_crc32=crc32_chunks(labels.tobytes()),
            stats=dyn.stats.to_dict(),
            log_ratio=session.delta.log_ratio,
        )

    def compact(
        self, target: Union[str, CSRGraph, GraphSession]
    ) -> UpdateReport:
        """Fold a mutable session's delta log into a fresh base now.

        The *degrade to snapshot-recompute* escape hatch for sustained
        update streams: when a consumer sees compaction debt
        (:attr:`UpdateReport.log_ratio`) exceed its budget — e.g. a
        compact ratio tuned high for batch work starving a live feed —
        it pays one synchronous snapshot fold here and resumes
        incremental maintenance against a clean base.  Labels are
        unchanged (compaction preserves the graph), so the session
        version does not advance; the integrity sidecars are re-sealed
        over the folded arrays.  A no-op on sessions that are not yet
        mutable or have an empty log.
        """
        self._check_open()
        if isinstance(target, str):
            session = self.load(target)
        else:
            session = self.session(target)
        session.verify_integrity(context="compact:borrow")
        if session.dynamic is None:
            # not yet promoted: an empty update promotes and reports.
            return self.update(session)
        dyn = session.dynamic
        compacted = session.delta.log_size > 0
        if compacted:
            session.delta.compact()
            session.reseal_integrity()
        session.verify_integrity(context="compact:return")
        labels = canonical_labels(
            np.ascontiguousarray(dyn.labels, dtype=np.int64)
        )
        return UpdateReport(
            fingerprint=session.fingerprint,
            version=session.version,
            applied=False,
            changed=False,
            compacted=compacted,
            inserts=0,
            deletes=0,
            num_components=dyn.num_components,
            labels_crc32=crc32_chunks(labels.tobytes()),
            stats=dyn.stats.to_dict(),
            log_ratio=session.delta.log_ratio,
        )

    def run_many(self, jobs, **kwargs):
        """Execute a batch of jobs over warm sessions; see
        :func:`repro.engine.batch.run_batch` for jobs, isolation and
        report semantics."""
        from .batch import run_batch

        return run_batch(self, jobs, **kwargs)

    # -- lifecycle ------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")

    def close(self) -> None:
        """Close every session (pools, shared memory); idempotent."""
        if self._closed:
            return
        self._closed = True
        for sess in self._sessions.values():
            sess.close()
        self._sessions.clear()
        self._by_source.clear()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
