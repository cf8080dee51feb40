"""The sharded serving tier: supervised engine workers behind one front.

``repro serve --workers N`` turns the single-engine turnstile into a
fleet: the front process keeps the whole request pipeline (admission,
cost gate, retry, breakers, journal) and its route step sends each
attempt over a pipe to one of ``N`` forked workers.  A worker is an
:class:`~repro.service.server.EngineHost` — the same local dispatch
the in-process front runs, over its own :class:`~repro.engine.Engine`
(own warm sessions, own pools, its slice of the memory budget), with
its own integrity quarantine and memory governor.  The front sends its
attempt number with every dispatch, so a request's ``times``-gated
fault specs advance when the front retries.

Three cooperating mechanisms, mirroring the task-level supervision the
runtime layer already proved (``runtime/supervisor.py``):

* **Routing** — :func:`routing_fingerprint` hashes the request's graph
  identity (the same key the engine's session-source cache uses) onto
  a :class:`HashRing` of worker slots, so repeat requests for a graph
  land on the worker whose session is already warm.  Hot graphs
  replicate: past :data:`HOT_THRESHOLD` hits a key becomes eligible for
  up to :data:`HOT_REPLICAS` consecutive ring slots, and dispatch
  prefers an idle replica — affinity when it's free, throughput when
  it's not.  *Mutable* graphs (ones that have taken an ``update``) are
  the exception: they route by a seed-less token
  (:func:`mutable_route_token`), never replicate, and pin every later
  request — ``run``, ``update`` or ``analysis`` — to the one worker
  owning the delta state; after that worker dies, the supervisor
  streams the token's committed update history into the respawn ahead
  of the next request, so the rebuilt session converges to the exact
  pre-crash state (updates are idempotent).

* **Supervision** — the pump thread watches every worker: process
  death (SIGKILL, OOM) is caught by ``Process.is_alive``; a wedged
  worker is caught by stale heartbeats (idle) or by an in-flight
  request overrunning its deadline plus :data:`HANG_GRACE` (busy), and
  is SIGKILLed.  Dead workers respawn in place (same ring slot, same
  affinity) with bounded exponential backoff; a worker that exhausts
  ``max_worker_restarts`` is *lost* and its session budget is
  rebalanced onto the survivors
  (:meth:`~repro.engine.Engine.set_max_sessions`).

* **Replay** — every in-flight request a dead worker was carrying is
  re-driven onto a survivor (journaled as ``replayed``); results are
  deterministic, so the replayed response carries the same canonical
  ``labels_crc32`` the original would have.  A request that burns
  :data:`MAX_REPLAYS` — or for which no live worker remains — fails
  typed with :class:`~repro.errors.WorkerLostError` (exit 19), which
  the front's retry layer classifies *transient*: by the time the
  front retries, a respawned worker is usually back.

The tier degrades to the in-process single-engine path when ``N <= 1``,
when ``fork`` is unavailable, or at runtime when the whole fleet is
lost — the front's local engine is the floor, exactly like ``serial``
is the breaker ladder's floor.
"""

from __future__ import annotations

import bisect
import multiprocessing as mp
import os
import signal
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional

from ..errors import PhaseTimeoutError, ServiceOverloadError, WorkerLostError
from ..ioutil import process_rss_bytes
from .journal import RequestJournal

__all__ = [
    "HashRing",
    "routing_fingerprint",
    "mutable_route_token",
    "RemoteRequestError",
    "WorkerSupervisor",
]

#: missed beats before an *idle* worker is declared wedged.
HEARTBEAT_MISSES = 8
#: base respawn backoff, doubled per restart (capped at 2 s).
RESTART_BACKOFF = 0.1
#: grace beyond a request's deadline before its worker is killed.
HANG_GRACE = 2.0
#: replays allowed per request before it fails typed.
MAX_REPLAYS = 2
#: max workers a hot graph may replicate onto.
HOT_REPLICAS = 3
#: hits on one routing key before replication widens.
HOT_THRESHOLD = 4
#: virtual nodes per slot on the hash ring.
VIRTUAL_NODES = 64

#: request keys that define which graph (and thus which warm session)
#: a run request needs — the consistent-hashing routing identity.
_ROUTE_KEYS = ("graph", "scale", "seed", "on_error")

#: the slice of the routing identity that names a *mutable* session.
#: ``seed`` and ``on_error`` are deliberately absent: every request
#: against a mutated graph must land on the one worker holding its
#: delta state, whatever seed or error policy it carries (a worker's
#: engine maps every load of one source to one session).
_MUTABLE_KEYS = ("graph", "scale")


def routing_fingerprint(request: dict) -> int:
    """Stable CRC32 of a request's graph identity.

    Two requests with equal fingerprints hit the same warm
    :class:`~repro.engine.session.GraphSession` when routed to the
    same worker — the affinity the hash ring preserves.
    """
    token = "|".join(repr(request.get(k)) for k in _ROUTE_KEYS)
    return zlib.crc32(token.encode("utf-8")) & 0xFFFFFFFF


def mutable_route_token(request: dict) -> str:
    """The pinning identity of a (potentially) mutable session.

    Once a graph has taken an ``update``, every later request for it —
    update *or* run — must be served by the worker that owns the
    mutated session; this token is the key the supervisor pins by and
    keeps the update history under for post-crash replay.
    """
    return "|".join(repr(request.get(k)) for k in _MUTABLE_KEYS)


class HashRing:
    """Consistent hashing over worker *slots* (indices, not processes).

    Slots are stable across respawns — a worker that dies and comes
    back owns the same arc of the ring, so its replacement re-warms
    exactly the graphs it used to serve.  ``virtual_nodes`` smooths the
    load split across few slots.
    """

    def __init__(
        self, slots: int, *, virtual_nodes: int = VIRTUAL_NODES
    ) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.slots = slots
        points = sorted(
            (
                zlib.crc32(f"slot-{slot}#{v}".encode()) & 0xFFFFFFFF,
                slot,
            )
            for slot in range(slots)
            for v in range(virtual_nodes)
        )
        self._hashes = [h for h, _ in points]
        self._slots = [s for _, s in points]

    def lookup(self, key_hash: int, count: int = 1) -> List[int]:
        """The first ``count`` *distinct* slots clockwise of the key.

        Element 0 is the primary owner; the rest are the replica
        candidates hot keys may spill onto.
        """
        count = min(max(1, count), self.slots)
        start = bisect.bisect_left(self._hashes, key_hash & 0xFFFFFFFF)
        result: List[int] = []
        n = len(self._slots)
        for i in range(n):
            slot = self._slots[(start + i) % n]
            if slot not in result:
                result.append(slot)
                if len(result) == count:
                    break
        return result


class RemoteRequestError(RuntimeError):
    """A worker answered ``ok: false``; carries the typed payload.

    The front re-raises the worker's failure so its retry policy and
    breakers see the same taxonomy they would in-process: the exit
    code is the worker's, and ``transient_hint`` feeds
    :func:`~repro.service.retry.classify_failure` the worker-side
    verdict (the class of the original exception does not survive the
    pipe, its classification does).

    Deliberately *not* a :class:`~repro.errors.ReproError`: its exit
    code is whatever the worker relayed, which would break the
    taxonomy's one-class-one-code contract — and it never crosses the
    CLI boundary, because ``_error_response`` unwraps the original
    class name and code from :attr:`response`.
    """

    def __init__(self, response: dict) -> None:
        self.response = response
        self.exit_code = int(response.get("exit_code", 10))
        self.error_type = response.get("error_type", "Exception")
        self.transient_hint = bool(response.get("transient", False))
        super().__init__(
            f"{self.error_type}: "
            f"{response.get('error', 'worker request failed')}"
        )


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _worker_main(conn, index: int, config) -> None:
    """One engine worker: dispatches in, responses + heartbeats out.

    Runs in a forked child around one
    :class:`~repro.service.server.EngineHost` — the local dispatch the
    in-process front runs too; admission, retry, breakers and the
    journal stay with the front.  The worker keeps its own safety
    code: the memory governor refuses a dispatch over the hard limit
    (answered as a shed) and relieves pressure after each op.
    SIGTERM/SIGINT are ignored — drain is the front's job, coordinated
    over the pipe — and the worker exits when the front says ``stop``
    or the pipe dies.
    """
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from .server import EngineHost, error_response

    send_lock = threading.Lock()

    def send(msg: dict) -> bool:
        try:
            with send_lock:
                conn.send(msg)
            return True
        except (OSError, ValueError):
            return False

    stop_beat = threading.Event()

    def beat() -> None:
        while not stop_beat.wait(config.heartbeat_interval):
            if not send({"kind": "beat", "pid": os.getpid()}):
                return

    host = EngineHost(config)
    counts = {"requests": 0, "completed": 0, "failed": 0}
    threading.Thread(target=beat, daemon=True).start()
    send({"kind": "ready", "pid": os.getpid()})
    try:
        while True:
            if not conn.poll(0.2):
                continue
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # front died; nothing left to serve
            kind = msg.get("kind")
            if kind == "request":
                request = msg["request"]
                counts["requests"] += 1
                try:
                    refused = (
                        host.governor.refusal() if host.governor else None
                    )
                    if refused is not None:
                        raise ServiceOverloadError(
                            f"request refused: {refused}", reason="governor"
                        )
                    response = host.dispatch(
                        request, msg["seq"], msg.get("attempt", 0)
                    )
                    counts["completed"] += 1
                except Exception as exc:
                    counts["failed"] += 1
                    response = error_response(request, exc)
                response["worker"] = index
                if not send(
                    {
                        "kind": "response",
                        "seq": msg["seq"],
                        "response": response,
                    }
                ):
                    break
            elif kind == "replay":
                # Re-drive a mutable session's committed update history
                # into this (freshly respawned) worker before the
                # request queued behind this message runs.  Updates are
                # idempotent, so replay converges to the exact state
                # the dead worker held; responses are not sent — the
                # originals were already answered.
                for req in msg.get("requests", ()):
                    try:
                        host.dispatch(req)
                    except Exception:
                        pass
            elif kind == "stats":
                send(
                    {
                        "kind": "stats",
                        "token": msg.get("token"),
                        "stats": dict(host.stats(), **counts),
                    }
                )
            elif kind == "rebalance":
                try:
                    host.engine.set_max_sessions(int(msg["max_sessions"]))
                except (KeyError, ValueError, TypeError):
                    pass
            elif kind == "stop":
                break
    finally:
        stop_beat.set()
        try:
            host.close()
        except Exception:
            pass
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Front-side bookkeeping
# ---------------------------------------------------------------------------
class _WorkerHandle:
    """Front-side state of one worker slot."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        self.conn = None
        self.send_lock = threading.Lock()
        #: starting -> live -> down (awaiting respawn) -> lost
        self.state = "down"
        self.busy: List[int] = []  # in-flight seqs, dispatch order
        self.last_beat = 0.0
        self.restarts = 0
        self.next_respawn_at = 0.0
        self.dispatched = 0
        self.completed = 0
        self.last_stats: Optional[dict] = None
        self.stats_token = -1
        #: token -> how many committed update-history entries this
        #: incarnation of the worker has seen (replayed or applied
        #: live); reset on respawn.  A length, not a flag, so a worker
        #: that inherits a pinned token mid-stream (lost slot fallback)
        #: only replays the tail it missed.
        self.mutable_applied: Dict[str, int] = {}

    @property
    def routable(self) -> bool:
        return self.state in ("starting", "live")

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def close_conn(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None


class _InFlight:
    """One dispatched request the front is waiting on."""

    def __init__(
        self, seq, request, budget, route_key, backend, attempt
    ) -> None:
        self.seq = seq
        self.request = request
        self.budget = budget
        self.route_key = route_key
        self.backend = backend
        self.event = threading.Event()
        self.response: Optional[dict] = None
        self.error: Optional[BaseException] = None
        self.worker: Optional[int] = None
        self.dispatched_at = 0.0
        self.deadline_at: Optional[float] = None
        self.replays = 0
        #: set when this request must pin to a mutable session's owner.
        self.mutable_token: Optional[str] = None
        #: the front's retry attempt, forwarded to the worker.
        self.attempt = attempt

    def fail(self, exc: BaseException) -> None:
        if not self.event.is_set():
            self.error = exc
            self.event.set()

    def succeed(self, response: dict) -> None:
        if not self.event.is_set():
            self.response = response
            self.event.set()


class WorkerSupervisor:
    """Forks, routes to, watches, respawns and drains the worker fleet.

    Reads its three operator knobs — ``worker_processes``,
    ``heartbeat_interval``, ``max_worker_restarts`` — from the front's
    :class:`~repro.service.server.ServiceConfig`; each worker builds
    its engine host from :meth:`~repro.service.server.ServiceConfig.
    shard`, the budget-divided slice.  ``on_worker_failure(backend,
    worker)`` fires once per in-flight request a dying worker was
    carrying — the front wires it into its
    :class:`~repro.service.retry.BackendBreakers` so worker death
    degrades traffic down the same ladder every other infra failure
    does.
    """

    def __init__(
        self,
        config,
        *,
        journal: Optional[RequestJournal] = None,
        on_worker_failure: Optional[Callable[[str, int], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        from ..engine.pool import fork_available

        if not fork_available():  # pragma: no cover - non-POSIX only
            raise RuntimeError(
                "the sharded serving tier requires the 'fork' "
                "start method"
            )
        if config.worker_processes < 1:
            raise ValueError("worker_processes must be >= 1")
        if config.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if config.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
        self.config = config
        self.num_workers = config.worker_processes
        self.worker_config = config.shard()
        self.journal = journal
        self.on_worker_failure = on_worker_failure
        self._clock = clock
        self._ctx = mp.get_context("fork")
        self.ring = HashRing(self.num_workers)
        self._handles = [_WorkerHandle(i) for i in range(self.num_workers)]
        self._lock = threading.Lock()
        self._inflight: Dict[int, _InFlight] = {}
        self._key_hits: Dict[int, int] = {}
        #: tokens of graphs that have taken at least one update — every
        #: later request for them pins (no replicas) to one worker.
        self._mutable_keys: set = set()
        #: token -> committed update requests in dispatch order; what a
        #: respawned worker replays before serving the token again.
        self._update_history: Dict[str, List[dict]] = {}
        self._pump: Optional[threading.Thread] = None
        self._stop_pump = threading.Event()
        self._stats_token = 0
        self._started = False
        self._draining = False
        # stats
        self.deaths = 0
        self.respawns = 0
        self.replays = 0
        self.hang_kills = 0
        self.lost_workers = 0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "WorkerSupervisor":
        if self._started:
            return self
        self._stop_pump.clear()
        self._draining = False
        for handle in self._handles:
            self._spawn(handle)
        self._pump = threading.Thread(
            target=self._pump_loop, daemon=True, name="worker-pump"
        )
        self._started = True
        self._pump.start()
        return self

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Fork one worker into ``handle``'s slot.

        Called WITHOUT the supervisor lock held (initial start is
        single-threaded; respawns release it first): a fork taken
        while other front threads hold locks hands the child copies
        of held locks, and a child wedged before its first message is
        a silent black hole.  ``state`` flips to routable *last* so a
        concurrent dispatch never sees a half-initialized slot.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, handle.index, self.worker_config),
            daemon=True,
            name=f"repro-serve-worker-{handle.index}",
        )
        proc.start()
        child_conn.close()
        handle.proc = proc
        handle.conn = parent_conn
        handle.last_beat = self._clock()
        handle.mutable_applied = {}  # fresh engine: no delta state
        handle.state = "starting"

    @property
    def available(self) -> bool:
        """True while at least one worker is routable or coming back."""
        return (
            self._started
            and not self._draining
            and any(h.state != "lost" for h in self._handles)
        )

    @property
    def live_workers(self) -> int:
        return sum(1 for h in self._handles if h.routable)

    def begin_drain(self) -> None:
        """Phase 1 of the drain: refuse new dispatches.

        Requests already on a worker (or queued in its pipe) are
        promised service and keep running; :meth:`stop` waits for
        them.
        """
        self._draining = True

    def stop(self, *, drain_timeout: float = 60.0) -> None:
        """Phase 2: drain in-flight work, snapshot stats, stop the fleet.

        In-flight requests get ``drain_timeout`` seconds to finish;
        overrun ones are shed typed (the journal then records them as
        shed, keeping the accepted = completed + shed balance).  Worker
        stats are collected *before* the processes die so the final
        merged report sees the whole fleet.
        """
        if not self._started:
            return
        self.begin_drain()
        deadline = self._clock() + drain_timeout
        while self._clock() < deadline:
            with self._lock:
                if not self._inflight:
                    break
            time.sleep(0.02)
        with self._lock:
            for entry in list(self._inflight.values()):
                entry.fail(
                    ServiceOverloadError(
                        "drain timeout; in-flight request shed",
                        reason="draining",
                    )
                )
        try:
            self.collect_stats(timeout=2.0)
        except Exception:
            pass
        # The pump dies FIRST.  If it outlived the kills below it
        # would read each clean worker exit as a death and respawn a
        # fresh worker nobody will ever stop — a leaked process that,
        # forked while another thread is mid-``subprocess.Popen``,
        # inherits that child's pipe ends and wedges its reader
        # forever (fork ignores CLOEXEC).
        self._stop_pump.set()
        if self._pump is not None:
            self._pump.join(timeout=2.0)
        for handle in self._handles:
            if handle.routable:
                self._send(handle, {"kind": "stop"})
        for handle in self._handles:
            proc = handle.proc
            if proc is not None:
                proc.join(timeout=3.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - stubborn worker
                    proc.kill()
                    proc.join(timeout=1.0)
            handle.close_conn()
            handle.state = "down"
        self._started = False

    # -- request path ---------------------------------------------------
    def execute(
        self,
        request: dict,
        seq: int,
        *,
        budget: Optional[float] = None,
        attempt: int = 0,
    ) -> dict:
        """Dispatch one attempt of a request and block until its
        response (or typed failure).  Safe to call from many front
        threads at once."""
        if not self._started:
            raise WorkerLostError("worker tier is not running")
        if self._draining:
            raise ServiceOverloadError(
                "service draining; request shed before dispatch",
                reason="draining",
            )
        token = mutable_route_token(request)
        is_update = request.get("op") == "update"
        with self._lock:
            if is_update:
                self._mutable_keys.add(token)
            pinned = token in self._mutable_keys
        # A mutated graph's requests route by the seed-less mutable
        # token — one owner, no replicas — so runs and updates alike
        # always see the worker holding the delta state.
        key = (
            zlib.crc32(token.encode("utf-8")) & 0xFFFFFFFF
            if pinned
            else routing_fingerprint(request)
        )
        entry = _InFlight(
            seq, request, budget, key, request.get("backend", "serial"), attempt
        )
        if pinned:
            entry.mutable_token = token
        with self._lock:
            self._key_hits[key] = self._key_hits.get(key, 0) + 1
            self._inflight[seq] = entry
            try:
                self._dispatch_locked(entry)
            except BaseException:
                self._inflight.pop(seq, None)
                raise
        try:
            while not entry.event.wait(0.2):
                if self._pump is None or not self._pump.is_alive():
                    raise WorkerLostError(
                        "worker supervisor pump died"
                    )
        finally:
            with self._lock:
                self._inflight.pop(seq, None)
        if entry.error is not None:
            raise entry.error
        response = dict(entry.response or {})
        response.setdefault("worker", entry.worker)
        response["replays"] = entry.replays
        return response

    def _replicas_for(self, key: int) -> int:
        hits = self._key_hits.get(key, 0)
        return 1 + min(HOT_REPLICAS - 1, hits // HOT_THRESHOLD)

    def _dispatch_locked(
        self, entry: _InFlight, *, replay_reason: Optional[str] = None
    ) -> None:
        """Pick a worker for ``entry`` and send it (lock held)."""
        # mutable sessions never replicate: exactly one worker owns
        # the delta state, hot or not.
        replicas = (
            1
            if entry.mutable_token is not None
            else self._replicas_for(entry.route_key)
        )
        candidates = self.ring.lookup(entry.route_key, replicas)
        routable = [
            self._handles[slot]
            for slot in candidates
            if self._handles[slot].routable
        ]
        if not routable:
            # Affinity lost with the owners; any live worker beats a
            # dropped request (it just pays a cold session load).
            routable = [h for h in self._handles if h.routable]
        if not routable:
            raise WorkerLostError(
                "no live serving worker to dispatch onto"
            )
        # Prefer idle workers in candidate (affinity) order, live
        # before still-starting; fall back to the least-loaded.  A
        # worker that proved it serves beats one that only forked.
        rank = lambda h: 0 if h.state == "live" else 1  # noqa: E731
        idle = sorted(
            (h for h in routable if not h.busy), key=rank
        )
        handle = idle[0] if idle else min(
            routable, key=lambda h: (len(h.busy), rank(h))
        )
        handle.busy.append(entry.seq)
        handle.dispatched += 1
        entry.worker = handle.index
        entry.dispatched_at = self._clock()
        entry.deadline_at = (
            entry.dispatched_at + entry.budget + HANG_GRACE
            if entry.budget is not None
            else None
        )
        token = entry.mutable_token
        if token is not None:
            # This incarnation of the worker may be missing part of the
            # token's committed update history (fresh fork, respawn
            # after a crash, or a lost-slot fallback): queue the unseen
            # tail ahead of the request.  The pipe is FIFO and the
            # worker loop is serial, so replay finishes before the
            # request runs; idempotent updates make re-application
            # convergent.
            history = self._update_history.get(token, [])
            seen = handle.mutable_applied.get(token, 0)
            if seen < len(history) and not self._send(
                handle, {"kind": "replay", "requests": history[seen:]}
            ):
                self._handle_death_locked(handle, "send-failed")
                return
            handle.mutable_applied[token] = len(history)
        if not self._send(
            handle,
            {
                "kind": "request",
                "seq": entry.seq,
                "attempt": entry.attempt,
                "request": entry.request,
            },
        ):
            # the pipe died under us: treat as a worker death, which
            # replays this entry (and its siblings) onto a survivor.
            self._handle_death_locked(handle, "send-failed")
            return
        if (
            token is not None
            and entry.request.get("op") == "update"
            and replay_reason is None
        ):
            # record in dispatch order (= pipe order = worker execution
            # order); re-dispatches of the same entry skip the append,
            # and the serving worker counts the entry as seen (it is
            # about to apply it as the request itself).
            self._update_history.setdefault(token, []).append(
                dict(entry.request)
            )
            handle.mutable_applied[token] = len(
                self._update_history[token]
            )
        if self.journal is not None:
            if replay_reason is not None:
                self.journal.replayed(
                    entry.seq, handle.index, reason=replay_reason
                )
            else:
                self.journal.dispatched(entry.seq, handle.index)

    def _send(self, handle: _WorkerHandle, msg: dict) -> bool:
        if handle.conn is None:
            return False
        try:
            with handle.send_lock:
                handle.conn.send(msg)
            return True
        except (OSError, ValueError):
            return False

    # -- supervision (pump thread) --------------------------------------
    def _pump_loop(self) -> None:
        from multiprocessing.connection import wait as conn_wait

        tick = min(0.1, self.config.heartbeat_interval / 2)
        while not self._stop_pump.is_set():
            with self._lock:
                conns = {
                    h.conn: h
                    for h in self._handles
                    if h.routable and h.conn is not None
                }
            try:
                ready = (
                    conn_wait(list(conns), timeout=tick)
                    if conns
                    else []
                )
            except OSError:
                ready = []
            if not conns:
                time.sleep(tick)
            for conn in ready:
                handle = conns[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    with self._lock:
                        self._handle_death_locked(
                            handle, "pipe-closed"
                        )
                    continue
                self._on_message(handle, msg)
            with self._lock:
                self._check_liveness_locked()
            self._respawn_due()

    def _on_message(self, handle: _WorkerHandle, msg: dict) -> None:
        kind = msg.get("kind")
        with self._lock:
            handle.last_beat = self._clock()
            if handle.state == "starting":
                handle.state = "live"
            if kind == "response":
                seq = msg.get("seq")
                if seq in handle.busy:
                    handle.busy.remove(seq)
                handle.completed += 1
                entry = self._inflight.get(seq)
                if entry is not None and entry.worker == handle.index:
                    entry.succeed(msg.get("response") or {})
            elif kind == "stats":
                handle.last_stats = msg.get("stats")
                token = msg.get("token")
                if isinstance(token, int):
                    handle.stats_token = token
            # "beat"/"ready" carry nothing beyond the timestamp.

    def _check_liveness_locked(self) -> None:
        now = self._clock()
        stale_after = self.config.heartbeat_interval * HEARTBEAT_MISSES
        for handle in self._handles:
            if not handle.routable:
                continue
            proc = handle.proc
            if proc is not None and not proc.is_alive():
                self._handle_death_locked(handle, "worker-died")
                continue
            beat_age = now - handle.last_beat
            overdue = any(
                (e := self._inflight.get(seq)) is not None
                and e.deadline_at is not None
                and now >= e.deadline_at
                for seq in handle.busy
            )
            # A worker that never said "ready" is a wedged fork (a
            # lock inherited mid-acquire, a poisoned allocator): it
            # sends *nothing*, so stale silence condemns it even while
            # it nominally carries replayed requests.
            stuck_starting = (
                handle.state == "starting" and beat_age > stale_after
            )
            if (
                overdue
                or stuck_starting
                or (not handle.busy and beat_age > stale_after)
            ):
                # wedged: busy past deadline+grace, silent since fork,
                # or idle yet silent.
                self.hang_kills += 1
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except (OSError, TypeError):
                    pass
                proc.join(timeout=1.0)
                self._handle_death_locked(handle, "worker-hung")

    def _handle_death_locked(
        self, handle: _WorkerHandle, reason: str
    ) -> None:
        if not handle.routable:
            return
        self.deaths += 1
        handle.state = "down"
        handle.close_conn()
        if handle.proc is not None:
            handle.proc.join(timeout=0.5)
        orphans = list(handle.busy)
        handle.busy.clear()
        if handle.restarts >= self.config.max_worker_restarts:
            handle.state = "lost"
            self.lost_workers += 1
            self._rebalance_locked()
        else:
            backoff = min(2.0, RESTART_BACKOFF * (2 ** handle.restarts))
            handle.next_respawn_at = self._clock() + backoff
        now = self._clock()
        for seq in orphans:
            entry = self._inflight.get(seq)
            if entry is None or entry.event.is_set():
                continue
            if self.on_worker_failure is not None:
                try:
                    self.on_worker_failure(entry.backend, handle.index)
                except Exception:
                    pass
            entry.replays += 1
            self.replays += 1
            if entry.deadline_at is not None and now >= entry.deadline_at:
                entry.fail(
                    PhaseTimeoutError("request", entry.budget or 0.0)
                )
            elif entry.replays > MAX_REPLAYS:
                entry.fail(
                    WorkerLostError(
                        "request exhausted its replay budget",
                        worker=handle.index,
                    )
                )
            else:
                try:
                    self._dispatch_locked(entry, replay_reason=reason)
                except WorkerLostError as exc:
                    entry.fail(exc)

    def _respawn_due(self) -> None:
        """Respawn slots whose backoff has elapsed (pump thread).

        The due-check runs under the lock but the forks themselves do
        not — see :meth:`_spawn` on why forking while holding the
        supervisor lock is a deadlock seed.
        """
        with self._lock:
            now = self._clock()
            due = [
                h
                for h in self._handles
                if h.state == "down"
                and self._started
                and not self._stop_pump.is_set()
                and now >= h.next_respawn_at
            ]
            for handle in due:
                handle.restarts += 1
                self.respawns += 1
        for handle in due:
            if self._stop_pump.is_set():
                break
            self._spawn(handle)

    def _rebalance_locked(self) -> None:
        """Spread a lost slot's session budget over the survivors."""
        survivors = [h for h in self._handles if h.state != "lost"]
        if not survivors:
            return
        total = self.worker_config.max_sessions * self.num_workers
        share = max(1, total // len(survivors))
        for handle in survivors:
            if handle.routable:
                self._send(handle, {"kind": "rebalance", "max_sessions": share})

    # -- introspection --------------------------------------------------
    def collect_stats(self, timeout: float = 2.0) -> None:
        """Ask every live worker for a fresh stats snapshot (cached on
        each handle; merged by :meth:`to_dict`)."""
        with self._lock:
            self._stats_token += 1
            token = self._stats_token
            targets = [h for h in self._handles if h.routable]
            for handle in targets:
                self._send(handle, {"kind": "stats", "token": token})
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if all(
                    h.stats_token >= token or not h.routable
                    for h in targets
                ):
                    return
            time.sleep(0.02)

    def to_dict(self) -> dict:
        with self._lock:
            workers = {}
            now = self._clock()
            for h in self._handles:
                alive = h.proc is not None and h.proc.is_alive()
                workers[str(h.index)] = {
                    "state": h.state,
                    "pid": h.pid,
                    "restarts": h.restarts,
                    "dispatched": h.dispatched,
                    "completed": h.completed,
                    "in_flight": len(h.busy),
                    "beat_age_seconds": (
                        now - h.last_beat if h.routable else None
                    ),
                    "rss_bytes": (
                        process_rss_bytes(h.pid) if alive else None
                    ),
                    "stats": h.last_stats,
                }
            return {
                "num_workers": self.num_workers,
                "live_workers": self.live_workers,
                "draining": self._draining,
                "deaths": self.deaths,
                "respawns": self.respawns,
                "replays": self.replays,
                "hang_kills": self.hang_kills,
                "lost_workers": self.lost_workers,
                "in_flight": len(self._inflight),
                "routed_keys": len(self._key_hits),
                "mutable_keys": len(self._mutable_keys),
                "update_history_entries": sum(
                    len(v) for v in self._update_history.values()
                ),
                "workers": workers,
            }
