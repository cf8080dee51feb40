"""The stream consumer: edge feed in, maintained SCC labels out.

:class:`StreamConsumer` is the loop that ties the tier together.  It
pulls byte chunks from a :class:`~repro.ingest.sources.StreamSource`,
parses them through a :class:`~repro.ingest.parser.RecordParser`,
batches the resulting edits by **count and age**, and hands each batch
to an *applier* — in-process :class:`EngineApplier` driving
:meth:`repro.engine.Engine.update`, or :class:`RequestApplier` posting
``update`` requests at a serve daemon.  After every applied batch it
commits a CRC-guarded :class:`~repro.ingest.checkpoint.Watermark`, so
a SIGKILL'd consumer resumes without re-applying committed edits.

Failure behaviours, in one place:

* **Resume** — on start the committed watermark (if any) seeks a
  seekable source past the applied prefix; replaying sources restart
  from zero and every record at or below the watermark is skipped and
  counted (``records_skipped_committed``).  Combined with idempotent
  edge edits, delivery is at-least-once with exactly-once effect.
* **Backpressure** — the consumer is synchronous by design: while a
  batch is being applied (or retried) it does not read the source, so
  a shedding admission controller or a refusing RSS governor
  translates directly into the feed being paused (TCP windows fill,
  file tails wait).  Shed responses are retried under the same
  deterministic backoff the serving tier uses, up to a bounded
  budget.
* **Degradation** — when the applier reports compaction debt
  (``log_ratio``) above ``degrade_log_ratio``, the consumer pays one
  synchronous snapshot fold (:meth:`Engine.compact`) and resumes
  incremental maintenance against a clean base.
* **Batch splitting** — :meth:`Engine.update` applies inserts before
  deletes within one call, so a batch may hold at most one pending op
  per edge; a record that contradicts a pending op flushes the batch
  early (``conflict_flushes``), preserving stream order per edge.

Freshness is tracked per batch: the lag from a batch's first record
arriving to its apply completing, reported as mean/p95/max — the
end-to-end staleness bound a dashboard reading live SCC analytics
actually cares about.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError, ServiceOverloadError
from ..service.retry import RetryPolicy
from .checkpoint import StreamCheckpoint, Watermark
from .parser import EdgeRecord, RecordParser
from .sources import StreamSource

__all__ = ["StreamConsumer", "EngineApplier", "RequestApplier"]

#: response error types the consumer treats as *pause and retry*
#: rather than fatal: the service is alive but shedding load.
_BACKPRESSURE_ERRORS = ("ServiceOverloadError", "MemoryBudgetError")


class EngineApplier:
    """In-process applier: batches land directly on an
    :class:`~repro.engine.Engine` mutable session.

    Returns the same response-dict shape the serve daemon's ``update``
    op produces, so :class:`StreamConsumer` cannot tell local from
    remote — including turning overload/memory refusals into
    ``ok=False`` shed responses instead of exceptions.
    """

    def __init__(self, engine, target) -> None:
        self.engine = engine
        self.target = target

    def _response(self, report) -> dict:
        return {
            "ok": True,
            "applied": report.applied,
            "changed": report.changed,
            "compacted": report.compacted,
            "graph_version": report.version,
            "num_sccs": report.num_components,
            "labels_crc32": report.labels_crc32,
            "log_ratio": report.log_ratio,
        }

    def _refused(self, exc: Exception) -> dict:
        return {
            "ok": False,
            "error": str(exc),
            "error_type": type(exc).__name__,
        }

    def apply_batch(
        self,
        inserts: List[Tuple[int, int]],
        deletes: List[Tuple[int, int]],
    ) -> dict:
        try:
            report = self.engine.update(
                self.target, inserts=inserts, deletes=deletes
            )
        except ReproError as exc:
            return self._refused(exc)
        return self._response(report)

    def compact(self) -> dict:
        try:
            report = self.engine.compact(self.target)
        except ReproError as exc:
            return self._refused(exc)
        return self._response(report)


class RequestApplier:
    """Remote applier: each batch becomes one ``update`` request.

    ``send(request) -> response`` delivers it — a serve daemon's socket
    (``repro stream --connect``) or a service's own request pipeline
    (the ``stream`` op) — so streamed batches pay admission, land
    journal stamps, and pin to the worker owning the mutable session
    exactly like client-sent updates.  Shed or refused requests come
    back as ``ok=False`` responses the consumer's backpressure loop
    understands.
    """

    def __init__(
        self,
        send: Callable[[dict], dict],
        graph: str,
        scale: Optional[float] = None,
        on_error: Optional[str] = None,
    ) -> None:
        self.send = send
        self.graph = graph
        self.scale = scale
        self.on_error = on_error

    def _request(self, **fields) -> dict:
        req = {"op": "update", "graph": self.graph}
        if self.scale is not None:
            req["scale"] = self.scale
        if self.on_error is not None:
            req["on_error"] = self.on_error
        req.update(fields)
        return req

    def apply_batch(self, inserts, deletes) -> dict:
        return self.send(
            self._request(
                inserts=[list(e) for e in inserts],
                deletes=[list(e) for e in deletes],
            )
        )

    def compact(self) -> dict:
        return self.send(self._request(compact=True))


class StreamConsumer:
    """Pull → parse → batch → apply → checkpoint, resiliently."""

    def __init__(
        self,
        source: StreamSource,
        applier,
        *,
        parser: Optional[RecordParser] = None,
        on_error: str = "skip",
        num_nodes: Optional[int] = None,
        dedup_window: int = 1024,
        checkpoint: Optional[StreamCheckpoint] = None,
        batch_edges: int = 512,
        batch_age: float = 0.5,
        idle_wait: float = 0.05,
        degrade_log_ratio: Optional[float] = None,
        shed_retries: int = 8,
        retry: Optional[RetryPolicy] = None,
        max_batches: Optional[int] = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if batch_edges < 1:
            raise ValueError("batch_edges must be >= 1")
        self.source = source
        self.applier = applier
        self.checkpoint = checkpoint
        self.batch_edges = int(batch_edges)
        self.batch_age = float(batch_age)
        self.idle_wait = float(idle_wait)
        self.degrade_log_ratio = degrade_log_ratio
        self.shed_retries = int(shed_retries)
        self.retry = retry or RetryPolicy(
            max_attempts=max(2, shed_retries), backoff_base=0.05
        )
        self.max_batches = max_batches
        self._clock = clock
        self._sleep = sleep

        # -- resume: the committed watermark decides where we start.
        wm = checkpoint.load() if checkpoint is not None else None
        self.committed_offset = wm.offset if wm is not None else 0
        self.graph_version = wm.graph_version if wm is not None else None
        self.labels_crc32 = wm.labels_crc32 if wm is not None else None
        self.batches = wm.batches if wm is not None else 0
        self.records_applied = wm.records if wm is not None else 0
        self.resumed = wm is not None
        start = 0
        if wm is not None and not source.replays_from_start:
            # seekable feeds skip the applied prefix at the transport;
            # replaying feeds restart at zero and the record-level
            # watermark skip below drops the committed prefix.
            source.seek(wm.offset)
            start = wm.offset
        if parser is None:
            parser = RecordParser(
                on_error=on_error,
                num_nodes=num_nodes,
                dedup_window=dedup_window,
                start_offset=start,
                path=source.describe(),
            )
        self.parser = parser

        # -- pending batch state
        self._pending: "Dict[Tuple[int, int], str]" = {}
        self._batch_end_offset = self.committed_offset
        self._batch_born: Optional[float] = None
        self._ended = False
        self._stopped = False

        # -- counters
        self.records_skipped_committed = 0
        self.conflict_flushes = 0
        self.sheds = 0
        self.degrades = 0
        self.log_ratio = 0.0
        self._lag_samples: List[float] = []

    # -- lifecycle ------------------------------------------------------
    @property
    def ended(self) -> bool:
        """True once the feed signalled a clean end (or EOF)."""
        return self._ended

    def stop(self) -> None:
        """Ask the run loop to exit after the current step."""
        self._stopped = True

    # -- main loop ------------------------------------------------------
    def run(self) -> dict:
        """Consume until end-of-feed, ``stop()``, or ``max_batches``.

        Returns :meth:`stats`.  Raises
        :class:`~repro.errors.StreamFeedError` if the source dies past
        its reconnect budget, :class:`~repro.errors.
        ServiceOverloadError` if the applier sheds past the retry
        budget — both typed, both resumable from the committed
        watermark.
        """
        while not self._stopped and not self._ended:
            if (
                self.max_batches is not None
                and self.batches >= self.max_batches
            ):
                break
            self.step()
        if self._ended:
            self._ingest(self.parser.flush())
        self._flush("end")
        return self.stats()

    def step(self) -> None:
        """One bounded read + parse + conditional flush."""
        result = self.source.read()
        if result is None:
            self._ended = True
            return
        offset, data = result
        if data:
            self._ingest(self.parser.feed_at(offset, data))
            self._maybe_flush()
        else:
            # idle: age out a lingering batch, then wait politely.
            self._maybe_flush()
            if not self._ended:
                self._sleep(self.idle_wait)

    # -- batching -------------------------------------------------------
    def _ingest(self, records: List[EdgeRecord]) -> None:
        for rec in records:
            if rec.end_offset <= self.committed_offset:
                # the committed prefix of a replaying feed: already
                # applied before the crash/reconnect, never re-applied.
                self.records_skipped_committed += 1
                continue
            if rec.kind == "end":
                self._batch_end_offset = rec.end_offset
                self._ended = True
                continue
            edge = rec.edge
            have = self._pending.get(edge)
            if have is not None and have != rec.kind:
                # add/remove of the same edge cannot share a batch
                # (inserts apply before deletes within one update):
                # flush what we have, then start a batch with this op.
                self.conflict_flushes += 1
                self._flush("conflict")
            if not self._pending:
                self._batch_born = self._clock()
            self._pending[edge] = rec.kind
            self._batch_end_offset = rec.end_offset
            if len(self._pending) >= self.batch_edges:
                self._flush("size")

    def _maybe_flush(self) -> None:
        if (
            self._pending
            and self._batch_born is not None
            and self._clock() - self._batch_born >= self.batch_age
        ):
            self._flush("age")

    def _flush(self, reason: str) -> None:
        watermark_offset = self._batch_end_offset
        if not self._pending:
            if reason == "end" and watermark_offset > self.committed_offset:
                # an end record (or trailing skipped lines) moved the
                # offset without pending edits: commit the position so
                # a restart does not re-read the tail.
                self._commit(watermark_offset, records=0)
            return
        inserts = [e for e, k in self._pending.items() if k == "add"]
        deletes = [e for e, k in self._pending.items() if k == "remove"]
        n = len(self._pending)
        born = self._batch_born
        self._pending.clear()
        self._batch_born = None
        resp = self._apply_with_backpressure(inserts, deletes)
        self.graph_version = resp.get("graph_version", self.graph_version)
        self.labels_crc32 = resp.get("labels_crc32", self.labels_crc32)
        self.log_ratio = float(resp.get("log_ratio") or 0.0)
        self.batches += 1
        self.records_applied += n
        if born is not None:
            self._note_lag(self._clock() - born)
        self._commit(watermark_offset, records=n)
        if (
            self.degrade_log_ratio is not None
            and self.log_ratio > self.degrade_log_ratio
        ):
            # compaction debt over budget: degrade to one synchronous
            # snapshot fold so traversal overhead stops growing.
            resp = self.applier.compact()
            if resp.get("ok", True):
                self.degrades += 1
                self.log_ratio = float(resp.get("log_ratio") or 0.0)

    def _apply_with_backpressure(
        self,
        inserts: List[Tuple[int, int]],
        deletes: List[Tuple[int, int]],
    ) -> dict:
        attempt = 0
        while True:
            resp = self.applier.apply_batch(inserts, deletes)
            if resp.get("ok", True):
                return resp
            etype = resp.get("error_type", "")
            if etype in _BACKPRESSURE_ERRORS:
                # the tier is shedding: pausing *here* pauses the feed
                # (we stop reading the source), which is the whole
                # backpressure story.  Retry under bounded backoff.
                self.sheds += 1
                if attempt < self.shed_retries:
                    self._sleep(
                        self.retry.delay(attempt, key="stream-apply")
                    )
                    attempt += 1
                    continue
                raise ServiceOverloadError(
                    f"stream batch shed {attempt + 1} times: "
                    f"{resp.get('error')}",
                    reason="stream-backpressure",
                )
            raise ReproError(
                f"stream batch rejected ({etype}): {resp.get('error')}"
            )

    def _commit(self, offset: int, *, records: int) -> None:
        self.committed_offset = max(self.committed_offset, offset)
        if self.checkpoint is not None:
            self.checkpoint.save(
                Watermark(
                    offset=self.committed_offset,
                    graph_version=int(self.graph_version or 0),
                    labels_crc32=self.labels_crc32,
                    batches=self.batches,
                    records=self.records_applied,
                )
            )

    # -- freshness ------------------------------------------------------
    def _note_lag(self, lag: float) -> None:
        self._lag_samples.append(lag)
        if len(self._lag_samples) > 4096:
            del self._lag_samples[: len(self._lag_samples) // 2]

    def _lag_stats(self) -> dict:
        if not self._lag_samples:
            return {"mean": 0.0, "p95": 0.0, "max": 0.0}
        xs = sorted(self._lag_samples)
        return {
            "mean": sum(xs) / len(xs),
            "p95": xs[min(len(xs) - 1, int(0.95 * len(xs)))],
            "max": xs[-1],
        }

    # -- reporting ------------------------------------------------------
    def stats(self) -> dict:
        report = self.parser.report
        return {
            "ended": self._ended,
            "resumed": self.resumed,
            "batches": self.batches,
            "records_applied": self.records_applied,
            "records_skipped_committed": self.records_skipped_committed,
            "conflict_flushes": self.conflict_flushes,
            "sheds": self.sheds,
            "degrades": self.degrades,
            "log_ratio": self.log_ratio,
            "committed_offset": self.committed_offset,
            "graph_version": self.graph_version,
            "labels_crc32": self.labels_crc32,
            "freshness_lag": self._lag_stats(),
            "parser": {
                "lines": report.lines,
                "edges": report.edges,
                "dropped": report.dropped,
                "repaired": report.repaired,
                "duplicates": report.duplicates,
                "overlap_bytes": self.parser.framer.overlap_bytes,
                "gap_bytes": self.parser.framer.gap_bytes,
            },
            "source": self.source.stats(),
        }
