"""Result certification: prove labels right, not just repeatable.

``labels_crc32`` only proves two runs *agree*; this module produces a
machine-checkable certificate that the partition itself is an SCC
partition, at three escalating levels:

``crc``
    The canonical-label CRC plus counts — the existing agreement tag,
    packaged as a certificate.
``sample`` (default)
    Additionally samples K SCC representatives and *proves membership*
    for every claimed member: one forward and one backward BFS
    (:func:`repro.traversal.bfs.bfs_mask`) start at each
    representative, confined to its label's node set, so a node
    certifies exactly when it is forward- *and* backward-reachable
    from the representative inside the claimed SCC — the defining
    property.  A label group that is not actually strongly connected
    leaves some member unreached and fails the proof.  Plain BFS
    pairs, not the phase-2 64-lane multi-source sweep: the sample
    always holds the giant SCC, and on a small-world graph its sweep
    is most of the certificate, where the lane bookkeeping (repeated
    bits, colour search, OR-merge) buys nothing.
``full``
    Additionally cross-checks the whole partition against an
    independent Tarjan run for graphs up to ``tarjan_max_nodes``.

Certification failure raises :class:`~repro.errors.IntegrityError`
(exit 20) under ``strict`` (the serving default — a wrong-label
response must never leave the service); pass ``strict=False`` to get
the failed certificate back for inspection.

A graph version never changes, and every correct run of it returns
byte-identical canonical labels, so its proofs need to run once.  A
:class:`ProofLedger` (one per warm session version, passed by the
serve path) records the proofs that passed for one label array; a
repeat request on equal labels pays one CRC and one array compare for
them instead of the BFS pairs (and the Tarjan run), and gets the same
certificate.  One-shot callers (``repro scc --certify``, the
benchmarks) pass no ledger and pay every proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import IntegrityError
from ..ioutil import crc32_chunks

__all__ = [
    "CERTIFY_LEVELS",
    "ProofCounts",
    "ProofLedger",
    "certify_level",
    "certify_result",
]

CERTIFY_LEVELS = ("crc", "sample", "full")

#: most SCCs one ``sample`` certificate proves, whatever ``k`` asks.
_MAX_SAMPLES = 64


def certify_level(value) -> Optional[str]:
    """The certificate level a request's ``certify`` value asks for.

    A falsy value asks for none (``None``), ``True`` for ``sample``,
    and a name in :data:`CERTIFY_LEVELS` for itself; anything else
    raises ``ValueError``, so a serve request can be refused before
    it runs.
    """
    if not value:
        return None
    if value is True:
        return "sample"
    if isinstance(value, str) and value in CERTIFY_LEVELS:
        return value
    raise ValueError(
        f"bad certify value {value!r}; choose true, false or one of "
        f"{CERTIFY_LEVELS}"
    )


@dataclass
class ProofCounts:
    """Proofs a ledger ran and reused (a session's
    :class:`~repro.engine.session.SessionStats` carries the same two
    counters)."""

    proofs_run: int = 0
    proofs_reused: int = 0


class ProofLedger:
    """The proofs one graph version's certificates already hold.

    A certificate is a deterministic function of (graph, labels, seed,
    ``k``, level), and a proof — a sampled SCC's FW∧BW membership, or
    the ``full`` level's Tarjan agreement — is a fact about (graph,
    labels) alone.  The ledger records, for one label array: a private
    read-only copy of it, its CRC, the ``np.unique`` summary
    :func:`certify_result` derives from it (ids, first index, sizes),
    the sampled SCCs whose proof passed, and a passed Tarjan verdict.
    :func:`certify_result` reuses them while the labels it is handed
    have that CRC and equal the copy, and restarts the ledger on any
    other labels, so a wrong partition still gets every proof it
    samples.  Only passed proofs are recorded.

    The graph is the caller's promise: a ledger must only ever see one
    graph version (:attr:`repro.engine.session.GraphSession.proofs`
    is dropped on every applied update).  ``counts`` receives the
    ``proofs_run``/``proofs_reused`` tallies.
    """

    def __init__(self, counts=None) -> None:
        self.counts = ProofCounts() if counts is None else counts
        self.labels: Optional[np.ndarray] = None
        self.crc: Optional[int] = None
        self.num_edges: Optional[int] = None
        #: ``(ids, first_index, sizes)`` of :attr:`labels`.
        self.summary: Optional[tuple] = None
        #: positions in ``summary`` ids whose FW∧BW proof passed.
        self.proved: set = set()
        self.tarjan_agrees = False

    @property
    def nbytes(self) -> int:
        """Bytes held: the labels copy and its summary."""
        if self.labels is None:
            return 0
        return self.labels.nbytes + sum(a.nbytes for a in self.summary)

    def holds(self, graph, labels: np.ndarray, crc: int) -> bool:
        """True when ``labels`` are the ones this ledger proved about."""
        return (
            self.labels is not None
            and crc == self.crc
            and int(graph.num_edges) == self.num_edges
            and np.array_equal(labels, self.labels)
        )

    def restart(
        self, graph, labels: np.ndarray, crc: int, summary: tuple
    ) -> None:
        """Forget every proof and record ``labels`` as the new subject."""
        self.labels = labels.copy()
        self.labels.setflags(write=False)
        self.crc = crc
        self.num_edges = int(graph.num_edges)
        self.summary = summary
        self.proved = set()
        self.tarjan_agrees = False


def _reached(graph, labels, label, rep) -> int:
    """Members of claimed SCC ``label`` that are forward- and
    backward-reachable from ``rep`` inside it."""
    from ..traversal.bfs import bfs_mask

    members = labels == label
    fw, _ = bfs_mask(graph, rep, direction="out", allowed=members)
    bw, _ = bfs_mask(graph, rep, direction="in", allowed=members)
    return int(np.count_nonzero(fw & bw))


def certify_result(
    graph,
    labels: np.ndarray,
    *,
    level: str = "sample",
    k: int = 8,
    seed: int = 0,
    tarjan_max_nodes: int = 50_000,
    strict: bool = True,
    ledger: Optional[ProofLedger] = None,
) -> dict:
    """Certify that ``labels`` is the SCC partition of ``graph``.

    ``labels`` must be the *canonical* label array (the engine's
    default output).  ``k`` bounds how many SCCs the ``sample`` level
    proves (drawn deterministically from ``seed``; the giant SCC —
    the small-world case that matters — is always included when one
    exists).  ``ledger`` (one per graph version, see
    :class:`ProofLedger`) skips the proofs it already holds for these
    labels; the certificate is the same either way.  Returns the
    certificate dict; raises :class:`~repro.errors.IntegrityError` on
    a failed proof when ``strict``.
    """
    if level not in CERTIFY_LEVELS:
        raise ValueError(
            f"unknown certify level {level!r}; choose from {CERTIFY_LEVELS}"
        )
    labels = np.asarray(labels, dtype=np.int64)
    n = int(graph.num_nodes)
    if labels.shape[0] != n:
        raise ValueError(
            f"labels cover {labels.shape[0]} nodes, graph has {n}"
        )
    crc = crc32_chunks(labels.tobytes())
    if ledger is not None and ledger.holds(graph, labels, crc):
        uniq, first_idx, counts = ledger.summary
    else:
        uniq, first_idx, counts = np.unique(
            labels, return_index=True, return_counts=True
        )
        if ledger is not None:
            ledger.restart(graph, labels, crc, (uniq, first_idx, counts))
    proved = ledger.proved if ledger is not None else set()
    ran = reused = 0
    cert: dict = {
        "version": 1,
        "level": level,
        "n": n,
        "m": int(graph.num_edges),
        "num_sccs": int(uniq.size),
        "labels_crc32": crc,
        "seed": int(seed),
        "samples_requested": int(k),
        "sampled": [],
        "tarjan_checked": False,
        "ok": True,
    }
    failures = []

    if level in ("sample", "full") and uniq.size and k > 0:
        take = min(int(k), int(uniq.size), _MAX_SAMPLES)
        rng = np.random.default_rng(seed)
        picked = rng.choice(uniq.size, size=take, replace=False)
        giant = int(np.argmax(counts))
        if giant not in picked:
            picked[0] = giant
        for i in np.sort(picked).tolist():
            # representative = the label's first node in index order;
            # for canonical labels that is also the node that named it.
            lab, rep, size = int(uniq[i]), int(first_idx[i]), int(counts[i])
            if i in proved:
                unproved = 0
                reused += 1
            else:
                unproved = size - _reached(graph, labels, lab, rep)
                ran += 1
                if unproved == 0:
                    proved.add(i)
            cert["sampled"].append(
                {
                    "label": lab,
                    "representative": rep,
                    "size": size,
                    "unproved_members": unproved,
                    "proved": unproved == 0,
                }
            )
            if unproved:
                failures.append(
                    f"SCC {lab} (rep {rep}): {unproved}/{size} member(s) "
                    f"not FW∧BW-reachable from the representative"
                )

    if level == "full" and n <= tarjan_max_nodes:
        cert["tarjan_checked"] = True
        if ledger is not None and ledger.tarjan_agrees:
            reused += 1
        else:
            from ..core import tarjan_scc
            from ..core.result import same_partition

            ran += 1
            if same_partition(labels, tarjan_scc(graph)):
                if ledger is not None:
                    ledger.tarjan_agrees = True
            else:
                failures.append(
                    "partition disagrees with the independent Tarjan run"
                )
    if ledger is not None:
        ledger.counts.proofs_run += ran
        ledger.counts.proofs_reused += reused

    if failures:
        cert["ok"] = False
        cert["failures"] = failures
        if strict:
            raise IntegrityError(
                f"result certification failed: {'; '.join(failures)}",
                context=f"certify:{level}",
            )
    return cert
