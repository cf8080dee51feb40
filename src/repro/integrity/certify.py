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
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import IntegrityError
from ..ioutil import crc32_chunks

__all__ = ["CERTIFY_LEVELS", "certify_result"]

CERTIFY_LEVELS = ("crc", "sample", "full")

#: most SCCs one ``sample`` certificate proves, whatever ``k`` asks.
_MAX_SAMPLES = 64


def _sample_proof(graph, labels, sampled_labels, reps) -> list:
    """FW∧BW membership proofs for the sampled SCCs."""
    from ..traversal.bfs import bfs_mask

    proofs = []
    for lab, rep in zip(sampled_labels, reps):
        members = labels == lab
        fw, _ = bfs_mask(graph, rep, direction="out", allowed=members)
        bw, _ = bfs_mask(graph, rep, direction="in", allowed=members)
        size = int(np.count_nonzero(members))
        unproved = size - int(np.count_nonzero(fw & bw))
        proofs.append(
            {
                "label": int(lab),
                "representative": int(rep),
                "size": size,
                "unproved_members": unproved,
                "proved": unproved == 0,
            }
        )
    return proofs


def certify_result(
    graph,
    labels: np.ndarray,
    *,
    level: str = "sample",
    k: int = 8,
    seed: int = 0,
    tarjan_max_nodes: int = 50_000,
    strict: bool = True,
) -> dict:
    """Certify that ``labels`` is the SCC partition of ``graph``.

    ``labels`` must be the *canonical* label array (the engine's
    default output).  ``k`` bounds how many SCCs the ``sample`` level
    proves (drawn deterministically from ``seed``; the giant SCC —
    the small-world case that matters — is always included when one
    exists).  Returns the certificate dict; raises
    :class:`~repro.errors.IntegrityError` on a failed proof when
    ``strict``.
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
    uniq, first_idx, counts = np.unique(
        labels, return_index=True, return_counts=True
    )
    cert: dict = {
        "version": 1,
        "level": level,
        "n": n,
        "m": int(graph.num_edges),
        "num_sccs": int(uniq.size),
        "labels_crc32": crc32_chunks(labels.tobytes()),
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
        picked = np.sort(picked)
        sampled_labels = uniq[picked]
        # representative = the label's first node in index order; for
        # canonical labels that is also the node that named the SCC.
        reps = first_idx[picked].astype(np.int64)
        cert["sampled"] = _sample_proof(
            graph, labels, sampled_labels, reps
        )
        for proof in cert["sampled"]:
            if not proof["proved"]:
                failures.append(
                    f"SCC {proof['label']} (rep {proof['representative']}): "
                    f"{proof['unproved_members']}/{proof['size']} member(s) "
                    f"not FW∧BW-reachable from the representative"
                )

    if level == "full" and n <= tarjan_max_nodes:
        from ..core import tarjan_scc
        from ..core.result import same_partition

        oracle = tarjan_scc(graph)
        cert["tarjan_checked"] = True
        if not same_partition(labels, oracle):
            failures.append(
                "partition disagrees with the independent Tarjan run"
            )

    if failures:
        cert["ok"] = False
        cert["failures"] = failures
        if strict:
            raise IntegrityError(
                f"result certification failed: {'; '.join(failures)}",
                context=f"certify:{level}",
            )
    return cert
