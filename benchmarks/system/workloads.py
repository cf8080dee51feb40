"""The three system-benchmark workloads and their seeded inputs.

A workload is one traffic mix sent at a real ``repro serve`` daemon.
Its inputs are surrogate graphs from ``repro.generators.generate``
written to edge-list files (requests name those files, so the program
only ever sees the generated inputs) plus, for ``stream-rw``, an edit
stream.  Everything is keyed by ``(workload, seed)`` under one fixed
directory: the serve tier's ``routing_fingerprint`` hashes the graph
*path string*, so a fresh random directory per run would change what
the daemon sees from run to run.

The seed picks the labelling, not the shape.  Each run of the
benchmark may use another seed, and graphs the generator draws with
different seeds differ in cost: on a 2-vCPU host the interquartile
spread of the per-seed p95 latency was 7% on serve-small, against 2%
for repeats of one seed.  So every graph is generated with
:data:`SHAPE_SEED`, and the run's seed draws a random relabelling of
its nodes; the edit stream is drawn on the unrelabelled graph and
relabelled the same way.  Another seed gives other bytes, other labels
and other CSR orders, but an isomorphic graph and edit stream: the
Method-2 work of a graph moves by at most 0.9% across seeds.

Oracle CRCs are computed here too, with Tarjan over
``read_edge_list(<the exact file the daemon loads>)``: the reader
ignores the ``# nodes:`` header ``write_edge_list`` emits, so a graph
with trailing isolated nodes reads back smaller than it was generated,
and only the file is the truth the daemon sees.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: every file the benchmark writes lives under this directory, given
#: relative to the repository root (the working directory of every
#: process the benchmark starts), which also keeps Unix socket paths
#: short whatever the checkout's absolute location.
WORK_DIR = Path("benchmarks") / "system" / ".work"

#: the generator seed of every input graph and of the edit stream.
SHAPE_SEED = 1

#: small-world surrogates of the paper's Table 1 served by
#: ``serve-small``.  An odd count puts the pooled median inside one
#: graph's latencies rather than on the step between two graphs.
SMALL_GRAPHS = (
    ("patents", 0.05), ("orkut", 0.05), ("twitter", 0.05),
    ("livej", 0.05), ("wiki", 0.1),
)

#: stream-rw pacing: one 24-edit batch every 100 ms, and one read every
#: 100 ms half a period out of phase with the batches.
BATCH_INTERVAL_S = 0.1
READ_OFFSET_S = 0.05
INSERTS_PER_BATCH = 16
DELETES_PER_BATCH = 8
#: seconds of traffic after every graph is warm and before the timed
#: window, so allocator and page-cache state settle first.
WARMUP_S = 1.0


def stream_batches(seconds: float) -> int:
    """Batches a stream-rw run feeds: its warm-up plus the window.

    The edit stream is drawn batch by batch from one RNG, so a shorter
    run feeds a prefix of a longer run's bytes.
    """
    return int(round((WARMUP_S + seconds) / BATCH_INTERVAL_S))


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the daemon configuration it runs against."""

    name: str
    why: str
    #: ``(dataset, scale)`` pairs, one input file each.
    graphs: Tuple[Tuple[str, float], ...]
    #: ``certify`` level every run request carries.
    certify: Optional[str] = None
    #: True for the write+read stream mix.
    stream: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve-small",
            "5 small graphs round-robin on the in-process path: a warm run "
            "is 5-13 ms, so serving cost outside the paper phases is about "
            "a third of a request",
            SMALL_GRAPHS,
        ),
        Workload(
            "serve-giant",
            "orkut@1.0 (93% of nodes in the giant SCC) with sampled "
            "certificates: the giant's BFS and trim kernels and the "
            "certificate's FW-BW dominate",
            (("orkut", 1.0),),
            certify="sample",
        ),
        Workload(
            "stream-rw",
            "a 24-edit batch through repro stream --connect then a read of "
            "the mutated session, every 100 ms in lockstep: the write path "
            "beside reads",
            (("wiki", 0.2),),
            stream=True,
        ),
    )
}


def input_dir(workload: str, seed: int) -> Path:
    """The fixed input directory of one ``(workload, seed)``."""
    return WORK_DIR / "inputs" / f"{workload}-seed{seed}"


def rmat_pairs(rng, n: int, k: int, a=0.57, b=0.19, c=0.19):
    """``k`` R-MAT (src, dst) draws over ``0..n-1``: quadrant descent
    concentrates them on hub nodes, which sit in the giant SCC — the
    hard case for incremental maintenance."""
    import numpy as np

    bits = max(1, int(np.ceil(np.log2(max(2, n)))))
    src = np.zeros(k, dtype=np.int64)
    dst = np.zeros(k, dtype=np.int64)
    for _ in range(bits):
        r = rng.random(k)
        src = src * 2 + (r >= a + b)
        dst = dst * 2 + (((r >= a) & (r < a + b)) | (r >= a + b + c))
    return src % n, dst % n


def edit_batches(
    edges: Sequence[Tuple[int, int]],
    num_nodes: int,
    seed: int,
    batches: int,
    active: Optional[Sequence[bool]] = None,
) -> List[List[Tuple[str, int, int]]]:
    """A seeded edit stream over a graph's live edge set.

    Each batch holds ``INSERTS_PER_BATCH`` hub-skewed inserts of absent
    edges and ``DELETES_PER_BATCH`` deletes of present edges, all on
    distinct edges, so every edit changes the graph and the consumer
    flushes each batch as one ``update`` on size.  Given ``active``,
    inserts only join nodes marked in it.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0xED17])
    live = list(edges)
    index = {e: i for i, e in enumerate(live)}
    out = []
    for _ in range(batches):
        batch: List[Tuple[str, int, int]] = []
        inserted = []
        while len(inserted) < INSERTS_PER_BATCH:
            us, vs = rmat_pairs(rng, num_nodes, 2 * INSERTS_PER_BATCH)
            for u, v in zip(us.tolist(), vs.tolist()):
                e = (u, v)
                if u == v or e in index or e in inserted:
                    continue
                if active is not None and not (active[u] and active[v]):
                    continue
                inserted.append(e)
                if len(inserted) == INSERTS_PER_BATCH:
                    break
        deleted = set()
        while len(deleted) < DELETES_PER_BATCH:
            e = live[int(rng.integers(0, len(live)))]
            deleted.add(e)
        # deletes in draw order would depend on set iteration; sort.
        for e in inserted:
            batch.append(("+", e[0], e[1]))
        for e in sorted(deleted):
            batch.append(("-", e[0], e[1]))
            i = index.pop(e)
            last = live.pop()
            if i < len(live):
                live[i] = last
                index[last] = i
        for e in inserted:
            index[e] = len(live)
            live.append(e)
        out.append(batch)
    return out


def make_inputs(workload: Workload, seed: int, seconds: float) -> dict:
    """Write a workload's input files (deterministic in ``seed``) for a
    ``seconds`` window.

    Returns ``{"files": [...], "edits": path-or-None, "seed": seed}``
    with paths relative to the repository root.
    """
    import numpy as np

    from repro.generators import generate
    from repro.graph import apply_order, write_edge_list

    d = input_dir(workload.name, seed)
    d.mkdir(parents=True, exist_ok=True)
    files = []
    shapes = []
    for dataset, scale in workload.graphs:
        # the path string is what requests carry (and routing hashes).
        path = str(d / f"{dataset}-{scale:g}.txt")
        shape = generate(dataset, scale=scale, seed=SHAPE_SEED).graph
        old_of_new = np.random.default_rng([seed, 0x5EED]).permutation(
            shape.num_nodes)
        g, _ = apply_order(shape, old_of_new)
        write_edge_list(g, path, header=(
            f"{dataset}@{scale:g} seed {SHAPE_SEED}, relabelled by seed {seed}"))
        files.append(path)
        shapes.append((shape, np.argsort(old_of_new)))
    edits = None
    if workload.stream:
        shape, new_of_old = shapes[0]
        src, dst = shape.edge_array()
        # an insert joins only nodes with an edge, which the relabelled
        # file keeps whatever its reader makes of isolated ones.
        degree = np.bincount(np.concatenate([src, dst]),
                             minlength=shape.num_nodes)
        stream = edit_batches(
            list(zip(src.tolist(), dst.tolist())),
            shape.num_nodes,
            SHAPE_SEED,
            stream_batches(seconds),
            active=(degree > 0).tolist(),
        )
        new = new_of_old.tolist()
        edits = str(d / "edits.txt")
        tmp = edits + ".tmp"
        with open(tmp, "w") as fh:
            for batch in stream:
                for op, u, v in batch:
                    fh.write(f"{op} {new[u]} {new[v]}\n")
        os.replace(tmp, edits)
    return {"files": files, "edits": edits, "seed": seed}


def read_edit_batches(path: str) -> List[bytes]:
    """The edit file split into per-batch byte blocks (feed order)."""
    per = INSERTS_PER_BATCH + DELETES_PER_BATCH
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    return [b"".join(lines[i: i + per]) for i in range(0, len(lines), per)]


def labels_crc(labels) -> int:
    """CRC32 of canonical labels, as the daemon reports ``labels_crc32``."""
    import numpy as np

    from repro.core.result import canonical_labels
    from repro.ioutil import crc32_chunks

    canon = canonical_labels(np.asarray(labels, dtype=np.int64))
    return crc32_chunks(canon.tobytes())


def oracle_crc(path: str) -> int:
    """Tarjan's canonical-label CRC over the file the daemon loads."""
    from repro.core.tarjan import tarjan_scc
    from repro.graph import read_edge_list

    return labels_crc(tarjan_scc(read_edge_list(path)))


def stream_oracle_crc(base: str, batches: Sequence[bytes]) -> int:
    """Tarjan's CRC after applying ``batches`` in order to the base
    graph through a :class:`~repro.graph.delta.DeltaCSR`."""
    from repro.core.tarjan import tarjan_scc
    from repro.graph import DeltaCSR, read_edge_list

    delta = DeltaCSR(read_edge_list(base))
    for block in batches:
        for line in block.decode().splitlines():
            op, u, v = line.split()
            if op == "+":
                delta.add_edge(int(u), int(v))
            else:
                delta.remove_edge(int(u), int(v))
    return labels_crc(tarjan_scc(delta.snapshot()))
