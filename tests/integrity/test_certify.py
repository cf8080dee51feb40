"""Gate for result certification (repro.integrity.certify).

A certificate must accept every true SCC partition and reject every
perturbed one: membership proofs re-derive strong connectivity from
the graph itself, so relabelings pass and *partition* changes fail.
"""

import json

import numpy as np
import pytest

import repro.traversal.bfs
from repro.core import tarjan_scc
from repro.core.result import canonical_labels
from repro.errors import IntegrityError
from repro.generators import generate
from repro.graph import from_edge_list
from repro.integrity import (
    CERTIFY_LEVELS,
    ProofLedger,
    certify_level,
    certify_result,
)
from repro.ioutil import crc32_chunks
from repro.kernels.reference import DEDUP_DENSITY_DIVISOR

from tests.conftest import SMALL_GRAPHS, random_digraph


def true_labels(g):
    return canonical_labels(tarjan_scc(g))


class TestAccepts:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    @pytest.mark.parametrize("level", CERTIFY_LEVELS)
    def test_true_partition_certifies(self, name, level):
        edges, n = SMALL_GRAPHS[name]
        g = from_edge_list(edges, n)
        cert = certify_result(g, true_labels(g), level=level)
        assert cert["ok"]
        assert cert["n"] == n
        assert cert["level"] == level
        if level == "full":
            assert cert["tarjan_checked"]
        if level in ("sample", "full") and n:
            assert cert["sampled"]
            assert all(p["proved"] for p in cert["sampled"])

    def test_surrogate_dataset_certifies(self):
        g = generate("wiki", scale=0.02, seed=1).graph
        cert = certify_result(g, true_labels(g), level="full", k=16)
        assert cert["ok"]
        assert cert["num_sccs"] == np.unique(true_labels(g)).size
        # the giant SCC is always in the sample
        labels = true_labels(g)
        _, counts = np.unique(labels, return_counts=True)
        giant_size = int(counts.max())
        assert any(
            p["size"] == giant_size for p in cert["sampled"]
        )

    def test_relabeling_is_not_a_failure(self):
        """Swapping two label *values* keeps the partition; only the
        crc changes, not the proofs."""
        g = random_digraph(200, 600, seed=5)
        labels = true_labels(g)
        uniq = np.unique(labels)
        if uniq.size < 2:
            pytest.skip("needs >= 2 SCCs")
        swapped = labels.copy()
        swapped[labels == uniq[0]] = uniq[1]
        swapped[labels == uniq[1]] = uniq[0]
        cert = certify_result(g, swapped, level="sample", k=32)
        assert cert["ok"]

    def test_sampling_is_deterministic(self):
        g = random_digraph(300, 900, seed=9)
        labels = true_labels(g)
        c1 = certify_result(g, labels, seed=4, k=4)
        c2 = certify_result(g, labels, seed=4, k=4)
        assert c1 == c2


class TestRejects:
    def test_split_scc_fails_the_proof(self):
        """Carving one node out of a cycle's SCC leaves a label group
        that is not strongly connected."""
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
        labels = true_labels(g)  # one SCC
        bad = labels.copy()
        bad[2] = labels.max() + 1
        cert = certify_result(g, bad, level="sample", k=8, strict=False)
        assert not cert["ok"]
        assert cert["failures"]

    def test_merged_sccs_fail_the_proof(self):
        g = from_edge_list(
            [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)], 4
        )
        labels = true_labels(g)  # two 2-cycles
        bad = np.zeros_like(labels)  # claim: one giant SCC
        cert = certify_result(g, bad, level="sample", strict=False)
        assert not cert["ok"]

    def test_strict_raises_exit_20(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
        bad = np.array([0, 0, 1], dtype=np.int64)
        with pytest.raises(IntegrityError) as exc:
            certify_result(g, bad, level="sample")
        assert exc.value.exit_code == 20

    def test_full_level_tarjan_cross_check(self):
        """A partition the sampler happens to miss still fails the
        independent Tarjan cross-check (k=0 disables sampling)."""
        g = from_edge_list([(0, 1), (1, 0), (2, 3), (3, 2)], 4)
        bad = np.array([0, 0, 0, 0], dtype=np.int64)
        cert = certify_result(
            g, bad, level="full", k=0, strict=False
        )
        assert cert["tarjan_checked"]
        assert not cert["ok"]
        assert any("Tarjan" in f for f in cert["failures"])


@pytest.fixture
def dense_levels(monkeypatch):
    """Record each level of the certificate's BFS sweeps that took the
    dense flag-array step, and whether it had more than ``n / 8``
    targets."""
    dense = []
    real_step = repro.traversal.bfs.dense_frontier

    def spy(targets, blocked):
        dense.append(targets.size > blocked.size // DEDUP_DENSITY_DIVISOR)
        return real_step(targets, blocked)

    monkeypatch.setattr(repro.traversal.bfs, "dense_frontier", spy)
    return dense


def giant_surrogate():
    """twitter@0.05: one SCC holds 80% of the nodes."""
    g = generate("twitter", scale=0.05).graph
    labels = true_labels(g)
    uniq, counts = np.unique(labels, return_counts=True)
    giant = uniq[np.argmax(counts)]
    assert counts.max() > 0.75 * g.num_nodes
    return g, labels, giant


def edge_arrays(g):
    return np.repeat(np.arange(g.num_nodes), np.diff(g.indptr)), g.indices


def bfs_levels(indptr, indices, source, allowed):
    """BFS depth of every node reachable from ``source`` inside the
    ``allowed`` mask (-1 elsewhere)."""
    level = np.full(allowed.size, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.array([source])
    depth = 0
    while frontier.size:
        depth += 1
        nbrs = np.concatenate(
            [indices[indptr[u] : indptr[u + 1]] for u in frontier]
        )
        nbrs = np.unique(nbrs[allowed[nbrs] & (level[nbrs] < 0)])
        level[nbrs] = depth
        frontier = nbrs
    return level


def split_from_the_giant(g, labels, giant):
    """``labels`` with one node carved out of the giant so another
    giant member is left unreachable inside it."""
    inside = labels == giant
    src, dst = edge_arrays(g)
    internal = inside[src] & inside[dst]
    indeg = np.bincount(dst[internal], minlength=g.num_nodes)
    # y's only in-edge from the giant comes from x: moving x out
    # leaves y unreachable inside the claimed giant.
    y = np.flatnonzero(inside & (indeg == 1))[0]
    x = int(src[internal & (dst == y)][0])
    bad = labels.copy()
    bad[x] = labels.max() + 1
    return bad


def merged_at_the_last_level(g, labels, giant):
    """``labels`` with an outside node merged into the giant that its
    FW sweep reaches on the last level."""
    inside = labels == giant
    rep = int(np.flatnonzero(inside)[0])
    depth = bfs_levels(g.indptr, g.indices, rep, inside)
    src, dst = edge_arrays(g)
    # z hangs off the giant's deepest FW level: merged in, the FW
    # sweep reaches it on its last level and the BW sweep never.
    exits = inside[src] & ~inside[dst] & (dst > rep)
    # depth of each outside node's shallowest giant in-neighbour
    attach = np.full(g.num_nodes, g.num_nodes, dtype=np.int64)
    np.minimum.at(attach, dst[exits], depth[src[exits]])
    attach[attach == g.num_nodes] = -1
    z = int(np.argmax(attach))
    bad = labels.copy()
    bad[z] = giant
    merged = bfs_levels(g.indptr, g.indices, rep, bad == giant)
    assert merged[z] == merged.max()
    return bad


class TestRejectsOnGiant:
    """The sampled proof still catches partition errors inside the
    giant SCC, whose BFS sweeps run dense, bitmap-deduplicated levels."""

    def test_split_from_the_giant_fails(self, dense_levels):
        g, labels, giant = giant_surrogate()
        bad = split_from_the_giant(g, labels, giant)
        with pytest.raises(IntegrityError, match="not FW∧BW-reachable"):
            certify_result(g, bad, level="sample")
        assert any(dense_levels)
        assert certify_result(g, labels, level="sample")["ok"]

    def test_merge_at_the_last_level_fails(self, dense_levels):
        g, labels, giant = giant_surrogate()
        bad = merged_at_the_last_level(g, labels, giant)
        with pytest.raises(IntegrityError, match="not FW∧BW-reachable"):
            certify_result(g, bad, level="sample")
        assert any(dense_levels)


def forge_crc32(array, offset, target):
    """Rewrite the 4 bytes of ``array`` at byte ``offset`` so its CRC32
    becomes ``target``.  CRC32 is affine over GF(2) in the message
    bits, so the effect of each of the 32 bits is one column of a
    linear system that Gaussian elimination solves."""
    view = array.view(np.uint8)
    base = crc32_chunks(view.tobytes())
    columns = []
    for bit in range(32):
        view[offset + bit // 8] ^= 1 << (bit % 8)
        columns.append(crc32_chunks(view.tobytes()) ^ base)
        view[offset + bit // 8] ^= 1 << (bit % 8)
    # rows: (column effect, which bits make it) reduced to a basis
    basis = {}
    for bit, col in enumerate(columns):
        combo = 1 << bit
        for pivot in sorted(basis, reverse=True):
            if col >> pivot & 1:
                col ^= basis[pivot][0]
                combo ^= basis[pivot][1]
        if col:
            basis[col.bit_length() - 1] = (col, combo)
    want, flips = base ^ target, 0
    for pivot in sorted(basis, reverse=True):
        if want >> pivot & 1:
            want ^= basis[pivot][0]
            flips ^= basis[pivot][1]
    assert want == 0
    for bit in range(32):
        if flips >> bit & 1:
            view[offset + bit // 8] ^= 1 << (bit % 8)


def as_json(cert):
    return json.dumps(cert, sort_keys=True)


class TestProofLedger:
    """A ledger skips the proofs one graph version already holds for
    equal labels; the certificate is byte-identical to a fresh one,
    and any other labels get every proof they sample."""

    def test_json_identical_over_200_seeds_on_orkut(self):
        g = generate("orkut", scale=1.0).graph
        labels = true_labels(g)
        ledger = ProofLedger()
        for seed in range(200):
            fresh = certify_result(g, labels, seed=seed)
            cached = certify_result(g, labels, seed=seed, ledger=ledger)
            assert as_json(cached) == as_json(fresh)
        # each passed proof ran once; the giant's was reused 199 times
        assert ledger.counts.proofs_run == len(ledger.proved)
        assert ledger.counts.proofs_reused >= 199
        assert ledger.counts.proofs_run + ledger.counts.proofs_reused == (
            200 * 8
        )

    def test_repeat_runs_no_proof(self):
        g = random_digraph(300, 900, seed=9)
        labels = true_labels(g)
        ledger = ProofLedger()
        first = certify_result(g, labels, level="full", seed=3, ledger=ledger)
        ran = ledger.counts.proofs_run
        assert ran == len(first["sampled"]) + 1  # + the Tarjan run
        again = certify_result(g, labels, level="full", seed=3, ledger=ledger)
        assert again == first
        assert ledger.counts.proofs_run == ran
        assert ledger.counts.proofs_reused == ran

    def test_ledger_copies_the_labels(self):
        g = random_digraph(200, 600, seed=5)
        labels = true_labels(g)
        ledger = ProofLedger()
        certify_result(g, labels, ledger=ledger)
        labels[:] = 0  # the caller's buffer is not the ledger's
        assert not np.array_equal(ledger.labels, labels)
        assert not ledger.labels.flags.writeable
        assert ledger.nbytes >= ledger.labels.nbytes == labels.nbytes

    def test_relabeled_partition_restarts_the_ledger(self):
        g = random_digraph(200, 600, seed=5)
        labels = true_labels(g)
        ledger = ProofLedger()
        certify_result(g, labels, k=32, ledger=ledger)
        uniq = np.unique(labels)
        swapped = labels.copy()
        swapped[labels == uniq[0]] = uniq[1]
        swapped[labels == uniq[1]] = uniq[0]
        ran = ledger.counts.proofs_run
        cert = certify_result(g, swapped, k=32, ledger=ledger)
        assert as_json(cert) == as_json(certify_result(g, swapped, k=32))
        assert ledger.counts.proofs_run == 2 * ran
        np.testing.assert_array_equal(ledger.labels, swapped)

    def test_merged_label_still_fails_on_a_warm_ledger(self):
        g, labels, giant = giant_surrogate()
        ledger = ProofLedger()
        assert certify_result(g, labels, ledger=ledger)["ok"]
        outside = int(np.flatnonzero(labels != giant)[0])
        bad = labels.copy()
        bad[outside] = giant
        with pytest.raises(IntegrityError, match="not FW∧BW-reachable"):
            certify_result(g, bad, ledger=ledger)

    @pytest.mark.parametrize(
        "perturb", [split_from_the_giant, merged_at_the_last_level]
    )
    def test_giant_partitions_still_fail_on_a_warm_ledger(self, perturb):
        g, labels, giant = giant_surrogate()
        ledger = ProofLedger()
        assert certify_result(g, labels, ledger=ledger)["ok"]
        bad = perturb(g, labels, giant)
        for _ in range(2):  # a failed proof is never recorded
            with pytest.raises(IntegrityError, match="not FW∧BW-reachable"):
                certify_result(g, bad, ledger=ledger)
        assert certify_result(g, labels, ledger=ledger)["ok"]

    def test_equal_crc_is_not_equal_labels(self):
        """A wrong partition forged to the recorded labels' CRC32 still
        gets every proof: the array compare decides, not the CRC."""
        g, labels, giant = giant_surrogate()
        ledger = ProofLedger()
        assert certify_result(g, labels, ledger=ledger)["ok"]
        outside = np.flatnonzero(labels != giant)
        sizes = np.bincount(labels)
        bad = labels.copy()
        bad[outside[0]] = giant  # merged into the giant: not provable
        # rewrite the high half of a true singleton's label (still a
        # singleton) so the wrong labels' CRC matches the right ones'
        k = int(next(v for v in outside[1:] if sizes[labels[v]] == 1))
        forge_crc32(bad, 8 * k + 4, crc32_chunks(labels.tobytes()))
        assert crc32_chunks(bad.tobytes()) == ledger.crc
        assert not np.array_equal(bad, labels)
        with pytest.raises(IntegrityError, match="not FW∧BW-reachable"):
            certify_result(g, bad, ledger=ledger)

    def test_full_level_wrong_partition_still_fails(self):
        g = from_edge_list([(0, 1), (1, 0), (2, 3), (3, 2)], 4)
        ledger = ProofLedger()
        good = certify_result(g, true_labels(g), level="full", k=0,
                              ledger=ledger)
        assert good["ok"] and ledger.tarjan_agrees
        bad = np.array([0, 0, 0, 0], dtype=np.int64)
        cert = certify_result(
            g, bad, level="full", k=0, strict=False, ledger=ledger
        )
        assert not cert["ok"]
        assert any("Tarjan" in f for f in cert["failures"])
        assert not ledger.tarjan_agrees

    def test_other_graph_restarts_the_ledger(self):
        g = random_digraph(200, 600, seed=5)
        labels = true_labels(g)
        ledger = ProofLedger()
        certify_result(g, labels, ledger=ledger)
        # same labels, one edge fewer: not the graph the proofs were about
        keep = np.ones(g.num_edges, dtype=bool)
        keep[0] = False
        src, dst = edge_arrays(g)
        other = from_edge_list(
            list(zip(src[keep].tolist(), dst[keep].tolist())), g.num_nodes
        )
        ran = ledger.counts.proofs_run
        cert = certify_result(other, labels, strict=False, ledger=ledger)
        assert as_json(cert) == as_json(
            certify_result(other, labels, strict=False)
        )
        assert ledger.counts.proofs_run > ran


class TestCertifyLevel:
    @pytest.mark.parametrize(
        "value, level",
        [(None, None), (False, None), ("", None), (0, None),
         (True, "sample"), ("crc", "crc"), ("sample", "sample"),
         ("full", "full")],
    )
    def test_accepted(self, value, level):
        assert certify_level(value) == level

    @pytest.mark.parametrize("value", ["bogus", 2, ["sample"], "SAMPLE"])
    def test_refused(self, value):
        with pytest.raises(ValueError, match="certify"):
            certify_level(value)


class TestValidation:
    def test_unknown_level(self):
        g = from_edge_list([(0, 1)], 2)
        with pytest.raises(ValueError, match="certify level"):
            certify_result(g, np.zeros(2, np.int64), level="xxl")

    def test_label_shape_mismatch(self):
        g = from_edge_list([(0, 1)], 2)
        with pytest.raises(ValueError, match="cover"):
            certify_result(g, np.zeros(3, np.int64))

    def test_large_graph_skips_tarjan_tier(self):
        g = random_digraph(100, 300, seed=1)
        cert = certify_result(
            g, true_labels(g), level="full", tarjan_max_nodes=10
        )
        assert cert["ok"]
        assert not cert["tarjan_checked"]
