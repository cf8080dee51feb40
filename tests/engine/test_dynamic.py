"""DynamicSCC: the incremental maintainer must land every update in
the right taxonomy bucket, keep the pseudo-topological level invariant,
and never diverge from a from-scratch recompute of the merged view."""

import numpy as np
import pytest

from repro.core.tarjan import tarjan_scc
from repro.engine.dynamic import DynamicSCC, rep_labels
from repro.graph import from_edge_array
from repro.graph.delta import DeltaCSR
from tests.conftest import random_digraph


def make_dyn(edges, n, **kwargs):
    if edges:
        arr = np.array(edges, dtype=np.int64)
        src, dst = arr[:, 0], arr[:, 1]
    else:
        src = dst = np.empty(0, dtype=np.int64)
    delta = DeltaCSR(from_edge_array(src, dst, n), compact_ratio=10.0)
    return DynamicSCC(delta, **kwargs)


def assert_levels_hold(dyn):
    """level[a] < level[b] for every condensation edge a -> b."""
    src, dst = dyn.delta.edge_array()
    ls, ld = dyn.labels[src], dyn.labels[dst]
    inter = ls != ld
    lvl_s = np.array([dyn.level_of(l) for l in ls[inter]])
    lvl_d = np.array([dyn.level_of(l) for l in ld[inter]])
    assert bool((lvl_s < lvl_d).all())


class TestInsertTaxonomy:
    def test_intra_component_insert_is_fast(self):
        dyn = make_dyn([(0, 1), (1, 2), (2, 0)], 3)
        assert not dyn.insert(0, 2)
        assert dyn.stats.fast_inserts == 1
        assert dyn.num_components == 1

    def test_level_compatible_insert_is_fast(self):
        # chain 0 -> 1 -> 2: adding 0 -> 2 respects the levels.
        dyn = make_dyn([(0, 1), (1, 2)], 3)
        assert not dyn.insert(0, 2)
        assert dyn.stats.fast_inserts == 1
        assert dyn.stats.searched_inserts == 0
        assert_levels_hold(dyn)

    def test_back_edge_merges_cycle(self):
        dyn = make_dyn([(0, 1), (1, 2), (2, 3)], 4)
        assert dyn.num_components == 4
        assert dyn.insert(3, 0)  # closes 0..3 into one SCC
        assert dyn.stats.merges == 1
        assert dyn.stats.merged_components == 4
        assert dyn.num_components == 1
        assert dyn.labels.tolist() == [0, 0, 0, 0]
        dyn.verify()

    def test_partial_cycle_merges_only_the_path(self):
        # 0 -> 1 -> 2 -> 3, back edge 2 -> 0 merges {0,1,2} but not 3.
        dyn = make_dyn([(0, 1), (1, 2), (2, 3)], 4)
        assert dyn.insert(2, 0)
        assert dyn.labels.tolist() == [0, 0, 0, 3]
        assert sorted(dyn.members(0).tolist()) == [0, 1, 2]
        assert_levels_hold(dyn)
        dyn.verify()

    def test_level_violating_insert_without_cycle_cascades(self):
        # two chains; a cross edge from the deep end of one to the
        # head of the other violates levels but closes no cycle.
        dyn = make_dyn([(0, 1), (1, 2), (3, 4)], 5)
        assert not dyn.insert(2, 3)
        assert dyn.stats.searched_inserts >= 1
        assert dyn.stats.merges == 0
        assert_levels_hold(dyn)
        dyn.verify()

    def test_noop_insert_counts_noop(self):
        dyn = make_dyn([(0, 1)], 2)
        assert not dyn.insert(0, 1)
        assert dyn.stats.noops == 1


class TestDeleteTaxonomy:
    def test_cross_component_delete_is_fast(self):
        dyn = make_dyn([(0, 1)], 2)
        assert not dyn.delete(0, 1)
        assert dyn.stats.cross_deletes == 1
        dyn.verify()

    def test_intact_certificate_spares_recompute(self):
        # complete digraph on 3 nodes: 0 still reaches 1 via 2 after
        # the delete, so the partition stands without a recompute.
        dyn = make_dyn(
            [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)], 3
        )
        assert dyn.num_components == 1
        assert not dyn.delete(0, 1)
        assert dyn.stats.intact_deletes == 1
        assert dyn.stats.splits == 0
        dyn.verify()

    def test_cycle_break_splits_into_singletons(self):
        # the broken component spans the whole graph and still splits
        # in place.
        dyn = make_dyn([(0, 1), (1, 2), (2, 0)], 3)
        assert dyn.delete(2, 0)
        assert dyn.stats.splits == 1
        assert dyn.stats.split_components == 3
        assert dyn.num_components == 3
        assert_levels_hold(dyn)
        dyn.verify()

    def test_split_into_two_sccs(self):
        # 0<->1 and 2<->3 joined into one SCC by 1->2 and 3->0;
        # deleting 3->0 splits it back into the two 2-cycles.
        dyn = make_dyn(
            [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (3, 0)],
            4,
        )
        assert dyn.num_components == 1
        assert dyn.delete(3, 0)
        assert dyn.stats.splits == 1
        assert dyn.num_components == 2
        assert dyn.labels.tolist() == [0, 0, 2, 2]
        assert_levels_hold(dyn)
        dyn.verify()

    def test_self_loop_delete_never_splits(self):
        dyn = make_dyn([(0, 0), (0, 1), (1, 0)], 2)
        assert not dyn.delete(0, 0)
        assert dyn.stats.intact_deletes == 1
        dyn.verify()

    def test_giant_split_recomputes_only_its_component(self):
        # {0..4} holds 5 of 7 nodes; deleting 4 -> 0 drops {4} off,
        # and the remainder 0<->1 -> 2<->3 falls apart too, so the
        # peel-off certificate fails and the recompute hook runs —
        # on the broken component's induced subgraph, not the graph.
        edges = [
            (0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (3, 4), (4, 0),
            (5, 0), (4, 6),
        ]
        seen = []

        def hook(g):
            seen.append((g.num_nodes, sorted(zip(*g.edge_array()))))
            return tarjan_scc(g)

        dyn = make_dyn(edges, 7, recompute=hook)
        assert dyn.members(0).size == 5
        seen.clear()
        assert dyn.delete(4, 0)
        assert seen == [
            (5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)])
        ]
        assert dyn.stats.splits == 1
        assert dyn.stats.peeled_splits == 0
        assert dyn.labels.tolist() == [0, 0, 2, 2, 4, 5, 6]
        assert_levels_hold(dyn)
        dyn.verify()


class TestPeelOff:
    """An intra-component delete whose probe fails: the flood that
    exhausted is one SCC, and the boundary walk certifies the rest."""

    def test_forward_flood_peels_off(self):
        # 3's only out-edge inside the component is 3 -> 0, so the
        # forward flood from 3 exhausts at once: {3} sinks below the
        # remainder {0, 1, 2}, which keeps its label.
        dyn = make_dyn(
            [(0, 1), (1, 0), (1, 2), (2, 0), (1, 3), (3, 0)],
            4,
        )
        assert dyn.delete(3, 0)
        assert dyn.labels.tolist() == [0, 0, 0, 3]
        assert dyn.stats.splits == dyn.stats.peeled_splits == 1
        assert dyn.stats.split_components == 2
        assert dyn.level_of(0) < dyn.level_of(3)
        assert_levels_hold(dyn)
        dyn.verify()

    def test_backward_flood_peels_off(self):
        # 0 has two other out-edges, so the probe turns to the smaller
        # backward side: 3's only in-edge was 0 -> 3, and {3} becomes
        # a source above which the remainder {0, 1, 2} is raised.
        dyn = make_dyn(
            [(0, 1), (0, 2), (1, 0), (2, 0), (0, 3), (3, 1)],
            4,
        )
        assert dyn.delete(0, 3)
        assert dyn.labels.tolist() == [0, 0, 0, 3]
        assert dyn.stats.splits == dyn.stats.peeled_splits == 1
        assert dyn.level_of(3) < dyn.level_of(0)
        assert_levels_hold(dyn)
        dyn.verify()

    def test_peeled_minimum_relabels_the_remainder_in_place(self):
        # 0 falls off the cycle 1 -> 2 -> 3 -> 1; the remainder is
        # the larger part, so it keeps the component's cid under its
        # new minimum label 1.
        dyn = make_dyn(
            [(1, 2), (2, 3), (3, 1), (1, 0), (0, 2)],
            4,
        )
        cid = dyn._cid_of[0]
        assert dyn.delete(0, 2)
        assert dyn.labels.tolist() == [0, 1, 1, 1]
        assert dyn.members(1).tolist() == [1, 2, 3]
        assert dyn.stats.peeled_splits == 1
        assert dyn._cid_of[1] == cid
        assert dyn._cid_of[0] != cid
        assert_levels_hold(dyn)
        dyn.verify()

    def test_broken_remainder_falls_back_to_fwbw(self):
        # {4} peels off, but the remainder 0<->1 -> 2<->3 is two SCCs:
        # the backward walk from 0 never reaches the boundary node 3.
        dyn = make_dyn(
            [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (3, 4), (4, 0)],
            5,
        )
        assert dyn.delete(4, 0)
        assert dyn.stats.splits == 1
        assert dyn.stats.peeled_splits == 0
        assert dyn.stats.split_components == 3
        want = rep_labels(tarjan_scc(dyn.delta.snapshot()))
        assert dyn.labels.tolist() == want.tolist() == [0, 0, 2, 2, 4]
        assert_levels_hold(dyn)
        dyn.verify()

    def test_satellite_peels_without_fwbw(self, monkeypatch):
        # a 200-node ring with chords, plus satellite 200 hanging off it
        # by one edge each way: cutting 200 -> 0 must not extract the
        # giant's induced subgraph or recompute it.
        rng = np.random.default_rng(7)
        n = 200
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [
            (int(a), int(b)) for a, b in rng.integers(0, n, (400, 2))
        ]
        edges += [(200, 0), (57, 200)]
        recomputes = []

        def hook(g):
            recomputes.append(g.num_nodes)
            return tarjan_scc(g)

        dyn = make_dyn(sorted(set(edges)), n + 1, recompute=hook)
        assert dyn.num_components == 1

        def refuse(*args, **kwargs):
            raise AssertionError("the peel-off extracted the subgraph")

        monkeypatch.setattr(DeltaCSR, "induced_subgraph", refuse)
        assert dyn.delete(200, 0)
        assert recomputes == [n + 1]  # the initial labels only
        assert dyn.stats.peeled_splits == 1
        assert dyn.members(0).size == n
        assert dyn.labels[200] == 200
        assert_levels_hold(dyn)
        dyn.verify()


class TestRecomputeHook:
    def test_custom_recompute_used_for_init_and_fallback_split(self):
        calls = []

        def counting(g):
            calls.append(g.num_nodes)
            return tarjan_scc(g)

        # the broken-remainder shape of TestPeelOff plus an outside
        # node 5: the fallback split recomputes the component only.
        dyn = make_dyn(
            [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (3, 4), (4, 0),
             (4, 5)],
            6,
            recompute=counting,
        )
        assert calls == [6]  # initial labels
        assert dyn.delete(4, 0)
        assert calls == [6, 5]  # the broken component's subgraph
        assert dyn.stats.peeled_splits == 0
        dyn.verify()

    def test_default_recompute_is_method2(self, monkeypatch):
        import repro.core.api as api

        methods = []
        real = api.strongly_connected_components

        def spy(g, method="method2", **kwargs):
            methods.append(method)
            return real(g, method, **kwargs)

        monkeypatch.setattr(api, "strongly_connected_components", spy)
        dyn = make_dyn(
            [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (3, 4), (4, 0)], 5
        )
        assert dyn.delete(4, 0)
        assert methods == ["method2", "method2"]
        dyn.verify()

    def test_explicit_labels_skip_recompute(self):
        edges = [(0, 1), (1, 0), (2, 2)]
        arr = np.array(edges, dtype=np.int64)
        g = from_edge_array(arr[:, 0], arr[:, 1], 3)
        delta = DeltaCSR(g)
        dyn = DynamicSCC(delta, labels=tarjan_scc(g))
        assert dyn.labels.tolist() == [0, 0, 2]

    def test_bad_inputs_rejected(self):
        g = from_edge_array(
            np.array([0], dtype=np.int64), np.array([1], dtype=np.int64), 2
        )
        with pytest.raises(ValueError):
            DynamicSCC(DeltaCSR(g), labels=np.zeros(5, dtype=np.int64))


class TestRepLabels:
    def test_normalizes_to_min_member(self):
        labels = np.array([7, 7, 3, 3, 9], dtype=np.int64)
        assert rep_labels(labels).tolist() == [0, 0, 2, 2, 4]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, 30).astype(np.int64)
        once = rep_labels(labels)
        assert np.array_equal(once, rep_labels(once))


class TestFuzzStream:
    @pytest.mark.parametrize(
        "seed,live_deletes",
        [(0, False), (1, False), (2, False), (3, False), (4, True)],
        ids=["0", "1", "2", "3", "live-deletes"],
    )
    def test_random_stream_never_diverges(self, seed, live_deletes):
        """Random pairs mostly miss the graph on delete; the
        ``live_deletes`` input deletes live edges instead, so half its
        updates land and components keep splitting in place (through
        both the peel-off certificate and the recompute fallback)."""
        n = 30
        base = random_digraph(n, 60, seed=seed)
        delta = DeltaCSR(base, compact_ratio=10.0)
        dyn = DynamicSCC(delta)
        rng = np.random.default_rng(seed + 1000)
        for step in range(200):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if rng.integers(0, 2):
                dyn.insert(u, v)
            elif not live_deletes:
                dyn.delete(u, v)
            else:
                src, dst = delta.edge_array()
                i = int(rng.integers(0, src.size))
                splits = dyn.stats.splits
                changed = dyn.delete(int(src[i]), int(dst[i]))
                assert changed == (dyn.stats.splits > splits)
                if changed:
                    dyn.verify()
            if step % 20 == 19:
                dyn.verify()
                assert_levels_hold(dyn)
        dyn.verify()
        if live_deletes:
            assert 0 < dyn.stats.peeled_splits < dyn.stats.splits
        # the member index and the label array tell the same story
        total = 0
        for rep in np.unique(dyn.labels):
            members = dyn.members(int(rep))
            assert bool((dyn.labels[members] == rep).all())
            total += members.size
        assert total == n

    def test_batch_apply_equals_singles(self):
        n = 20
        base = random_digraph(n, 40, seed=6)
        rng = np.random.default_rng(42)
        inserts = [
            (int(rng.integers(0, n)), int(rng.integers(0, n)))
            for _ in range(25)
        ]
        deletes = [
            (int(rng.integers(0, n)), int(rng.integers(0, n)))
            for _ in range(15)
        ]
        a = DynamicSCC(DeltaCSR(base, compact_ratio=10.0))
        a.apply(inserts, deletes)
        b = DynamicSCC(DeltaCSR(base, compact_ratio=10.0))
        for e in inserts:
            b.insert(*e)
        for e in deletes:
            b.delete(*e)
        assert np.array_equal(a.labels, b.labels)
        a.verify()
