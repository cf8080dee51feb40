"""Unit tests for edge-list -> CSR builders."""

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    build_csr_arrays,
    dedup_edges,
    from_edge_array,
    from_edge_list,
)


class TestDedup:
    def test_removes_exact_duplicates(self):
        src = np.array([0, 0, 1, 0])
        dst = np.array([1, 1, 2, 1])
        s, d = dedup_edges(src, dst)
        assert np.array_equal(s, [0, 1])
        assert np.array_equal(d, [1, 2])

    def test_sorts_lexicographically(self):
        s, d = dedup_edges(np.array([2, 0, 1]), np.array([0, 5, 3]))
        assert np.array_equal(s, [0, 1, 2])
        assert np.array_equal(d, [5, 3, 0])

    def test_drop_self_loops(self):
        s, d = dedup_edges(
            np.array([0, 1, 2]), np.array([0, 1, 0]), drop_self_loops=True
        )
        assert np.array_equal(s, [2])
        assert np.array_equal(d, [0])

    def test_empty_input(self):
        s, d = dedup_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert s.size == 0 and d.size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dedup_edges(np.array([0]), np.array([0, 1]))

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            dedup_edges(np.array([0, -1]), np.array([1, 0]))


class TestBuildArrays:
    def test_indptr_counts(self):
        indptr, indices = build_csr_arrays(
            np.array([0, 0, 2]), np.array([1, 2, 0]), 3
        )
        assert np.array_equal(indptr, [0, 2, 2, 3])
        assert np.array_equal(indices, [1, 2, 0])

    def test_unsorted_src_rejected(self):
        with pytest.raises(ValueError):
            build_csr_arrays(np.array([1, 0]), np.array([0, 1]), 2)


class TestFromEdgeArray:
    def test_infers_num_nodes(self):
        g = from_edge_array(np.array([0, 4]), np.array([1, 2]))
        assert g.num_nodes == 5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_edge_array(np.array([0]), np.array([5]), 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            from_edge_array(np.array([-1]), np.array([0]), 3)

    def test_no_dedup_keeps_duplicates(self):
        g = from_edge_array(
            np.array([0, 0]), np.array([1, 1]), 2, dedup=False
        )
        assert g.num_edges == 2

    def test_drop_self_loops_without_dedup(self):
        g = from_edge_array(
            np.array([0, 1]), np.array([0, 0]), 2, dedup=False,
            drop_self_loops=True,
        )
        assert g.num_edges == 1
        assert g.has_edge(1, 0)

    def test_isolated_trailing_nodes(self):
        g = from_edge_array(np.array([0]), np.array([1]), 10)
        assert g.num_nodes == 10
        assert g.out_degree(9) == 0


class TestFromEdgeList:
    def test_pairs(self):
        g = from_edge_list([(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_empty_list_with_nodes(self):
        g = from_edge_list([], 5)
        assert g.num_nodes == 5
        assert g.num_edges == 0

    def test_empty_list_no_nodes(self):
        g = from_edge_list([])
        assert g.num_nodes == 0

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list([(0, 1, 2)])


def lexsort_oracle(src, dst, n, *, dedup, drop_self_loops):
    """Reference ``(indptr, indices, in_indptr, in_indices)``: edges
    ordered by ``np.lexsort``, a stable lexicographic sort."""
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if dedup and src.size:
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]

    def rows(ids):
        return np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=n))))

    back = np.lexsort((src, dst))
    return rows(src), dst, rows(dst), src[back]


def _random_edges(seed, n, m):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, m), rng.integers(0, n, m)


BUILD_CASES = {
    # duplicates, self-loops and three trailing isolated nodes
    "messy": (
        np.array([3, 0, 2, 0, 2, 1, 3, 0, 2]),
        np.array([0, 1, 2, 1, 0, 1, 3, 2, 0]),
        7,
    ),
    "empty": (np.array([], dtype=np.int64), np.array([], dtype=np.int64), 0),
    "edgeless": (np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4),
    "random": (*_random_edges(5, 60, 400), 64),
}


class TestKeySortMatchesLexsort:
    """The composite-key sort builds the same arrays as ``lexsort``."""

    @pytest.mark.parametrize("case", sorted(BUILD_CASES))
    @pytest.mark.parametrize("dedup", [True, False])
    @pytest.mark.parametrize("drop_self_loops", [True, False])
    def test_builders_and_transpose(self, case, dedup, drop_self_loops):
        src, dst, n = BUILD_CASES[case]
        want = lexsort_oracle(
            src, dst, n, dedup=dedup, drop_self_loops=drop_self_loops
        )
        g = from_edge_array(
            src, dst, n, dedup=dedup, drop_self_loops=drop_self_loops
        )
        got = (g.indptr, g.indices, g.in_indptr, g.in_indices)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == np.int64
        # unsorted rows handed to the constructor sort the same way
        perm = np.random.default_rng(0).permutation(g.num_edges)
        src_rows = np.repeat(np.arange(n), np.diff(g.indptr))
        order = np.lexsort((perm, src_rows))
        raw = CSRGraph(g.indptr, g.indices[order])
        np.testing.assert_array_equal(raw.indices, g.indices)
