"""Tests for warm graph sessions and the engine's session cache."""

import numpy as np
import pytest

from repro.core import tarjan_scc
from repro.core.result import canonical_labels
from repro.engine import Engine, GraphSession, graph_fingerprint
from repro.engine.pool import fork_available
from repro.integrity import certify_result
from tests.conftest import random_digraph

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires POSIX fork"
)


class TestFingerprint:
    def test_stable_across_reloads(self):
        a = random_digraph(60, 200, seed=3)
        b = random_digraph(60, 200, seed=3)
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_distinguishes_graphs(self):
        a = random_digraph(60, 200, seed=3)
        b = random_digraph(60, 200, seed=4)
        assert graph_fingerprint(a) != graph_fingerprint(b)


class TestSessionCaching:
    def test_transpose_built_once(self):
        g = random_digraph(80, 300, seed=0)
        with GraphSession(g) as sess:
            sess.ensure_transpose()
            assert sess.stats.transpose_seconds >= 0.0
            before = sess.stats.transpose_reuses
            sess.ensure_transpose()
            sess.ensure_transpose()
            assert sess.stats.transpose_reuses == before + 2

    def test_degrees_and_validation_cached(self):
        g = random_digraph(80, 300, seed=1)
        with GraphSession(g) as sess:
            d1 = sess.effective_degrees()
            d2 = sess.effective_degrees()
            assert d1 is d2
            sess.validate()
            t = sess.stats.validate_seconds
            sess.validate()  # second call is a cache hit
            assert sess.stats.validate_seconds == t

    def test_closed_session_guards(self):
        sess = GraphSession(random_digraph(10, 30, seed=2))
        sess.close()
        sess.close()  # idempotent
        assert sess.closed
        with pytest.raises(RuntimeError):
            sess.ensure_transpose()


class TestProofLedger:
    def certify(self, sess):
        labels = canonical_labels(tarjan_scc(sess.graph))
        return certify_result(sess.graph, labels, ledger=sess.proofs)

    def test_counted_into_the_session_stats(self):
        with GraphSession(random_digraph(80, 300, seed=1)) as sess:
            first = self.certify(sess)
            assert self.certify(sess) == first
            stats = sess.stats.to_dict()
        assert stats["proofs_run"] == len(first["sampled"])
        assert stats["proofs_reused"] == len(first["sampled"])

    def test_estimated_bytes_include_the_labels_copy(self):
        g = random_digraph(80, 300, seed=1)
        with GraphSession(g) as sess:
            sess.ensure_transpose()  # the backward proofs build it
            before = sess.estimated_bytes()
            self.certify(sess)
            grown = sess.estimated_bytes() - before
            assert grown == sess.proofs.nbytes
            assert grown >= g.num_nodes * 8

    def test_one_ledger_per_graph_version(self):
        with Engine() as eng:
            sess = eng.session(random_digraph(80, 300, seed=1))
            self.certify(sess)
            ledger = sess.proofs
            assert sess.proofs is ledger
            eng.update(sess, [(0, 1)], [])
            assert sess.version == 1
            assert sess.proofs is not ledger
            ran = sess.stats.proofs_run
            self.certify(sess)
            assert sess.stats.proofs_run > ran
            sess.close()
            assert sess._proofs is None


class TestEngineSessionCache:
    def test_dedup_by_fingerprint(self):
        g = random_digraph(50, 150, seed=5)
        same = random_digraph(50, 150, seed=5)
        with Engine() as eng:
            assert eng.session(g) is eng.session(same)
            assert len(eng.sessions) == 1

    def test_session_passthrough(self):
        g = random_digraph(50, 150, seed=5)
        with Engine() as eng:
            sess = eng.session(g)
            assert eng.session(sess) is sess

    def test_lru_eviction_closes(self):
        with Engine(max_sessions=2) as eng:
            s1 = eng.session(random_digraph(30, 90, seed=1))
            s2 = eng.session(random_digraph(30, 90, seed=2))
            s3 = eng.session(random_digraph(30, 90, seed=3))
            assert s1.closed  # least recently used got evicted
            assert not s2.closed and not s3.closed
            assert len(eng.sessions) == 2

    def test_load_dataset_cached_by_source(self):
        with Engine() as eng:
            s1 = eng.load("wiki", scale=0.05)
            s2 = eng.load("wiki", scale=0.05)
            assert s1 is s2
            assert s1.name == "wiki"

    def test_close_closes_sessions(self):
        eng = Engine()
        sess = eng.session(random_digraph(30, 90, seed=6))
        eng.close()
        assert sess.closed
        with pytest.raises(RuntimeError):
            eng.session(random_digraph(10, 20, seed=0))


@needs_fork
class TestWarmPool:
    def test_pool_reused_for_same_signature(self):
        g = random_digraph(60, 200, seed=9)
        with GraphSession(g) as sess:
            mirror1, pool1 = sess.executor_resources(num_workers=2)
            mirror2, pool2 = sess.executor_resources(num_workers=2)
            assert mirror1 is mirror2
            assert pool1 is pool2
            assert sess.stats.pool_spawns == 1
            assert sess.stats.pool_reuses == 1

    def test_pool_respawned_on_config_change(self):
        g = random_digraph(60, 200, seed=9)
        with GraphSession(g) as sess:
            _, pool1 = sess.executor_resources(num_workers=2)
            _, pool2 = sess.executor_resources(num_workers=3)
            assert pool1 is not pool2
            assert not pool1.alive  # the old pool was torn down
            assert sess.stats.pool_spawns == 2

    def test_condemned_pool_replaced(self):
        """A pool condemned mid-run (timeout, dead worker) must not be
        handed out again."""
        g = random_digraph(60, 200, seed=9)
        with GraphSession(g) as sess:
            _, pool1 = sess.executor_resources(num_workers=2)
            pool1.terminate()
            _, pool2 = sess.executor_resources(num_workers=2)
            assert pool2 is not pool1
            assert pool2.alive
            assert sess.stats.pool_spawns == 2

    def test_warmup_forks_eagerly(self):
        g = random_digraph(60, 200, seed=9)
        with GraphSession(g) as sess:
            sess.warmup(processes=True, num_workers=2)
            assert sess.stats.pool_spawns == 1
            assert g._in_indptr is not None
