"""The ``update`` request type: validation, version monotonicity, CRC
agreement with full runs, journal version stamps, config plumbing."""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.result import canonical_labels
from repro.core.tarjan import tarjan_scc
from repro.engine.dynamic import DynamicSCC
from repro.generators import generate
from repro.graph.delta import DeltaCSR
from repro.ioutil import crc32_chunks
from repro.service.journal import scan_journal
from repro.service.server import SCCService, ServiceConfig

GRAPH, SCALE = "wiki", 0.05


def in_process_service(**kwargs):
    return SCCService(
        ServiceConfig(worker_processes=0, **kwargs)
    )


def oracle_crc(edits):
    """CRC of canonical labels after applying ``edits`` from scratch."""
    g = generate(GRAPH, scale=SCALE, seed=None).graph
    delta = DeltaCSR(g)
    for ins, u, v in edits:
        (delta.add_edge if ins else delta.remove_edge)(u, v)
    labels = canonical_labels(tarjan_scc(delta.snapshot()))
    return crc32_chunks(labels.tobytes())


def merging_edge():
    """``(b, a)`` closing a cycle through a cross-SCC edge ``a -> b``:
    inserting it merges two SCCs, so the labels visibly change."""
    g = generate(GRAPH, scale=SCALE, seed=None).graph
    labels = canonical_labels(tarjan_scc(g))
    src = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    cross = np.flatnonzero(labels[src] != labels[g.indices])[0]
    return int(g.indices[cross]), int(src[cross])


def update_request(inserts=(), deletes=(), **extra):
    req = {
        "op": "update",
        "graph": GRAPH,
        "scale": SCALE,
        "inserts": [list(e) for e in inserts],
        "deletes": [list(e) for e in deletes],
    }
    req.update(extra)
    return req


class TestValidation:
    def test_unknown_key_rejected(self):
        svc = in_process_service()
        try:
            resp = svc.handle(update_request(bogus=1))
            assert not resp["ok"]
            assert "bogus" in resp["error"]
        finally:
            svc.close()

    def test_non_positive_compact_ratio_refused_at_start(self):
        # refused when the service starts, not by every later update
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="compact_ratio"):
                in_process_service(compact_ratio=bad)

    def test_graph_required(self):
        svc = in_process_service()
        try:
            req = update_request()
            del req["graph"]
            resp = svc.handle(req)
            assert not resp["ok"]
            assert "graph" in resp["error"]
        finally:
            svc.close()

    def test_malformed_pairs_rejected(self):
        svc = in_process_service()
        try:
            for bad in ([[1]], [[1, 2, 3]], [["a", "b"]], "nope", [1]):
                resp = svc.handle(
                    {"op": "update", "graph": GRAPH, "inserts": bad}
                )
                assert not resp["ok"], bad
        finally:
            svc.close()

    def test_out_of_range_batch_lands_no_edit(self):
        """A batch whose last endpoint is out of range is refused before
        its first edit lands, so the session stays sealed at the last
        committed version: the next read answers it on the first try,
        with nothing quarantined."""
        svc = in_process_service()
        try:
            first = svc.handle(update_request(inserts=[merging_edge()]))
            assert first["ok"] and first["graph_version"] == 1
            bad = svc.handle(
                update_request(inserts=[(1, 9), (2, 11), (1_000_000, 0)])
            )
            assert not bad["ok"]
            assert bad["error_type"] == "ValueError"
            assert not bad["transient"]
            run = svc.handle({"op": "run", "graph": GRAPH, "scale": SCALE})
            assert run["ok"], run
            assert run["graph_version"] == 1
            assert run["labels_crc32"] == first["labels_crc32"]
            assert run["attempts"] == 1
            integrity = svc.stats()["integrity"]
            assert integrity["quarantines"] == 0
            assert integrity["detected"] == 0
        finally:
            svc.close()


class TestUpdateSemantics:
    def test_version_monotone_and_crc_matches_run(self, tmp_path):
        journal = tmp_path / "requests.ndjson"
        svc = in_process_service(journal_path=str(journal))
        edits = []
        try:
            run0 = svc.handle(
                {"op": "run", "graph": GRAPH, "scale": SCALE}
            )
            assert run0["ok"]
            assert run0["graph_version"] == 0
            rng = np.random.default_rng(5)
            n = 0
            versions = []
            for _ in range(4):
                ins = [
                    [int(a), int(b)]
                    for a, b in rng.integers(0, 2000, (6, 2))
                ]
                dels = [
                    [int(a), int(b)]
                    for a, b in rng.integers(0, 2000, (3, 2))
                ]
                resp = svc.handle(
                    update_request(inserts=ins, deletes=dels)
                )
                assert resp["ok"], resp
                versions.append(resp["graph_version"])
                edits.extend((True, u, v) for u, v in ins)
                edits.extend((False, u, v) for u, v in dels)
            assert versions == sorted(versions)
            assert versions[-1] >= 1
            # the update CRC is the run CRC is the oracle CRC
            want = oracle_crc(edits)
            assert resp["labels_crc32"] == want
            run1 = svc.handle(
                {"op": "run", "graph": GRAPH, "scale": SCALE}
            )
            assert run1["ok"]
            assert run1["labels_crc32"] == want
            assert run1["graph_version"] == versions[-1]
            # certified runs carry the graph epoch they labelled
            cert = run1.get("certificate")
            if cert is not None:
                assert cert["graph_version"] == versions[-1]
            stats = svc.stats()
            assert stats["updates"] == 4
            assert stats["updates_applied"] >= 1
        finally:
            svc.drain()
            svc.close()
        rec = scan_journal(journal)
        assert rec.balanced
        stamped = [rec.versions[s] for s in sorted(rec.versions)]
        assert stamped == versions

    def test_idempotent_replay_does_not_bump_version(self):
        svc = in_process_service()
        try:
            first = svc.handle(update_request(inserts=[(1, 2)]))
            assert first["ok"] and first["applied"]
            v = first["graph_version"]
            again = svc.handle(update_request(inserts=[(1, 2)]))
            assert again["ok"]
            assert not again["applied"]
            assert again["graph_version"] == v
            assert again["labels_crc32"] == first["labels_crc32"]
        finally:
            svc.close()

    def test_update_response_shape(self):
        svc = in_process_service()
        try:
            resp = svc.handle(update_request(inserts=[(0, 1)]))
            assert resp["ok"]
            for key in (
                "graph_version",
                "applied",
                "changed",
                "compacted",
                "inserts",
                "deletes",
                "num_sccs",
                "labels_crc32",
                "session_fingerprint",
                "stats",
                "seconds",
            ):
                assert key in resp, key
            assert resp["stats"]["inserts"] == 1
        finally:
            svc.close()

    def test_config_knobs_reach_the_engine(self):
        svc = in_process_service(compact_ratio=1e-9)
        try:
            resp = svc.handle(
                update_request(inserts=[(1, 2), (2, 1)])
            )
            assert resp["ok"]
            # a vanishing compact ratio forces compaction every batch
            assert resp["compacted"]
            session = svc.engine.load(GRAPH, scale=SCALE, seed=None)
            assert session.delta.log_size == 0
            # ... not only the one that promoted the session
            again = svc.handle(update_request(inserts=[(3, 4)]))
            assert again["ok"] and again["applied"]
            assert again["compacted"]
            assert session.delta.log_size == 0
        finally:
            svc.close()

    def test_per_request_knobs_refused(self, tmp_path):
        """The compact ratio is the service's (fixed when a session
        turns mutable), and a broken component has one split path: a
        request naming either knob is refused before admission."""
        journal = tmp_path / "requests.ndjson"
        svc = in_process_service(journal_path=str(journal))
        try:
            for key, value in (
                ("compact_ratio", 1e-9),
                ("damage_threshold", 1.0),
            ):
                resp = svc.handle(
                    update_request(inserts=[(3, 4)], **{key: value})
                )
                assert not resp["ok"]
                assert resp["error_type"] == "ValueError"
                assert not resp["transient"]
                assert key in resp["error"]
            session = svc.engine.load(GRAPH, scale=SCALE, seed=None)
            assert session.dynamic is None
        finally:
            svc.drain()
            svc.close()
        assert scan_journal(journal).accepted == 0


class TestMutableSessionIntegrity:
    def test_updates_keep_checksums_fresh(self):
        """Every update re-seals the delta arrays; a subsequent borrow
        must verify clean rather than tripping on stale sidecars."""
        svc = in_process_service()
        try:
            for i in range(5):
                resp = svc.handle(
                    update_request(inserts=[(i, i + 1)])
                )
                assert resp["ok"], resp
            run = svc.handle(
                {"op": "run", "graph": GRAPH, "scale": SCALE}
            )
            assert run["ok"]
            assert svc.stats()["integrity"]["detected"] == 0
        finally:
            svc.close()

    def test_dynamic_session_agrees_with_maintainer(self):
        svc = in_process_service()
        try:
            resp = svc.handle(
                update_request(inserts=[(10, 20), (20, 10)])
            )
            assert resp["ok"]
            session = svc.engine.load(GRAPH, scale=SCALE, seed=None)
            assert isinstance(session.dynamic, DynamicSCC)
            session.dynamic.verify()
            assert session.version == resp["graph_version"]
        finally:
            svc.close()


class TestMutableSessionEviction:
    def test_lru_pressure_keeps_committed_edits(self):
        """A full session cache must not evict a mutable session: its
        edits live nowhere else, and a reload would answer ``ok`` from
        the pre-update graph."""
        svc = in_process_service(max_sessions=1)
        try:
            update = svc.handle(update_request(inserts=[merging_edge()]))
            assert update["ok"] and update["graph_version"] == 1
            other = svc.handle({"op": "run", "graph": GRAPH, "scale": 0.03})
            assert other["ok"], other
            back = svc.handle({"op": "run", "graph": GRAPH, "scale": SCALE})
            assert back["ok"], back
            assert back["graph_version"] == update["graph_version"]
            assert back["labels_crc32"] == update["labels_crc32"]
        finally:
            svc.close()


class TestRunVersionStamp:
    def test_update_after_the_turn_does_not_restamp_the_run(self):
        """An update committing between the run's engine turn and its
        response must not relabel a ``v`` answer as ``v + 1``."""
        g = generate(GRAPH, scale=SCALE, seed=None).graph
        labels = canonical_labels(tarjan_scc(g))
        src = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
        cross = np.flatnonzero(labels[src] != labels[g.indices])[0]
        a, b = int(src[cross]), int(g.indices[cross])
        svc = in_process_service()
        try:
            first = svc.handle(update_request(inserts=[(1, 2)]))
            assert first["ok"] and first["applied"]
            session = svc.engine.load(GRAPH, scale=SCALE, seed=None)
            real_turn = svc._engine_turn
            raced = []

            @contextmanager
            def racing_turn():
                with real_turn():
                    yield
                if not raced:
                    # b -> a closes a cycle through the edge a -> b:
                    # the SCCs of a and b merge at version v + 1.
                    raced.append(svc.engine.update(session, [(b, a)], []))

            svc._engine_turn = racing_turn
            try:
                run = svc.handle(
                    {
                        "op": "run",
                        "graph": GRAPH,
                        "scale": SCALE,
                        "certify": "sample",
                    }
                )
            finally:
                svc._engine_turn = real_turn
            assert run["ok"], run
            (report,) = raced
            assert report.version == first["graph_version"] + 1
            assert report.labels_crc32 != first["labels_crc32"]
            # the answer was computed at v and says so, twice
            assert run["labels_crc32"] == first["labels_crc32"]
            assert run["graph_version"] == first["graph_version"]
            assert run["certificate"]["graph_version"] == (
                first["graph_version"]
            )
        finally:
            svc.close()


class TestProofLedgerAcrossVersions:
    """Each applied update starts a new graph version, so its certified
    runs prove afresh; a compaction keeps the version and the proofs.
    Every certificate equals a fresh, ledger-free one."""

    RUN = {"op": "run", "graph": GRAPH, "scale": SCALE, "certify": "sample"}

    def test_update_drops_the_ledger(self):
        svc = in_process_service()
        try:
            assert svc.handle(self.RUN)["ok"]
            assert svc.handle(self.RUN)["ok"]
            (sess,) = svc.engine.sessions
            ran, reused = sess.stats.proofs_run, sess.stats.proofs_reused
            assert ran > 0 and reused > 0
            upd = svc.handle(update_request(inserts=[merging_edge()]))
            assert upd["ok"] and upd["applied"]
            after = svc.handle(self.RUN)
            assert after["ok"] and after["graph_version"] == 1
            assert sess.stats.proofs_run > ran
            assert sess.stats.proofs_reused == reused
        finally:
            svc.close()

    def test_compaction_keeps_the_ledger(self):
        svc = in_process_service()
        try:
            upd = svc.handle(update_request(inserts=[merging_edge()]))
            assert upd["ok"] and upd["applied"]
            first = svc.handle(self.RUN)
            (sess,) = svc.engine.sessions
            ran = sess.stats.proofs_run
            folded = svc.handle(update_request(compact=True))
            assert folded["ok"] and folded["compacted"]
            assert folded["graph_version"] == first["graph_version"]
            again = svc.handle(self.RUN)
            assert again["certificate"] == first["certificate"]
            assert sess.stats.proofs_run == ran
        finally:
            svc.close()

    def test_certificates_match_fresh_ones_through_a_compaction(self):
        from repro.integrity import certify_result

        scale = 0.2
        g = generate(GRAPH, scale=scale, seed=None).graph
        src = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
        live = set(zip(src.tolist(), g.indices.tolist()))
        rng = np.random.default_rng(1)
        svc = in_process_service(compact_ratio=0.01)
        compactions = 0
        try:
            sess = svc.engine.load(GRAPH, scale=scale, seed=None)
            for batch in range(20):
                if batch:
                    inserts = set()
                    while len(inserts) < 12:
                        u, v = rng.integers(0, g.num_nodes, 2).tolist()
                        if u != v and (u, v) not in live:
                            inserts.add((u, v))
                    pool = sorted(live)
                    deletes = {
                        pool[i]
                        for i in rng.choice(len(pool), 12, replace=False)
                    }
                    live = (live | inserts) - deletes
                    upd = svc.handle(
                        update_request(
                            inserts=sorted(inserts),
                            deletes=sorted(deletes),
                            scale=scale,
                        )
                    )
                    assert upd["ok"] and upd["applied"], upd
                    compactions += upd["compacted"]
                labels = canonical_labels(tarjan_scc(sess.graph))
                for seed in (1, 2, 1):
                    run = svc.handle(dict(self.RUN, scale=scale, seed=seed))
                    assert run["ok"], run
                    assert run["labels_crc32"] == crc32_chunks(
                        labels.tobytes()
                    )
                    fresh = certify_result(sess.graph, labels, seed=seed)
                    assert run["certificate"] == dict(
                        fresh, graph_version=run["graph_version"]
                    )
            assert compactions >= 1
            assert sess.stats.proofs_reused > 0
        finally:
            svc.close()
