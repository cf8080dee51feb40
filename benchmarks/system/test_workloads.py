"""Seeded inputs: same seed, same bytes; another seed, other bytes
of the same shape.

Run with ``PYTHONPATH=src python -m pytest benchmarks/system``.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from workloads import (
    DELETES_PER_BATCH,
    INSERTS_PER_BATCH,
    WORKLOADS,
    edit_batches,
    make_inputs,
)


def test_workloads_match_benchmark_json():
    with open(Path(__file__).resolve().parents[2] / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def _inputs(base: Path, monkeypatch, name: str, seed: int) -> dict:
    base.mkdir()
    monkeypatch.chdir(base)
    out = make_inputs(WORKLOADS[name], seed, seconds=2)
    paths = out["files"] + ([out["edits"]] if out["edits"] else [])
    return {Path(p).name: (base / p).read_bytes() for p in paths}


@pytest.mark.parametrize("name", ["serve-small", "stream-rw"])
def test_same_seed_gives_identical_bytes(tmp_path, monkeypatch, name):
    a = _inputs(tmp_path / "a", monkeypatch, name, 1)
    b = _inputs(tmp_path / "b", monkeypatch, name, 1)
    assert a.keys() == b.keys()
    assert a == b


@pytest.mark.parametrize("name", ["serve-small", "stream-rw"])
def test_different_seeds_give_different_inputs(tmp_path, monkeypatch, name):
    a = _inputs(tmp_path / "a", monkeypatch, name, 1)
    b = _inputs(tmp_path / "b", monkeypatch, name, 2)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] != b[key], key


def _edges(data: bytes) -> np.ndarray:
    return np.loadtxt(io.BytesIO(data), dtype=np.int64, comments="#",
                      ndmin=2)


def _degree_multisets(edges: np.ndarray):
    return [sorted(d for d in np.bincount(edges[:, c]).tolist() if d)
            for c in (0, 1)]


def test_seeds_relabel_one_shape(tmp_path, monkeypatch):
    a = _inputs(tmp_path / "a", monkeypatch, "serve-small", 1)
    b = _inputs(tmp_path / "b", monkeypatch, "serve-small", 2)
    for key in a:
        ea, eb = _edges(a[key]), _edges(b[key])
        assert len(ea) == len(eb)
        assert _degree_multisets(ea) == _degree_multisets(eb), key


def test_edit_stream_applies_to_the_relabelled_file(tmp_path, monkeypatch):
    inputs = _inputs(tmp_path / "a", monkeypatch, "stream-rw", 2)
    base = _edges(inputs["wiki-0.2.txt"])
    n = int(base.max()) + 1
    live = set(map(tuple, base.tolist()))
    for line in inputs["edits.txt"].decode().splitlines():
        op, u, v = line.split()
        e = (int(u), int(v))
        assert e[0] < n and e[1] < n
        if op == "+":
            assert e not in live
            live.add(e)
        else:
            live.remove(e)


def test_every_edit_changes_the_graph():
    edges = [(u, (u + 1) % 50) for u in range(50)] + [(0, 25), (25, 0)]
    live = set(edges)
    for batch in edit_batches(edges, 50, seed=3, batches=40):
        assert len(batch) == INSERTS_PER_BATCH + DELETES_PER_BATCH
        assert len({(u, v) for _, u, v in batch}) == len(batch)
        for op, u, v in batch:
            if op == "+":
                assert (u, v) not in live and u != v
                live.add((u, v))
            else:
                assert (u, v) in live
                live.remove((u, v))
