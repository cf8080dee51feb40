"""The stream-rw read gate on a synthetic journal."""

import json

from run import Journal


def _journal(tmp_path, events):
    path = tmp_path / "j.ndjson"
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return Journal(str(path))


def _update(seq, version, crc):
    return [
        {"event": "accepted", "seq": seq,
         "request": {"op": "update", "id": f"b{seq}"}},
        {"event": "completed", "seq": seq, "ok": True, "version": version,
         "labels_crc32": crc},
    ]


def _read(version, crc):
    return {"id": "r", "ok": True, "version": version, "crc": crc}


def test_reads_must_answer_the_expected_committed_version(tmp_path):
    events = (
        _update(0, 0, 100)
        + [{"event": "accepted", "seq": 1, "request": {"op": "run"}},
           {"event": "completed", "seq": 1, "ok": True, "version": 0,
            "labels_crc32": 555}]
        + _update(2, 1, 111)
    )
    journal = _journal(tmp_path, events)
    assert journal.crc == {0: 100, 1: 111}  # run completions are not commits
    assert journal.read_ok(_read(1, 111), 1)
    # v0's labels stamped v1, as a read racing the commit would answer
    assert not journal.read_ok(_read(1, 100), 1)
    # a right answer for another version than the one expected
    assert not journal.read_ok(_read(0, 100), 1)
    assert not journal.read_ok(_read(1, 999), 1)
    assert not journal.read_ok(_read(7, 111), 7)
    assert not journal.read_ok(dict(_read(1, 111), ok=False), 1)
