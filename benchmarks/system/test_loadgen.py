"""The stream-rw generator's view of the consumer's checkpoint."""

import json
import os
import threading
import time

from loadgen import _Watermark


def _commit(path, offset):
    """Replace the checkpoint the way the consumer does."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump({"payload": json.dumps({"offset": offset})}, fh)
    os.replace(tmp, path)


def test_wait_returns_once_the_offset_is_committed(tmp_path):
    path = str(tmp_path / "feed.ckpt")
    mark = _Watermark(path)
    assert mark.poll() == -1
    _commit(path, 10)
    timer = threading.Timer(0.05, _commit, (path, 20))
    timer.start()
    t0 = time.monotonic()
    try:
        assert mark.wait(20, timeout=5.0)
    finally:
        timer.join()
        mark.close()
    assert 0.04 <= time.monotonic() - t0 < 1.0
    assert mark.poll() == 20


def test_wait_gives_up_at_the_timeout(tmp_path):
    path = str(tmp_path / "feed.ckpt")
    _commit(path, 10)
    mark = _Watermark(path)
    try:
        assert not mark.wait(20, timeout=0.05)
        assert mark.wait(10, timeout=0.05)
    finally:
        mark.close()
