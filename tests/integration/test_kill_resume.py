"""Kill-then-resume integration: SIGKILL survival, bit-identical labels.

A child process runs a checkpointed Method 2 pipeline and SIGKILLs
*itself* at a deterministic point — a phase boundary before the
checkpoint is written, one after, or in the middle of the phase-2
task loop.  The parent then resumes from the surviving checkpoints and
requires labels bit-identical to an uninterrupted reference run, on
both kernel backends (``numpy`` and the ``numba`` registry entry,
which falls back to the tuned-NumPy fastpath when numba is absent).

Excluded from tier-1; run with ``pytest -m chaos``.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from tests.conftest import ring_of_rings

pytestmark = pytest.mark.chaos

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)

CHILD = textwrap.dedent(
    """
    import os, signal, sys
    import numpy as np
    from repro.core.method2 import method2_phases
    from repro.engine import Engine
    from repro.graph import load_npz
    from repro.runtime import FaultPlan

    mode, ckpt_dir, out = sys.argv[1], sys.argv[2], sys.argv[3]
    g = load_npz(os.path.join(ckpt_dir, "graph.npz"))
    engine = Engine(canonical=False)

    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    if mode == "ref":
        res = engine.run(g, seed=9)
        np.save(out, res.labels)
    elif mode == "resume":
        res = engine.resume(ckpt_dir)
        np.save(out, res.labels)
        sys.stderr.write(f"resumed at {res.lifecycle.resumed_phase}\\n")
    elif mode.startswith("kill-boundary:"):
        _, name, when = mode.split(":")
        target = [ph.name for ph in method2_phases()].index(name)

        class Lethal(FaultPlan):
            # the phase-site fault hook: "mid" = phase done, checkpoint
            # not yet written; "post" = checkpoint published
            def fire(self, site, index, *, stage, **kw):
                if site == "phase" and index == target and stage == when:
                    die()

        engine.run(g, seed=9, checkpoint_dir=ckpt_dir, fault_plan=Lethal())
        raise SystemExit("hook never fired")
    elif mode == "kill-mid-phase2":
        import repro.core.recurfwbw as rf
        count = [0]   # tasks, not calls: a batch runs many
        def lethal(real, n_tasks):
            def body(state, unit, **kw):
                if count[0] >= 4:   # mid-drain, after real SCC commits
                    die()
                count[0] += n_tasks(unit)
                return real(state, unit, **kw)
            return body
        rf.recur_fwbw_task = lethal(rf.recur_fwbw_task, lambda item: 1)
        rf.recur_fwbw_batch_task = lethal(rf.recur_fwbw_batch_task, len)
        engine.run(g, seed=9, checkpoint_dir=ckpt_dir)
        raise SystemExit("phase 2 drained before task 5")
    else:
        raise SystemExit(f"bad mode {mode}")
    """
)


def run_child(script_dir, mode, ckpt_dir, out, kernels):
    env = dict(os.environ, REPRO_KERNELS=kernels)
    env["PYTHONPATH"] = REPO_SRC
    return subprocess.run(
        [sys.executable, os.path.join(script_dir, "child.py"),
         mode, str(ckpt_dir), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=90,
    )


@pytest.fixture
def arena(tmp_path):
    from repro.graph import save_npz

    (tmp_path / "child.py").write_text(CHILD)
    ckpt = tmp_path / "ckpts"
    ckpt.mkdir()
    save_npz(ring_of_rings(), ckpt / "graph.npz")
    return tmp_path


@pytest.mark.parametrize("kernels", ["numpy", "numba"])
@pytest.mark.parametrize(
    "kill_mode",
    [
        "kill-boundary:par_fwbw:mid",    # phase done, checkpoint not yet
        "kill-boundary:par_wcc:post",    # checkpoint just published
        "kill-mid-phase2",               # mid task-queue drain
    ],
)
def test_sigkill_then_resume_bit_identical(arena, kernels, kill_mode):
    ckpt = arena / "ckpts"
    ref = run_child(arena, "ref", ckpt, arena / "ref.npy", kernels)
    assert ref.returncode == 0, ref.stderr

    killed = run_child(arena, kill_mode, ckpt, arena / "x.npy", kernels)
    assert killed.returncode == -9, (
        f"child should die by SIGKILL, got rc={killed.returncode}: "
        f"{killed.stderr}"
    )
    survivors = [
        f for f in os.listdir(ckpt) if f.endswith(".ckpt.npz")
    ]
    assert survivors, "no checkpoint survived the kill"

    resumed = run_child(
        arena, "resume", ckpt, arena / "resumed.npy", kernels
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "resumed at" in resumed.stderr

    ref_labels = np.load(arena / "ref.npy")
    res_labels = np.load(arena / "resumed.npy")
    assert np.array_equal(res_labels, ref_labels), (
        f"labels diverged after {kill_mode} on kernels={kernels}"
    )


def test_torn_checkpoint_plus_resume(arena):
    """Kill mid-phase-2, corrupt the newest surviving checkpoint, and
    still recover bit-identically from the one before it."""
    ckpt = arena / "ckpts"
    ref = run_child(arena, "ref", ckpt, arena / "ref.npy", "numpy")
    assert ref.returncode == 0, ref.stderr
    killed = run_child(arena, "kill-mid-phase2", ckpt, arena / "x", "numpy")
    assert killed.returncode == -9
    names = sorted(
        f for f in os.listdir(ckpt) if f.endswith(".ckpt.npz")
    )
    path = ckpt / names[-1]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))

    resumed = run_child(arena, "resume", ckpt, arena / "r.npy", "numpy")
    assert resumed.returncode == 0, resumed.stderr
    assert np.array_equal(
        np.load(arena / "r.npy"), np.load(arena / "ref.npy")
    )


@pytest.mark.slow
def test_streaming_reader_rss_is_bounded(tmp_path):
    """~10M-edge list parses with peak RSS far below what a
    read-everything-then-parse loader needs (the acceptance bound)."""
    rng = np.random.default_rng(0)
    block = rng.integers(0, 1_000_000, size=(1_000_000, 2))
    block_text = (
        "\n".join(f"{s} {d}" for s, d in block) + "\n"
    ).encode()
    big = tmp_path / "big.txt"
    with open(big, "wb") as f:
        for _ in range(10):
            f.write(block_text)

    script = textwrap.dedent(
        """
        import resource, sys
        from repro.graph import read_edge_list
        g = read_edge_list(sys.argv[1], dedup=False)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{g.num_edges} {peak_mb:.0f}")
        """
    )
    (tmp_path / "reader.py").write_text(script)
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "reader.py"), str(big)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    edges, peak_mb = proc.stdout.split()
    assert int(edges) == 10_000_000
    # 10M int64 edge pairs are ~160 MB; CSR build transients push the
    # floor up, but a loader that materialised all lines as Python
    # strings would need several GB.  1.5 GB is the regression fence.
    assert float(peak_mb) < 1500, f"peak RSS {peak_mb} MB"
