"""Checkpoint file format (v1) for resumable pipeline runs.

:meth:`repro.engine.Engine.run` with ``checkpoint_dir`` publishes one
atomic, CRC-verified checkpoint after every Method 1/2 phase
(:mod:`repro.core.phases`); :meth:`repro.engine.Engine.resume` picks
the run up at the first incomplete phase.  A checkpoint holds
everything the next phase needs:

* the :class:`~repro.core.state.SCCState` arrays (``color``, ``mark``,
  ``labels``, ``phase_of``) and counters,
* the phase-2 work-queue contents (the ``(color, nodes)`` items),
* the pivot RNG state — restoring it makes a resumed run re-draw the
  exact pivot sequence, so resumed labels are **bit-identical** to an
  uninterrupted run (serial phase-2 driver),
* the run configuration and a CRC fingerprint of the input graph.

The input graph is persisted once per run beside the checkpoints
(:data:`GRAPH_FILENAME`).  A torn or bit-rotted checkpoint is detected
by its CRC, and :func:`latest_checkpoint` falls back to the newest
older checkpoint that verifies.  This module owns only the format:
writing, reading, and mapping a checkpoint back onto a state and a
run configuration.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CheckpointError
from ..ioutil import atomic_path, crc32_chunks
from .supervisor import SupervisorConfig

__all__ = [
    "CHECKPOINT_VERSION",
    "GRAPH_FILENAME",
    "run_meta",
    "run_config",
    "write_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "restore_state",
]

PathLike = Union[str, os.PathLike]

CHECKPOINT_VERSION = 1

#: file the input graph is persisted to, once per checkpointed run.
GRAPH_FILENAME = "graph.npz"

#: checkpointed array payload, in CRC order.
_CKPT_ARRAYS = (
    "color",
    "mark",
    "labels",
    "phase_of",
    "q_colors",
    "q_has_nodes",
    "q_offsets",
    "q_nodes",
)


# ---------------------------------------------------------------------------
# Queue / configuration serialization
# ---------------------------------------------------------------------------
def _serialize_queue(
    queue: Sequence[Tuple[int, Optional[np.ndarray]]]
) -> dict:
    colors = np.array([c for c, _ in queue], dtype=np.int64)
    has_nodes = np.array([nd is not None for _, nd in queue], dtype=bool)
    parts = [
        np.asarray(nd, dtype=np.int64)
        if nd is not None
        else np.empty(0, np.int64)
        for _, nd in queue
    ]
    sizes = np.array([p.size for p in parts], dtype=np.int64)
    offsets = np.concatenate(
        ([0], np.cumsum(sizes, dtype=np.int64))
    )
    nodes = (
        np.concatenate(parts) if parts else np.empty(0, np.int64)
    )
    return {
        "q_colors": colors,
        "q_has_nodes": has_nodes,
        "q_offsets": offsets,
        "q_nodes": nodes,
    }


def _deserialize_queue(
    arrays: Mapping[str, np.ndarray]
) -> List[Tuple[int, Optional[np.ndarray]]]:
    colors = arrays["q_colors"]
    has_nodes = arrays["q_has_nodes"]
    offsets = arrays["q_offsets"]
    nodes = arrays["q_nodes"]
    items: List[Tuple[int, Optional[np.ndarray]]] = []
    for i in range(colors.size):
        if has_nodes[i]:
            items.append(
                (int(colors[i]), nodes[offsets[i]:offsets[i + 1]].copy())
            )
        else:
            items.append((int(colors[i]), None))
    return items


def _supervisor_to_dict(cfg: Optional[SupervisorConfig]) -> Optional[dict]:
    if cfg is None:
        return None
    # fault_plan is a test/demo-only injection channel; deliberately
    # not persisted — a resumed production run must not replay faults.
    return {
        "task_timeout": cfg.task_timeout,
        "max_task_retries": cfg.max_task_retries,
        "backoff_base": cfg.backoff_base,
        "grace": cfg.grace,
    }


def run_meta(
    *,
    method: str,
    seed: int | None,
    backend: str,
    num_workers: int,
    phase_timeout: Optional[float],
    supervisor: Optional[SupervisorConfig],
    method_kwargs: Mapping,
    plan: Sequence[str],
    graph_crc: int,
    graph_version: int,
) -> dict:
    """The run-level fields every checkpoint of one run records.

    ``graph_crc`` is the graph identity (the engine's session
    fingerprint); ``graph_version`` the mutation epoch of the session
    the run executed on (0 for frozen graphs) — resume refuses a
    mutable session that has moved on since.  Raises ``ValueError``
    when ``method_kwargs`` is not JSON-serializable: a checkpoint must
    be able to rebuild the plan.
    """
    from ..kernels import backend_info

    try:
        json.dumps(dict(method_kwargs))
    except TypeError as exc:
        raise ValueError(
            "checkpointed runs require JSON-serializable method "
            f"kwargs ({exc})"
        ) from exc
    return {
        "version": CHECKPOINT_VERSION,
        "method": method,
        "plan": list(plan),
        "seed": seed,
        "backend": backend,
        "num_threads": num_workers,
        "phase_timeout": phase_timeout,
        "supervisor": _supervisor_to_dict(supervisor),
        "config": dict(method_kwargs),
        "graph_crc": graph_crc,
        "graph_version": graph_version,
        "kernels": str(backend_info()["resolved"]),
    }


def run_config(meta: Mapping) -> dict:
    """:meth:`~repro.engine.Engine.run` keywords that continue the run
    a checkpoint recorded (method, seed, executor, budgets and method
    options).

    Older checkpoints may record options that no longer exist — the
    supervisor's ``verify``/``always_cross_check`` (verification is
    now unconditional) and Method 1/2's batch-tail switch (the tail is
    always batched).  Labels depend on none of them, so whatever the
    current :class:`SupervisorConfig` and method signature do not take
    is dropped.
    """
    from ..engine.backends import BACKEND_NAMES
    from ..engine.engine import method_options

    backend = meta["backend"]
    if backend not in BACKEND_NAMES:
        # v1 checkpoints may name the retired "threads"/"processes"
        # executors; the serial driver is the reference for both.
        backend = "serial"
    supervisor = meta.get("supervisor")
    if supervisor is not None:
        fields = {f.name for f in dataclasses.fields(SupervisorConfig)}
        supervisor = SupervisorConfig(
            **{k: v for k, v in supervisor.items() if k in fields}
        )
    known = method_options(meta["method"])
    config = {k: v for k, v in meta["config"].items() if k in known}
    return dict(
        method=meta["method"],
        seed=meta["seed"],
        backend=backend,
        num_workers=meta["num_threads"],
        phase_timeout=meta.get("phase_timeout"),
        supervisor=supervisor,
        **config,
    )


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------
def write_checkpoint(
    directory: PathLike, index: int, state, queue, meta: Mapping
) -> str:
    """Publish the checkpoint taken after phase ``index`` of the plan
    ``meta`` (from :func:`run_meta`) describes; returns its path.

    It holds the state arrays, counters and pivot RNG, plus the
    phase-2 queue (``None`` before the queue exists).
    """
    name = meta["plan"][index]
    arrays = {
        "color": state.color,
        "mark": state.mark,
        "labels": state.labels,
        "phase_of": state.phase_of,
    }
    arrays.update(_serialize_queue(queue if queue is not None else []))
    path = os.path.join(
        os.fspath(directory), f"phase-{index:02d}-{name}.ckpt.npz"
    )
    save_checkpoint(
        path,
        arrays,
        dict(
            meta,
            phase_index=index,
            phase_name=name,
            num_sccs=int(state.num_sccs),
            next_color=int(state.color_watermark()),
            rng_state=state.rng_state(),
            has_queue=queue is not None,
        ),
    )
    return path


def save_checkpoint(
    path: PathLike, arrays: Mapping[str, np.ndarray], meta: dict
) -> None:
    """Atomically write one CRC-sealed checkpoint archive."""
    meta_json = json.dumps(meta, sort_keys=True)
    crc = crc32_chunks(
        *(np.ascontiguousarray(arrays[k]).tobytes() for k in _CKPT_ARRAYS),
        meta_json.encode(),
    )
    with atomic_path(path, suffix=".npz") as tmp:
        np.savez_compressed(
            tmp,
            meta=np.array(meta_json),
            crc=np.array(crc, dtype=np.uint32),
            **{k: arrays[k] for k in _CKPT_ARRAYS},
        )


def load_checkpoint(path: PathLike) -> Tuple[dict, dict]:
    """Load and CRC-verify one checkpoint -> ``(arrays, meta)``.

    Raises :class:`~repro.errors.CheckpointError` on any defect:
    unreadable archive, missing payload, CRC mismatch (torn write /
    bit rot), or an incompatible format version.
    """
    try:
        data = np.load(os.fspath(path), allow_pickle=False)
    except FileNotFoundError:
        raise CheckpointError("checkpoint does not exist", path=path)
    except Exception as exc:
        raise CheckpointError(
            f"unreadable checkpoint archive ({exc})", path=path
        ) from exc
    with data:
        missing = [
            k
            for k in _CKPT_ARRAYS + ("meta", "crc")
            if k not in data.files
        ]
        if missing:
            raise CheckpointError(
                f"checkpoint missing array(s) {missing}", path=path
            )
        try:
            arrays = {k: data[k] for k in _CKPT_ARRAYS}
            meta_json = str(data["meta"][()])
            stored_crc = int(data["crc"][()])
        except Exception as exc:
            raise CheckpointError(
                f"corrupt checkpoint payload ({exc})", path=path
            ) from exc
    crc = crc32_chunks(
        *(np.ascontiguousarray(arrays[k]).tobytes() for k in _CKPT_ARRAYS),
        meta_json.encode(),
    )
    if crc != stored_crc:
        raise CheckpointError(
            f"CRC mismatch (stored {stored_crc:#010x}, computed "
            f"{crc:#010x}): torn write or bit rot",
            path=path,
        )
    meta = json.loads(meta_json)
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {meta.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})",
            path=path,
        )
    return arrays, meta


def latest_checkpoint(
    where: PathLike,
) -> Tuple[str, dict, dict]:
    """Find the newest *valid* checkpoint -> ``(path, arrays, meta)``.

    ``where`` may be a single checkpoint file or a checkpoint
    directory.  Corrupt candidates are skipped (resume falls back to
    the newest older checkpoint that verifies); if nothing verifies,
    the raised :class:`CheckpointError` lists every candidate's defect.
    """
    where = os.fspath(where)
    if os.path.isdir(where):
        candidates = sorted(
            os.path.join(where, f)
            for f in os.listdir(where)
            if f.endswith(".ckpt.npz")
        )
    else:
        candidates = [where]
    if not candidates:
        raise CheckpointError("no checkpoint files found", path=where)
    best: Optional[Tuple[int, str, dict, dict]] = None
    defects: List[str] = []
    for path in candidates:
        try:
            arrays, meta = load_checkpoint(path)
        except CheckpointError as exc:
            defects.append(str(exc))
            continue
        key = int(meta["phase_index"])
        if best is None or key > best[0]:
            best = (key, path, arrays, meta)
    if best is None:
        raise CheckpointError(
            "no valid checkpoint among candidates: " + "; ".join(defects),
            path=where,
        )
    return best[1], best[2], best[3]


def restore_state(state, arrays: Mapping, meta: Mapping):
    """Load a checkpoint's arrays, counters and pivot RNG into
    ``state``; returns the phase-2 queue (None before it exists)."""
    from ..core.state import StateSnapshot

    state.restore(
        StateSnapshot(
            color=np.ascontiguousarray(arrays["color"], np.int64),
            mark=np.ascontiguousarray(arrays["mark"], bool),
            labels=np.ascontiguousarray(arrays["labels"], np.int64),
            phase_of=np.ascontiguousarray(arrays["phase_of"], np.int8),
            next_color=int(meta["next_color"]),
            num_sccs=int(meta["num_sccs"]),
        )
    )
    state.set_rng_state(meta["rng_state"])
    return _deserialize_queue(arrays) if meta["has_queue"] else None
