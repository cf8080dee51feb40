"""Phase plans: the Method 1/2 pipelines as explicit phase sequences.

Both paper pipelines are straight-line sequences of phases over one
:class:`~repro.core.state.SCCState`.  Expressing them as a list of
:class:`PhaseSpec` (instead of inline calls) gives
:meth:`repro.engine.Engine.run` the boundaries its phase loop works
at: a deadline check, an integrity seal or a checkpoint
(:mod:`repro.runtime.lifecycle`) can sit at any phase boundary, a
resumed run re-enters at the first incomplete phase, and a per-phase
timeout bounds exactly one phase.

The plain runners (:func:`repro.core.method1.method1_scc`, ...) iterate
the same plan through :func:`run_plan`, with none of those duties, so
there is exactly one definition of each pipeline.

Phases communicate through a ``ctx`` mapping.  The only cross-phase
payload today is ``ctx["queue"]`` — the phase-2 work items, a list of
``(color, nodes-or-None)`` pairs — which checkpoints serialize.  The
phase-2 executors also read ``ctx["deadline"]`` (an absolute
``time.monotonic()`` bound) and ``ctx["session"]`` (the warm session
whose pool they reuse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, MutableMapping, Sequence

from .state import SCCState

__all__ = ["PhaseSpec", "run_plan"]


@dataclass(frozen=True)
class PhaseSpec:
    """One pipeline phase.

    ``name`` is unique within a plan (checkpoint identity); ``timer``
    is the wall-timer / trace label, shared by repeated phases (both
    trims accumulate under ``"par_trim"``, exactly as the inline
    pipelines did).
    """

    name: str
    timer: str
    fn: Callable[[SCCState, MutableMapping], None]


def run_plan(
    state: SCCState,
    plan: Sequence[PhaseSpec],
    ctx: MutableMapping | None = None,
) -> MutableMapping:
    """Execute ``plan`` in order with per-phase wall timers; returns
    the final ``ctx``.  The plain runners' loop: the engine drives the
    same plans through its own loop, which adds the run-level duties
    (deadline, faults, integrity, checkpoints) at each boundary."""
    ctx = {} if ctx is None else ctx
    for ph in plan:
        with state.profile.wall_timer(ph.timer):
            ph.fn(state, ctx)
    return ctx
