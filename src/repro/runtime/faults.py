"""Deterministic fault injection for the execution backends.

A :class:`FaultPlan` is a seedable, fully deterministic description of
*which* task executions fail and *how*: a worker process can be killed
mid-task (``crash``), a task can be delayed past its deadline
(``hang``), an exception can be raised inside the task body
(``raise``), a shared-memory label write can be silently corrupted
(``poison``), or seeded bit flips can be driven into a named warm
array (``corrupt`` — the silent-data-corruption drill the integrity
tier detects).  The plan is matched against ``(site, index, attempt)``
triples that the *dispatcher* assigns — not against per-process event
counters — so injection stays deterministic across forked workers,
pool rebuilds and retries.  Each call site matches only the kinds it
applies (:meth:`FaultPlan.fire` the control kinds at its stage,
:meth:`FaultPlan.poison`, :meth:`FaultPlan.network` and
:meth:`FaultPlan.corruptions` their own), so specs of different kinds
armed at one point all fire, whatever their order in the plan.

Injection sites:

* ``"task"`` — a phase-2 Recur-FWBW task in a supervised worker
  (:func:`repro.runtime.mp_backend.exec_unit`, which runs the serial
  task bodies); the supervisor numbers every task with a monotone
  sequence id, and every member of a batched unit keeps its own.
* ``"phase"`` — the pipeline phases of :meth:`repro.engine.Engine.run`
  (and its resume entry point); the index is the phase position in
  the plan and the stage maps to the checkpoint boundary (``"pre"`` =
  phase entry, ``"mid"`` = phase done but checkpoint not yet written,
  ``"post"`` = checkpoint published) — the kill-and-resume tests crash
  the run at exact boundaries, and ``corrupt`` drills rot warm arrays
  there.
* ``"request"`` — the serve pipeline (:mod:`repro.service.server`),
  which ``repro serve`` and ``repro batch`` share; the index is the
  request's sequence number, counted before its check (a batch job's
  is its manifest position), and the attempt number is the retry
  policy's attempt, so a transient fault with the default ``times=1``
  fails the first attempt and lets the second through.  ``crash`` is
  downgraded to ``raise`` here (``thread_site``): the drill must fail
  the request, not the daemon or batch process.
* ``"stream"`` — the live-ingestion sources (:mod:`repro.ingest.
  sources`); the index is the source's monotone read sequence number,
  so a plan like ``disconnect@3,garbage@7`` drops the feed on exactly
  the 4th read and injects garbage bytes on the 8th, every run.  Only
  the :data:`NETWORK_KINDS` fire here, and they are *applied by the
  source itself* (via :meth:`FaultPlan.network`), never by
  :meth:`FaultPlan.fire` — a disconnect is a simulated peer failure
  the source must absorb, not an exception the harness throws.

Each fault fires at one *stage* of the task lifecycle:

* ``"pre"`` — before any shared-state mutation (trivially retry-safe),
* ``"mid"`` — on entry to the SCC commit, after the FW/BW recolouring
  (retry requires colour repair; see :mod:`repro.runtime.supervisor`),
* ``"post"`` — after the commit but before the children reach the
  master (the SCC survives; the child partitions need repair).

A ``poison`` fault corrupts the label write right after the commit.
In a batched unit every member's ``mid`` fires before the batch
commits any SCC, and a fault on one member fails the whole unit.

The hook is zero-overhead when off: executors hold a plan reference
that is ``None`` in normal runs and guard every call site with a
single ``is not None`` test.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "CONTROL_KINDS",
    "FAULT_KINDS",
    "NETWORK_KINDS",
    "FAULT_STAGES",
    "CORRUPTIBLE_ARRAYS",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "RunFaults",
    "apply_corruption",
    "corruption_target",
    "retarget",
    "run_faults",
]

#: network failure modes (applied by stream sources, never by
#: :meth:`FaultPlan.fire`): drop the connection, stall the read past
#: the watchdog, inject garbage bytes, re-deliver the previous chunk.
NETWORK_KINDS = ("disconnect", "stall", "garbage", "dup")

#: the kinds :meth:`FaultPlan.fire` executes at its call sites.
CONTROL_KINDS = ("crash", "hang", "raise")

#: supported failure modes.
FAULT_KINDS = CONTROL_KINDS + ("poison", "corrupt") + NETWORK_KINDS

#: array names a ``corrupt`` fault may target (warm session state the
#: integrity tier seals; see :mod:`repro.integrity`).
CORRUPTIBLE_ARRAYS = (
    "indptr",
    "indices",
    "in_indptr",
    "in_indices",
    "out_degrees",
    "in_degrees",
    "labels",
    "color",
)
#: task-lifecycle points at which a fault can fire.
FAULT_STAGES = ("pre", "mid", "post")

#: exit status used by an injected worker crash (recognisable in logs).
CRASH_EXIT_CODE = 87


class FaultInjected(RuntimeError):
    """Raised inside a task body by a ``raise``-kind fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes
    ----------
    kind: one of :data:`FAULT_KINDS`.
    site: injection site (``"task"``, ``"phase"``, ``"request"`` or
        ``"stream"``; see the module docstring).
    index: dispatcher-assigned task sequence id this fault targets.
        Specs of different kinds may share an index; each call site
        matches only its own kinds (see :class:`FaultPlan`).
    stage: lifecycle point (``"pre"``/``"mid"``/``"post"``); ignored
        for ``poison``, which always corrupts the commit, and for the
        network kinds, which fire on the read.
    times: number of *attempts* of the target task that fail — with
        the default 1 the first retry succeeds; set it above the
        supervisor's retry budget to force degradation.
    hang_seconds: sleep duration for ``hang`` faults.  Must exceed the
        supervisor's task timeout to register as a hang.
    array: for ``corrupt`` faults, the warm array to flip bits in
        (one of :data:`CORRUPTIBLE_ARRAYS`); ignored otherwise.
    bit_flips: for ``corrupt`` faults, how many bits to flip.
    flip_seed: for ``corrupt`` faults, the RNG seed choosing *which*
        bits — same seed, same flips, every run.
    """

    kind: str
    site: str = "task"
    index: int = 0
    stage: str = "pre"
    times: int = 1
    hang_seconds: float = 30.0
    array: str = "indices"
    bit_flips: int = 1
    flip_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.stage not in FAULT_STAGES:
            raise ValueError(f"unknown fault stage {self.stage!r}")
        if self.index < 0 or self.times < 1:
            raise ValueError("index must be >= 0 and times >= 1")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        if self.kind == "corrupt":
            if self.array not in CORRUPTIBLE_ARRAYS:
                raise ValueError(
                    f"corrupt target {self.array!r} is not one of "
                    f"{CORRUPTIBLE_ARRAYS}"
                )
            if self.bit_flips < 1:
                raise ValueError("bit_flips must be >= 1")
            if self.array in ("labels", "color") and self.site != "phase":
                # run-owned state only exists between phase boundaries;
                # any other site would be a silent no-op.
                raise ValueError(
                    f"corrupt target {self.array!r} requires "
                    f"site='phase' (got {self.site!r})"
                )


class FaultPlan:
    """An immutable, deterministic collection of :class:`FaultSpec`.

    Lookups are per kind: a ``raise`` and a ``corrupt`` armed at the
    same ``(site, index, attempt)`` both fire, in either plan order.
    Among specs of one kind armed at one point the first in plan order
    wins, except :meth:`corruptions`, which returns them all.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)

    # -- construction --------------------------------------------------
    @classmethod
    def single(cls, kind: str, index: int = 0, **kwargs) -> "FaultPlan":
        """Plan with exactly one fault (the common test shape)."""
        return cls([FaultSpec(kind=kind, index=index, **kwargs)])

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        n_faults: int = 3,
        max_index: int = 16,
        site: str = "task",
        kinds: Sequence[str] = ("crash", "hang", "raise"),
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """Seeded random plan: same seed, same faults, every run."""
        rng = np.random.default_rng(seed)
        specs = [
            FaultSpec(
                kind=str(rng.choice(list(kinds))),
                site=site,
                index=int(rng.integers(0, max_index)),
                stage=str(rng.choice(FAULT_STAGES)),
                hang_seconds=hang_seconds,
            )
            for _ in range(n_faults)
        ]
        return cls(specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a CLI plan string.

        Two formats: a JSON list of spec objects, or a compact
        comma-separated ``kind@index[:stage]`` list, e.g.
        ``"crash@2,hang@0:mid,poison@5"``.  A ``corrupt`` kind names
        its target array with a dot — ``corrupt.indptr@0:post`` flips
        one seeded bit in the warm ``indptr`` array.  Run-owned arrays
        (``corrupt.labels@1:post``) imply the ``"phase"`` site: they
        only exist between phase boundaries, so the index is the phase
        position and the flip fires inside :meth:`Engine.run`.
        """
        text = text.strip()
        if not text:
            return cls()
        if text.startswith("["):
            return cls(FaultSpec(**obj) for obj in json.loads(text))
        specs: List[FaultSpec] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "@" not in part:
                raise ValueError(
                    f"bad fault spec {part!r}: expected kind@index[:stage]"
                )
            kind, _, where = part.partition("@")
            kind, _, array = kind.strip().partition(".")
            idx_str, _, stage = where.partition(":")
            extra = {"array": array} if array else {}
            if array in ("labels", "color"):
                extra["site"] = "phase"
            specs.append(
                FaultSpec(
                    kind=kind,
                    index=int(idx_str),
                    stage=stage.strip() or "pre",
                    **extra,
                )
            )
        return cls(specs)

    # -- matching ------------------------------------------------------
    def _armed(
        self,
        site: str,
        index: int,
        attempt: int,
        kinds: Sequence[str] = FAULT_KINDS,
        stage: Optional[str] = None,
    ) -> Iterator[FaultSpec]:
        """The specs of ``kinds`` armed for ``(site, index, attempt)``
        (and ``stage``, when given), in plan order."""
        for spec in self.specs:
            if (
                spec.site == site
                and spec.index == index
                and attempt < spec.times
                and spec.kind in kinds
                and (stage is None or spec.stage == stage)
            ):
                yield spec

    def match(
        self, site: str, index: int, attempt: int = 0
    ) -> Optional[FaultSpec]:
        """The first spec of any kind armed for this ``(site, index,
        attempt)``, if any."""
        return next(self._armed(site, index, attempt), None)

    def fire(
        self,
        site: str,
        index: int,
        *,
        stage: str,
        attempt: int = 0,
        thread_site: bool = False,
    ) -> None:
        """Execute the first crash/hang/raise fault armed for this
        point and ``stage``.

        Specs of the other kinds armed at the same point are applied
        by their own call sites (``poison`` by the commit, ``corrupt``
        by the array owner, network kinds by the stream source) and
        never shadow a control fault here, whatever the plan order.
        ``thread_site=True`` (the request site) downgrades ``crash`` to
        ``raise`` — killing the whole interpreter to simulate one
        failure would take the daemon or the batch with it.
        """
        spec = next(
            self._armed(site, index, attempt, CONTROL_KINDS, stage), None
        )
        if spec is None:
            return
        if spec.kind == "hang":
            time.sleep(spec.hang_seconds)
            return
        if spec.kind == "crash" and not thread_site:
            os._exit(CRASH_EXIT_CODE)
        raise FaultInjected(
            f"injected {spec.kind} at {site}[{index}] "
            f"stage={stage} attempt={attempt}"
        )

    def network(
        self, site: str, index: int, attempt: int = 0
    ) -> Optional[FaultSpec]:
        """The first network-kind spec armed for this read, if any.

        Stream sources call this once per read with their monotone
        read counter; a hit tells the source to degrade *itself* —
        drop and redial (``disconnect``), sleep ``hang_seconds``
        so the watchdog sees a stalled feed (``stall``), splice
        garbage bytes into the chunk (``garbage``), or re-deliver the
        previous chunk at its old offset (``dup``) so the at-least-
        once machinery downstream has something to deduplicate.
        """
        return next(self._armed(site, index, attempt, NETWORK_KINDS), None)

    def poison(self, site: str, index: int, attempt: int = 0) -> bool:
        """True when a ``poison`` spec is armed for this task's commit
        (at any stage)."""
        return any(self._armed(site, index, attempt, ("poison",)))

    def corruptions(
        self,
        site: str,
        index: int,
        attempt: int = 0,
        *,
        stage: Optional[str] = None,
    ) -> tuple:
        """Every ``corrupt`` spec armed for this ``(site, index,
        attempt)`` (optionally filtered by stage).

        Unlike :meth:`match` this returns *all* hits: one drill may
        rot several arrays at the same boundary.  The caller applies
        them with :func:`apply_corruption` against the arrays it owns.
        """
        return tuple(self._armed(site, index, attempt, ("corrupt",), stage))

    # -- misc ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ",".join(
            f"{s.kind}@{s.site}:{s.index}:{s.stage}" for s in self.specs
        )
        return f"FaultPlan({inner})"


def retarget(
    text: str, site: str, *, hang_seconds: Optional[float] = None
) -> FaultPlan:
    """Parse a plan string pinned to the one site a flag injects at.

    For ``"request"`` every spec moves except ``"phase"``-site
    ``corrupt`` specs, the only legal site for run-owned labels/color.
    For ``"stream"`` only the :data:`NETWORK_KINDS` move (sources
    apply nothing else), and a truthy ``hang_seconds`` becomes their
    stall duration.
    """

    def moves(spec: FaultSpec) -> bool:
        if site == "stream":
            return spec.kind in NETWORK_KINDS
        return not (spec.kind == "corrupt" and spec.site == "phase")

    extra = {"hang_seconds": hang_seconds} if hang_seconds else {}
    return FaultPlan(
        dataclasses.replace(s, site=site, **extra) if moves(s) else s
        for s in FaultPlan.parse(text).specs
    )


@dataclass(frozen=True)
class RunFaults:
    """The slice of fault plans one run attempt carries.

    ``backend`` is ``"supervised"`` when ``supervisor`` (a
    :class:`~repro.runtime.supervisor.SupervisorConfig`) arms task-
    kernel faults; ``phase_plan`` fires inside :meth:`repro.engine.
    Engine.run`; ``flips`` are the ``corrupt`` specs :meth:`corrupt`
    drives into the warm session before the run.
    """

    supervisor: Any = None
    phase_plan: Optional[FaultPlan] = None
    flips: tuple = ()

    @property
    def backend(self) -> Optional[str]:
        # only the supervised executor recovers from task faults.
        return "supervised" if self.supervisor is not None else None

    def corrupt(self, session) -> None:
        """Apply the armed bit flips to ``session``'s sealed arrays."""
        for spec in self.flips:
            apply_corruption(corruption_target(session, spec.array), spec)


def run_faults(
    carried: Optional[str] = None,
    attempt: int = 0,
    *,
    plan: Optional[FaultPlan] = None,
    index: int = 0,
) -> RunFaults:
    """The fault slice of one request attempt.

    ``carried`` is the request's own plan string: its specs target
    *this* run whatever their site and index.  ``plan`` is the
    service's plan (``repro serve``/``repro batch --fault-plan``): its
    ``corrupt`` specs armed for ``("request", index, attempt)`` join
    the slice, and so do its ``"phase"``-site ones, which ride into
    every run.  Every ``corrupt`` spec is ``times``-gated by
    ``attempt`` — the default ``times=1`` rots the first attempt and
    lets the retry's rebuilt session through.
    """
    corrupt: List[FaultSpec] = []
    supervisor = None
    if carried:
        specs = FaultPlan.parse(carried).specs
        corrupt += [s for s in specs if s.kind == "corrupt"]
        rest = [s for s in specs if s.kind != "corrupt"]
        if rest:
            from .supervisor import SupervisorConfig

            supervisor = SupervisorConfig(fault_plan=FaultPlan(rest))
    if plan is not None:
        corrupt += plan.corruptions("request", index, attempt)
        corrupt += [
            s for s in plan.specs if s.kind == "corrupt" and s.site == "phase"
        ]
    armed = [s for s in corrupt if attempt < s.times]
    phase = [s for s in armed if s.site == "phase"]
    return RunFaults(
        supervisor=supervisor,
        phase_plan=FaultPlan(phase) if phase else None,
        flips=tuple(s for s in armed if s.site != "phase"),
    )


def corruption_target(session, name: str, state=None) -> np.ndarray:
    """The array a ``corrupt`` spec naming ``name`` flips bits in.

    ``labels``/``color`` are the run-owned arrays of ``state`` (an
    :class:`~repro.core.state.SCCState`); every other name is one of
    ``session``'s sealed arrays, materializing the transpose or the
    degrees first so the flip lands where the run reads.
    """
    if name in ("labels", "color"):
        return getattr(state, name)
    if name in ("in_indptr", "in_indices"):
        session.ensure_transpose()
    elif name in ("out_degrees", "in_degrees"):
        session.effective_degrees()
    return session.integrity_arrays()[name]


def apply_corruption(array: np.ndarray, spec: FaultSpec) -> List[int]:
    """Flip ``spec.bit_flips`` seeded bits in ``array``'s buffer.

    The flips go through the array's *ultimate base* — warm graph
    arrays are read-only views over writeable owners (see
    :mod:`repro.graph.csr`), exactly the shape real rot takes: the
    bytes change underneath every guard except a checksum.  Bit
    positions are drawn from ``default_rng(spec.flip_seed)``, so the
    same spec flips the same bits every run.  Returns the flipped bit
    positions (empty for a zero-byte array — nothing to rot).
    """
    if spec.kind != "corrupt":
        raise ValueError(f"not a corrupt spec: {spec.kind!r}")
    base = array
    while isinstance(base.base, np.ndarray):
        base = base.base
    if not base.flags.writeable:  # pragma: no cover - defensive
        raise ValueError(
            f"cannot corrupt {spec.array!r}: owning buffer is read-only"
        )
    raw = base.view(np.uint8).reshape(-1)
    nbits = int(raw.size) * 8
    if nbits == 0:
        return []
    rng = np.random.default_rng(spec.flip_seed)
    positions = rng.integers(0, nbits, size=spec.bit_flips)
    for pos in positions:
        raw[int(pos) // 8] ^= np.uint8(1 << (int(pos) % 8))
    return [int(p) for p in positions]
