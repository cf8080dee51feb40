"""Retry policy and circuit breaker: the middle of the hardening stack.

Admission control (:mod:`repro.service.govern`) decides whether work
*enters*; this module decides what happens when admitted work *fails*.
Two cooperating pieces:

* :class:`RetryPolicy` — bounded retry with exponential backoff and
  **deterministic** jitter (seeded by ``(seed, key, attempt)``, so a
  replayed request backs off identically — the same reproducibility
  contract as :class:`~repro.runtime.faults.FaultPlan`).  Failures are
  split by :func:`classify_failure` into *transient* (a different
  attempt can succeed: broken pool, deadline expiry, injected chaos)
  and *permanent* (retrying re-burns the same failure: malformed
  input, invariant violations, budget refusals) — transient failures
  retry, permanent ones fail fast.

* :class:`CircuitBreaker` / :class:`BackendBreakers` — per-backend
  failure accounting.  ``N`` consecutive failures trip the breaker
  *open*; while open, :meth:`BackendBreakers.resolve` walks the
  system's one degradation ladder (:attr:`BackendBreakers.LADDER`:
  supervised -> serial) so traffic keeps flowing on a healthier
  executor instead of hammering a broken pool.
  After ``cooldown`` seconds the breaker goes *half-open* and admits
  one probe: success closes it, failure re-opens it for another
  cooldown.  ``serial`` is the ladder's floor and is never broken.

Both pieces are clock- and sleep-injectable, so every state transition
is unit-testable without wall-clock waits.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import (
    GraphIngestError,
    GraphValidationError,
    IntegrityError,
    MemoryBudgetError,
    PhaseTimeoutError,
    ReproError,
    ServiceOverloadError,
    WorkerLostError,
)
from ..runtime.faults import FaultInjected

__all__ = [
    "TRANSIENT",
    "PERMANENT",
    "classify_failure",
    "RetryPolicy",
    "RetryOutcome",
    "CircuitBreaker",
    "BackendBreakers",
]

#: failure classes a different attempt can plausibly survive.
TRANSIENT = (
    PhaseTimeoutError,
    FaultInjected,
    TimeoutError,
    ConnectionError,
    BrokenPipeError,
    EOFError,
    # a respawned serving worker can handle the retry.
    WorkerLostError,
    # detected corruption: the service quarantines the rotten session
    # before re-raising, so the retry rebuilds from source and serves
    # clean bytes.  ``--on-corruption fail`` flips this per-exception
    # via ``transient_hint``, which outranks the class check.
    IntegrityError,
)

#: failure classes where a retry replays the exact same failure.
PERMANENT = (
    GraphIngestError,
    GraphValidationError,
    MemoryBudgetError,
    ServiceOverloadError,
    ValueError,
    TypeError,
    KeyError,
    # OSError is transient below (fd exhaustion, fork pressure), but
    # these subclasses describe the *input*, and retrying cannot make
    # a missing path appear or a permission bit flip.
    FileNotFoundError,
    PermissionError,
    IsADirectoryError,
    NotADirectoryError,
)


def classify_failure(exc: BaseException) -> str:
    """``"transient"`` or ``"permanent"`` for one failure.

    Order matters: a ``transient_hint`` attribute wins over every class
    check — it is how a worker's verdict crosses the pipe, where the
    original exception class cannot (see :class:`~repro.service.
    workers.RemoteRequestError`).  Then the specific permanent classes
    win over their transient bases (``GraphIngestError`` is a
    ``ValueError``; ``PhaseTimeoutError`` is a ``TimeoutError``).
    ``PoolBrokenError`` is transient by name (a rebuilt pool is a
    different pool); unknown failures are permanent — fail fast rather
    than loop on a bug.
    """
    from ..runtime.supervisor import PoolBrokenError

    hint = getattr(exc, "transient_hint", None)
    if hint is not None:
        return "transient" if hint else "permanent"
    if isinstance(exc, (PoolBrokenError,) + TRANSIENT):
        return "transient"
    if isinstance(exc, PERMANENT):
        return "permanent"
    if isinstance(exc, (OSError, ReproError)):
        # resource hiccups (fd exhaustion, fork failure) are worth one
        # more try; unknown ReproError subclasses default permanent.
        return "transient" if isinstance(exc, OSError) else "permanent"
    return "permanent"


@dataclass
class RetryOutcome:
    """What one retried execution did."""

    value: Any = None
    ok: bool = False
    #: attempts actually made (1 = first try succeeded).
    attempts: int = 0
    #: ``"ClassName: message"`` per failed attempt, in order.
    errors: List[str] = field(default_factory=list)
    #: total backoff slept, seconds.
    backoff_seconds: float = 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``max_attempts`` counts *total* tries; ``max_attempts=1`` disables
    retry.  The delay before attempt ``a`` (0-based) retries is
    ``min(backoff_base * backoff_factor**a, backoff_max)`` scaled by a
    jitter factor in ``[1 - jitter, 1 + jitter]`` derived from
    ``crc32(seed, key, attempt)`` — fully reproducible, no shared RNG
    state.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, *, key: int = 0) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        base = min(
            self.backoff_base * (self.backoff_factor ** attempt),
            self.backoff_max,
        )
        if self.jitter == 0.0 or base == 0.0:
            return base
        token = f"{self.seed}:{key}:{attempt}".encode()
        frac = zlib.crc32(token) / 0xFFFFFFFF  # [0, 1], deterministic
        return base * (1.0 - self.jitter + 2.0 * self.jitter * frac)

    def execute(
        self,
        fn: Callable[[int], Any],
        *,
        key: int = 0,
        classify: Callable[[BaseException], str] = classify_failure,
        sleep: Callable[[float], None] = time.sleep,
        on_failure: Optional[Callable[[BaseException, int], None]] = None,
    ) -> RetryOutcome:
        """Run ``fn(attempt)`` under the policy.

        Transient failures retry (after backoff) until the attempt
        budget runs out; permanent ones re-raise immediately.  When the
        budget is exhausted the *last* transient failure re-raises.
        ``on_failure(exc, attempt)`` fires before each classification
        verdict is acted on — the service uses it to feed the circuit
        breaker, which may change what the next ``fn(attempt)`` does.
        Either way the raised exception carries the outcome so far as
        ``exc.__retry_outcome__``.
        """
        outcome = RetryOutcome()
        for attempt in range(self.max_attempts):
            outcome.attempts = attempt + 1
            try:
                outcome.value = fn(attempt)
                outcome.ok = True
                return outcome
            except Exception as exc:
                outcome.errors.append(
                    f"{type(exc).__name__}: {exc}"
                )
                if on_failure is not None:
                    on_failure(exc, attempt)
                last_attempt = attempt + 1 >= self.max_attempts
                if classify(exc) != "transient" or last_attempt:
                    exc.__retry_outcome__ = outcome
                    raise
                pause = self.delay(attempt, key=key)
                if pause > 0:
                    sleep(pause)
                    outcome.backoff_seconds += pause
        raise AssertionError("unreachable")  # pragma: no cover


class CircuitBreaker:
    """Consecutive-failure breaker for one backend.

    States: ``closed`` (normal), ``open`` (tripped — callers should
    route around), ``half-open`` (cooldown elapsed — one probe
    allowed).  All transitions go through :meth:`record`.
    """

    def __init__(
        self,
        *,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._consecutive = 0
        self._opened_at: Optional[float] = None
        self.trips = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown:
            return "half-open"
        return "open"

    @property
    def allows(self) -> bool:
        """True when a request may use this backend right now."""
        return self.state != "open"

    def record(self, ok: bool) -> None:
        """Feed one execution verdict on this backend."""
        if ok:
            self._consecutive = 0
            self._opened_at = None
            return
        self._consecutive += 1
        if self._opened_at is not None:
            # failed half-open probe: re-open for another cooldown.
            self._opened_at = self._clock()
        elif self._consecutive >= self.threshold:
            self._opened_at = self._clock()
            self.trips += 1

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive,
            "trips": self.trips,
        }


class BackendBreakers:
    """One :class:`CircuitBreaker` per executor backend, plus routing.

    :meth:`resolve` maps a requested backend to the one traffic should
    actually use: while a breaker is open, requests degrade down
    :attr:`LADDER` until they reach a backend whose breaker allows
    them (``serial``, the ladder's floor, always does — it has no pool
    to break and something must serve).
    """

    #: the one degradation ladder.  Within one run the supervised
    #: executor already falls back to serial by itself when its pool
    #: breaks; this ladder steers *later* requests off a tripped pool.
    LADDER = {"supervised": "serial"}

    def __init__(
        self,
        *,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, backend: str) -> CircuitBreaker:
        br = self._breakers.get(backend)
        if br is None:
            br = CircuitBreaker(
                threshold=self.threshold,
                cooldown=self.cooldown,
                clock=self._clock,
            )
            self._breakers[backend] = br
        return br

    def resolve(self, backend: str) -> str:
        """The backend this request should run on right now."""
        while backend in self.LADDER:
            if self.breaker(backend).allows:
                return backend
            backend = self.LADDER[backend]
        return backend

    def record(self, backend: str, ok: bool) -> None:
        self.breaker(backend).record(ok)

    def to_dict(self) -> dict:
        return {
            name: br.to_dict()
            for name, br in sorted(self._breakers.items())
        }
