"""Tests for the retry policy, failure taxonomy and circuit breakers."""

import pytest

from repro.errors import (
    GraphIngestError,
    GraphValidationError,
    MemoryBudgetError,
    PhaseTimeoutError,
    ServiceOverloadError,
)
from repro.runtime.faults import FaultInjected
from repro.runtime.supervisor import PoolBrokenError
from repro.service.retry import (
    BackendBreakers,
    CircuitBreaker,
    RetryPolicy,
    classify_failure,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestClassifyFailure:
    @pytest.mark.parametrize(
        "exc",
        [
            PoolBrokenError("pool died"),
            PhaseTimeoutError("fwbw", 1.0),
            FaultInjected("injected"),
            TimeoutError("slow"),
            ConnectionError("gone"),
            OSError("fork failed"),
        ],
    )
    def test_transient(self, exc):
        assert classify_failure(exc) == "transient"

    @pytest.mark.parametrize(
        "exc",
        [
            GraphIngestError("bad line"),
            GraphValidationError("bad csr"),
            MemoryBudgetError("too big"),
            ServiceOverloadError(),
            ValueError("nope"),
            TypeError("nope"),
            KeyError("nope"),
            FileNotFoundError("no such graph file"),
            PermissionError("unreadable graph file"),
            RuntimeError("unknown failures fail fast"),
        ],
    )
    def test_permanent(self, exc):
        assert classify_failure(exc) == "permanent"

    def test_specific_permanent_beats_transient_base(self):
        # GraphIngestError IS-A ValueError; PhaseTimeoutError IS-A
        # TimeoutError — the taxonomy must pick the right side of both.
        assert issubclass(GraphIngestError, ValueError)
        assert issubclass(PhaseTimeoutError, TimeoutError)
        assert classify_failure(GraphIngestError("x")) == "permanent"
        assert classify_failure(PhaseTimeoutError("p", 1.0)) == "transient"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1)

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5, jitter=0.1
        )
        delays_a = [policy.delay(a, key=7) for a in range(6)]
        delays_b = [policy.delay(a, key=7) for a in range(6)]
        assert delays_a == delays_b  # same (seed, key, attempt) -> same
        for attempt, d in enumerate(delays_a):
            base = min(0.1 * 2.0 ** attempt, 0.5)
            assert base * 0.9 <= d <= base * 1.1
        # a different key jitters differently somewhere.
        other = [policy.delay(a, key=8) for a in range(6)]
        assert other != delays_a

    def test_zero_jitter_exact_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.0, backoff_max=10.0)
        assert [policy.delay(a) for a in range(3)] == [0.1, 0.2, 0.4]

    def test_first_try_success_no_sleep(self):
        slept = []
        outcome = RetryPolicy(max_attempts=3).execute(
            lambda attempt: "ok", sleep=slept.append
        )
        assert outcome.ok and outcome.value == "ok"
        assert outcome.attempts == 1
        assert slept == [] and outcome.backoff_seconds == 0.0

    def test_transient_retries_then_succeeds(self):
        slept = []

        def fn(attempt):
            if attempt < 2:
                raise PoolBrokenError("pool died")
            return attempt

        outcome = RetryPolicy(max_attempts=3, jitter=0.0).execute(
            fn, sleep=slept.append
        )
        assert outcome.ok and outcome.value == 2
        assert outcome.attempts == 3
        assert len(outcome.errors) == 2
        assert len(slept) == 2
        assert outcome.backoff_seconds == pytest.approx(sum(slept))

    def test_permanent_fails_fast(self):
        calls = []

        def fn(attempt):
            calls.append(attempt)
            raise GraphIngestError("bad input")

        with pytest.raises(GraphIngestError) as info:
            RetryPolicy(max_attempts=5).execute(fn, sleep=lambda s: None)
        assert calls == [0]  # no second attempt
        assert info.value.__retry_outcome__.attempts == 1

    def test_budget_exhaustion_reraises_last(self):
        def fn(attempt):
            raise PoolBrokenError(f"attempt {attempt}")

        with pytest.raises(PoolBrokenError, match="attempt 2") as info:
            RetryPolicy(max_attempts=3, jitter=0.0).execute(
                fn, sleep=lambda s: None
            )
        outcome = info.value.__retry_outcome__
        assert outcome.attempts == 3 and not outcome.ok
        assert len(outcome.errors) == 3

    def test_on_failure_hook_sees_every_failure(self):
        seen = []

        def fn(attempt):
            if attempt == 0:
                raise TimeoutError("slow")
            return "fine"

        RetryPolicy(max_attempts=2, jitter=0.0).execute(
            fn,
            sleep=lambda s: None,
            on_failure=lambda exc, attempt: seen.append(
                (type(exc).__name__, attempt)
            ),
        )
        assert seen == [("TimeoutError", 0)]


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)
        assert br.state == "closed" and br.allows
        br.record(False)
        br.record(False)
        assert br.state == "closed"  # 2 < threshold
        br.record(False)
        assert br.state == "open" and not br.allows
        assert br.trips == 1

    def test_success_resets_the_streak(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=2, cooldown=10.0, clock=clock)
        br.record(False)
        br.record(True)
        br.record(False)
        assert br.state == "closed"  # never 2 consecutive

    def test_cooldown_half_open_then_heal(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        br.record(False)
        assert br.state == "open"
        clock.advance(5.0)
        assert br.state == "half-open" and br.allows
        br.record(True)  # probe succeeds
        assert br.state == "closed"

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        br.record(False)
        clock.advance(5.0)
        assert br.state == "half-open"
        br.record(False)  # probe fails
        assert br.state == "open"
        clock.advance(4.9)
        assert br.state == "open"  # full fresh cooldown
        clock.advance(0.1)
        assert br.state == "half-open"


class TestBackendBreakers:
    def test_resolve_walks_the_degradation_ladder(self):
        clock = FakeClock()
        brs = BackendBreakers(threshold=1, cooldown=60.0, clock=clock)
        assert brs.resolve("supervised") == "supervised"
        brs.record("supervised", False)
        assert brs.resolve("supervised") == "serial"
        # serial is the floor: its breaker never routes traffic away.
        brs.record("serial", False)
        assert brs.resolve("serial") == "serial"

    def test_ladder_is_supervised_to_serial(self):
        # the system's only degradation ladder
        assert BackendBreakers.LADDER == {"supervised": "serial"}

    def test_heal_restores_the_requested_backend(self):
        clock = FakeClock()
        brs = BackendBreakers(threshold=1, cooldown=5.0, clock=clock)
        brs.record("supervised", False)
        assert brs.resolve("supervised") == "serial"
        clock.advance(5.0)  # half-open: probe allowed through
        assert brs.resolve("supervised") == "supervised"
        brs.record("supervised", True)
        assert brs.resolve("supervised") == "supervised"

    def test_to_dict_reports_states(self):
        brs = BackendBreakers(threshold=1)
        brs.record("supervised", False)
        d = brs.to_dict()
        assert d["supervised"]["state"] == "open"
        assert d["supervised"]["trips"] == 1
