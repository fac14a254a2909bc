"""Closed-loop op runner, outcome accounting and summary statistics.

An op is one timed call into the library followed by an untimed check of
its result against an exact oracle, a cross-route identity or the result's
own certificate.  An op fails when the call raises, when a certificate
exceeds its tolerance or when an oracle misses; every failure is counted
against the op's name and none is skipped.
"""

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

_perf = time.perf_counter

DIGITS_CAP = 12  # accuracy is capped at 12 digits so roundoff cannot flap it


class CheckFailed(Exception):
    """A result missed its oracle or exceeded its certificate tolerance."""


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any, "Checker"], None]


class Checker:
    """Collects the relative errors of oracle comparisons for one op."""

    def __init__(self):
        self.errors = []

    def oracle(self, what: str, value, reference, tol: float, scale=None):
        """Relative error |value - reference| / scale must be <= tol."""
        diff = float(np.max(np.abs(np.asarray(value) - np.asarray(reference))))
        if scale is None:
            scale = float(np.max(np.abs(np.asarray(reference))))
        err = diff / max(scale, 1e-300)
        self.errors.append(err if err == err else float("inf"))  # NaN verifies nothing
        if not err <= tol:
            raise CheckFailed(f"{what}: relative error {err:.3e} > {tol:g}")

    @staticmethod
    def certify(what: str, value: float, tol: float):
        if not value <= tol:
            raise CheckFailed(f"{what}: {value:.3e} > {tol:g}")

    @staticmethod
    def expect(what: str, value, wanted):
        if value != wanted:
            raise CheckFailed(f"{what}: got {value!r}, want {wanted!r}")


class Recorder:
    """Latencies, per-round rates and failures of the ops one client ran."""

    def __init__(self, tracer=None):
        self.tracer = tracer  # gets the running op id, so spans name their op
        self.latencies = []
        self.round_rates = []
        self.attempted = Counter()
        self.failed = Counter()
        self.reasons = {}
        self.errors = []

    def run(self, op: Op) -> float:
        if self.tracer is not None:
            self.tracer.op_id = self.total_attempted
        self.attempted[op.name] += 1
        start = _perf()
        try:
            result = op.call()
        except Exception as exc:  # a raising op is a failed op, counted by name
            elapsed = _perf() - start
            self._fail(op.name, f"raised {type(exc).__name__}: {exc}")
            self.latencies.append(elapsed)
            return elapsed
        elapsed = _perf() - start
        self.latencies.append(elapsed)
        checker = Checker()
        try:
            op.check(result, checker)
        except CheckFailed as exc:
            self._fail(op.name, str(exc))
        except Exception as exc:  # a check that cannot read the result fails the op
            self._fail(op.name, f"check raised {type(exc).__name__}: {exc}")
        self.errors.extend(checker.errors)
        return elapsed

    def _fail(self, name: str, reason: str):
        self.failed[name] += 1
        self.reasons.setdefault(name, reason.splitlines()[0][:200])

    def run_round(self, ops) -> None:
        busy = 0.0
        for op in ops:
            busy += self.run(op)
        if ops:
            self.round_rates.append(len(ops) / max(busy, 1e-9))

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def accuracy_digits(self):
        if not self.errors:
            return None
        worst = min(max(self.errors), 1.0)
        return -math.log10(max(worst, 10.0 ** -DIGITS_CAP))


def run_closed_loop(make_round, recorder: Recorder, rounds: int, before_round=None) -> None:
    """One client: ``rounds`` whole rounds, each op sent when the last returned."""
    for index in range(rounds):
        if before_round is not None:
            before_round(index)
        recorder.run_round(make_round(index))


def median(values):
    s = sorted(values)
    n = len(s)
    if not n:
        return float("nan")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail(values):
    """The highest percentile with at least ten samples beyond it: the order
    statistic x_(n-10); returns (percentile, value, samples beyond)."""
    s = sorted(values)
    n = len(s)
    rank = max(1, n - 10)
    return 100.0 * rank / n, s[rank - 1], n - rank
