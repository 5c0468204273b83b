"""Seeded arrival processes for the traffic simulator.

Every process is a frozen value object that, given a
:class:`random.Random`, yields absolute arrival times in *cycles* in
strictly non-decreasing order.  Rates are expressed in requests per
cycle so the simulator stays clock-agnostic; callers holding a rate in
requests/second convert it with :func:`rate_per_cycle`.

Four shapes cover the scenarios Section 4 of the paper motivates:

* :class:`ConstantRate` — a deterministic, evenly spaced stream (the
  classical D/D/1-style load used by the differential tests).
* :class:`PoissonArrivals` — memoryless open-loop traffic.
* :class:`BurstyArrivals` — a two-state (on/off) modulated Poisson
  process: bursts at ``burstiness`` times the mean rate, silence in
  between, same long-run average rate.
* :class:`TraceArrivals` — replay of an explicit timestamp list, for
  driving the simulator with recorded production traffic.

The event engine pumps :meth:`ArrivalProcess.times` one arrival at a
time.  The fast path asks for the whole stream up front through
:meth:`ArrivalProcess.materialize`, which must return exactly the times
that pump would have produced.  Its default replays ``times()``;
:class:`ConstantRate` computes its grid directly, and
:class:`PoissonArrivals` draws its uniforms in blocks from a numpy
``MT19937`` started from the same ``random.Random`` state, which
reproduces ``expovariate`` draw for draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "ConstantRate",
    "PoissonArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "make_arrival_process",
]

#: Process names :func:`make_arrival_process` accepts — the CLI sources
#: its ``--process`` choices from here so the two can never drift.
#: (:class:`TraceArrivals` has no name: a trace needs timestamps, not a
#: rate, so it is constructed directly.)
ARRIVAL_KINDS = ("constant", "poisson", "bursty")

#: Uniforms drawn per block by :meth:`PoissonArrivals.materialize`:
#: large enough to amortize the per-block overhead, small enough that a
#: block's temporaries stay around a megabyte.
_BLOCK = 1 << 16


class ArrivalProcess:
    """Base class: a seeded stream of absolute arrival times (cycles)."""

    def times(self, rng: random.Random) -> Iterator[float]:
        raise NotImplementedError

    def materialize(
        self, rng: random.Random, limit: Optional[int], horizon: float
    ) -> np.ndarray:
        """Every time ``times(rng)`` yields, as a float64 array.

        Stops at ``limit`` arrivals, at stream exhaustion, or at the
        first time beyond ``horizon`` — where the event loop's pump
        stops.  This default pumps ``times()``; subclasses whose draws
        do not depend on the values drawn override it with array code.
        ``rng`` belongs to the stream: its state afterwards is
        unspecified.
        """
        stream = self.times(rng)
        out: List[float] = []
        while limit is None or len(out) < limit:
            try:
                when = next(stream)
            except StopIteration:
                break
            if when > horizon:
                break
            out.append(when)
        return np.asarray(out, dtype=np.float64)

    @property
    def mean_rate(self) -> float:
        """Long-run average arrivals per cycle (0 when unknown)."""
        raise NotImplementedError


def _check_rate(rate: float) -> None:
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")


def rate_per_cycle(rate_rps: float, cycles_per_second: float) -> float:
    """``rate_rps`` requests/second as requests per cycle; a
    non-positive rate is rejected in the req/s it was given in."""
    if rate_rps <= 0:
        raise ValueError(
            f"arrival rate must be positive, got {rate_rps:g} req/s"
        )
    return rate_rps / cycles_per_second


@dataclass(frozen=True)
class ConstantRate(ArrivalProcess):
    """Evenly spaced arrivals at ``rate`` requests per cycle.

    The first request arrives at cycle 0, so a rate-``r`` stream is an
    exact subset of a rate-``k*r`` stream for integer ``k`` — the
    property the monotonicity tests lean on.
    """

    rate: float

    def __post_init__(self) -> None:
        _check_rate(self.rate)

    @property
    def mean_rate(self) -> float:
        return self.rate

    def times(self, rng: random.Random) -> Iterator[float]:
        period = 1.0 / self.rate
        index = 0
        while True:
            yield index * period
            index += 1

    def materialize(
        self, rng: random.Random, limit: Optional[int], horizon: float
    ) -> np.ndarray:
        # The same ``index * period`` products, without touching the RNG.
        period = 1.0 / self.rate
        count = int(horizon / period) + 2
        if limit is not None:
            count = min(count, limit)
        times = np.arange(count, dtype=np.float64) * period
        return times[times <= horizon]


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential gaps with mean ``1/rate``."""

    rate: float

    def __post_init__(self) -> None:
        _check_rate(self.rate)

    @property
    def mean_rate(self) -> float:
        return self.rate

    def times(self, rng: random.Random) -> Iterator[float]:
        now = 0.0
        while True:
            now += rng.expovariate(self.rate)
            yield now

    def materialize(
        self, rng: random.Random, limit: Optional[int], horizon: float
    ) -> np.ndarray:
        # ``Generator.random`` is CPython's ``genrand_res53`` over the
        # same Mersenne Twister state, so block draws replay
        # ``expovariate``'s uniforms exactly.  The gaps go through
        # ``math.log`` because ``np.log`` can differ in the last bit.
        state = rng.getstate()[1]
        bits = np.random.MT19937()
        bits.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.asarray(state[:-1], dtype=np.uint32),
                "pos": state[-1],
            },
        }
        draw = np.random.Generator(bits).random
        blocks: List[np.ndarray] = []
        now = 0.0
        remaining = limit
        while remaining is None or remaining > 0:
            size = _BLOCK if remaining is None else min(_BLOCK, remaining)
            logs = np.fromiter(
                map(math.log, (1.0 - draw(size)).tolist()),
                dtype=np.float64,
                count=size,
            )
            gaps = -logs / self.rate
            # ``cumsum`` is a sequential fold, the same one ``now +=``
            # makes; seeding the first gap with ``now`` continues it.
            gaps[0] += now
            times = np.cumsum(gaps)
            kept = int(np.searchsorted(times, horizon, side="right"))
            blocks.append(times[:kept])
            if kept < size:
                break
            now = float(times[-1])
            if remaining is not None:
                remaining -= size
        if not blocks:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(blocks)


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """On/off modulated Poisson traffic with long-run average ``rate``.

    The source alternates between *on* phases (Poisson at
    ``rate * burstiness``) and silent *off* phases.  Phase durations are
    exponential with means ``period_cycles / burstiness`` (on) and
    ``period_cycles * (1 - 1/burstiness)`` (off), so the duty cycle is
    ``1/burstiness`` and the average rate stays ``rate``.
    """

    rate: float
    burstiness: float = 4.0
    period_cycles: float = 200_000.0

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.burstiness <= 1.0:
            raise ValueError(
                f"burstiness must exceed 1, got {self.burstiness} "
                "(use ConstantRate or PoissonArrivals for smooth traffic)"
            )
        if self.period_cycles <= 0:
            raise ValueError("period_cycles must be positive")

    @property
    def mean_rate(self) -> float:
        return self.rate

    def times(self, rng: random.Random) -> Iterator[float]:
        on_rate = self.rate * self.burstiness
        mean_on = self.period_cycles / self.burstiness
        mean_off = self.period_cycles - mean_on
        now = 0.0
        while True:
            phase_end = now + rng.expovariate(1.0 / mean_on)
            while True:
                gap = rng.expovariate(on_rate)
                if now + gap > phase_end:
                    break
                now += gap
                yield now
            now = phase_end + rng.expovariate(1.0 / mean_off)


@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Replay an explicit list of arrival times (cycles, sorted)."""

    times_cycles: Tuple[float, ...]

    def __init__(self, times_cycles: Sequence[float]):
        times = tuple(float(t) for t in times_cycles)
        for earlier, later in zip(times, times[1:]):
            if later < earlier:
                raise ValueError("trace timestamps must be non-decreasing")
        if times and times[0] < 0:
            raise ValueError("trace timestamps must be non-negative")
        object.__setattr__(self, "times_cycles", times)

    @property
    def mean_rate(self) -> float:
        if len(self.times_cycles) < 2:
            return 0.0
        span = self.times_cycles[-1] - self.times_cycles[0]
        return (len(self.times_cycles) - 1) / span if span > 0 else 0.0

    def times(self, rng: random.Random) -> Iterator[float]:
        return iter(self.times_cycles)


def make_arrival_process(
    kind: str,
    rate_per_cycle: float,
    burstiness: float = 4.0,
    period_cycles: float = 200_000.0,
) -> ArrivalProcess:
    """Build a process from a CLI-style name (constant/poisson/bursty)."""
    key = kind.strip().lower()
    if key == "constant":
        return ConstantRate(rate_per_cycle)
    if key == "poisson":
        return PoissonArrivals(rate_per_cycle)
    if key == "bursty":
        return BurstyArrivals(rate_per_cycle, burstiness, period_cycles)
    raise ValueError(
        f"unknown arrival process {kind!r}; known: {', '.join(ARRIVAL_KINDS)}"
    )
