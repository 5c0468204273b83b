"""Failure detection: health probes, outlier ejection, detected health.

Everything upstream of this module routes on *oracle* health — a dead
replica is known dead the same cycle it dies.  Real fleets only ever see
*detected* health: a probe loop notices the board stopped answering, an
outlier monitor notices its error rate or tail latency left the pack,
and both are late, sometimes wrong, and bounded by an ejection budget.
This module is that layer.

:class:`DetectorSpec` is the frozen configuration; the cluster
simulator materializes it into a :class:`FailureDetector` — a pure
state machine fed by probe outcomes and per-request successes/errors,
deciding which replicas are currently *routable*:

* **Health probes**: every ``probe_interval`` the cluster probes each
  replica; a probe fails when the board is down, when its (degraded)
  epoch plus link delay exceeds ``probe_timeout``, or when a flaky
  board drops it.  ``unhealthy_after`` consecutive failures eject the
  replica; ``healthy_after`` consecutive successes (after a
  ``probation`` spent ejected) re-admit it.
* **Outlier ejection** (Envoy-style): per ``ejection_window`` the
  detector compares each replica's windowed error rate against
  ``outlier_error_rate`` and its windowed p99 latency against
  ``outlier_p99_factor`` times the fleet median, ejecting outliers that
  served at least ``min_requests``.
* **Ejection budget**: no combination of the above may eject more than
  ``max_eject_fraction`` of the fleet (always allowing at least one),
  so a detector gone wrong cannot blackhole all traffic.

``mode="oracle"`` keeps today's instant perfect knowledge (extended to
gray degradations) and is the baseline probe-based detection is judged
against; an oracle spec with no request timeout is entirely inert, so
default runs stay bit-exact with the pre-detector engine.

The module is deliberately a leaf — it imports nothing from
``repro.fleet`` or ``repro.scenario`` — so scenario specs can embed a
:class:`DetectorSpec` without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.serialize import from_record, to_record
from ..serve.metrics import fold_sum

__all__ = [
    "DETECTOR_MODES",
    "DetectorSpec",
    "FailureDetector",
    "detector_spec_to_dict",
    "detector_spec_from_dict",
]

#: How health is known: ``oracle`` = instant perfect knowledge (the
#: pre-detector behavior, extended to gray faults), ``probe`` = periodic
#: health checks plus outlier ejection, with real detection latency.
DETECTOR_MODES = ("oracle", "probe")


@dataclass(frozen=True)
class DetectorSpec:
    """How the fleet learns which replicas are worth routing to.

    Durations are milliseconds (the :class:`~repro.serve.overload`
    convention); the ``None`` defaults resolve against the device's
    epoch at run time — probe every 4 epochs with a 2-epoch timeout,
    judge outliers over 8-epoch windows, hold ejected replicas out for
    2 probe intervals — so one spec transfers across designs with
    different epoch lengths.

    ``request_timeout_ms`` arms per-request timeouts: a request that
    outlives it (queued or in flight) is pulled back and failed over to
    another replica up to ``max_failovers`` times before being counted
    ``timed_out``.  It composes with either mode; an ``oracle`` spec
    without it changes nothing at all.
    """

    mode: str = "oracle"
    probe_interval_ms: Optional[float] = None
    probe_timeout_ms: Optional[float] = None
    unhealthy_after: int = 2
    healthy_after: int = 2
    outlier_error_rate: Optional[float] = 0.5
    outlier_p99_factor: Optional[float] = 3.0
    ejection_window_ms: Optional[float] = None
    probation_ms: Optional[float] = None
    min_requests: int = 5
    max_eject_fraction: float = 0.5
    request_timeout_ms: Optional[float] = None
    max_failovers: int = 1

    def __post_init__(self) -> None:
        if self.mode not in DETECTOR_MODES:
            raise ValueError(
                f"unknown detector mode {self.mode!r}; known: {DETECTOR_MODES}"
            )
        for name in ("probe_interval_ms", "probe_timeout_ms",
                     "ejection_window_ms", "probation_ms",
                     "request_timeout_ms"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.unhealthy_after < 1 or self.healthy_after < 1:
            raise ValueError(
                "unhealthy_after and healthy_after must be at least 1"
            )
        if self.outlier_error_rate is not None and not (
            0.0 < self.outlier_error_rate <= 1.0
        ):
            raise ValueError(
                f"outlier_error_rate must be in (0, 1], got "
                f"{self.outlier_error_rate}"
            )
        if self.outlier_p99_factor is not None and self.outlier_p99_factor <= 1.0:
            raise ValueError(
                f"outlier_p99_factor must exceed 1, got "
                f"{self.outlier_p99_factor}"
            )
        if self.min_requests < 1:
            raise ValueError("min_requests must be at least 1")
        if not 0.0 < self.max_eject_fraction <= 1.0:
            raise ValueError(
                f"max_eject_fraction must be in (0, 1], got "
                f"{self.max_eject_fraction}"
            )
        if self.max_failovers < 0:
            raise ValueError("max_failovers must be >= 0")

    @property
    def active(self) -> bool:
        """Whether this spec changes anything a fault-free run can see.

        Probe mode and request timeouts both alter event order, so they
        force the event engine and are recorded on the result; a pure
        oracle spec is behaviourally invisible outside gray-fault runs.
        """
        return self.mode == "probe" or self.request_timeout_ms is not None


class _ReplicaView:
    """Detector-side state for one replica."""

    __slots__ = (
        "ejected", "ejected_at", "fail_streak", "ok_streak",
        "window_errors", "window_total", "window_latencies", "onset_at",
    )

    def __init__(self) -> None:
        self.ejected = False
        self.ejected_at = 0.0
        self.fail_streak = 0
        self.ok_streak = 0
        self.window_errors = 0
        self.window_total = 0
        self.window_latencies: List[float] = []
        self.onset_at: Optional[float] = None


class FailureDetector:
    """Detected-health state machine over one fleet.

    The cluster feeds it probe outcomes (:meth:`record_probe`),
    request results (:meth:`record_success` / :meth:`record_error`),
    windowed outlier sweeps (:meth:`evaluate_outliers`), and ground
    truth about when replicas actually started/stopped misbehaving
    (:meth:`note_onset` / :meth:`note_clear`, used only for the
    detection-latency ledger).  It answers :meth:`routable` and keeps
    the false-positive / missed-detection counts honest.
    """

    def __init__(
        self,
        spec: DetectorSpec,
        num_replicas: int,
        *,
        epoch: float,
        cycles_per_ms: float,
    ) -> None:
        self.spec = spec
        self.num_replicas = num_replicas

        def _cycles(value_ms: Optional[float], default: float) -> float:
            if value_ms is None:
                return default
            return value_ms * cycles_per_ms

        self.probe_interval = _cycles(spec.probe_interval_ms, 4.0 * epoch)
        self.probe_timeout = _cycles(spec.probe_timeout_ms, 2.0 * epoch)
        self.ejection_window = _cycles(spec.ejection_window_ms, 8.0 * epoch)
        self.probation = _cycles(spec.probation_ms, 2.0 * self.probe_interval)
        self.request_timeout: Optional[float] = (
            None if spec.request_timeout_ms is None
            else spec.request_timeout_ms * cycles_per_ms
        )
        self._replicas = [_ReplicaView() for _ in range(num_replicas)]
        self._ejected = 0
        #: Bumped on every ejection and readmission, so callers can cache
        #: views derived from :meth:`routable` until it changes.
        self.version = 0
        #: Detection latencies (cycles) for true onsets the detector
        #: caught, and the two ways it can be wrong.
        self.detection_lags: List[float] = []
        self.false_positives = 0
        self.missed_detections = 0

    # ------------------------------------------------------------- routing
    def routable(self, index: int) -> bool:
        return not self._replicas[index].ejected

    def detected_healthy_count(self) -> int:
        return self.num_replicas - self._ejected

    # ------------------------------------------------------------ ejection
    def _eject_budget_ok(self) -> bool:
        limit = max(1, int(self.spec.max_eject_fraction * self.num_replicas))
        return self._ejected + 1 <= limit

    def _eject(self, index: int, now: float) -> bool:
        view = self._replicas[index]
        if view.ejected or not self._eject_budget_ok():
            return False
        view.ejected = True
        view.ejected_at = now
        self._ejected += 1
        self.version += 1
        view.ok_streak = 0
        if view.onset_at is not None:
            self.detection_lags.append(now - view.onset_at)
            view.onset_at = None
        else:
            self.false_positives += 1
        return True

    def _readmit(self, index: int) -> None:
        view = self._replicas[index]
        if view.ejected:
            self._ejected -= 1
            self.version += 1
        view.ejected = False
        view.fail_streak = 0
        view.ok_streak = 0

    # -------------------------------------------------------------- probes
    def record_probe(self, index: int, now: float, ok: bool) -> Optional[str]:
        """Feed one probe outcome; returns ``"ejected"``/``"readmitted"``
        when the probe flipped the replica's detected state."""
        view = self._replicas[index]
        if ok:
            view.fail_streak = 0
            if view.ejected:
                view.ok_streak += 1
                if (
                    view.ok_streak >= self.spec.healthy_after
                    and now - view.ejected_at >= self.probation
                ):
                    self._readmit(index)
                    return "readmitted"
            return None
        view.ok_streak = 0
        if view.ejected:
            return None
        view.fail_streak += 1
        if view.fail_streak >= self.spec.unhealthy_after:
            if self._eject(index, now):
                return "ejected"
        return None

    # ------------------------------------------------------- request stats
    def record_success(self, index: int, latency: float) -> None:
        view = self._replicas[index]
        view.window_total += 1
        view.window_latencies.append(latency)

    def record_error(self, index: int) -> None:
        view = self._replicas[index]
        view.window_total += 1
        view.window_errors += 1

    @staticmethod
    def _p99(latencies: List[float]) -> Optional[float]:
        if not latencies:
            return None
        ordered = sorted(latencies)
        return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]

    def evaluate_outliers(self, now: float) -> List[Tuple[int, str]]:
        """One windowed sweep: eject error-rate and p99 outliers, then
        reset the window.  Returns ``(replica, reason)`` per ejection."""
        spec = self.spec
        events: List[Tuple[int, str]] = []
        p99s: Dict[int, float] = {}
        for index, view in enumerate(self._replicas):
            p99 = self._p99(view.window_latencies)
            if p99 is not None:
                p99s[index] = p99
        median_p99: Optional[float] = None
        if len(p99s) >= 2:
            ordered = sorted(p99s.values())
            median_p99 = ordered[len(ordered) // 2]
        for index, view in enumerate(self._replicas):
            if not view.ejected and view.window_total >= spec.min_requests:
                rate = view.window_errors / view.window_total
                if (
                    spec.outlier_error_rate is not None
                    and rate >= spec.outlier_error_rate
                ):
                    if self._eject(index, now):
                        events.append((index, "error-rate"))
                elif (
                    spec.outlier_p99_factor is not None
                    and median_p99 is not None
                    and index in p99s
                    and p99s[index] > spec.outlier_p99_factor * median_p99
                ):
                    if self._eject(index, now):
                        events.append((index, "p99-outlier"))
            view.window_errors = 0
            view.window_total = 0
            view.window_latencies = []
        return events

    # --------------------------------------------------------- ground truth
    def note_onset(self, index: int, now: float) -> None:
        """A replica truly went bad at ``now`` (outage or gray onset).

        Already-ejected replicas count as pre-detected with zero lag;
        back-to-back onsets keep the earliest undetected one.
        """
        view = self._replicas[index]
        if view.ejected:
            self.detection_lags.append(0.0)
            return
        if view.onset_at is None:
            view.onset_at = now

    def note_clear(self, index: int, now: float) -> None:
        """The replica truly recovered; an onset still pending was never
        detected."""
        view = self._replicas[index]
        if view.onset_at is not None:
            self.missed_detections += 1
            view.onset_at = None

    def mean_time_to_detect(self) -> Optional[float]:
        if not self.detection_lags:
            return None
        return fold_sum(self.detection_lags) / len(self.detection_lags)


def detector_spec_to_dict(spec: DetectorSpec) -> Dict[str, Any]:
    return to_record(spec)


def detector_spec_from_dict(data: Dict[str, Any]) -> DetectorSpec:
    return from_record(DetectorSpec, data, "detector spec")
