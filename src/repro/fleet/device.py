"""Device specifications: the replica template a fleet is built from.

A :class:`DeviceSpec` pins everything one accelerator *instance* needs
to be simulated inside a cluster: the optimized design it runs (a
:class:`~repro.core.design.MultiCLPDesign` or a
:class:`~repro.opt.joint.JointDesign`), the FPGA part it is deployed on
(a catalog label used for cost accounting), an optional bandwidth cap,
and how its epoch length is calibrated — from the analytic model or by
running the cycle-level system simulator once (per-replica calibration,
so a heterogeneous fleet can mix both).  ``count`` replicates the spec,
which is how "N boards of this design" is expressed without N objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

from ..core.design import MultiCLPDesign
from ..opt.joint import JointDesign
from ..serve.simulator import design_name, resolve_epoch, tenant_plans

__all__ = ["DeviceSpec", "CALIBRATION_MODES"]

#: Epoch-length calibration modes (see :func:`repro.serve.simulator.resolve_epoch`).
CALIBRATION_MODES = ("model", "simulate")


@dataclass(frozen=True)
class DeviceSpec:
    """One replica template: design + part + epoch calibration.

    ``part`` is a human/cost label (e.g. ``"485t"``); the design itself
    already encodes the resource partition, so the part only matters for
    cost-to-serve accounting and reporting.  ``bytes_per_cycle`` caps
    the replica's off-chip bandwidth (``None`` = unconstrained), and
    ``calibrate`` selects the analytic epoch model or a one-epoch run of
    the cycle-level system simulator.
    """

    design: Union[MultiCLPDesign, JointDesign]
    part: Optional[str] = None
    count: int = 1
    bytes_per_cycle: Optional[float] = None
    calibrate: str = "model"
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")
        if self.calibrate not in CALIBRATION_MODES:
            raise ValueError(
                f"unknown calibration {self.calibrate!r}; "
                f"known: {CALIBRATION_MODES}"
            )
        if self.bytes_per_cycle is not None and self.bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive when set")

    # ------------------------------------------------------------ derivation
    def plans(self) -> Tuple[MultiCLPDesign, Dict[str, Tuple[int, Tuple[int, ...]]]]:
        """The (base design, tenant -> (depth, per-CLP cycles)) service plan."""
        return self._plans

    @cached_property
    def _plans(self) -> Tuple[MultiCLPDesign, Dict[str, Tuple[int, Tuple[int, ...]]]]:
        return tenant_plans(self.design)

    @property
    def networks(self) -> Tuple[str, ...]:
        """Tenant (network) names this device can serve."""
        _, plans = self.plans()
        return tuple(plans)

    def resolve_epoch(self) -> float:
        """Epoch length in cycles under this spec's calibration mode,
        solved (or simulated) once per spec."""
        return self._epoch

    @cached_property
    def _epoch(self) -> float:
        base, _ = self.plans()
        return resolve_epoch(base, self.bytes_per_cycle, self.calibrate)

    @property
    def display_label(self) -> str:
        if self.label is not None:
            return self.label
        part = f"@{self.part}" if self.part else ""
        return f"{design_name(self.design)}{part}"

    def replicated(self, count: int) -> "DeviceSpec":
        """The same template at a different replica count."""
        return replace(self, count=count)
