"""Declarative sweep specifications.

A :class:`SweepSpec` names the axes of a study — networks, FPGA parts
and/or synthetic DSP·BRAM budgets, datatypes, bandwidth caps, CLP caps,
single/multi mode, layer orderings — and :meth:`SweepSpec.expand`
unrolls the cross-product into concrete :class:`DesignPoint`s in a
deterministic order.  Equivalent points (e.g. single-CLP mode under
different ``max_clps`` caps) collapse to one canonical point, so a spec
never solves the same scenario twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Tuple

from ..core.datatypes import DataType
from ..fpga.parts import budget_for
from ..networks import get_network
from ..opt.driver import (
    DEFAULT_MAX_CLPS, DEFAULT_SLACK, DEFAULT_STEP, check_settings,
)
from ..opt.heuristics import get_ordering
from .point import DesignPoint

__all__ = ["SweepSpec"]

_MODES = ("single", "multi")


@dataclass(frozen=True)
class SweepSpec:
    """Axes of a design-space study; the cross-product is the sweep."""

    networks: Tuple[str, ...]
    parts: Tuple[str, ...] = ()
    budgets: Tuple[Tuple[int, int], ...] = ()  # synthetic (dsp, bram18k)
    dtypes: Tuple[str, ...] = ("float32",)
    bandwidths_gbps: Tuple[Optional[float], ...] = (None,)
    frequencies_mhz: Tuple[float, ...] = (100.0,)
    modes: Tuple[str, ...] = ("multi",)
    max_clps: Tuple[int, ...] = (DEFAULT_MAX_CLPS,)
    orderings: Tuple[str, ...] = ("auto",)
    fraction: float = 0.8
    step: float = DEFAULT_STEP
    slack: float = DEFAULT_SLACK

    def __post_init__(self) -> None:
        # Accept any sequences; store canonical tuples.
        for name in (
            "networks", "parts", "budgets", "dtypes", "bandwidths_gbps",
            "frequencies_mhz", "modes", "max_clps", "orderings",
        ):
            value = getattr(self, name)
            if isinstance(value, (str, bytes)):
                raise TypeError(f"{name} must be a sequence, not a bare string")
            object.__setattr__(
                self,
                name,
                tuple(tuple(v) if isinstance(v, (list, tuple)) else v
                      for v in value),
            )
        if not self.networks:
            raise ValueError("a sweep needs at least one network")
        if not self.parts and not self.budgets:
            raise ValueError("a sweep needs FPGA parts or synthetic budgets")
        for mode in self.modes:
            if mode not in _MODES:
                raise ValueError(f"unknown mode {mode!r}; expected {_MODES}")
        for dtype in self.dtypes:
            DataType.from_name(dtype)  # fail fast on typos
        for ordering in self.orderings:
            if ordering != "auto":
                get_ordering(ordering)
        for name in self.networks:
            get_network(name)
        for part in self.parts:
            budget_for(part, fraction=self.fraction)
        for budget in self.budgets:
            if len(budget) != 2 or int(budget[0]) <= 0 or int(budget[1]) <= 0:
                raise ValueError(
                    f"synthetic budget {budget!r} must be a positive "
                    "(dsp, bram18k) pair"
                )
        for cap in self.max_clps:
            if int(cap) < 1:
                raise ValueError(f"max_clps axis value {cap} must be >= 1")
        check_settings(self.step, self.slack)

    @property
    def size(self) -> int:
        """Number of distinct points the spec expands to."""
        return len(self.expand())

    def expand(self) -> List[DesignPoint]:
        """Unroll the cross-product into deterministic, deduplicated points."""
        budgets: List[Tuple[Optional[str], int, int]] = []
        for part in self.parts:
            resolved = budget_for(part, fraction=self.fraction)
            budgets.append((part, resolved.dsp, resolved.bram18k))
        for dsp, bram18k in self.budgets:
            budgets.append((None, int(dsp), int(bram18k)))

        points: List[DesignPoint] = []
        seen = set()
        for network, (part, dsp, bram), dtype, bandwidth, freq, mode, cap, \
                ordering in product(
                    self.networks, budgets, self.dtypes, self.bandwidths_gbps,
                    self.frequencies_mhz, self.modes, self.max_clps,
                    self.orderings):
            point = DesignPoint(
                network=network,
                part=part,
                dsp=dsp,
                bram18k=bram,
                dtype=dtype,
                bandwidth_gbps=bandwidth,
                frequency_mhz=freq,
                single=mode == "single",
                max_clps=cap,  # DesignPoint canonicalizes to 1 when single
                ordering=ordering,
                step=self.step,
                slack=self.slack,
            )
            key = point.key()
            if key not in seen:
                seen.add(key)
                points.append(point)
        return points

    def describe(self) -> str:
        axes = [
            f"networks={list(self.networks)}",
            f"budgets={[*self.parts, *self.budgets]}",
            f"dtypes={list(self.dtypes)}",
            f"bandwidths={list(self.bandwidths_gbps)}",
            f"modes={list(self.modes)}",
            f"max_clps={list(self.max_clps)}",
            f"orderings={list(self.orderings)}",
        ]
        return f"SweepSpec({', '.join(axes)}) -> {self.size} points"
