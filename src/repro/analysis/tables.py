"""Regeneration of the paper's evaluation tables (Section 6).

Each ``tableN()`` function runs the corresponding experiment with our
optimizer and models and returns a structured result holding both our
numbers and the paper's, plus a ``format()`` method that prints the
side-by-side comparison ``repro table1`` ... ``repro table9`` show;
``tests/test_paper_bands.py`` holds the results to the paper's bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..core.datatypes import DataType
from ..core.design import MultiCLPDesign
from ..fpga.parts import ResourceBudget, budget_for
from ..hls.synthesis import DesignImplementation, implement_design
from ..networks import get_network
from ..opt import optimize_multi_clp, optimize_single_clp
from . import paper_data
from .report import render_table

__all__ = [
    "design_for",
    "Table1Result",
    "table1",
    "Table2Result",
    "table2",
    "Table3Result",
    "table3",
    "table4",
    "table5",
    "ModelVsImplResult",
    "table6",
    "table7",
    "ImplementationResult",
    "table8",
    "table9",
]

#: The paper's evaluation clock rates (Section 6.3).
FREQ_MHZ = {"float32": 100.0, "fixed16": 170.0}


@lru_cache(maxsize=None)
def design_for(
    network_name: str,
    part: str,
    dtype_name: str,
    single: bool,
    ordering: str = "auto",
    max_clps: int = 6,
) -> MultiCLPDesign:
    """Optimized (and cached) design for one evaluation scenario.

    Scenarios follow Section 6: 80% resource budgets, bandwidth left
    unconstrained during design (bandwidth needs are reported after).
    SqueezeNet fixed-point runs use the compute-to-data ordering the
    paper selects for bandwidth-heavy accelerators.  A DSE sweep keeps
    ``auto`` ordering there, so its SqueezeNet fixed16 Multi-CLP designs
    (and perfbench's Table 1 grid) differ from these.
    """
    dtype = DataType.from_name(dtype_name)
    budget = budget_for(part, frequency_mhz=FREQ_MHZ[dtype.label])
    network = get_network(network_name)
    if ordering == "auto" and network_name == "squeezenet" and dtype.label == "fixed16":
        ordering = "compute-to-data"
    optimize = optimize_single_clp if single else optimize_multi_clp
    kwargs = {} if single else {"max_clps": max_clps}
    return optimize(network, budget, dtype, ordering=ordering, **kwargs)


# ===================================================================== Table 1
@dataclass(frozen=True)
class Table1Row:
    fpga: str
    dtype: str
    network: str
    single_util: float
    multi_util: float
    paper_single: float
    paper_multi: float


@dataclass(frozen=True)
class Table1Result:
    rows: Tuple[Table1Row, ...]

    def format(self) -> str:
        table_rows = [
            (
                row.fpga,
                row.dtype,
                row.network,
                f"{row.single_util:.1%}",
                f"{row.paper_single:.1%}",
                f"{row.multi_util:.1%}",
                f"{row.paper_multi:.1%}",
            )
            for row in self.rows
        ]
        return render_table(
            ["FPGA", "dtype", "network", "S-CLP", "paper", "M-CLP", "paper"],
            table_rows,
            title="Table 1: dynamic arithmetic-unit utilization",
        )


def table1(
    networks: Tuple[str, ...] = ("alexnet", "vggnet-e", "squeezenet", "googlenet"),
    parts: Tuple[str, ...] = ("485t", "690t"),
    dtypes: Tuple[str, ...] = ("float32", "fixed16"),
) -> Table1Result:
    """Utilization of Single- vs Multi-CLP across the 16 cases."""
    rows: List[Table1Row] = []
    for part in parts:
        for dtype in dtypes:
            for network in networks:
                single = design_for(network, part, dtype, single=True)
                multi = design_for(network, part, dtype, single=False)
                paper = paper_data.TABLE1_UTILIZATION[(part, dtype, network)]
                rows.append(
                    Table1Row(
                        fpga=part,
                        dtype=dtype,
                        network=network,
                        single_util=single.arithmetic_utilization,
                        multi_util=multi.arithmetic_utilization,
                        paper_single=paper[0],
                        paper_multi=paper[1],
                    )
                )
    return Table1Result(rows=tuple(rows))


# ===================================================================== Table 2
@dataclass(frozen=True)
class ConfigRow:
    clp: int
    tn: int
    tm: int
    layers: Tuple[str, ...]
    cycles_k: int
    tile_plans: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Table2Result:
    scenario: str
    rows: Tuple[ConfigRow, ...]
    overall_cycles_k: int
    paper_overall_cycles_k: int

    def format(self) -> str:
        table_rows = [
            (
                f"CLP{row.clp}",
                row.tn,
                row.tm,
                ", ".join(row.layers),
                row.cycles_k,
            )
            for row in self.rows
        ]
        body = render_table(
            ["CLP", "Tn", "Tm", "layers", "cycles x1000"],
            table_rows,
            title=f"Table 2 [{self.scenario}]",
        )
        return (
            f"{body}\noverall: {self.overall_cycles_k}k cycles "
            f"(paper: {self.paper_overall_cycles_k}k)"
        )


def _config_result(
    design: MultiCLPDesign, scenario: str, paper_overall: int, table: str
) -> Table2Result:
    rows = tuple(
        ConfigRow(
            clp=i,
            tn=clp.tn,
            tm=clp.tm,
            layers=clp.layer_names,
            cycles_k=round(clp.total_cycles / 1000),
            tile_plans=clp.tile_plans,
        )
        for i, clp in enumerate(design.clps)
    )
    return Table2Result(
        scenario=f"{table} {scenario}",
        rows=rows,
        overall_cycles_k=round(design.epoch_cycles / 1000),
        paper_overall_cycles_k=paper_overall,
    )


def table2(scenario: str = "485t_single") -> Table2Result:
    """AlexNet float configurations (Table 2a-2d).

    ``scenario`` is one of ``485t_single``, ``690t_single``,
    ``485t_multi``, ``690t_multi``.
    """
    part, kind = scenario.split("_")
    design = design_for("alexnet", part, "float32", single=kind == "single")
    return _config_result(
        design, scenario, paper_data.TABLE2_OVERALL_CYCLES_K[scenario], "Table2"
    )


def table4(scenario: str = "485t_single") -> Table2Result:
    """SqueezeNet fixed16 configurations (Table 4a-4d)."""
    part, kind = scenario.split("_")
    design = design_for("squeezenet", part, "fixed16", single=kind == "single")
    return _config_result(
        design, scenario, paper_data.TABLE4_OVERALL_CYCLES_K[scenario], "Table4"
    )


# ===================================================================== Table 3
@dataclass(frozen=True)
class ResourceRow:
    scenario: str
    bram: int
    dsp: int
    bandwidth_gbps: float
    utilization: float
    throughput: float
    gops: float
    paper: paper_data.PaperResourceRow


@dataclass(frozen=True)
class Table3Result:
    title: str
    rows: Tuple[ResourceRow, ...]

    def format(self) -> str:
        table_rows = []
        for row in self.rows:
            paper = row.paper
            table_rows.append(
                (
                    row.scenario,
                    f"{row.bram} ({paper.bram})",
                    f"{row.dsp} ({paper.dsp})",
                    f"{row.bandwidth_gbps:.2f} ({paper.bandwidth_gbps:.2f})",
                    f"{row.utilization:.1%} ({paper.utilization:.1%})",
                    f"{row.throughput:.1f} ({paper.throughput:.1f})",
                    f"{row.gops:.1f} ({paper.gops:.1f})",
                )
            )
        return render_table(
            ["design", "BRAM", "DSP", "B/w GB/s", "util", "img/s", "Gop/s"],
            table_rows,
            title=f"{self.title} -- ours (paper)",
        )


def _resource_row(
    design: MultiCLPDesign,
    scenario: str,
    freq_mhz: float,
    paper: paper_data.PaperResourceRow,
    slack: float = 0.02,
) -> ResourceRow:
    bandwidth = design.required_bandwidth_gbps(freq_mhz, slack)
    budget = ResourceBudget(
        dsp=10**9, bram18k=10**9, bandwidth_gbps=bandwidth,
        frequency_mhz=freq_mhz,
    )
    metrics = design.metrics(budget, slack)
    return ResourceRow(
        scenario=scenario,
        bram=design.bram,
        dsp=design.dsp,
        bandwidth_gbps=bandwidth,
        utilization=metrics.arithmetic_utilization,
        throughput=metrics.throughput_images_per_s,
        gops=metrics.gflops,
        paper=paper,
    )


def table3() -> Table3Result:
    """AlexNet float resource usage and throughput at 100 MHz."""
    rows = []
    for part in ("485t", "690t"):
        for kind in ("single", "multi"):
            design = design_for("alexnet", part, "float32", single=kind == "single")
            rows.append(
                _resource_row(
                    design,
                    f"{part} {kind[0].upper()}-CLP",
                    100.0,
                    paper_data.TABLE3_RESOURCES[(part, kind)],
                )
            )
    return Table3Result(title="Table 3: AlexNet float @100MHz", rows=tuple(rows))


def table5() -> Table3Result:
    """SqueezeNet fixed16 resource usage and throughput at 170 MHz."""
    rows = []
    for part in ("485t", "690t"):
        for kind in ("single", "multi"):
            design = design_for("squeezenet", part, "fixed16", single=kind == "single")
            rows.append(
                _resource_row(
                    design,
                    f"{part} {kind[0].upper()}-CLP",
                    170.0,
                    paper_data.TABLE5_RESOURCES[(part, kind)],
                )
            )
    return Table3Result(
        title="Table 5: SqueezeNet fixed16 @170MHz", rows=tuple(rows)
    )


# ================================================================ Tables 6-7
@dataclass(frozen=True)
class ModelVsImplResult:
    title: str
    scenario: str
    implementation: DesignImplementation
    paper_rows: Tuple[paper_data.PaperModelVsImpl, ...]

    def format(self) -> str:
        rows = []
        for i, clp in enumerate(self.implementation.clps):
            paper = self.paper_rows[i] if i < len(self.paper_rows) else None
            rows.append(
                (
                    clp.name,
                    clp.bram_model,
                    clp.bram_impl,
                    f"{paper.bram_model}/{paper.bram_impl}" if paper else "-",
                    clp.dsp_model,
                    clp.dsp_impl,
                    f"{paper.dsp_model}/{paper.dsp_impl}" if paper else "-",
                )
            )
        impl = self.implementation
        rows.append(
            (
                "overall",
                impl.bram_model,
                impl.bram_impl,
                f"{sum(p.bram_model for p in self.paper_rows)}/"
                f"{sum(p.bram_impl for p in self.paper_rows)}",
                impl.dsp_model,
                impl.dsp_impl,
                f"{sum(p.dsp_model for p in self.paper_rows)}/"
                f"{sum(p.dsp_impl for p in self.paper_rows)}",
            )
        )
        return render_table(
            ["CLP", "bram mdl", "bram impl", "paper m/i",
             "dsp mdl", "dsp impl", "paper m/i"],
            rows,
            title=f"{self.title} [{self.scenario}]",
        )


def table6(scenario: str = "485t_single") -> ModelVsImplResult:
    """AlexNet float: model vs (virtual) implementation resources."""
    part, kind = scenario.split("_")
    design = design_for("alexnet", part, "float32", single=kind == "single")
    return ModelVsImplResult(
        title="Table 6: AlexNet float model vs implementation",
        scenario=scenario,
        implementation=implement_design(design),
        paper_rows=tuple(paper_data.TABLE6_MODEL_VS_IMPL.get(scenario, ())),
    )


def table7(scenario: str = "690t_multi") -> ModelVsImplResult:
    """SqueezeNet fixed16: model vs (virtual) implementation resources."""
    part, kind = scenario.split("_")
    design = design_for("squeezenet", part, "fixed16", single=kind == "single")
    return ModelVsImplResult(
        title="Table 7: SqueezeNet fixed model vs implementation",
        scenario=scenario,
        implementation=implement_design(design),
        paper_rows=tuple(paper_data.TABLE7_MODEL_VS_IMPL.get(scenario, ())),
    )


# ================================================================ Tables 8-9
@dataclass(frozen=True)
class ImplementationResult:
    title: str
    scenarios: Tuple[str, ...]
    implementations: Tuple[DesignImplementation, ...]
    paper_rows: Tuple[Optional[paper_data.PaperImplRow], ...]

    def format(self) -> str:
        rows = []
        for scenario, impl, paper in zip(
            self.scenarios, self.implementations, self.paper_rows
        ):
            rows.append(
                (
                    scenario,
                    f"{impl.bram_impl} ({paper.bram})" if paper else impl.bram_impl,
                    f"{impl.dsp_impl} ({paper.dsp})" if paper else impl.dsp_impl,
                    f"{impl.flip_flops} ({paper.flip_flops})"
                    if paper
                    else impl.flip_flops,
                    f"{impl.luts} ({paper.luts})" if paper else impl.luts,
                    f"{impl.power_watts} ({paper.power_watts})"
                    if paper
                    else impl.power_watts,
                )
            )
        return render_table(
            ["design", "BRAM-18K", "DSP", "FF", "LUT", "power W"],
            rows,
            title=f"{self.title} -- ours (paper)",
        )


def table8() -> ImplementationResult:
    """AlexNet float full-FPGA implementation resources and power."""
    scenarios = ("485t_single", "485t_multi", "690t_multi")
    impls, papers = [], []
    for scenario in scenarios:
        part, kind = scenario.split("_")
        design = design_for("alexnet", part, "float32", single=kind == "single")
        impls.append(implement_design(design))
        papers.append(paper_data.TABLE8_RESOURCES.get(scenario))
    return ImplementationResult(
        title="Table 8: AlexNet float implementation",
        scenarios=scenarios,
        implementations=tuple(impls),
        paper_rows=tuple(papers),
    )


def table9() -> ImplementationResult:
    """SqueezeNet fixed16 full-FPGA implementation resources and power."""
    scenario = "690t_multi"
    design = design_for("squeezenet", "690t", "fixed16", single=False)
    return ImplementationResult(
        title="Table 9: SqueezeNet fixed implementation",
        scenarios=(scenario,),
        implementations=(implement_design(design),),
        paper_rows=(paper_data.TABLE9_RESOURCES.get(scenario),),
    )
