"""HLS template generation (Section 5).

Emits the parameterised C++ source of the CLP accelerator template
(Listing 4) for each CLP of a design.  The paper passes each CLP through
Vivado HLS 2016.3 separately, producing IP cores joined by an AXI
crossbar; here the generator produces the same per-CLP sources plus a
top-level integration summary, so a user with the Xilinx toolchain could
rebuild the accelerator.

The template is constructed from nine parameters (Section 5.1): Tn, Tm
(compute grid), Mmax, Kmax, insize, outsize (buffer sizing), and NP, WP,
MP (AXI stream port counts for input, weight, and output transfers).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Tuple

from ..core.clp import CLPConfig
from ..core.datatypes import DataType
from ..core.design import MultiCLPDesign
from ..core.layer import input_extent

__all__ = ["TemplateParameters", "template_parameters", "generate_clp_source",
           "generate_system", "LayerDescriptor", "layer_descriptor"]


@dataclass(frozen=True)
class TemplateParameters:
    """The nine HLS template parameters of Section 5.1."""

    tn: int
    tm: int
    m_max: int  # deepest output-map count across assigned layers (bias buffer)
    k_max: int  # largest kernel across assigned layers (weight buffer)
    insize: int  # input-buffer bank depth in words
    outsize: int  # output-buffer bank depth in words
    np_ports: int  # AXI stream ports for input transfer
    wp_ports: int  # AXI stream ports for weight transfer
    mp_ports: int  # AXI stream ports for output transfer


def _port_count(banks: int) -> int:
    """AXI stream ports so each port serves at most 16 banks."""
    return max(1, min(4, ceil(banks / 16)))


def template_parameters(clp: CLPConfig) -> TemplateParameters:
    """Derive the template parameters from an optimized CLP."""
    spec = clp.buffers
    return TemplateParameters(
        tn=clp.tn,
        tm=clp.tm,
        m_max=max(layer.m for layer in clp.layers),
        k_max=max(layer.k for layer in clp.layers),
        insize=spec.input_bank_words,
        outsize=spec.output_bank_words,
        np_ports=_port_count(clp.tn),
        wp_ports=_port_count(clp.tn * clp.tm // 8),
        mp_ports=_port_count(clp.tm),
    )


@dataclass(frozen=True)
class LayerDescriptor:
    """The 32-byte runtime argument descriptor of Section 5.1.

    Transferred over AXI4 at the start of a layer's computation; holds
    the loop bounds (R, C, M, N, K, S, Tr, Tc) from which the state
    machine derives rsteps/csteps/msteps/nsteps.
    """

    r: int
    c: int
    m: int
    n: int
    k: int
    s: int
    tr: int
    tc: int

    def pack(self) -> bytes:
        """Little-endian packing of the eight 32-bit arguments."""
        import struct

        return struct.pack(
            "<8i", self.r, self.c, self.m, self.n, self.k, self.s,
            self.tr, self.tc,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "LayerDescriptor":
        import struct

        if len(raw) != 32:
            raise ValueError(f"descriptor must be 32 bytes, got {len(raw)}")
        return cls(*struct.unpack("<8i", raw))

    def steps(self, tn: int, tm: int) -> Tuple[int, int, int, int]:
        """(rsteps, csteps, msteps, nsteps) for a (Tn, Tm) CLP."""
        return (
            ceil(self.r / self.tr),
            ceil(self.c / self.tc),
            ceil(self.m / tm),
            ceil(self.n / tn),
        )


def layer_descriptor(clp: CLPConfig, layer_name: str) -> LayerDescriptor:
    """Build the runtime descriptor for one of the CLP's layers."""
    for layer, (tr, tc) in zip(clp.layers, clp.tile_plans):
        if layer.name == layer_name:
            return LayerDescriptor(
                r=layer.r, c=layer.c, m=layer.m, n=layer.n,
                k=layer.k, s=layer.s, tr=tr, tc=tc,
            )
    raise KeyError(f"CLP does not compute layer {layer_name!r}")


_CTYPE = {"float32": "float", "fixed16": "ap_fixed<16, 8>"}


def generate_clp_source(clp: CLPConfig, name: str = "clp0") -> str:
    """Emit the C++ HLS source for one CLP.

    The structure mirrors Listing 4: an argument-descriptor transfer, the
    four outer loops, and a DATAFLOW region with read_bias, read_input,
    read_weights, compute, and write_output stages.  The PIPELINE
    directive in compute() unrolls the Tm and Tn loops.
    """
    p = template_parameters(clp)
    dtype = _CTYPE[clp.dtype.label]
    layer_list = ", ".join(layer.name for layer in clp.layers)
    return f"""// Auto-generated CLP accelerator (Multi-CLP ISCA'17 template).
// CLP: {name}   layers: {layer_list}
#include <ap_fixed.h>
#include <hls_stream.h>

typedef {dtype} data_t;

#define TN {p.tn}
#define TM {p.tm}
#define MMAX {p.m_max}
#define KMAX {p.k_max}
#define INSIZE {p.insize}
#define OUTSIZE {p.outsize}
#define NP {p.np_ports}
#define WP {p.wp_ports}
#define MP {p.mp_ports}

struct args_t {{  // 32-byte descriptor (Section 5.1)
    int R, C, M, N, K, S, Tr, Tc;
}};

static data_t in_buf[TN][INSIZE];
static data_t w_buf[TN][TM][KMAX * KMAX];
static data_t out_buf[TM][OUTSIZE];
static data_t bias_buf[TM];
#pragma HLS ARRAY_PARTITION variable=out_buf dim=1 complete
#pragma HLS ARRAY_PARTITION variable=bias_buf dim=1 complete
#pragma HLS ARRAY_PARTITION variable=in_buf dim=1 complete
#pragma HLS ARRAY_PARTITION variable=w_buf dim=1 complete
#pragma HLS ARRAY_PARTITION variable=w_buf dim=2 complete

static void read_bias(hls::stream<data_t> &bias, int m, int msteps);
static void read_input(hls::stream<data_t> port[NP], const args_t &a,
                       int r, int c, int n);
static void read_weights(hls::stream<data_t> port[WP], const args_t &a,
                         int m, int n);
static void write_output(hls::stream<data_t> port[MP], const args_t &a,
                         int r, int c, int m, int n, int nsteps);

static void compute(const args_t &a, int rloops, int cloops, int n) {{
    for (int i = 0; i < a.K; i++)
        for (int j = 0; j < a.K; j++)
            for (int tr = 0; tr < rloops; tr++)
                for (int tc = 0; tc < cloops; tc++) {{
#pragma HLS PIPELINE II=1
                    for (int tm = 0; tm < TM; tm++)
#pragma HLS UNROLL
                        for (int tn = 0; tn < TN; tn++) {{
#pragma HLS UNROLL
                            data_t wx = w_buf[tn][tm][i * a.K + j];
                            data_t ix =
                                in_buf[tn][(a.S * tr + i) * ((a.Tc - 1) * a.S + a.K)
                                           + a.S * tc + j];
                            if (i == 0 && j == 0 && tn == 0 && n == 0)
                                out_buf[tm][tr * a.Tc + tc] = bias_buf[tm]
                                    + wx * ix;
                            else
                                out_buf[tm][tr * a.Tc + tc] += wx * ix;
                        }}
                }}
}}

extern "C" void {name}(hls::stream<data_t> in_port[NP],
                       hls::stream<data_t> w_port[WP],
                       hls::stream<data_t> out_port[MP],
                       hls::stream<data_t> &bias_port,
                       const args_t args) {{
#pragma HLS INTERFACE s_axilite port=return
    const args_t a = args;  // descriptor burst (32 bytes)
    const int rsteps = (a.R + a.Tr - 1) / a.Tr;
    const int csteps = (a.C + a.Tc - 1) / a.Tc;
    const int msteps = (a.M + TM - 1) / TM;
    const int nsteps = (a.N + TN - 1) / TN;
    for (int r = 0; r < rsteps; r++)
        for (int c = 0; c < csteps; c++)
            for (int m = 0; m < msteps; m++)
                for (int n = 0; n < nsteps; n++) {{
#pragma HLS DATAFLOW
                    int rloops = (r == rsteps - 1) ? a.R - r * a.Tr : a.Tr;
                    int cloops = (c == csteps - 1) ? a.C - c * a.Tc : a.Tc;
                    read_bias(bias_port, m, msteps);
                    read_input(in_port, a, r, c, n);
                    read_weights(w_port, a, m, n);
                    compute(a, rloops, cloops, n);
                    write_output(out_port, a, r, c, m, n, nsteps);
                }}
}}
"""


def generate_system(design: MultiCLPDesign) -> str:
    """Emit a top-level integration summary for a Multi-CLP design.

    Lists each generated IP core, its AXI ports, and the per-layer
    argument descriptors the host must issue each epoch — the pieces a
    Vivado block design needs around the HLS cores.
    """
    lines = [
        f"// Multi-CLP system: {design.network.name} "
        f"[{design.dtype.label}], {design.num_clps} CLPs",
        "// AXI crossbar + DataMover integration manifest",
    ]
    for index, clp in enumerate(design.clps):
        p = template_parameters(clp)
        lines.append(
            f"// clp{index}: Tn={p.tn} Tm={p.tm} ports NP={p.np_ports} "
            f"WP={p.wp_ports} MP={p.mp_ports} dsp={clp.dsp} bram={clp.bram}"
        )
        for layer, (tr, tc) in zip(clp.layers, clp.tile_plans):
            lines.append(
                f"//   descriptor {layer.name}: R={layer.r} C={layer.c} "
                f"M={layer.m} N={layer.n} K={layer.k} S={layer.s} "
                f"Tr={tr} Tc={tc}"
            )
    sources = "\n".join(
        generate_clp_source(clp, name=f"clp{index}")
        for index, clp in enumerate(design.clps)
    )
    return "\n".join(lines) + "\n\n" + sources
