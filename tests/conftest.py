"""Shared fixtures: small networks and canned optimized designs.

Optimizer runs dominate the suite's wall-clock, and several test
modules used to re-solve the same canonical scenarios (AlexNet on the
VX485T, the two-network joint design) independently.  Everything here
is a frozen value object, so session scope is safe: solve once, share
everywhere.
"""

import pytest

from repro.core.clp import CLPConfig
from repro.core.datatypes import FIXED16, FLOAT32
from repro.core.design import MultiCLPDesign
from repro.core.layer import ConvLayer
from repro.core.network import Network
from repro.fpga.parts import budget_for
from repro.networks import alexnet, squeezenet
from repro.opt import optimize_joint, optimize_multi_clp


@pytest.fixture(scope="session")
def toy_network() -> Network:
    """Two stacked 13x13 conv layers: big enough to queue, tiny to solve."""
    return Network(
        "toy",
        [
            ConvLayer("a", n=16, m=32, r=13, c=13, k=3),
            ConvLayer("b", n=32, m=32, r=13, c=13, k=3),
        ],
    )


@pytest.fixture(scope="session")
def toy_design(toy_network) -> MultiCLPDesign:
    """Hand-built 2-CLP partition of the toy network (no optimizer run)."""
    layer_a, layer_b = toy_network.layers
    return MultiCLPDesign(
        toy_network,
        [
            CLPConfig(4, 16, [layer_a], FLOAT32, [(13, 13)]),
            CLPConfig(8, 16, [layer_b], FLOAT32, [(13, 13)]),
        ],
        FLOAT32,
    )


@pytest.fixture(scope="session")
def alexnet_485t_design() -> MultiCLPDesign:
    """The paper's canonical scenario: AlexNet float32 on a VX485T."""
    return optimize_multi_clp(alexnet(), budget_for("485t"), FLOAT32)


@pytest.fixture(scope="session")
def joint_design_690t():
    """Two-network joint accelerator: AlexNet + SqueezeNet on a VX690T."""
    return optimize_joint([alexnet(), squeezenet()], budget_for("690t"), FIXED16)


@pytest.fixture(scope="session")
def sweep_results():
    """Two solved AlexNet points: small single-CLP, 485T-sized Multi-CLP."""
    from repro.dse import DesignPoint, run_sweep

    points = [
        DesignPoint(network="alexnet", dsp=800, bram18k=700, single=True),
        DesignPoint(network="alexnet", dsp=2240, bram18k=1648),
    ]
    return run_sweep(points).results
