"""Exact pin of every design the optimizer produces on the Table 1 grid.

``tests/data/table1_designs.json`` holds, per grid point, what a DSE
sweep record says about the design: each CLP's ``tn``/``tm``/layers/
``tile_plans``, the optimizer report (``target``, ``iterations``,
``candidates_evaluated``) and the metrics.  ``elapsed_s`` is left out
because it is wall time.  ``test_paper_regression.py`` pins only the
epoch cycles of eight cells; this pin catches any change to tile plans,
DSP split or relaxation path on all 32 points.

The test compares and never rewrites the file.  Regenerate it by hand,
with a one-off script over ``_design_records``, only when a change is
*meant* to alter optimizer output.
"""

import json
from pathlib import Path

from repro.dse import SweepSpec, run_sweep

PINNED_PATH = Path(__file__).parent / "data" / "table1_designs.json"

#: The paper's Table 1 grid: every network, part, datatype and mode.
TABLE1_GRID = dict(
    networks=("alexnet", "vggnet-e", "squeezenet", "googlenet"),
    parts=("485t", "690t"),
    dtypes=("float32", "fixed16"),
    modes=("single", "multi"),
)


def _design_records():
    """Point name -> pinned fields of its sweep record, for the grid."""
    outcome = run_sweep(SweepSpec(**TABLE1_GRID).expand(), workers=1)
    records = {}
    for result in outcome.results:
        point = result.point
        name = f"{point.network}/{point.part}/{point.dtype}/{point.mode}"
        assert result.ok, name
        records[name] = {
            "clps": list(result.clps),
            "optimizer": result.optimizer,
            "metrics": result.metrics,
        }
    return records


def test_designs_match_records():
    records = _design_records()
    pinned = json.loads(PINNED_PATH.read_text())
    assert sorted(pinned) == sorted(records)
    for name, record in records.items():
        # Compare through JSON text so float reprs must match exactly.
        assert json.dumps(record, sort_keys=True) == json.dumps(
            pinned[name], sort_keys=True
        ), name
