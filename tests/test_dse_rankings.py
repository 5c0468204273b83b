"""The three DSE rankings: pinned tables and deadline-aware scoring.

``tests/data/dse_rankings.txt`` pins twelve ranking tables over a
three-point store (the shared two-point AlexNet store plus a fixed16
SqueezeNet point): traffic under poisson and bursty arrivals,
cost-to-serve, and resilience through a rack loss, each at 10, 30 and
200 r/s.  The file is read-only: regenerate it by hand
(``_ranking_tables`` of ``_pin_store``) only for an intended change of
a ranking.
"""

from pathlib import Path

import pytest

from repro.dse import (
    DesignPoint,
    cost_to_serve_table,
    rank_by_cost_to_serve,
    rank_by_resilience,
    rank_by_traffic,
    resilience_rank_table,
    run_sweep,
    traffic_rank_table,
)
from repro.serve import SLOSpec

PIN_PATH = Path(__file__).parent / "data" / "dse_rankings.txt"

_RATES = (10.0, 30.0, 200.0)
_SERVE_SLO = SLOSpec(p99_ms=500.0, max_drop_rate=0.05, min_throughput_rps=5.0)
_DRILL_SLO = SLOSpec(p99_ms=2000.0, max_drop_rate=0.25)


def _ranking_tables(results) -> str:
    """Every pinned ranking table, in a fixed order, blank-line separated."""
    tables = []
    for rate in _RATES:
        for process in ("poisson", "bursty"):
            rankings = rank_by_traffic(
                results, rate, _SERVE_SLO, duration_ms=200.0, process=process
            )
            tables.append(traffic_rank_table(rankings, rate, _SERVE_SLO))
        rankings = rank_by_cost_to_serve(
            results, rate, _SERVE_SLO, max_replicas=4, duration_ms=100.0
        )
        tables.append(cost_to_serve_table(rankings, rate, _SERVE_SLO))
        rankings = rank_by_resilience(
            results, rate, _DRILL_SLO,
            scenario="rack-loss", replicas=4, duration_ms=200.0,
        )
        tables.append(
            resilience_rank_table(rankings, rate, _DRILL_SLO, "rack-loss")
        )
    return "\n\n".join(tables) + "\n"


@pytest.fixture(scope="module")
def pin_store(sweep_results):
    """The shared two-point store plus a fixed16 SqueezeNet point."""
    squeezenet = DesignPoint(
        network="squeezenet", dsp=2240, bram18k=1648, dtype="fixed16"
    )
    return list(sweep_results) + list(run_sweep([squeezenet]).results)


class TestRankingPin:
    def test_tables_match_pin(self, pin_store):
        assert _ranking_tables(pin_store) == PIN_PATH.read_text()


class TestDeadlineRankings:
    """A 1 ms deadline no design meets must fail every ranking alike."""

    SLO = SLOSpec(p99_ms=2000.0, max_drop_rate=0.05, deadline_ms=1.0)

    def test_every_ranking_charges_late_completions(self, sweep_results):
        traffic = rank_by_traffic(sweep_results, 30.0, self.SLO)
        resilience = rank_by_resilience(
            sweep_results, 30.0, self.SLO, replicas=2, duration_ms=200.0
        )
        cost = rank_by_cost_to_serve(
            sweep_results, 30.0, self.SLO, max_replicas=2
        )
        assert len(traffic) == len(resilience) == len(cost) == 2
        assert not any(entry.report.meets for entry in traffic)
        assert not any(entry.report.meets for entry in resilience)
        assert not any(entry.plan.meets for entry in cost)
        for entry in traffic:
            assert sum(t.late for t in entry.serve.tenants) > 0
        for entry in resilience:
            assert sum(t.late for t in entry.fleet.tenants) > 0

    def test_goodput_excludes_late_completions(self, sweep_results):
        entry = rank_by_traffic(sweep_results, 30.0, self.SLO)[0]
        throughput = sum(t.throughput_rps for t in entry.report.tenants)
        assert 0 <= entry.report.total_goodput_rps < throughput
