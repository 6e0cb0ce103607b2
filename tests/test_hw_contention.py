"""Tests for the combined contention model."""

import pytest

from repro.hardware.contention import (
    ContentionModel,
    ContentionParameters,
    WorkloadDemand,
)
from repro.hardware.topology import CASCADE_LAKE_5218


def demand(workload_id, rate=5e7, ws=20.0, hit=0.8, mlp=4.0):
    return WorkloadDemand(
        workload_id=workload_id,
        l2_miss_rate=rate,
        working_set_mb=ws,
        solo_l3_hit_fraction=hit,
        mlp=mlp,
    )


@pytest.fixture(scope="module")
def model():
    return ContentionModel(CASCADE_LAKE_5218)


def solo(model, workload):
    """The penalty ``workload`` experiences running alone."""
    return model.evaluate([workload])[workload.workload_id]


class TestSoloBehaviour:
    def test_solo_penalty_close_to_unloaded(self, model):
        penalty = solo(model, demand(1, rate=1e6, ws=4.0))
        assert penalty.l3_hit_fraction == pytest.approx(0.8, abs=0.01)
        assert penalty.l3_hit_latency_cycles == pytest.approx(
            CASCADE_LAKE_5218.l3.latency_cycles, rel=0.05
        )
        assert penalty.private_inflation == pytest.approx(1.0, abs=0.01)

    def test_stall_cycles_per_miss_mixes_hit_and_miss_latency(self, model):
        penalty = solo(model, demand(1, rate=1e6, ws=4.0))
        stall = penalty.stall_cycles_per_l2_miss(mlp=1.0)
        assert penalty.l3_hit_latency_cycles < stall < penalty.memory_latency_cycles

    def test_mlp_divides_stall(self, model):
        penalty = solo(model, demand(1))
        assert penalty.stall_cycles_per_l2_miss(4.0) == pytest.approx(
            penalty.stall_cycles_per_l2_miss(1.0) / 4.0
        )


class TestContention:
    def test_more_workloads_lower_hit_fraction(self, model):
        alone = model.evaluate([demand(0)])[0].l3_hit_fraction
        crowded = model.evaluate([demand(i) for i in range(20)])[0].l3_hit_fraction
        assert crowded < alone

    def test_more_workloads_higher_memory_latency(self, model):
        alone = model.evaluate([demand(0)])[0].memory_latency_cycles
        crowded = model.evaluate([demand(i) for i in range(25)])[0].memory_latency_cycles
        assert crowded > alone

    def test_private_inflation_bounded(self, model):
        penalties = model.evaluate([demand(i, rate=2e8) for i in range(30)])
        inflation = penalties[0].private_inflation
        assert 1.0 <= inflation <= 1.0 + model.parameters.private_pressure_sensitivity

    def test_all_workloads_receive_penalties(self, model):
        demands = [demand(i) for i in range(7)]
        penalties = model.evaluate(demands)
        assert set(penalties.keys()) == {d.workload_id for d in demands}

    def test_latency_only_traffic_does_not_consume_bandwidth(self, model):
        # A CT-Gen-like workload (hits in L3) should raise ring utilisation,
        # not memory-bandwidth utilisation.
        ct_like = [
            WorkloadDemand(
                workload_id=i,
                l2_miss_rate=2e8,
                working_set_mb=0.5,
                solo_l3_hit_fraction=0.99,
                mlp=8.0,
            )
            for i in range(16)
        ]
        penalties = model.evaluate(ct_like)
        assert penalties[0].ring_utilization > penalties[0].bandwidth_utilization

    def test_bandwidth_traffic_dominates_for_mb_like_load(self, model):
        mb_like = [
            WorkloadDemand(
                workload_id=i,
                l2_miss_rate=1.2e8,
                working_set_mb=26.0,
                solo_l3_hit_fraction=0.1,
                mlp=6.0,
            )
            for i in range(16)
        ]
        penalties = model.evaluate(mb_like)
        assert penalties[0].bandwidth_utilization > 0.3


class TestValidation:
    def test_demand_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            WorkloadDemand(workload_id=1, l2_miss_rate=-1, working_set_mb=1, solo_l3_hit_fraction=0.5)

    def test_demand_rejects_zero_mlp(self):
        with pytest.raises(ValueError):
            WorkloadDemand(workload_id=1, l2_miss_rate=1, working_set_mb=1, solo_l3_hit_fraction=0.5, mlp=0)

    def test_parameters_exposed(self, model):
        assert isinstance(model.parameters, ContentionParameters)
        assert model.machine is CASCADE_LAKE_5218
