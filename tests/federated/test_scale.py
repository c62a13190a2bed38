"""Population-scale smoke tests (`pytest -m scale`).

Fast checks that the engine's scaling claims hold at ~10⁵ clients: cohort-
bounded memory on the lazy client plane, and an event queue that drains a
10⁵-event backlog in order.  The full 10⁶-client measurement lives in
``benchmarks/run_benchmarks.py``; these keep the properties under CI-speed
regression watch.
"""

import tracemalloc

import pytest

from repro.data import SyntheticPopulation
from repro.experiments.models import model_fn_for
from repro.federated import (
    ClientUpdateArrival,
    FederatedSimulation,
    LocalTrainingConfig,
    LogNormalLatency,
    ScenarioConfig,
    SimulationConfig,
    VirtualClockScheduler,
)

pytestmark = pytest.mark.scale


def test_hundred_thousand_client_round_is_cohort_bounded():
    """A 10⁵-client population with a 100-client cohort: the round runs in
    seconds, materializes at most the cohort, and peak traced memory stays
    far below what 10⁵ shards would cost."""
    population_size = 100_000
    cohort = 100
    dataset = SyntheticPopulation(population_size=population_size, seed=0)
    config = SimulationConfig(
        rounds=2,
        local=LocalTrainingConfig(local_epochs=1, batch_size=8),
        clients_per_round=cohort,
        seed=0,
        track_per_client_accuracy=False,
        retain_received_updates=False,
        scenario=ScenarioConfig(latency=LogNormalLatency(median=1.0, sigma=0.5)),
    )
    tracemalloc.start()
    sim = FederatedSimulation(dataset, model_fn_for(dataset), config)
    sim.run()
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert sim.population.peak_materialized <= cohort
    assert sim.population.materialized == 0
    # One shard is ~(8+2) samples × 16 features × 4 B plus its weight row;
    # 10⁵ of them would be hundreds of MB.  The cohort-bounded engine stays
    # within tens of MB even counting models, updates, and the event queue.
    assert peak_bytes < 64 * 1024 * 1024


def test_event_queue_drains_hundred_thousand_events_in_order():
    """10⁵ pending events schedule and drain fully ordered."""
    queue = VirtualClockScheduler()
    for i in range(100_000):
        # pseudo-random but deterministic spread over ~14h of virtual time
        queue.schedule(ClientUpdateArrival(time=(i * 7919 % 100_000) * 0.5, client_id=i))
    last = None
    drained = 0
    while len(queue):
        event = queue.pop()
        assert last is None or event.time >= last
        last = event.time
        drained += 1
    assert drained == 100_000
