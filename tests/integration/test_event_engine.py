"""Acceptance tests for the discrete-event fleet engine.

Four guarantees are pinned here:

* **engine equivalence** — at 256 clients, the event engine produces
  bit-identical ``TrainingHistory.deterministic_rows()`` and final weights to
  :func:`_reference_round`, a plain round written out from the runtime's
  public primitives with each scheduler's rule stated directly, for every
  scheduler (sync / semi-sync / async, each under its natural fleet preset)
  and every executor (serial / thread / process);
* **crash-safe equivalence** — a kill + resume under the event engine lands
  on exactly the uninterrupted reference run;
* **O(events) rounds** — per-round client touches scale with participants +
  availability transitions, not fleet size: a 4x larger fleet with the same
  participant count produces identical steady-state touch counts, and
  resident state (materialised clients, links, models) stays bounded by
  activity;
* **corrupted uploads** — a :class:`~repro.fl.scenarios.CorruptedUpload`
  fault trains and transmits, the server's checksum frame rejects the
  payload, and the accounting (dropped update, zero accepted bytes) is
  bit-identical across all three executors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FedSZCompressor
from repro.data import load_dataset
from repro.fl import (
    FederatedRuntime,
    FLConfig,
    ParallelExecutor,
    ProcessParallelExecutor,
    SerialExecutor,
    build_fleet_runtime,
    get_scenario,
)
from repro.fl.aggregation import mix_states
from repro.fl.scenarios import CorruptedUploadSchedule, FullParticipation
from repro.fl.scheduler import AsynchronousScheduler, SemiSynchronousScheduler
from repro.nn.models import create_model

PRESETS = ["uniform-edge", "diurnal", "flash-crowd"]  # sync / semi-sync / async
EXECUTORS = ["serial", "thread", "process"]


@pytest.fixture(scope="module")
def fleet_data():
    full = load_dataset("cifar10", num_samples=640, image_size=8, seed=0)
    return full.split(0.75, seed=1)


def _make_executor(name: str):
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ParallelExecutor(max_workers=4)
    return ProcessParallelExecutor(max_workers=4)


def _model_fn():
    return create_model("alexnet", "tiny", num_classes=10, seed=0)


def _build_fleet(fleet_data, preset_name: str, executor_name: str):
    train, validation = fleet_data
    overrides = {}
    if preset_name == "flash-crowd":
        # Async arrival order sorts on turnaround, which includes *measured*
        # train seconds.  The preset cycles four bandwidths, so same-bandwidth
        # clients would be ordered by wall-clock noise; distinct per-client
        # bandwidths separate every pair by >= ~10ms of simulated transfer,
        # making the ordering a pure function of the config (the precondition
        # for any async run to be run-to-run reproducible).
        overrides["bandwidths_mbps"] = tuple(0.2 + 0.01 * i for i in range(256))
    preset = get_scenario(preset_name, num_clients=256, rounds=2, **overrides)
    return build_fleet_runtime(
        preset,
        _model_fn,
        train,
        validation,
        codec=None,
        executor=_make_executor(executor_name),
        seed=7,
        batch_size=16,
    )


def _reference_round(runtime):
    """One round from the public primitives, each scheduler's rule spelled out.

    Sync waits for the slowest turnaround; semi-sync aggregates deliveries
    with ``turnaround <= deadline`` and runs to the deadline when anything is
    missing; async mixes deliveries in ``(turnaround, client_id)`` order with
    staleness-decayed weights.  The availability mask is computed in full
    every round, where the engine folds transition streams.
    """
    scheduler = runtime.scheduler
    round_index = len(runtime.history)
    mask = runtime.schedule.mask(round_index, len(runtime.clients))
    context = runtime.start_round(eligible=np.nonzero(mask)[0])
    results = runtime.execute_clients(context)
    delivered = [r for r in results if r.delivered]

    if isinstance(scheduler, AsynchronousScheduler):
        arrivals = sorted(delivered, key=lambda r: (r.turnaround_seconds, r.client_id))
        weights, staleness = {}, {}
        state = runtime.server.global_state()
        for position, result in enumerate(arrivals):
            weights[result.client_id] = scheduler.staleness_weight(position)
            staleness[result.client_id] = position
            state = mix_states(state, result.state, weights[result.client_id])
        if arrivals:
            runtime.server.set_global_state(state)
        return runtime.finish_round(
            context,
            results,
            aggregated_ids={r.client_id for r in arrivals},
            round_seconds=max((r.turnaround_seconds for r in arrivals), default=0.0),
            client_weights=weights,
            client_staleness=staleness,
        )

    if isinstance(scheduler, SemiSynchronousScheduler):
        deadline = scheduler.deadline_seconds
        aggregated = [r for r in delivered if r.turnaround_seconds <= deadline]
        round_seconds = (
            deadline
            if len(aggregated) < len(results)
            else max((r.turnaround_seconds for r in aggregated), default=0.0)
        )
    else:
        aggregated = delivered
        round_seconds = max((r.turnaround_seconds for r in results), default=0.0)
    if aggregated:
        runtime.server.aggregate(
            [r.state for r in aggregated],
            [float(r.update.num_samples) for r in aggregated],
        )
    return runtime.finish_round(
        context,
        results,
        aggregated_ids={r.client_id for r in aggregated},
        round_seconds=round_seconds,
    )


def _run_reference(runtime, rounds):
    try:
        while len(runtime.history) < rounds:
            _reference_round(runtime)
        return runtime.history
    finally:
        runtime.close()


def _run_closed(runtime, *args, **kwargs):
    try:
        return runtime.run(*args, **kwargs)
    finally:
        runtime.close()


def _assert_states_identical(reference, other):
    reference_state = reference.server.global_state()
    other_state = other.server.global_state()
    assert reference_state.keys() == other_state.keys()
    for name in reference_state:
        np.testing.assert_array_equal(
            reference_state[name], other_state[name], err_msg=name
        )


@pytest.mark.parametrize("preset_name", PRESETS)
def test_engine_matches_reference_round(fleet_data, preset_name):
    """256-client preset, every executor: engine rows + weights == reference."""
    reference = _build_fleet(fleet_data, preset_name, "serial")
    rows = _run_reference(reference, 2).deterministic_rows()
    assert len(rows) == 2
    for executor_name in EXECUTORS:
        engine_runtime = _build_fleet(fleet_data, preset_name, executor_name)
        history = _run_closed(engine_runtime)
        assert history.deterministic_rows() == rows, executor_name
        _assert_states_identical(reference, engine_runtime)


def test_event_engine_resume_is_bit_identical(fleet_data, tmp_path):
    """Kill after 2 of 4 rounds, resume with a fresh engine: the resumed run
    must land on the uninterrupted reference run exactly (availability
    rebuilds from the mask at the discontinuity, then continues
    incrementally)."""
    train, validation = fleet_data
    preset = get_scenario("diurnal", num_clients=256, rounds=4)

    def build():
        return build_fleet_runtime(
            preset, _model_fn, train, validation, codec=None, seed=7, batch_size=16,
        )

    uninterrupted = build()
    rows = _run_reference(uninterrupted, 4).deterministic_rows()

    first = build()
    _run_closed(first, 2, checkpoint_dir=tmp_path)
    resumed = build()
    history = _run_closed(resumed, 4, checkpoint_dir=tmp_path, resume=True)
    assert history.deterministic_rows() == rows
    _assert_states_identical(uninterrupted, resumed)


def test_round_cost_scales_with_events_not_fleet_size():
    """Same participant count at 2048 vs 8192 clients: after the round-0
    arrival burst, per-round touches are identical and resident state stays
    bounded by activity — the O(events) claim, asserted on counters."""
    full = load_dataset("cifar10", num_samples=10_000, image_size=8, seed=0)
    train, validation = full.split(0.9, seed=1)
    participants = 32
    touches = {}
    for fleet_size in (2048, 8192):
        runtime = FederatedRuntime(
            _model_fn,
            train,
            validation,
            FLConfig(
                num_clients=fleet_size,
                rounds=3,
                batch_size=16,
                local_epochs=1,
                client_fraction=participants / fleet_size,
                seed=3,
            ),
            schedule=FullParticipation(),
        )
        _run_closed(runtime)
        stats = runtime.engine.stats
        assert stats.rounds_run == 3
        assert stats.participants == 3 * participants
        # Round 0 pays the full-fleet arrival burst; steady state touches
        # only the participants.
        assert stats.round_touches[0] == participants + fleet_size
        touches[fleet_size] = stats.round_touches[1:]
        assert touches[fleet_size] == [participants, participants]
        # Resident state is bounded by activity, not the census.
        assert runtime.clients.materialized_count <= 3 * participants
        assert len(runtime.transport.links) <= 3 * participants
        assert runtime.model_pool.created == 1
    assert touches[2048] == touches[8192]


@pytest.mark.parametrize("codec_fn", [lambda: None, lambda: FedSZCompressor(error_bound=1e-2)],
                         ids=["raw", "fedsz"])
def test_corrupted_upload_is_rejected_identically_across_executors(codec_fn):
    """A corrupted client trains and occupies its link, but the checksum
    frame rejects the payload: dropped update, zero accepted bytes, and
    bit-identical accounting under serial/thread/process execution."""
    full = load_dataset("cifar10", num_samples=160, image_size=8, seed=0)
    train, validation = full.split(0.75, seed=1)
    faults = CorruptedUploadSchedule({0: [1], 1: [3]})

    def run(executor_name):
        runtime = FederatedRuntime(
            _model_fn,
            train,
            validation,
            FLConfig(
                num_clients=6, rounds=2, batch_size=16, local_epochs=1,
                client_fraction=1.0, seed=3,
            ),
            codec=codec_fn(),
            executor=_make_executor(executor_name),
            client_faults=faults,
        )
        history = _run_closed(runtime)
        return history

    reference = run("serial")
    rows = reference.deterministic_rows()
    round_zero = reference.records[0]
    corrupted = [s for s in round_zero.client_stats if s.client_id == 1][0]
    assert not corrupted.delivered
    assert corrupted.payload_nbytes > 0  # the wire bytes travelled...
    assert round_zero.uplink_bytes == sum(  # ...but were never accepted
        s.payload_nbytes for s in round_zero.client_stats if s.delivered
    )
    assert round_zero.dropped_clients == 1
    for executor_name in ("thread", "process"):
        assert run(executor_name).deterministic_rows() == rows, executor_name
