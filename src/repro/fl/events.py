"""Discrete-event engine: the one way a federated round runs.

Per-round work scales with **participants + availability transitions** — the
events that actually happen — so a 100k–1M-client fleet costs what its
activity costs, not what its census costs.

Pieces:

* :class:`EventQueue` — a deterministic priority queue (``heapq``) ordered by
  ``(time, seq)``.  The monotone sequence number makes ties reproducible:
  two events at the same instant pop in push order, never in hash or
  comparison-of-payload order.
* Typed events (:class:`Event`) — per-client completion (timed by the
  transport's simulated link seconds, which unifies the virtual clock) and
  the straggler deadline.
* :class:`EligibleSet` — the incrementally maintained "who is reachable"
  set.  Availability schedules compile into arrival/departure event streams
  (:meth:`repro.fl.scenarios.ParticipationSchedule.transitions`) instead of
  per-round full-fleet masks; applying a stream reproduces
  ``np.nonzero(mask)[0]`` bit for bit.
* :class:`FleetEngine` — runs one round of a
  :class:`~repro.fl.runtime.FederatedRuntime` from the queue.  Schedulers
  consume the round's completion events (``consume_events``): synchronous
  FedAvg is the degenerate barrier case (drain everything), the
  semi-synchronous deadline is a :data:`STRAGGLER_DEADLINE` event cutting the
  stream, and the asynchronous scheduler mixes deliveries in pop order.

Determinism contract
--------------------
Rounds are bit-identical across executors and under kill+resume (asserted at
256 clients across sync/semi-sync/async × serial/thread/process against a
plain reference round in ``tests/integration/test_event_engine.py``):

* Event times are **round-relative** turnaround durations, never re-based
  onto a global clock (float addition is not associative; ``t0 + a <= t0 +
  b`` can disagree with ``a <= b``).
* Completion events are pushed in task order, so pop order is
  ``(turnaround, task order)`` — and since participants are sorted by client
  id, that is the ``(turnaround_seconds, client_id)`` arrival order.  The
  deadline event is pushed after the completions, so a completion at
  exactly the deadline drains first (``turnaround <= deadline``).
* Aggregation happens in **task order** from the results list (events decide
  membership and timing only), so float summation order never changes.
* Sampling consumes the same RNG stream whether the eligible set was folded
  incrementally or rebuilt from a mask: both equal ``np.nonzero(mask)[0]``,
  and ``Generator.choice``'s draws depend only on the pool and draw count.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

#: One participant's update finished its simulated receive→train→transmit arc.
CLIENT_COMPLETION = "client-completion"
#: The semi-synchronous scheduler's cutoff: later completions are stragglers.
STRAGGLER_DEADLINE = "straggler-deadline"


@dataclass
class Event:
    """One typed occurrence on the round's virtual clock.

    ``time`` is round-relative (a turnaround duration) — see the module
    docstring's determinism contract for why it is never re-based.
    """

    kind: str
    time: float
    round_index: int = -1
    client_id: Optional[int] = None
    #: The :class:`~repro.fl.executor.ClientResult` behind a completion.
    result: Optional[object] = None


class EventQueue:
    """Deterministic priority queue: pops by ``(time, push order)``.

    Events never compare against each other — the heap entries are
    ``(time, seq, event)`` and the monotone ``seq`` breaks every time tie —
    so pop order is a pure function of the push sequence.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = 0

    def push(self, event: Event) -> None:
        """Enqueue ``event`` at ``event.time``."""
        heapq.heappush(self._heap, (float(event.time), self._seq, event))
        self._seq += 1

    def pop(self) -> Event:
        """Dequeue the earliest event (FIFO within one instant)."""
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class EligibleSet:
    """The reachable-client set, maintained from arrival/departure batches.

    Ids are held as a sorted, unique ``int64`` array — exactly what
    ``np.nonzero(mask)[0]`` yields — so handing :meth:`ids` to the sampler
    reproduces the mask-based draw bit for bit.  ``touched`` counts ids
    moved through :meth:`apply` / :meth:`reset_from_mask`: the O(events)
    guard asserts it scales with transitions, not fleet size.
    """

    def __init__(self) -> None:
        self._ids = np.empty(0, dtype=np.int64)
        self.touched = 0

    def apply(self, arrivals: np.ndarray, departures: np.ndarray) -> None:
        """Fold one round's transitions into the set."""
        arrivals = np.asarray(arrivals, dtype=np.int64)
        departures = np.asarray(departures, dtype=np.int64)
        if arrivals.size:
            self._ids = np.union1d(self._ids, arrivals)
        if departures.size:
            self._ids = np.setdiff1d(self._ids, departures, assume_unique=True)
        self.touched += int(arrivals.size) + int(departures.size)

    def reset_from_mask(self, mask: np.ndarray) -> None:
        """Rebuild the set from a full mask (the resume/discontinuity path).

        A pure function of the mask, so a fresh engine resuming mid-run
        lands on exactly the set the uninterrupted engine maintained
        incrementally.  Costs (and counts) a full-fleet touch.
        """
        self._ids = np.nonzero(np.asarray(mask, dtype=bool))[0].astype(np.int64)
        self.touched += int(np.asarray(mask).size)

    def ids(self) -> np.ndarray:
        """Sorted unique ids of the currently reachable clients."""
        return self._ids

    def __len__(self) -> int:
        return int(self._ids.size)


@dataclass
class EngineStats:
    """Event and touch accounting for one engine's lifetime."""

    rounds_run: int = 0
    participants: int = 0
    completion_events: int = 0
    availability_transitions: int = 0
    control_events: int = 0
    #: Per-round client touches: participants + availability transitions.
    round_touches: List[int] = field(default_factory=list)

    @property
    def total_events(self) -> int:
        """Every event the engine processed (the bench's events/sec basis)."""
        return (
            self.rounds_run
            + self.completion_events
            + self.availability_transitions
            + self.control_events
        )


class FleetEngine:
    """Run the rounds of a :class:`~repro.fl.runtime.FederatedRuntime` by events.

    Every runtime builds one; :meth:`run_round` is the only round path.  See
    the module docstring for the determinism contract.
    """

    def __init__(self, runtime) -> None:
        # Weak: the runtime owns its engine, and a strong back-reference
        # would form a cycle that keeps a dropped runtime's models and
        # datasets resident until the cyclic garbage collector runs.
        self._runtime = weakref.ref(runtime)
        self.eligible = EligibleSet()
        self.stats = EngineStats()
        #: Round index whose transitions the eligible set currently reflects
        #: (-1 = never advanced, forcing a mask rebuild on first use).
        self._availability_round = -1

    @property
    def runtime(self):
        """The :class:`~repro.fl.runtime.FederatedRuntime` this engine drives."""
        return self._runtime()

    # ------------------------------------------------------------------
    # Availability event stream
    # ------------------------------------------------------------------
    def _advance_availability(self, round_index: int) -> Tuple[Optional[np.ndarray], int]:
        """Bring the eligible set to ``round_index``; return ``(ids, touches)``.

        Consecutive rounds fold the schedule's arrival/departure stream into
        the set incrementally; any discontinuity (the first round of a
        resumed process) rebuilds from the full mask — a pure function of the
        round index, so both paths land on the same set.  Schedules that only
        define ``mask`` always take the mask path.
        """
        runtime = self.runtime
        if runtime.schedule is None:
            return None, 0
        num_clients = len(runtime.clients)
        before = self.eligible.touched
        incremental = hasattr(runtime.schedule, "transitions")
        if incremental and self._availability_round == round_index - 1:
            arrivals, departures = runtime.schedule.transitions(round_index, num_clients)
            self.eligible.apply(arrivals, departures)
            self.stats.availability_transitions += int(
                np.asarray(arrivals).size + np.asarray(departures).size
            )
        else:
            mask = np.asarray(runtime.schedule.mask(round_index, num_clients), dtype=bool)
            if mask.shape != (num_clients,):
                raise ValueError(
                    f"availability mask has shape {mask.shape}, expected ({num_clients},)"
                )
            self.eligible.reset_from_mask(mask)
            self.stats.availability_transitions += len(self.eligible)
        self._availability_round = round_index
        return self.eligible.ids(), self.eligible.touched - before

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def run_round(self):
        """Execute one round by feeding its events to the scheduler."""
        runtime = self.runtime
        round_index = len(runtime.history)
        eligible, touches = self._advance_availability(round_index)
        context = runtime.start_round(eligible=eligible)
        results = runtime.execute_clients(context)

        events = EventQueue()
        for result in results:  # task order: ties pop by ascending client id
            events.push(
                Event(
                    kind=CLIENT_COMPLETION,
                    time=result.turnaround_seconds,
                    round_index=round_index,
                    client_id=result.client_id,
                    result=result,
                )
            )
        deadline = getattr(runtime.scheduler, "deadline_seconds", None)
        if deadline is not None:
            # Pushed after the completions: an update landing exactly at the
            # deadline has a smaller sequence number and drains first,
            # so the cut is `turnaround <= deadline`.
            events.push(
                Event(kind=STRAGGLER_DEADLINE, time=float(deadline), round_index=round_index)
            )
            self.stats.control_events += 1

        record = runtime.scheduler.consume_events(runtime, context, results, events)

        self.stats.rounds_run += 1
        self.stats.participants += len(results)
        self.stats.completion_events += len(results)
        self.stats.round_touches.append(len(results) + touches)
        return record


__all__ = [
    "CLIENT_COMPLETION",
    "STRAGGLER_DEADLINE",
    "Event",
    "EventQueue",
    "EligibleSet",
    "EngineStats",
    "FleetEngine",
]
