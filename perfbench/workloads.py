"""The four benchmark workloads and the metrics computed from them.

Every workload is a closed loop in one process: the next update or round
starts only after the previous one has returned.  ``run_workload`` returns an
:class:`Outcome`; ``run.py`` turns it into the result line.

* ``codec-stream`` round-trips a seeded stream of paper-scale client updates
  through :class:`repro.core.FedSZCompressor` (SZ2, REL 1e-2).
* ``fl-edge`` runs synchronous FedAvg rounds of AlexNet-tiny clients on
  heterogeneous 5-50 Mbps edge links, serial executor, FedSZ uplink.
* ``fleet-100k`` runs the ``mega-fleet`` preset (100k clients, 0.02%
  sampled, diurnal availability) on the discrete-event engine.
* ``fl-pool`` is ``fl-edge`` on the process executor with one worker per
  available core; its deterministic history must equal ``fl-edge``'s.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from benchstats import executor_efficiency, executor_wait, median, tail_percentile
from tracer import Tracer

#: Paper error bound and mode (REL 1e-2, the library default).
ERROR_BOUND = 1e-2
#: Reference link for the codec stream's Eqn.-1 round time (``FLConfig``'s
#: default bandwidth).
REFERENCE_MBPS = 10.0
#: Repetitions of the set-up phase per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "compress_mb_s": "MB/s",
    "decompress_mb_s": "MB/s",
    "ratio": "x",
    "round_s.p50": "s",
    "sim_round_s": "s",
    "uplink_mb": "MB",
}

#: Per-layer metrics from the traced run: name -> unit.  Times, bytes and
#: counts accumulated inside the measured steps are means per step (round or
#: update); the rest are gauges.
PER_LAYER = {
    "compression.entropy.encode_s": "s",
    "compression.entropy.decode_s": "s",
    "compression.entropy.bytes_in": "B",
    "compression.entropy.bytes_out": "B",
    "compression.predict.self_s": "s",
    "compression.quantize.s": "s",
    "compression.frame.self_s": "s",
    "compression.lossless.s": "s",
    "compression.lossless.bytes_out": "B",
    "compression.bound_util.max": "fraction",
    "compression.bound_violations": "count",
    "core.partition.s": "s",
    "core.serialize.s": "s",
    "core.pipeline.self_s": "s",
    "nn.train.s": "s",
    "nn.train.samples_per_s": "1/s",
    "nn.eval.s": "s",
    "fl.start_round.s": "s",
    "fl.broadcast.hits": "count",
    "fl.broadcast.misses": "count",
    "fl.transmit.self_s": "s",
    "fl.aggregate.s": "s",
    "fl.finish.self_s": "s",
    "fl.engine.self_s": "s",
    "fl.events.per_round": "count",
    "fl.availability.transitions": "count",
    "fl.executor.s": "s",
    "fl.executor.efficiency": "fraction",
    "fl.executor.wait_s": "s",
    "fl.client.reported_train_s": "s",
    "fl.client.reported_codec_s": "s",
    "fl.state.resident_models": "count",
    "fl.state.materialized_clients": "count",
    "data.load_s": "s",
    "fl.runtime.build_s": "s",
    "fl.executor.start_s": "s",
    "trace.coverage_min": "fraction",
    "trace.overhead": "fraction",
    "trace.spans_per_step": "count",
}


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    notes: Dict[str, object] = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def layer_metrics(tracer: Tracer, steps: int, workers: int = 1) -> Dict[str, float]:
    """Per-layer metrics from the spans of ``steps`` traced steps of a
    program running clients on ``workers`` executor workers."""
    summary = tracer.summarize()
    total, own, extra = summary["total"], summary["self"], summary["extra"]

    def per_step(value: float) -> float:
        return value / steps

    busy = extra.get("fl.executor.reported_train_s", 0.0) + extra.get(
        "fl.executor.reported_codec_s", 0.0
    )
    executor_wall = total.get("fl.executor", 0.0)
    train_s = total.get("nn.train", 0.0)
    return {
        "compression.entropy.encode_s": per_step(total.get("compression.entropy.encode", 0.0)),
        "compression.entropy.decode_s": per_step(total.get("compression.entropy.decode", 0.0)),
        "compression.entropy.bytes_in": per_step(
            extra.get("compression.entropy.encode.bytes_in", 0.0)
        ),
        "compression.entropy.bytes_out": per_step(
            extra.get("compression.entropy.encode.bytes_out", 0.0)
        ),
        "compression.predict.self_s": per_step(own.get("compression.predict", 0.0)),
        "compression.quantize.s": per_step(total.get("compression.quantize", 0.0)),
        "compression.frame.self_s": per_step(own.get("compression.frame", 0.0)),
        "compression.lossless.s": per_step(total.get("compression.lossless", 0.0)),
        "compression.lossless.bytes_out": per_step(
            extra.get("compression.lossless.bytes_out", 0.0)
        ),
        "core.partition.s": per_step(total.get("core.partition", 0.0)),
        "core.serialize.s": per_step(total.get("core.serialize", 0.0)),
        "core.pipeline.self_s": per_step(own.get("core.pipeline", 0.0)),
        "nn.train.s": per_step(train_s),
        "nn.train.samples_per_s": extra.get("nn.train.samples", 0.0) / train_s if train_s else 0.0,
        "nn.eval.s": per_step(total.get("nn.eval", 0.0)),
        "fl.start_round.s": per_step(total.get("fl.start_round", 0.0)),
        "fl.transmit.self_s": per_step(own.get("fl.transmit", 0.0)),
        "fl.aggregate.s": per_step(total.get("fl.aggregate", 0.0)),
        "fl.finish.self_s": per_step(own.get("fl.finish", 0.0)),
        "fl.engine.self_s": per_step(own.get("fl.engine", 0.0)),
        "fl.executor.s": per_step(executor_wall),
        "fl.executor.efficiency": executor_efficiency(busy, workers, executor_wall),
        "fl.executor.wait_s": per_step(executor_wait(busy, workers, executor_wall)),
        "fl.client.reported_train_s": per_step(extra.get("fl.executor.reported_train_s", 0.0)),
        "fl.client.reported_codec_s": per_step(extra.get("fl.executor.reported_codec_s", 0.0)),
        "trace.coverage_min": min(summary["coverage"]) if summary["coverage"] else 0.0,
        "trace.spans_per_step": per_step(len(tracer.spans)),
    }


# ----------------------------------------------------------------------
# codec-stream
# ----------------------------------------------------------------------
#: One cycle of the stream: one update per paper model.
CODEC_MODELS = ("alexnet", "mobilenetv2", "resnet50")
#: Cycles of distinct updates in a seed's stream.  Every run round-trips the
#: whole stream once, and these are its operations, so ``attempted`` and
#: ``failed`` depend on the seed alone; cycles after that replay the stream
#: from its start until ``--seconds`` are used.
STREAM_CYCLES = 3


def trained_like_state(model: str, seed: int) -> Dict[str, np.ndarray]:
    """A paper-scale state dict with trained-like weights, drawn from ``seed``.

    Same construction as ``repro.experiments.workloads.pretrained_like_state_dict``
    (real architecture shapes, heavy-tailed weights at the model's calibrated
    scale), but the random stream depends on ``seed`` alone: the library
    function also mixes in a salted ``hash()`` of the dataset name, so its
    output changes from one interpreter process to the next.
    """
    from repro.experiments.workloads import _WEIGHT_SCALES, _heavy_tailed_weights
    from repro.nn.models import create_model

    state = create_model(model, "paper", num_classes=10, in_channels=3, seed=seed).state_dict()
    rng = np.random.default_rng([seed, CODEC_MODELS.index(model)])
    scale = _WEIGHT_SCALES[model]
    for name, tensor in state.items():
        if _is_weight_matrix(name, tensor):
            state[name] = _heavy_tailed_weights(rng, tensor.size, scale).reshape(tensor.shape)
    return state


def _is_weight_matrix(name: str, tensor: np.ndarray) -> bool:
    return "weight" in name and tensor.size > 1024 and np.issubdtype(tensor.dtype, np.floating)


def make_update(
    base: Dict[str, np.ndarray], model: str, seed: int, index: int
) -> Dict[str, np.ndarray]:
    """``base`` plus a small seeded delta on one window of every weight matrix."""
    from repro.experiments.workloads import _WEIGHT_SCALES

    rng = np.random.default_rng([seed, 1_000 + index])
    scale = 0.05 * _WEIGHT_SCALES[model]
    update = dict(base)
    for name, tensor in base.items():
        if not _is_weight_matrix(name, tensor):
            continue
        window = max(1, tensor.size // 16)
        start = int(rng.integers(0, tensor.size - window + 1))
        changed = tensor.copy()
        flat = changed.reshape(-1)
        flat[start : start + window] += rng.normal(0.0, scale, window).astype(tensor.dtype)
        update[name] = changed
    return update


def max_abs_error(original: np.ndarray, restored: np.ndarray, chunk: int = 1 << 20) -> float:
    """``max |restored - original|`` in float64, in chunks to bound memory."""
    a = original.reshape(-1)
    b = restored.reshape(-1)
    worst = 0.0
    for start in range(0, a.size, chunk):
        stop = start + chunk
        diff = b[start:stop].astype(np.float64) - a[start:stop].astype(np.float64)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


@dataclass
class UpdateCheck:
    lossy: int = 0
    violations: int = 0
    structural_failures: int = 0
    worst_utilization: float = 0.0


def check_roundtrip(
    update: Dict[str, np.ndarray], restored: Dict[str, np.ndarray], lossy_names
) -> UpdateCheck:
    """Each lossy tensor is one operation: it fails when its name, shape or
    dtype differs or its error, measured in the output dtype, exceeds the
    resolved absolute bound.  Every other tensor must come back bit-exact."""
    from repro.compression.base import ErrorBoundMode, resolve_error_bound

    check = UpdateCheck()
    if set(restored) != set(update):
        check.structural_failures += 1
    for name, original in update.items():
        out = restored.get(name)
        same_layout = (
            out is not None and out.shape == original.shape and out.dtype == original.dtype
        )
        if name not in lossy_names:
            if not (same_layout and np.array_equal(out, original)):
                check.structural_failures += 1
            continue
        check.lossy += 1
        if not same_layout:
            check.structural_failures += 1
            check.violations += 1
            continue
        bound = resolve_error_bound(original, ERROR_BOUND, ErrorBoundMode.REL)
        error = max_abs_error(original, out)
        if bound > 0:
            utilization = error / bound
        else:  # constant tensor: only an exact copy is within the bound
            utilization = 0.0 if error == 0 else math.inf
        check.worst_utilization = max(check.worst_utilization, utilization)
        if utilization > 1.0:
            check.violations += 1
    return check


@dataclass
class UpdateSample:
    model: str
    original_bytes: int
    payload_bytes: int
    compress_s: float
    decompress_s: float
    payload_digest: str
    check: UpdateCheck


def codec_setup(seed: int) -> Dict[str, Dict[str, np.ndarray]]:
    return {model: trained_like_state(model, seed) for model in CODEC_MODELS}


def _round_trip(codec, update) -> Tuple[bytes, Dict[str, np.ndarray], float, float]:
    t0 = time.perf_counter()
    payload = codec.compress(update)
    t1 = time.perf_counter()
    restored = codec.decompress(payload)
    return payload, restored, t1 - t0, time.perf_counter() - t1


def _measure_update(codec, model: str, update, tracer: Optional[Tracer], step: int) -> UpdateSample:
    if tracer is None:
        payload, restored, compress_s, decompress_s = _round_trip(codec, update)
    else:
        payload, restored, compress_s, decompress_s = tracer.run_step(
            step, lambda: _round_trip(codec, update)
        )
    report = codec.last_report
    return UpdateSample(
        model=model,
        original_bytes=report.original_nbytes,
        payload_bytes=len(payload),
        compress_s=compress_s,
        decompress_s=decompress_s,
        payload_digest=hashlib.blake2b(payload, digest_size=16).hexdigest(),
        check=check_roundtrip(update, restored, report.per_tensor_ratio),
    )


@dataclass
class Stream:
    """The samples of one pass over a run's steps: ``first`` holds the first
    round trip of every distinct update of the stream, in order; ``timed``
    holds every round trip, replays included."""

    first: List[UpdateSample] = field(default_factory=list)
    timed: List[UpdateSample] = field(default_factory=list)
    replay_mismatches: int = 0

    def add(self, position: int, sample: UpdateSample) -> None:
        self.timed.append(sample)
        if position == len(self.first):
            self.first.append(sample)
            return
        reference = self.first[position]
        if (sample.payload_digest, sample.check) != (reference.payload_digest, reference.check):
            self.replay_mismatches += 1


def codec_stream(
    bases, seed: int, seconds: float, tracer: Optional[Tracer] = None
) -> Tuple[Stream, Stream]:
    """Round-trip the seed's ``STREAM_CYCLES`` cycles of distinct updates,
    then replay them from the start while another cycle still fits in
    ``seconds``.  A replayed update must give the same payload and the same
    check as its first round trip.

    With a tracer every update is round-tripped twice, untraced and traced,
    in alternating order; returns the ``(untraced, traced)`` streams.
    """
    from repro.core import FedSZCompressor

    codec = FedSZCompressor(error_bound=ERROR_BOUND)
    plain, traced = Stream(), Stream()
    width = len(CODEC_MODELS)
    length = STREAM_CYCLES * width
    started = time.perf_counter()
    index = 0
    while True:
        cycles, position = divmod(index, width)
        if index >= length and position == 0:
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / cycles > seconds:
                break
        model = CODEC_MODELS[position]
        step = index % length
        update = make_update(bases[model], model, seed, step)
        if tracer is None:
            passes = (False,)
        else:  # alternate which pass meets the fresh update first
            passes = (False, True) if index % 2 == 0 else (True, False)
        for with_tracer in passes:
            sample = _measure_update(codec, model, update, tracer if with_tracer else None, index)
            (traced if with_tracer else plain).add(step, sample)
        del update
        index += 1
    return plain, traced


def _throughput(samples: List[UpdateSample], seconds: str) -> float:
    """Original MB per second of ``compress_s`` or ``decompress_s``."""
    return sum(s.original_bytes for s in samples) / sum(getattr(s, seconds) for s in samples) / 1e6


def _codec_counts(stream: Stream) -> Tuple[int, int, bool]:
    """Operations are the lossy tensors of the stream's distinct updates;
    a replay that differs from its first round trip makes the run incorrect."""
    attempted = sum(s.check.lossy for s in stream.first)
    failed = sum(s.check.violations for s in stream.first)
    correct = stream.replay_mismatches == 0 and all(
        s.check.structural_failures == 0 for s in stream.first
    )
    return attempted, failed, correct


def run_codec_stream(seed: int, seconds: float, trace: bool, trace_path: Path) -> Outcome:
    if trace:
        return _codec_traced(codec_setup(seed), seed, seconds, trace_path)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        bases = None  # free the previous set before building the next
        start = time.perf_counter()
        bases = codec_setup(seed)
        setup_times.append(time.perf_counter() - start)

    stream, _ = codec_stream(bases, seed, seconds)
    attempted, failed, correct = _codec_counts(stream)
    samples = stream.timed
    width = len(CODEC_MODELS)
    cycles = [samples[i : i + width] for i in range(0, len(samples), width)]
    first = cycles[0]
    eqn1 = [
        s.compress_s + s.decompress_s + s.payload_bytes * 8 / (REFERENCE_MBPS * 1e6)
        for s in samples
    ]
    metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "compress_mb_s": median([_throughput(c, "compress_s") for c in cycles]),
        "decompress_mb_s": median([_throughput(c, "decompress_s") for c in cycles]),
        "ratio": sum(s.original_bytes for s in first) / sum(s.payload_bytes for s in first),
        "round_s.p50": median([s.compress_s + s.decompress_s for s in samples]),
        "sim_round_s": median(eqn1),
        "uplink_mb": sum(s.payload_bytes for s in first) / len(first) / 1e6,
    }
    notes = {
        "updates": len(samples),
        "distinct_updates": len(stream.first),
        "per_model_compress_mb_s": {
            model: _throughput([s for s in samples if s.model == model], "compress_s")
            for model in CODEC_MODELS
        },
        "violations_per_model": {
            model: sum(s.check.violations for s in stream.first if s.model == model)
            for model in CODEC_MODELS
        },
    }
    return Outcome(metrics, attempted, failed, correct, notes)


def _codec_traced(bases, seed: int, seconds: float, trace_path: Path) -> Outcome:
    tracer = Tracer()
    plain, traced = codec_stream(bases, seed, seconds, tracer)
    tracer.write(trace_path)
    attempted, failed, correct = _codec_counts(traced)
    same_payloads = [s.payload_digest for s in plain.timed] == [
        s.payload_digest for s in traced.timed
    ]
    steps = len(traced.timed)
    metrics = _zero_layers()
    metrics.update(layer_metrics(tracer, steps))
    metrics["compression.bound_util.max"] = max(s.check.worst_utilization for s in traced.first)
    metrics["compression.bound_violations"] = failed / len(traced.first)
    plain_s = sum(s.compress_s + s.decompress_s for s in plain.timed)
    traced_s = sum(s.compress_s + s.decompress_s for s in traced.timed)
    metrics["trace.overhead"] = traced_s / plain_s - 1.0
    notes = {
        "updates": steps,
        "distinct_updates": len(traced.first),
        "traced_equals_untraced": same_payloads,
    }
    return Outcome(metrics, attempted, failed, correct and same_payloads, notes)


def _zero_layers() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


# ----------------------------------------------------------------------
# Federated workloads
# ----------------------------------------------------------------------
#: Rounds (warm-up round included) after which ``accuracy`` is noted and over
#: which ``ratio`` and ``uplink_mb`` are averaged.
FIXED_ROUNDS = 20
#: Rounds after which a runtime is retired and a fresh one is built from the
#: same seed.  Long runs of these tiny models diverge (fl-edge reached NaN
#: weights after 180-190 rounds on some seeds, with or without a decaying
#: learning rate), so no model is trained longer than this, however fast the
#: program gets; every episode repeats the same rounds.  Every run completes
#: the first episode, whose client uploads are the run's operations, so
#: ``attempted`` and ``failed`` depend on the seed alone.
EPISODE_ROUNDS = 60
EDGE_CLIENTS = 4
EDGE_SAMPLES = 240
FLEET_CLIENTS = 100_000


@dataclass
class Built:
    runtime: object
    phases: Dict[str, float]

    @property
    def setup_s(self) -> float:
        return sum(self.phases.values())


def _edge_runtime(seed: int, executor) -> Built:
    from repro.core import FedSZCompressor
    from repro.experiments.workloads import build_federated_setup
    from repro.fl import FederatedRuntime, Transport, edge_fleet_specs

    t0 = time.perf_counter()
    setup = build_federated_setup(
        model_name="alexnet",
        num_clients=EDGE_CLIENTS,
        samples=EDGE_SAMPLES,
        local_epochs=1,
        seed=seed,
    )
    t1 = time.perf_counter()
    runtime = FederatedRuntime(
        setup.model_fn,
        setup.train_dataset,
        setup.validation_dataset,
        setup.config,
        codec=FedSZCompressor(error_bound=ERROR_BOUND),
        transport=Transport.heterogeneous(edge_fleet_specs(EDGE_CLIENTS)),
        executor=executor,
    )
    t2 = time.perf_counter()
    return Built(runtime, {"data.load_s": t1 - t0, "fl.runtime.build_s": t2 - t1})


def build_edge(seed: int) -> Built:
    from repro.fl import SerialExecutor

    return _edge_runtime(seed, SerialExecutor())


def build_pool(seed: int) -> Built:
    from repro.fl import ProcessParallelExecutor

    return _edge_runtime(seed, ProcessParallelExecutor(max_workers=len(os.sched_getaffinity(0))))


def build_fleet(seed: int) -> Built:
    from repro.core import FedSZCompressor
    from repro.data import load_dataset
    from repro.fl import build_fleet_runtime, get_scenario
    from repro.nn.models import create_model

    t0 = time.perf_counter()
    # 0.995 of 101k samples leaves one training sample per client and a
    # ~500-image validation set for the per-round evaluation.
    full = load_dataset("cifar10", num_samples=FLEET_CLIENTS + 1_000, image_size=8, seed=seed)
    train, validation = full.split(0.995, seed=seed + 1)
    t1 = time.perf_counter()

    def model_fn():
        return create_model("alexnet", "tiny", num_classes=10, seed=seed)

    runtime = build_fleet_runtime(
        get_scenario("mega-fleet", num_clients=FLEET_CLIENTS),
        model_fn,
        train,
        validation,
        codec=FedSZCompressor(error_bound=ERROR_BOUND),
        seed=seed,
        batch_size=16,
        engine="events",
    )
    t2 = time.perf_counter()
    return Built(runtime, {"data.load_s": t1 - t0, "fl.runtime.build_s": t2 - t1})


def set_up(build: Callable[[int], Built], seed: int) -> Built:
    """Build the runtime and run its first round (which starts a worker pool)."""
    built = build(seed)
    start = time.perf_counter()
    built.runtime.run_round()
    built.phases["fl.executor.start_s"] = time.perf_counter() - start
    return built


def timed_round(runtime) -> float:
    start = time.perf_counter()
    runtime.run_round()
    return time.perf_counter() - start


def _measured_enough(rounds: int, started: float, seconds: float) -> bool:
    """Stop once ``seconds`` have passed and the first episode is complete
    (the set-up round plus ``rounds`` measured)."""
    return rounds + 1 >= EPISODE_ROUNDS and time.perf_counter() - started >= seconds


def _counters(runtime) -> Dict[str, float]:
    engine = runtime.engine
    return {
        "fl.broadcast.hits": runtime.broadcast_cache.hits,
        "fl.broadcast.misses": runtime.broadcast_cache.misses,
        "fl.events.per_round": engine.stats.total_events if engine else 0,
        "fl.availability.transitions": engine.stats.availability_transitions if engine else 0,
    }


class Episodes:
    """Successive runtimes from one seed, each retired after ``EPISODE_ROUNDS``.

    Collects what the metrics need from every retired runtime: set-up times,
    a digest of every set-up round and of every episode's deterministic
    history, the measured round records, and counter increments.  The first
    recorded episode is the reference: every later one, the last partial
    episode included, must repeat its deterministic history.
    """

    def __init__(self, build: Callable[[int], Built], seed: int) -> None:
        self.build = build
        self.seed = seed
        self.runtime = None
        self.setup_times: List[float] = []
        self.phases: Optional[Dict[str, float]] = None
        self.first_rounds: set = set()
        self.episodes: List[Tuple[int, str]] = []
        self.measured: list = []
        self.first_episode: list = []
        self.first_rows: list = []
        self.replay_mismatches = 0
        self.counters: Dict[str, float] = defaultdict(float)
        self.gauges: Dict[str, float] = {}

    def start(self) -> None:
        built = set_up(self.build, self.seed)
        self.runtime = built.runtime
        self.setup_times.append(built.setup_s)
        self.phases = self.phases or built.phases
        self.first_rounds.add(digest(self.runtime.history.deterministic_rows()))
        self._baseline = _counters(self.runtime)

    def next_runtime(self):
        """The runtime to run the next measured round on."""
        if self.runtime is None or len(self.runtime.history) >= EPISODE_ROUNDS:
            self.retire()
            self.start()
        return self.runtime

    def retire(self, record: bool = True) -> None:
        runtime, self.runtime = self.runtime, None
        if runtime is None:
            return
        runtime.close()
        if not record:
            return
        records = runtime.history.records
        rows = runtime.history.deterministic_rows()
        self.measured.extend(records[1:])
        if not self.first_rows:
            self.first_episode = records
            self.first_rows = rows
        elif digest(rows) != digest(self.first_rows[: len(rows)]):
            self.replay_mismatches += 1
        self.episodes.append((len(rows), digest(rows)))
        for name, value in _counters(runtime).items():
            self.counters[name] += value - self._baseline[name]
        self.gauges = {
            "fl.state.resident_models": max(
                runtime.model_pool.created, self.gauges.get("fl.state.resident_models", 0)
            ),
            "fl.state.materialized_clients": max(
                runtime.clients.materialized_count,
                self.gauges.get("fl.state.materialized_clients", 0),
            ),
        }

    @property
    def prefix(self) -> list:
        """The first ``FIXED_ROUNDS`` records of the first episode."""
        return self.first_episode[:FIXED_ROUNDS]

    @property
    def operations(self) -> list:
        """The measured rounds of the first episode."""
        return self.first_episode[1:]

    def deterministic(self) -> bool:
        """Every set-up round reads the same, and every episode repeats the
        first."""
        return len(self.first_rounds) == 1 and self.replay_mismatches == 0


def _client_counts(records) -> Tuple[int, int]:
    """Client uploads attempted, and failed: not delivered, or decoded past
    the error bound (the program's own per-client bound utilization)."""
    attempted = failed = 0
    for record in records:
        for stat in record.client_stats:
            attempted += 1
            if not stat.delivered or stat.bound_utilization > 1.0:
                failed += 1
    return attempted, failed


def _codec_throughput(records) -> Tuple[float, float]:
    """Median over rounds of the round's original MB per program-reported
    compress (and decompress) second."""
    compress, decompress = [], []
    for record in records:
        original = sum(s.payload_nbytes * s.compression_ratio for s in record.client_stats)
        compress.append(original / sum(s.compress_seconds for s in record.client_stats) / 1e6)
        decompress.append(original / sum(s.decompress_seconds for s in record.client_stats) / 1e6)
    return median(compress), median(decompress)


def _fixed_prefix_metrics(records) -> Dict[str, float]:
    prefix = records[:FIXED_ROUNDS]
    original = sum(s.payload_nbytes * s.compression_ratio for r in prefix for s in r.client_stats)
    payload = sum(s.payload_nbytes for r in prefix for s in r.client_stats)
    return {
        "ratio": original / payload,
        "uplink_mb": sum(r.uplink_bytes for r in prefix) / len(prefix) / 1e6,
    }


def _federated_untraced(build, seed, seconds, reference) -> Outcome:
    runs = Episodes(build, seed)
    for _ in range(SETUP_REPEATS - 1):
        runs.start()
        runs.retire(record=False)
    runs.start()
    times: List[float] = []
    started = time.perf_counter()
    try:
        while not _measured_enough(len(times), started, seconds):
            times.append(timed_round(runs.next_runtime()))
    finally:
        runs.retire()
    correct = runs.deterministic()
    notes: Dict[str, object] = {
        "rounds": len(times),
        "episodes": len(runs.episodes),
        "accuracy": runs.prefix[-1].global_accuracy,
    }
    if reference is not None:
        ref = set_up(reference, seed).runtime
        try:
            while len(ref.history) < FIXED_ROUNDS:
                ref.run_round()
        finally:
            ref.close()
        same = digest(ref.history.deterministic_rows()) == digest(runs.first_rows[:FIXED_ROUNDS])
        notes["equals_serial_history"] = same
        correct = correct and same
    attempted, failed = _client_counts(runs.operations)
    compress_mb_s, decompress_mb_s = _codec_throughput(runs.measured)
    tail = tail_percentile(times)
    if tail is not None:
        notes["round_s.tail"] = {"value": tail[0], "percentile": tail[1], "samples": len(times)}
    metrics = {
        "setup_s": median(runs.setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "compress_mb_s": compress_mb_s,
        "decompress_mb_s": decompress_mb_s,
        "round_s.p50": median(times),
        "sim_round_s": median([r.simulated_round_seconds for r in runs.measured]),
        **_fixed_prefix_metrics(runs.prefix),
    }
    return Outcome(metrics, attempted, failed, correct, notes)


def _federated_traced(build, seed, seconds, trace_path) -> Outcome:
    """Two sets of runtimes from the same seed in lockstep, one round each in
    alternating order: the untraced one is the overhead and determinism
    reference for the traced one."""
    plain = Episodes(build, seed)
    traced = Episodes(build, seed)
    tracer = Tracer()
    plain_times: List[float] = []
    times: List[float] = []
    started = time.perf_counter()
    try:
        while not _measured_enough(len(times), started, seconds):
            step = len(times)
            reference, runtime = plain.next_runtime(), traced.next_runtime()
            if step % 2:
                times.append(tracer.run_step(step, lambda: timed_round(runtime)))
                plain_times.append(timed_round(reference))
            else:
                plain_times.append(timed_round(reference))
                times.append(tracer.run_step(step, lambda: timed_round(runtime)))
    finally:
        plain.retire()
        traced.retire()
    tracer.write(trace_path)
    steps = len(times)
    records = traced.operations
    same = traced.episodes == plain.episodes and traced.deterministic()

    metrics = _zero_layers()
    metrics.update(layer_metrics(tracer, steps, getattr(runtime.executor, "max_workers", 1)))
    metrics.update({name: value / steps for name, value in traced.counters.items()})
    metrics.update(traced.gauges)
    metrics.update(
        {
            "compression.bound_util.max": max(
                (v for r in records for v in r.tensor_bound_utilization.values()), default=0.0
            ),
            "compression.bound_violations": sum(
                1 for r in records for s in r.client_stats if s.bound_utilization > 1.0
            )
            / len(records),
            "trace.overhead": sum(times) / sum(plain_times) - 1.0,
            **traced.phases,
        }
    )
    attempted, failed = _client_counts(records)
    notes = {"rounds": steps, "episodes": len(traced.episodes), "traced_equals_untraced": same}
    return Outcome(metrics, attempted, failed, same, notes)


#: Federated workloads: runtime builder, and the serial builder whose history
#: the workload's must equal (``None``: no cross-executor check).
FEDERATED = {
    "fl-edge": (build_edge, None),
    "fleet-100k": (build_fleet, None),
    "fl-pool": (build_pool, build_edge),
}
WORKLOADS = ("codec-stream", *FEDERATED)


def run_workload(name: str, seed: int, seconds: float, trace: bool, trace_path: Path) -> Outcome:
    if name == "codec-stream":
        return run_codec_stream(seed, seconds, trace, trace_path)
    build, reference = FEDERATED[name]
    if trace:
        return _federated_traced(build, seed, seconds, trace_path)
    return _federated_untraced(build, seed, seconds, reference)
