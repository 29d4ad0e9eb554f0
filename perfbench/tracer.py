"""In-memory span recorder wrapped around the program's public layer boundaries.

The program itself is not edited: :meth:`Tracer.install` replaces a fixed
list of functions and methods of ``repro.compression``, ``repro.core``,
``repro.nn`` (through the FL client and server that drive it) and
``repro.fl`` with thin wrappers that record a span around each call, and
:meth:`Tracer.uninstall` puts the originals back.  :meth:`Tracer.run_step`
does both around one measured step, so untraced steps interleaved with
traced ones run the original code.  A span is
``(name, start, end, parent, step, extra)``; ``step`` is the id of the round
or update the benchmark was measuring when the span opened, and ``extra``
holds counts taken at the same boundary (bytes in and out, samples trained,
busy seconds reported by the executor).

Spans are kept in a list and only written out (:meth:`Tracer.write`) when the
run ends.  Worker processes forked by the process executor inherit the
wrappers; the recorder switches itself off in the child, so only the parent's
layers are seen.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from benchstats import coverage, self_time

ExtraFn = Callable[[tuple, object], Dict[str, float]]

#: Name of the root span the benchmark opens around each measured step.
STEP = "step"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    step: int = -1
    extra: Optional[Dict[str, float]] = None


@dataclass
class Tracer:
    """Records nested spans while enabled; see the module docstring."""

    spans: List[Span] = field(default_factory=list)
    enabled: bool = True
    step: int = -1
    _stack: List[int] = field(default_factory=list)
    _patched: List[Tuple[object, str, object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, step=self.step))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, extra: Optional[ExtraFn] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if extra is not None:
                tracer.spans[index].extra = extra(args, result)
            return result

        return traced

    def run_step(self, step: int, fn: Callable[[], object]):
        """Call ``fn`` as traced step ``step``: wrappers installed, and the
        benchmark's own root span around the call."""
        self.install()
        self.step = step
        root = self.open(STEP)
        try:
            return fn()
        finally:
            self.close(root)
            self.uninstall()

    def patch(self, owner, attribute: str, name: str, extra: Optional[ExtraFn] = None) -> None:
        """Replace ``owner.attribute`` (function, method or staticmethod) by a
        traced wrapper; :meth:`uninstall` restores the original."""
        original = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(original.__func__, name, extra))
        else:
            replacement = self.wrap(original, name, extra)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are computed from."""
        from repro.compression import lossless
        from repro.compression.sz2 import SZ2Predictor
        from repro.compression.stages import EntropyStage, Quantizer, StagedCompressor
        from repro.core import fedsz, pipeline
        from repro.fl import executor
        from repro.fl.client import FLClient
        from repro.fl.events import FleetEngine
        from repro.fl.runtime import FederatedRuntime
        from repro.fl.server import FLServer

        self.patch(EntropyStage, "encode", "compression.entropy.encode", _entropy_bytes)
        self.patch(EntropyStage, "decode", "compression.entropy.decode")
        for method in ("encode", "decode"):
            self.patch(SZ2Predictor, method, "compression.predict")
            self.patch(Quantizer, method, "compression.quantize")
        for method in ("compress", "decompress"):
            self.patch(StagedCompressor, method, "compression.frame")
        for codec in (
            lossless.BloscLZCompressor,
            lossless.ZstdCompressor,
            lossless.ZlibCompressor,
            lossless.GzipCompressor,
            lossless.XzCompressor,
        ):
            self.patch(codec, "compress", "compression.lossless", _bytes_out)
            self.patch(codec, "decompress", "compression.lossless")

        self.patch(pipeline, "partition_state_dict", "core.partition")
        for function in (
            "serialize_named_arrays",
            "deserialize_named_arrays",
            "build_fedsz_payload",
            "parse_fedsz_payload",
        ):
            self.patch(pipeline, function, "core.serialize")
        self.patch(fedsz, "compress_state_dict", "core.pipeline")
        self.patch(fedsz, "decompress_state_dict", "core.pipeline")

        self.patch(FLClient, "train", "nn.train", _samples_trained)
        self.patch(FLServer, "evaluate", "nn.eval")
        self.patch(FLServer, "aggregate", "fl.aggregate")
        self.patch(FederatedRuntime, "start_round", "fl.start_round")
        self.patch(FederatedRuntime, "execute_clients", "fl.executor", _executor_busy)
        self.patch(FederatedRuntime, "finish_round", "fl.finish")
        self.patch(executor, "transmit_update", "fl.transmit")
        self.patch(FleetEngine, "run_round", "fl.engine")

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent >= 0:
                kids[span.parent].append(index)
        return kids

    def summarize(self) -> Dict[str, object]:
        """Per-name totals over all steps, plus per-step coverage of each root.

        Roots are the benchmark's own ``STEP`` spans, one per measured round
        or update; coverage is the share of a root that the program's layer
        spans directly beneath it account for.
        """
        kids = self.children()
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        extras: Dict[str, float] = defaultdict(float)
        coverages: List[float] = []
        for index, span in enumerate(self.spans):
            interval = (span.start, span.end)
            child_intervals = [
                (self.spans[k].start, self.spans[k].end) for k in kids.get(index, ())
            ]
            total[span.name] += span.end - span.start
            own[span.name] += self_time(interval, child_intervals)
            if span.name == STEP:
                coverages.append(coverage(interval, child_intervals))
            for key, value in (span.extra or {}).items():
                extras[f"{span.name}.{key}"] += value
        return {"total": total, "self": own, "extra": extras, "coverage": coverages}

    def write(self, path: Path) -> None:
        """Dump the spans as Chrome trace-event JSON (opens in Perfetto)."""
        if not self.spans:
            return
        origin = self.spans[0].start
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"step": span.step, "parent": span.parent, **(span.extra or {})},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def _entropy_bytes(args: tuple, result) -> Dict[str, float]:
    return {"bytes_in": float(args[1].nbytes), "bytes_out": float(len(result))}


def _bytes_out(args: tuple, result) -> Dict[str, float]:
    return {"bytes_out": float(len(result))}


def _samples_trained(args: tuple, result) -> Dict[str, float]:
    client = args[0]
    return {"samples": float(result.num_samples * client.config.local_epochs)}


def _executor_busy(args: tuple, results) -> Dict[str, float]:
    train = sum(r.update.train_seconds for r in results)
    codec = sum(r.stats.compress_seconds + r.stats.decompress_seconds for r in results)
    return {"reported_train_s": float(train), "reported_codec_s": float(codec)}
