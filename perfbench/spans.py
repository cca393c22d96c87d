"""Spans around calls into flowpatch's layers, for the traced run.

`Tracer.install()` wraps each traced stage method once at class level and
each traced function once in every flowpatch module that binds it; nothing
is wrapped per tape record, so the one `JacobiIterationStage` instance that
all 200 records of a solve share is timed once per call.  `uninstall()`
restores the originals.  Spans (name, start, end, parent) stay in memory and
are written when the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import hashlib
import pathlib
import statistics
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

from flowpatch import metrics
from flowpatch.attack import optimize, placement
from flowpatch.core import floio, ppm
from flowpatch.defense import pipeline
from flowpatch.diff.stage import Stage, StageTape
from flowpatch.flow import HornSchunck
from flowpatch.harness import dataset

# Stage classes timed forward and backward, by the layer metric they add to.
STAGE_LAYERS = {
    "TeleaInpaintStage": "defense.telea_s",
    "BlockVoteStage": "defense.vote_s",
    "IlpReevaluateStage": "defense.vote_s",
    "GradientMagnitudeStage": "defense.maps_s",
    "NormalizeMapStage": "defense.maps_s",
    "PlacePatchStage": "attack.place_s",
    "AcsLossStage": "attack.loss_s",
    "PatchPenaltyStage": "attack.loss_s",
    "AddWeightedStage": "attack.loss_s",
}
SPAN_LAYERS = {
    "JacobiIterationStage.forward": "flow.jacobi_fwd_s",
    "JacobiIterationStage.backward": "flow.jacobi_bwd_s",
    "HornSchunck.estimate": "flow.estimate_s",
    "defend": "defense.defend_s",
    "placement_geometry": "attack.place_s",
    "evaluate_pipeline": "metrics.evaluate_s",
    "train_patch": "harness.train_s",
}
SPAN_LAYERS.update(
    {f"{cls}.{method}": layer for cls, layer in STAGE_LAYERS.items()
     for method in ("forward", "backward")}
)
FUNCTIONS = (
    optimize.train_patch,
    metrics.evaluate_pipeline,
    pipeline.defend,
    placement.placement_geometry,
    dataset.synth_dataset,
    dataset.ingest_dataset,
    dataset.load_frames,
    ppm.read_ppm,
    ppm.write_ppm,
    floio.read_flo,
    floio.write_flo,
)
# Dataset synthesis and ingestion, patch, sidecar and CSV writing.
IO_SPANS = {"synth_dataset", "ingest_dataset", "load_frames", "read_ppm", "write_ppm",
            "read_flo", "write_flo", "Path.write_text"}

# Per-layer metrics and their units; run.py adds the last two.
UNITS = {
    "flow.jacobi_fwd_s": "s", "flow.jacobi_bwd_s": "s", "flow.estimate_s": "s",
    "flow.estimate_calls": "count", "diff.backward_self_s": "s", "diff.tape_records": "count",
    "defense.telea_s": "s", "defense.telea_px": "count", "defense.vote_s": "s",
    "defense.maps_s": "s", "defense.defend_s": "s", "attack.place_s": "s",
    "attack.loss_s": "s", "metrics.evaluate_s": "s", "metrics.clean_flow_reuse": "ratio",
    "harness.train_s": "s", "harness.io_s": "s",
    "diff.tape_peak_mb": "MB", "trace.overhead_ratio": "ratio",
}
LAYER_METRICS = tuple(UNITS)[:-2]


def frames_key(frame1: np.ndarray, frame2: np.ndarray) -> bytes:
    digest = hashlib.sha1(np.ascontiguousarray(frame1).data)
    digest.update(np.ascontiguousarray(frame2).data)
    return digest.digest()


def clean_keys(pairs, defenses) -> set[bytes]:
    """Keys of the frame pairs whose flow is a clean flow: each pair as is
    (defence None) or defended by each given defence config."""
    keys = set()
    for cfg in defenses:
        for frame1, frame2 in pairs:
            if cfg is not None:
                frame1, frame2 = pipeline.defend(frame1, cfg)[0], pipeline.defend(frame2, cfg)[0]
            keys.add(frames_key(frame1.data, frame2.data))
    return keys


def _stage_classes():
    todo, seen = list(Stage.__subclasses__()), []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    def __init__(self, clean_keys: set[bytes]):
        self.clean_keys = clean_keys
        self.spans: list = []
        self.op_metrics: list[dict] = []
        self._stack = [-1]
        self._undo: list = []
        self._records = weakref.WeakKeyDictionary()

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, before=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def _step_records(self, tape, *args):
        self._op["records"].append(self._records.get(tape, 0))

    def _telea_px(self, stage, ctx, inputs):
        self._op["telea_px"] += int(np.count_nonzero(inputs[1] > 0))

    def _clean_flow(self, estimator, frame1, frame2):
        key = frames_key(frame1.data, frame2.data)
        if key in self.clean_keys:
            self._op["clean_calls"] += 1
            self._op["clean_distinct"].add(key)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        # Every stage, so that StageTape.backward's self time excludes all
        # the stage backwards it calls.
        for cls in _stage_classes():
            for method in ("forward", "backward"):
                name = f"{cls.__name__}.{method}"
                if method in cls.__dict__:
                    before = self._telea_px if name == "TeleaInpaintStage.forward" else None
                    self._set(cls, method, self._span(name, cls.__dict__[method], before))
        apply = StageTape.apply

        def counted_apply(tape, *args):
            self._records[tape] = self._records.get(tape, 0) + 1
            return apply(tape, *args)

        self._set(StageTape, "apply", counted_apply)
        self._set(StageTape, "backward", self._span(
            "StageTape.backward", StageTape.backward, self._step_records))
        self._set(HornSchunck, "estimate", self._span(
            "HornSchunck.estimate", HornSchunck.estimate, self._clean_flow))
        self._set(pathlib.Path, "write_text", self._span(
            "Path.write_text", pathlib.Path.write_text))
        modules = [m for n, m in sys.modules.items() if n.startswith("flowpatch")]
        for fn in FUNCTIONS:
            traced = self._span(fn.__name__, fn)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    self._set(module, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def begin_op(self) -> None:
        self._op = {"first": len(self.spans), "records": [], "telea_px": 0,
                    "clean_calls": 0, "clean_distinct": set()}

    def end_op(self) -> None:
        self.op_metrics.append(self._summarise(self._op))

    # -- summarising -----------------------------------------------------

    def _summarise(self, op) -> dict:
        spans, first = self.spans, op["first"]
        out = dict.fromkeys(LAYER_METRICS, 0.0)
        covered = defaultdict(float)
        for index in range(first, len(spans)):
            _, start, end, parent = spans[index]
            covered[parent] += end - start
        for index in range(first, len(spans)):
            name, start, end, parent = spans[index]
            if name in SPAN_LAYERS:
                out[SPAN_LAYERS[name]] += end - start
            if name == "HornSchunck.estimate":
                out["flow.estimate_calls"] += 1
            elif name == "StageTape.backward":
                out["diff.backward_self_s"] += end - start - covered[index]
            elif name in IO_SPANS and not self._inside_io(parent, first):
                out["harness.io_s"] += end - start
        out["diff.tape_records"] = statistics.median(op["records"]) if op["records"] else 0
        out["defense.telea_px"] = op["telea_px"]
        if op["clean_calls"]:
            out["metrics.clean_flow_reuse"] = len(op["clean_distinct"]) / op["clean_calls"]
        return out

    def _inside_io(self, index: int, first: int) -> bool:
        while index >= first:
            name, _, _, index = self.spans[index]
            if name in IO_SPANS:
                return True
        return False

    def layer_medians(self) -> dict:
        return {k: statistics.median(m[k] for m in self.op_metrics) for k in LAYER_METRICS}

    def write(self, path: pathlib.Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
