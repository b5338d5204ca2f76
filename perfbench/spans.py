"""Span tracer that wraps voxelpaint's public calls from outside the package.

``Tracer.install()`` replaces each traced function in every voxelpaint
module that holds a reference to it (``conv3d`` lives in both ``autodiff``
and ``losses``, ``save_checkpoint`` in both ``checkpoint`` and ``trainer``),
plus the traced methods on ``Tensor``, ``UNet`` and ``Adam``.
``Tracer.remove()`` puts every original back. Nothing under ``src/`` changes.

Each span is (name, start, end, parent span, operation id). An autodiff op
whose output carries a backward closure gets that closure swapped for a
timed one, so the backward time of a node is recorded as a ``.bwd`` span
tagged with the operation id of the forward span that built it. Spans
stay in memory until ``summary()`` folds them into per-layer figures.

With ``memory=True`` the tracer also tracks, per span, the tracemalloc
peak above the traced memory at span entry (``peak_mib`` figures). The
caller starts and stops tracemalloc.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import tracemalloc

MIB = 1024.0 * 1024.0

# (module, attribute, span name) for plain functions
FUNCTIONS = [
    ("autodiff", "conv3d", "autodiff.conv3d"),
    ("autodiff", "instance_norm", "autodiff.instance_norm"),
    ("autodiff", "prelu", "autodiff.prelu"),
    ("autodiff", "relu", "autodiff.relu"),
    ("autodiff", "maxpool3d", "autodiff.maxpool3d"),
    ("autodiff", "upsample3d_nearest", "autodiff.upsample3d_nearest"),
    ("autodiff", "concat_channels", "autodiff.concat_channels"),
    ("autodiff", "dropout", "autodiff.dropout"),
    ("losses", "ssim3d", "losses.ssim3d"),
    ("losses", "masked_mae", "losses.masked_mae"),
    ("losses", "composite_loss", "losses.composite_loss"),
    ("trainer", "validation_loss", "trainer.validation_loss"),
    ("trainer", "prepare_sample", "trainer.prepare_sample"),
    ("trainer", "normalize_two_stage", "trainer.normalize_two_stage"),
    ("trainer", "infer_case", "trainer.infer_case"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("nifti", "read_nifti", "nifti.read"),
    ("nifti", "write_nifti", "nifti.write"),
    ("masks", "dilate", "masks.dilate"),
    ("masks", "erode", "masks.erode"),
    ("masks", "sample_healthy_mask", "masks.sample_healthy_mask"),
    ("masks", "augment_mask", "masks.augment_mask"),
    ("masks", "generate_mask_set", "masks.generate_mask_set"),
    ("masks", "void_image", "masks.void_image"),
    ("dataset", "write_sample", "dataset.write_sample"),
    ("dataset", "read_sample", "dataset.read_sample"),
    ("volume", "crop_center", "volume.crop_center"),
    ("volume", "stitch", "volume.stitch"),
    ("metrics", "evaluate_case", "metrics.evaluate_case"),
]

ELEMENTWISE = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "abs", "sum", "mean")

# ops that report forward and backward time separately
GRAPH_OPS = ("conv3d", "instance_norm", "prelu", "relu", "maxpool3d",
             "upsample3d_nearest", "concat_channels", "dropout")


class _CountingRng:
    """Passes every draw through to the wrapped generator, counting ``integers``.

    ``sample_healthy_mask`` draws one integer per axis for each candidate
    position, so the count over three is the number of placement attempts.
    """

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def integers(self, *args, **kwargs):
        self._tracer._count("masks.integer_draws")
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []    # [name, start, end, parent, op_id, peak_bytes]
        self.stack: list[list] = []    # open frames: [span index, traced-at-entry, peak seen]
        self.counts: dict[str, float] = {}
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, op_id: int | None = None) -> int:
        index = len(self.spans)
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, op_id, 0])
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1][2] = max(self.stack[-1][2], peak)
            tracemalloc.reset_peak()
            self.stack.append([index, current, current])
        else:
            self.stack.append([index, 0, 0])
        return index

    def _close(self, index: int) -> None:
        frame = self.stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            frame[2] = max(frame[2], peak)
            span[5] = frame[2] - frame[1]
            if self.stack:
                self.stack[-1][2] = max(self.stack[-1][2], frame[2])

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, after=None, graph_op: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack or tracer.spans[tracer.stack[-1][0]][0] == name:
                return fn(*args, **kwargs)   # outside a command, or a same-kind re-entry
            index = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            work = after(args, kwargs, out) if after is not None else None
            if graph_op:
                tracer._time_backward(out, name, index, work)
            return out

        return wrapper

    def _time_backward(self, out, name: str, op_index: int, work) -> None:
        closure = getattr(out, "_backward", None)
        if closure is None or getattr(closure, "_traced", False):
            return
        tracer = self

        def timed(g):
            index = tracer._open(name + ".bwd", op_index)
            try:
                closure(g)
            finally:
                tracer._close(index)
            if work is not None:
                tracer._count(f"{name}.macs", work[0])
                tracer._count(f"{name}.bytes", work[1])

        timed._traced = True
        out._backward = timed

    def install(self) -> None:
        from voxelpaint import autodiff, optim, unet

        mods = {name: sys.modules[f"voxelpaint.{name}"] for name in
                ("autodiff", "losses", "trainer", "checkpoint", "nifti", "masks",
                 "dataset", "volume", "metrics", "cli", "unet", "optim")}
        after = {
            "autodiff.conv3d": self._after_conv3d,
            "checkpoint.save": lambda a, k, out: self._count(
                "checkpoint.save.bytes", os.path.getsize(_arg(a, k, 2, "path"))),
            "nifti.write": self._after_write_nifti,
        }
        for mod_name, attr, span_name in FUNCTIONS:
            original = getattr(mods[mod_name], attr)
            if span_name == "masks.generate_mask_set":
                wrapped = self._wrap_generate_mask_set(original, span_name)
            else:
                wrapped = self._wrap(original, span_name, after.get(span_name),
                                     graph_op=mod_name == "autodiff")
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for attr in ELEMENTWISE:
            self._patch_method(autodiff.Tensor, attr, "autodiff.elementwise", graph_op=True)
        self._patch_method(autodiff.Tensor, "backward", "autodiff.backward")
        self._patch_method(optim.Adam, "step", "optim.adam.step", after=self._after_adam)
        self._patch_method(unet.UNet, "forward", "unet.forward", after=self._after_forward)

    def _patch_method(self, cls, attr, name, graph_op=False, after=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, after, graph_op))

    def remove(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def _wrap_generate_mask_set(self, original, name):
        tracer = self

        @functools.wraps(original)
        def wrapper(brain, tumor, params, rng, *args, **kwargs):
            masks = inner(brain, tumor, params, _CountingRng(rng, tracer), *args, **kwargs)
            if tracer.stack:
                tracer._count("masks.variants", len(masks))
            return masks

        inner = self._wrap(original, name)
        return wrapper

    # -- computed counts -----------------------------------------------------

    def _after_conv3d(self, args, kwargs, out):
        x, weight = args[0], args[1]
        cin, k = weight.data.shape[1], weight.data.shape[2]
        macs = out.data.size * cin * k ** 3
        self._count("autodiff.conv3d.macs", macs)
        self._count("autodiff.conv3d.bytes", x.data.nbytes + weight.data.nbytes + out.data.nbytes)
        # backward: one product per operand that needs a gradient, each reading
        # g and the other operand and writing that operand's gradient
        grads = int(x.requires_grad) + int(weight.requires_grad)
        return grads * macs, grads * (out.data.nbytes + x.data.nbytes + weight.data.nbytes)

    def _after_write_nifti(self, args, kwargs, out):
        volume = _arg(args, kwargs, 0, "volume")
        path = str(_arg(args, kwargs, 1, "path"))
        self._count("nifti.write.raw_bytes", 352 + 4 * volume.voxels.size)
        if path.endswith(".gz"):
            self._count("nifti.write.gz_bytes", os.path.getsize(path))

    def _after_adam(self, args, kwargs, out):
        self._count("optim.adam.params", sum(p.data.size for p in args[0].params))

    def _after_forward(self, args, kwargs, out):
        training = kwargs.get("training", args[3] if len(args) > 3 else False)
        # the span just closed is the most recent one named unet.forward
        for span in reversed(self.spans):
            if span[0] == "unet.forward":
                span[0] = "unet.forward.train" if training else "unet.forward.eval"
                break

    def _child_time(self) -> list[float]:
        """Seconds each span's direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op_id, peak in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return child_time

    def dump(self, path) -> None:
        """Write every span as one JSON line, with its self time: the span's
        duration minus the time its child spans cover."""
        child_time = self._child_time()
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op_id, peak) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id,
                                     "self_s": end - start - child_time[i]}) + "\n")

    # -- folding spans into per-layer figures --------------------------------

    def summary(self) -> dict[str, float]:
        spans = self.spans
        names = [s[0] for s in spans]
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        peaks: dict[str, float] = {}
        for name, start, end, parent, op_id, peak in spans:
            totals[name] = totals.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            peaks[name] = max(peaks.get(name, 0.0), peak / MIB)
        child_time = self._child_time()

        def ancestors(i):
            seen = []
            while i is not None:
                seen.append(names[i])
                i = spans[i][3]
            return seen

        # backward time per creating layer: a node's closure time counts for
        # the op that built it and for every traced span enclosing that op
        bwd_by_layer: dict[str, float] = {}
        for name, start, end, parent, op_id, _ in spans:
            if op_id is None:
                continue
            for layer in set(ancestors(op_id)):
                bwd_by_layer[layer] = bwd_by_layer.get(layer, 0.0) + (end - start)

        def under(i, layer):
            return layer in ancestors(spans[i][3])

        m: dict[str, float] = {}
        for op in GRAPH_OPS:
            key = f"autodiff.{op}"
            m[f"{key}.fwd_s"] = totals.get(key, 0.0)
            m[f"{key}.bwd_s"] = bwd_by_layer.get(key, 0.0)
        m["autodiff.conv3d.calls"] = calls.get("autodiff.conv3d", 0)
        m["autodiff.conv3d.macs"] = self.counts.get("autodiff.conv3d.macs", 0)
        m["autodiff.conv3d.bytes"] = self.counts.get("autodiff.conv3d.bytes", 0)
        m["autodiff.conv3d.peak_mib"] = max(peaks.get("autodiff.conv3d", 0.0),
                                            peaks.get("autodiff.conv3d.bwd", 0.0))
        m["autodiff.elementwise.fwd_s"] = totals.get("autodiff.elementwise", 0.0)
        m["autodiff.elementwise.bwd_s"] = bwd_by_layer.get("autodiff.elementwise", 0.0)
        m["autodiff.elementwise.calls"] = calls.get("autodiff.elementwise", 0)
        backward_idx = [i for i, n in enumerate(names) if n == "autodiff.backward"]
        m["autodiff.backward.self_s"] = sum(spans[i][2] - spans[i][1] - child_time[i]
                                            for i in backward_idx)
        closures = sum(1 for s in spans if s[4] is not None)
        m["autodiff.nodes_per_step"] = closures / len(backward_idx) if backward_idx else 0.0

        for layer in ("losses.ssim3d", "losses.masked_mae"):
            m[f"{layer}.fwd_s"] = totals.get(layer, 0.0)
            m[f"{layer}.bwd_s"] = bwd_by_layer.get(layer, 0.0)
        m["losses.composite_loss.s"] = totals.get("losses.composite_loss", 0.0)
        m["optim.adam.step_s"] = totals.get("optim.adam.step", 0.0)
        steps = calls.get("optim.adam.step", 0)
        m["optim.adam.params"] = self.counts.get("optim.adam.params", 0) / steps if steps else 0.0
        m["unet.forward.train_s"] = totals.get("unet.forward.train", 0.0)
        m["unet.forward.eval_s"] = totals.get("unet.forward.eval", 0.0)
        m["unet.forward.peak_mib"] = max(peaks.get("unet.forward.train", 0.0),
                                         peaks.get("unet.forward.eval", 0.0))

        m.update(self._train_step_split(spans))
        m["trainer.validation_loss.s"] = totals.get("trainer.validation_loss", 0.0)
        m["trainer.prepare_sample.s"] = totals.get("trainer.prepare_sample", 0.0)
        m["trainer.normalize_two_stage.s"] = totals.get("trainer.normalize_two_stage", 0.0)
        m["trainer.infer_case.s"] = totals.get("trainer.infer_case", 0.0)
        cases = calls.get("trainer.infer_case", 0)
        forwards = sum(1 for i, n in enumerate(names)
                       if n == "unet.forward.eval" and under(i, "trainer.infer_case"))
        m["trainer.infer_case.forwards"] = forwards / cases if cases else 0.0

        m["checkpoint.save.s"] = totals.get("checkpoint.save", 0.0)
        m["checkpoint.save.calls"] = calls.get("checkpoint.save", 0)
        m["checkpoint.save.bytes"] = self.counts.get("checkpoint.save.bytes", 0)
        m["checkpoint.load.s"] = totals.get("checkpoint.load", 0.0)
        m["nifti.read.s"] = totals.get("nifti.read", 0.0)
        m["nifti.read.calls"] = calls.get("nifti.read", 0)
        m["nifti.write.s"] = totals.get("nifti.write", 0.0)
        m["nifti.write.calls"] = calls.get("nifti.write", 0)
        m["nifti.write.raw_bytes"] = self.counts.get("nifti.write.raw_bytes", 0)
        m["nifti.write.gz_bytes"] = self.counts.get("nifti.write.gz_bytes", 0)
        for fn in ("dilate", "erode", "sample_healthy_mask", "augment_mask", "void_image"):
            m[f"masks.{fn}.s"] = totals.get(f"masks.{fn}", 0.0)
        m["masks.sample_healthy_mask.calls"] = calls.get("masks.sample_healthy_mask", 0)
        variants = self.counts.get("masks.variants", 0)
        attempts = self.counts.get("masks.integer_draws", 0) / 3
        m["masks.placement_attempts_per_variant"] = attempts / variants if variants else 0.0
        m["dataset.write_sample.s"] = totals.get("dataset.write_sample", 0.0)
        m["dataset.read_sample.s"] = totals.get("dataset.read_sample", 0.0)
        m["volume.crop_center.s"] = totals.get("volume.crop_center", 0.0)
        m["volume.stitch.s"] = totals.get("volume.stitch", 0.0)
        m["metrics.evaluate_case.s"] = totals.get("metrics.evaluate_case", 0.0)
        m["metrics.ssim.s"] = sum(spans[i][2] - spans[i][1] for i, n in enumerate(names)
                                  if n == "losses.ssim3d" and under(i, "metrics.evaluate_case"))
        for cmd in ("prepare", "train", "infer", "evaluate"):
            m[f"cli.{cmd}.s"] = totals.get(f"cli.{cmd}", 0.0)
        return m

    @staticmethod
    def _train_step_split(spans) -> dict[str, float]:
        """One train step runs forward(training=True), composite_loss, backward
        and Adam.step in that order; the step spans from the forward's start to
        the end of the Adam step, so it includes the glue between them."""
        out = {"trainer.train_step.s": 0.0, "trainer.train_step.forward_s": 0.0,
               "trainer.train_step.loss_s": 0.0, "trainer.train_step.backward_s": 0.0,
               "trainer.train_step.adam_s": 0.0}
        step_start = None
        phase = None
        for name, start, end, *_ in spans:
            if name == "unet.forward.train":
                step_start, phase = start, "train"
                out["trainer.train_step.forward_s"] += end - start
            elif name == "unet.forward.eval":
                phase = "eval"
            elif name == "losses.composite_loss" and phase == "train":
                out["trainer.train_step.loss_s"] += end - start
            elif name == "autodiff.backward":
                out["trainer.train_step.backward_s"] += end - start
            elif name == "optim.adam.step" and step_start is not None:
                out["trainer.train_step.adam_s"] += end - start
                out["trainer.train_step.s"] += end - step_start
                step_start = None
        return out


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]
