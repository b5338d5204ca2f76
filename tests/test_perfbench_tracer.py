"""perfbench's tracer still finds, patches and restores every name it wraps.

``perfbench/spans.py`` patches functions and methods of the package by
name, and ``perfbench/workloads.py`` imports names from it; a rename in
``src/`` breaks the benchmark's traced run, and this test shows it first.
"""

import importlib
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np

from conftest import build_case, make_input_dir, pool_of, split_walks, write_config
from voxelpaint import autodiff, cli, masks, optim, unet
from voxelpaint.checkpoint import load_checkpoint
from voxelpaint.losses import composite_loss
from voxelpaint.dataset import load_manifest
from voxelpaint.masks import MaskGenParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings():
    """Every name bound in the package's modules and in the patched classes."""
    owners = [m for name, m in sys.modules.items() if name.startswith("voxelpaint.")]
    owners += [autodiff.Tensor, optim.Adam, unet.UNet]
    return {(owner, key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_installs_and_removes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    before = _bindings()
    tracer = workloads.Tracer()
    try:
        tracer.install()
        patched = {(owner, key) for owner, key, _ in tracer._patches}
    finally:
        tracer.remove()
    for module, attr, _ in spans.FUNCTIONS:
        assert (sys.modules[f"voxelpaint.{module}"], attr) in patched, f"{module}.{attr}"
    for attr in (*spans.ELEMENTWISE, "backward"):
        assert (autodiff.Tensor, attr) in patched, attr
    assert (optim.Adam, "step") in patched and (unet.UNet, "forward") in patched
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_times_backward_closures_without_changing_gradients(monkeypatch):
    # the tracer times a node's backward by swapping the closure on out._backward
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((1, 1, 4, 4, 4)).astype(np.float32)
    y = autodiff.Tensor(rng.standard_normal(x0.shape).astype(np.float32))
    w = autodiff.Tensor(rng.standard_normal((1, 1, 3, 3, 3)).astype(np.float32), requires_grad=True)

    def grad_of_x():
        x = autodiff.Tensor(x0.copy(), requires_grad=True)
        loss = ((x * 2.0 - y) / 3.0).abs().mean() + autodiff.conv3d(x, w, padding=1).sum()
        loss.backward()
        return x.grad

    untraced = grad_of_x()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("test"):
            traced = grad_of_x()
    finally:
        tracer.remove()
    names = {span[0] for span in tracer.spans}
    assert {"autodiff.elementwise.bwd", "autodiff.conv3d.bwd"} <= names, sorted(names)
    assert traced.tobytes() == untraced.tobytes()


def test_split_tap_conv_walks_open_no_span_off_the_main_thread(monkeypatch):
    # the span stack is shared by all threads, so a traced call on a pool
    # thread would nest its span at random; the split walk must make none
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    monkeypatch.setattr(autodiff, "BLOCK", 4096)   # a 2-to-2-channel walk at 16^3: 20 blocks
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((1, 2, 16, 16, 16)).astype(np.float32)
    w0 = rng.standard_normal((2, 2, 3, 3, 3)).astype(np.float32)
    voided = autodiff.Tensor(rng.uniform(-1, 1, (1, 1, 16, 16, 16)).astype(np.float32))
    mask = autodiff.Tensor((rng.random(voided.shape) < 0.2).astype(np.float32))
    gt = rng.uniform(-1, 1, voided.shape).astype(np.float32)

    def traced_run(workers):
        parts = split_walks(monkeypatch, workers)
        tracer, threads = spans.Tracer(), set()
        opened = tracer._open

        def recording_open(*args, **kwargs):
            threads.add(threading.get_ident())
            return opened(*args, **kwargs)

        tracer._open = recording_open
        tracer.install()
        try:
            with tracer.span("test"):
                x = autodiff.Tensor(x0.copy(), requires_grad=True)
                w = autodiff.Tensor(w0.copy(), requires_grad=True)
                (autodiff.conv3d(x, w, padding=1) * 0.5).sum().backward()
                model = unet.build_unet(unet.UNetConfig(base_channels=2), np.random.default_rng(5))
                pred = model.forward(voided, mask, training=True, rng=np.random.default_rng(6))
                composite_loss(pred, gt, gt > 0, 1.0, 1.0).backward()
        finally:
            tracer.remove()
        return Counter(span[0] for span in tracer.spans), threads, parts

    one, one_threads, unsplit = traced_run(1)
    two, two_threads, split = traced_run(2)
    assert unsplit == [] and split and set(split) == {2}
    assert one_threads == two_threads == {threading.get_ident()}
    assert one == two and one["autodiff.conv3d"] == 16 and one["autodiff.conv3d.bwd"] == 16


def test_tracer_sees_one_augment_per_placement(monkeypatch):
    # the per-layer mask figures rest on generate_mask_set calling the traced
    # sample_healthy_mask and augment_mask once each per placement attempt
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    _, brain, tumor, _ = build_case(3300)
    params = MaskGenParams(margin=1, variants=5)
    untraced = masks.generate_mask_set(brain, tumor, params, np.random.default_rng(7))
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("test"):
            traced = masks.generate_mask_set(brain, tumor, params, np.random.default_rng(7))
    finally:
        tracer.remove()
    names = [span[0] for span in tracer.spans]
    placements = names.count("masks.sample_healthy_mask")
    assert placements >= params.variants
    assert names.count("masks.augment_mask") == placements
    assert names.count("masks.generate_mask_set") == 1 and names.count("masks.dilate") == 1
    summary = tracer.summary()
    assert summary["masks.sample_healthy_mask.calls"] == placements
    assert summary["masks.placement_attempts_per_variant"] >= 1.0
    assert [m.bits.tobytes() for m in traced] == [m.bits.tobytes() for m in untraced]


def test_tracer_counts_every_scan_the_commands_read(monkeypatch, tmp_path):
    # the tracer patches module attributes, so a scan read through a reference
    # taken before it installs would go uncounted. The pool gets one thread:
    # the span stack is shared by all threads, and reads side by side would
    # race on it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    dataset, run, pred = tmp_path / "dataset", tmp_path / "run", tmp_path / "pred"
    sections = {
        "prepare": {"input_dir": str(make_input_dir(tmp_path)), "out_dir": str(dataset),
                    "margin": 1, "variants": 1, "max_attempts": 400},
        "train": {"dataset_dir": str(dataset), "out_dir": str(run), "epochs": 1, "folds": 2,
                  "crop_dims": [16, 16, 16], "base_channels": 2},
        "infer": {"dataset_dir": str(dataset), "out_dir": str(pred), "crop_dims": [16, 16, 16],
                  "checkpoints": [str(run / f"fold{k}-best.vxpt") for k in range(2)]},
        "evaluate": {"pred_dir": str(pred), "gt_dir": str(dataset), "out_dir": str(tmp_path / "eval")},
    }
    configs = {name: write_config(tmp_path / f"{name}.json", {name: section})
               for name, section in sections.items()}
    assert cli.main(["prepare", "--config", configs["prepare"]]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pool_of(1):
            for name in ("train", "infer", "evaluate"):
                with tracer.span(f"cli.{name}"):
                    assert cli.main([name, "--config", configs[name]]) == 0, name
    finally:
        tracer.remove()
    samples = len(load_manifest(dataset).samples)
    assert samples == 2
    # train reads t1n, infer t1n-voided, evaluate t1n and the prediction
    assert tracer.summary()["nifti.read.calls"] == samples * (1 + 1 + 2)


def test_benchmark_ensemble_checkpoints_load(monkeypatch, tmp_path):
    # scan-pipeline's ensemble is written by perfbench's generator; a change to
    # the checkpoint format that it no longer matches shows here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    paths = gen.write_checkpoints(tmp_path, 1, 2, base_channels=8)
    assert len(paths) == 2
    for path in paths:
        model, meta = load_checkpoint(path)
        names = [n for n, _ in model.parameters()]
        assert len(names) == 56, path
        assert not [n for n in names if n.endswith(".bias") and n != "final.bias"], path
        assert meta["config"] == {"base_channels": 8, "dropout_rate": 0.2}
