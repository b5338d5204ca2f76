"""Fold planning, normalization, sample prep, training loop, inference."""

import contextlib

import numpy as np
import pytest

from conftest import build_case, build_prepared_samples
from voxelpaint import trainer
from voxelpaint.autodiff import Tensor, no_grad
from voxelpaint.errors import ConfigError, DataError, NumericError
from voxelpaint.checkpoint import load_checkpoint
from voxelpaint.masks import make_training_sample
from voxelpaint.trainer import (
    TrainConfig,
    denormalize,
    infer_case,
    kfold_split,
    normalize_two_stage,
    prepare_sample,
    train_fold,
    validation_loss,
)
from voxelpaint.unet import UNetConfig, build_unet
from voxelpaint.volume import MaskVolume


# ---------------------------------------------------------------------------
# k-fold planning
# ---------------------------------------------------------------------------

def test_kfold_partitions_cases():
    ids = [f"case{i:02d}" for i in range(11)]
    folds = kfold_split(ids, 5, seed=42)
    assert len(folds) == 5
    flat = [c for fold in folds for c in fold]
    assert sorted(flat) == sorted(ids)
    sizes = sorted(len(f) for f in folds)
    assert sizes == [2, 2, 2, 2, 3]


def test_kfold_deterministic_and_seed_sensitive():
    ids = [f"c{i}" for i in range(10)]
    a = kfold_split(ids, 5, seed=1)
    b = kfold_split(ids, 5, seed=1)
    c = kfold_split(ids, 5, seed=2)
    assert a == b
    assert a != c


def test_kfold_insensitive_to_input_order():
    ids = [f"c{i}" for i in range(8)]
    a = kfold_split(ids, 4, seed=3)
    b = kfold_split(list(reversed(ids)), 4, seed=3)
    assert a == b


def test_kfold_validation():
    with pytest.raises(DataError):
        kfold_split(["a", "a", "b"], 2, seed=0)
    with pytest.raises(DataError):
        kfold_split(["a", "b", "c"], 4, seed=0)
    with pytest.raises(DataError):
        kfold_split(["a", "b", "c"], 1, seed=0)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalize_maps_to_signed_unit():
    normed = normalize_two_stage(np.array([[[0.0, 500.0, 1000.0]]], np.float32), 1000.0)
    assert normed.dtype == np.float32
    assert np.allclose(normed.ravel(), [-1.0, 0.0, 1.0])


def test_normalize_round_trip_within_relative_tolerance():
    rng = np.random.default_rng(70)
    vox = (rng.random((12, 12, 12)) * 2500.0).astype(np.float32)
    vox.flat[0] = 2500.0  # pin the max
    back = denormalize(normalize_two_stage(vox, 2500.0), 2500.0)
    rel = np.abs(back - vox) / max(vox.max(), 1.0)
    assert float(rel.max()) <= 1e-6


def test_normalize_rejects_nonpositive_max():
    with pytest.raises(DataError):
        normalize_two_stage(np.zeros((2, 2, 2), np.float32), 0.0)


# ---------------------------------------------------------------------------
# Sample preparation
# ---------------------------------------------------------------------------

def test_prepare_sample_shapes_and_domains():
    t1n, _, tumor, healthy = build_case(4000)
    sample = make_training_sample("caseP", t1n, tumor, healthy)
    prep = prepare_sample(sample, (16, 16, 16))
    for arr in (prep.voided, prep.mask, prep.gt):
        assert arr.shape == (1, 1, 16, 16, 16)
        assert arr.dtype == np.float32
    assert prep.region.dtype == np.bool_
    assert set(np.unique(prep.mask)) <= {0.0, 1.0}
    assert prep.gt.min() >= -1.0 and prep.gt.max() <= 1.0
    # Voided voxels sit at the signed-unit floor inside the mask.
    assert np.all(prep.voided[prep.mask == 1.0] == -1.0)


def test_prepare_sample_region_modes():
    t1n, _, tumor, healthy = build_case(4100)
    sample = make_training_sample("caseR", t1n, tumor, healthy)
    non_tumor = prepare_sample(sample, (16, 16, 16), mae_region="non_tumor")
    healthy_only = prepare_sample(sample, (16, 16, 16), mae_region="healthy_only")
    mask_bits = non_tumor.mask[0, 0] == 1.0
    tumor_bits = mask_bits & ~healthy_only.region[0, 0]
    # non_tumor scores everything except tumor voxels.
    assert non_tumor.region.sum() == 16 ** 3 - tumor.bits.sum()
    # healthy_only scores only the synthetic-mask voxels.
    assert healthy_only.region.sum() == healthy.bits.sum()
    assert not (healthy_only.region[0, 0] & tumor_bits).any()


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def _quick_config(**kw):
    defaults = dict(epochs=2, folds=5, lr=1e-3, seed=7,
                    crop_dims=(16, 16, 16), base_channels=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_train_fold_runs_and_tracks_best(tmp_path):
    samples = build_prepared_samples(count=5)
    res = train_fold(samples, _quick_config(epochs=3), 0, tmp_path)
    assert len(res.history) == 3
    assert res.best_epoch >= 0
    assert res.best_val_loss == min(h["val_loss"] for h in res.history)
    model, meta = load_checkpoint(res.checkpoint_path)
    assert meta["val_loss"] == res.best_val_loss
    assert meta["epoch"] == res.best_epoch
    assert meta["fold"] == 0
    # The checkpointed model reproduces the recorded validation loss.
    val_cases = set(kfold_split(sorted({cid for cid, _ in samples}), 5, 7)[0])
    val_set = [s for cid, s in samples if cid in val_cases]
    revalidated = validation_loss(model, val_set, _quick_config(epochs=3))
    assert revalidated == pytest.approx(res.best_val_loss, abs=1e-7)


def test_train_fold_is_bit_deterministic(tmp_path):
    samples = build_prepared_samples(count=5)
    cfg = _quick_config()
    res_a = train_fold(samples, cfg, 1, tmp_path / "a")
    res_b = train_fold(samples, cfg, 1, tmp_path / "b")

    def curve(res):  # drop the wall-clock field
        return [{k: v for k, v in h.items() if k != "seconds"} for h in res.history]

    assert curve(res_a) == curve(res_b)
    bytes_a = open(res_a.checkpoint_path, "rb").read()
    bytes_b = open(res_b.checkpoint_path, "rb").read()
    assert bytes_a == bytes_b


def test_train_fold_writes_log_lines(tmp_path):
    import io
    import json
    samples = build_prepared_samples(count=5)
    buf = io.StringIO()
    train_fold(samples, _quick_config(), 0, tmp_path, log_fh=buf)
    lines = [json.loads(l) for l in buf.getvalue().strip().split("\n")]
    assert len(lines) == 2
    assert {"fold", "epoch", "train_loss", "val_loss", "seconds"} <= set(lines[0])


def test_train_fold_validates_fold_index_and_splits(tmp_path):
    samples = build_prepared_samples(count=5)
    with pytest.raises(ConfigError):
        train_fold(samples, _quick_config(), 7, tmp_path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_fold_flags_numeric_blowup(tmp_path):
    # An absurd loss scale overflows float32 in the first epoch.
    samples = build_prepared_samples(count=5)
    cfg = _quick_config(lambda_mae=1e38, lr=1e30)
    with pytest.raises(NumericError):
        train_fold(samples, cfg, 0, tmp_path)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        _quick_config(epochs=0)
    with pytest.raises(ConfigError):
        _quick_config(lr=-1.0)
    with pytest.raises(ConfigError):
        _quick_config(folds=1)
    with pytest.raises(ConfigError):
        _quick_config(crop_dims=(15, 16, 16))  # not divisible by 8
    with pytest.raises(ConfigError):
        _quick_config(beta1=1.0)
    with pytest.raises(ConfigError):
        _quick_config(mae_region="everywhere")


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _fresh_model(base=2, seed=0):
    return build_unet(UNetConfig(base_channels=base), np.random.default_rng(seed))


def test_infer_case_changes_only_masked_voxels():
    t1n, _, tumor, healthy = build_case(4200)
    combined = MaskVolume(tumor.bits | healthy.bits, role="combined")
    out = infer_case(_fresh_model(), t1n, combined, (16, 16, 16))
    assert out.dims == t1n.dims
    outside = ~combined.bits
    assert np.array_equal(out.voxels[outside], t1n.voxels[outside])
    assert not np.array_equal(out.voxels[combined.bits], t1n.voxels[combined.bits])


def test_infer_case_idempotent_voiding():
    # Feeding the ground truth or the pre-voided scan must give identical
    # output, because inference re-voids unconditionally.
    t1n, _, tumor, healthy = build_case(4300)
    sample = make_training_sample("caseI", t1n, tumor, healthy)
    model = _fresh_model()
    from_gt = infer_case(model, t1n, sample.combined, (16, 16, 16))
    from_voided = infer_case(model, sample.t1n_voided, sample.combined, (16, 16, 16))
    assert np.array_equal(from_gt.voxels, from_voided.voxels)


def test_infer_case_ensemble_averages_predictions():
    t1n, _, tumor, healthy = build_case(4400)
    combined = MaskVolume(tumor.bits | healthy.bits, role="combined")
    m1, m2 = _fresh_model(seed=1), _fresh_model(seed=2)
    single1 = infer_case(m1, t1n, combined, (16, 16, 16))
    single2 = infer_case(m2, t1n, combined, (16, 16, 16))
    both = infer_case([m1, m2], t1n, combined, (16, 16, 16))
    assert not np.array_equal(both.voxels, single1.voxels)
    assert not np.array_equal(both.voxels, single2.voxels)
    inside = combined.bits
    lo = np.minimum(single1.voxels[inside], single2.voxels[inside])
    hi = np.maximum(single1.voxels[inside], single2.voxels[inside])
    assert np.all(both.voxels[inside] >= lo - 1e-4)
    assert np.all(both.voxels[inside] <= hi + 1e-4)


def test_infer_case_output_intensities_in_raw_range():
    t1n, _, tumor, healthy = build_case(4500)
    combined = MaskVolume(tumor.bits | healthy.bits, role="combined")
    out = infer_case(_fresh_model(), t1n, combined, (16, 16, 16))
    vmax = float(np.max(np.where(combined.bits, 0.0, t1n.voxels)))
    assert out.voxels.min() >= 0.0
    assert out.voxels[combined.bits].max() <= vmax + 1e-3


def test_infer_case_requires_models_and_matching_dims():
    t1n, _, tumor, healthy = build_case(4600)
    combined = MaskVolume(tumor.bits | healthy.bits, role="combined")
    with pytest.raises(DataError):
        infer_case([], t1n, combined, (16, 16, 16))
    with pytest.raises(DataError):
        infer_case(_fresh_model(), t1n,
                   MaskVolume(np.zeros((8, 8, 8), bool), role="combined"),
                   (8, 8, 8))


# ---------------------------------------------------------------------------
# No-grad evaluation
# ---------------------------------------------------------------------------

def test_no_grad_forward_builds_no_graph_and_matches():
    (_, s), = build_prepared_samples(count=1)
    model = _fresh_model()
    x, m = Tensor(s.voided), Tensor(s.mask)
    graph = model.forward(x, m, training=False)
    with no_grad():
        bare = model.forward(x, m, training=False)
    assert graph.requires_grad and graph._parents
    assert not bare.requires_grad
    assert bare._parents == () and bare._backward is None
    assert bare.data.tobytes() == graph.data.tobytes()
    # leaving the block restores graph building
    assert model.forward(x, m, training=False).requires_grad


def test_validation_loss_and_inference_match_graph_building_path(monkeypatch):
    samples = [s for _, s in build_prepared_samples(count=3)]
    cfg = _quick_config()
    t1n, _, tumor, healthy = build_case(4700)
    combined = MaskVolume(tumor.bits | healthy.bits, role="combined")
    models = [_fresh_model(seed=1), _fresh_model(seed=2)]

    loss = validation_loss(models[0], samples, cfg)
    inpainted = infer_case(models, t1n, combined, (16, 16, 16))
    monkeypatch.setattr(trainer, "no_grad", contextlib.nullcontext)
    assert validation_loss(models[0], samples, cfg) == loss
    assert infer_case(models, t1n, combined, (16, 16, 16)).voxels.tobytes() == \
        inpainted.voxels.tobytes()
