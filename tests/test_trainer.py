"""Fold planning, normalization, sample prep, training loop, inference."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from conftest import build_case, build_prepared_samples, fold_sets
from voxelpaint import trainer, util
from voxelpaint.autodiff import Tensor, no_grad
from voxelpaint.errors import ConfigError, DataError, NumericError
from voxelpaint.checkpoint import load_checkpoint
from voxelpaint.masks import make_training_sample, void_image
from voxelpaint.optim import Adam
from voxelpaint.trainer import (
    TrainConfig,
    denormalize,
    infer_case,
    kfold_split,
    normalize_two_stage,
    PreparedSample,
    prepare_sample,
    train_fold,
    train_memory_bytes,
    validation_loss,
)
from voxelpaint.unet import UNetConfig, build_unet
from voxelpaint.volume import MaskVolume, Volume


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


def test_prepare_sample_scales_input_and_target_alike():
    # the scan's brightest voxel lies under the healthy mask, so the voided
    # scan's max is lower than the scan's: one scale must serve both
    t1n, _, tumor, healthy = build_case(4150)
    voxels = t1n.voxels.copy()
    voxels[tuple(np.argwhere(healthy.bits)[0])] = 4000.0
    sample = make_training_sample("caseS", Volume(voxels), tumor, healthy)
    prep = prepare_sample(sample, (16, 16, 16))
    outside = prep.mask == 0.0
    assert prep.gt[outside].tobytes() == prep.voided[outside].tobytes()
    assert prep.voided.max() == 1.0 and prep.gt.max() > 1.0


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
    train_set, val_set = fold_sets(samples, _quick_config(epochs=3), 0)
    res = train_fold(train_set, val_set, _quick_config(epochs=3), 0, tmp_path)
    assert len(res.history) == 3
    assert res.best_epoch >= 0
    assert res.best_val_loss == min(h["val_loss"] for h in res.history)
    model, meta = load_checkpoint(res.checkpoint_path)
    assert meta["val_loss"] == res.best_val_loss
    assert meta["epoch"] == res.best_epoch
    assert meta["fold"] == 0
    # The checkpointed model reproduces the recorded validation loss.
    revalidated = validation_loss(model, val_set, _quick_config(epochs=3))
    assert revalidated == pytest.approx(res.best_val_loss, abs=1e-7)


def test_train_fold_is_bit_deterministic(tmp_path):
    samples = build_prepared_samples(count=5)
    cfg = _quick_config()
    res_a = train_fold(*fold_sets(samples, cfg, 1), cfg, 1, tmp_path / "a")
    res_b = train_fold(*fold_sets(samples, cfg, 1), cfg, 1, tmp_path / "b")

    def curve(res):  # drop the wall-clock field
        return [{k: v for k, v in h.items() if k != "seconds"} for h in res.history]

    assert curve(res_a) == curve(res_b)
    bytes_a = open(res_a.checkpoint_path, "rb").read()
    bytes_b = open(res_b.checkpoint_path, "rb").read()
    assert bytes_a == bytes_b


def test_train_fold_writes_the_same_checkpoint_on_the_numpy_walk(tmp_path, monkeypatch):
    # the conv walk's GEMMs through util.gemm, then through np.matmul and an add
    samples = build_prepared_samples(count=5)
    cfg = _quick_config()
    sets = fold_sets(samples, cfg, 1)
    res_blas = train_fold(*sets, cfg, 1, tmp_path / "blas")
    monkeypatch.setattr(util, "gemm", lambda dtype: None)
    res_numpy = train_fold(*sets, cfg, 1, tmp_path / "numpy")
    assert open(res_blas.checkpoint_path, "rb").read() == open(res_numpy.checkpoint_path, "rb").read()


def test_train_fold_at_batch_size_2(tmp_path, monkeypatch):
    samples = build_prepared_samples(count=7)
    cfg = _quick_config(batch_size=2)
    sets = fold_sets(samples, cfg, 0)
    n = len(sets[0])
    assert n % 2 == 1   # the last batch of an epoch holds one sample
    batches = []
    loss_for = trainer._loss_for

    def spy(model, batch, config, training, rng):
        if training:
            batches.append(len(batch))
        return loss_for(model, batch, config, training, rng)

    monkeypatch.setattr(trainer, "_loss_for", spy)
    res_a = train_fold(*sets, cfg, 0, tmp_path / "a")
    assert batches == ([2] * (n // 2) + [1]) * cfg.epochs   # ceil(n / 2) steps an epoch
    assert all(np.isfinite([h["train_loss"], h["val_loss"]]).all() for h in res_a.history)
    res_b = train_fold(*sets, cfg, 0, tmp_path / "b")
    res_1 = train_fold(*sets, _quick_config(batch_size=1), 0, tmp_path / "one")

    def data(res):
        return [{k: v for k, v in h.items() if k != "seconds"} for h in res.history], \
            open(res.checkpoint_path, "rb").read()

    assert data(res_a) == data(res_b)
    assert data(res_a)[1] != data(res_1)[1]


def test_train_fold_writes_log_lines(tmp_path):
    import io
    import json
    samples = build_prepared_samples(count=5)
    buf = io.StringIO()
    train_fold(*fold_sets(samples, _quick_config(), 0), _quick_config(), 0, tmp_path, log_fh=buf)
    lines = [json.loads(l) for l in buf.getvalue().strip().split("\n")]
    assert len(lines) == 2
    assert {"fold", "epoch", "train_loss", "val_loss", "seconds"} <= set(lines[0])


def test_train_fold_refuses_an_empty_set(tmp_path):
    # an empty train set would divide the epoch's loss by zero
    samples = build_prepared_samples(count=5)
    for train_set, val_set in ((samples, []), ([], samples)):
        with pytest.raises(DataError, match="empty split"):
            train_fold(train_set, val_set, _quick_config(), 0, tmp_path)
    assert not list(tmp_path.glob("*.vxpt"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_fold_flags_numeric_blowup(tmp_path):
    # An absurd loss scale overflows float32 in the first epoch.
    samples = build_prepared_samples(count=5)
    cfg = _quick_config(lambda_mae=1e38, lr=1e30)
    with pytest.raises(NumericError):
        train_fold(*fold_sets(samples, cfg, 0), cfg, 0, tmp_path)


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
    # the network's settings are checked by the UNetConfig the config builds
    with pytest.raises(ConfigError, match="base_channels"):
        _quick_config(base_channels=0)
    with pytest.raises(ConfigError, match="dropout_rate"):
        _quick_config(dropout_rate=1.0)
    assert _quick_config().unet == UNetConfig(base_channels=2, dropout_rate=0.2)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _fresh_model(base=2, seed=0):
    return build_unet(UNetConfig(base_channels=base), np.random.default_rng(seed))


def test_infer_case_changes_only_masked_voxels():
    t1n, _, tumor, healthy = build_case(4200)
    combined = MaskVolume(tumor.bits | healthy.bits, role="combined")
    out = infer_case([_fresh_model()], t1n, combined, (16, 16, 16))
    assert out.dims == t1n.dims
    outside = ~combined.bits
    assert np.array_equal(out.voxels[outside], t1n.voxels[outside])
    assert not np.array_equal(out.voxels[combined.bits], t1n.voxels[combined.bits])


def test_infer_case_idempotent_voiding():
    # Feeding the ground truth, the pre-voided scan or one with any values
    # under the mask must give identical output, because inference re-voids
    # unconditionally.
    t1n, _, tumor, healthy = build_case(4300)
    sample = make_training_sample("caseI", t1n, tumor, healthy)
    sentinel = t1n.voxels.copy()
    sentinel[sample.combined.bits] = -4096.0
    models = [_fresh_model()]
    from_gt = infer_case(models, t1n, sample.combined, (16, 16, 16))
    for given in (void_image(t1n, sample.combined), Volume(sentinel)):
        assert infer_case(models, given, sample.combined, (16, 16, 16)).voxels.tobytes() == \
            from_gt.voxels.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_network_inputs_void_the_window_at_the_voided_scans_max(order):
    t1n, _, tumor, healthy = build_case(4310, n=24)
    sample = make_training_sample("caseV", Volume(np.array(t1n.voxels, order=order)), tumor, healthy)
    voided = void_image(sample.t1n, sample.combined)
    before = sample.t1n.voxels.copy()
    for box in ((slice(None),) * 3, (slice(4, 20), slice(2, 18), slice(8, 16))):
        x, m, vmax = trainer.network_inputs(sample.t1n, sample.combined, box)
        assert vmax == float(voided.voxels.max())
        assert x.tobytes() == normalize_two_stage(voided.voxels[box], vmax)[None, None].tobytes()
        assert m.tobytes() == sample.combined.bits[box].astype(np.float32)[None, None].tobytes()
        assert x.flags.c_contiguous and m.flags.c_contiguous
    # only the window is copied and voided: the scan stays as given
    assert np.array_equal(sample.t1n.voxels, before)


def test_infer_case_ensemble_averages_predictions():
    t1n, _, tumor, healthy = build_case(4400)
    combined = MaskVolume(tumor.bits | healthy.bits, role="combined")
    m1, m2 = _fresh_model(seed=1), _fresh_model(seed=2)
    single1 = infer_case([m1], t1n, combined, (16, 16, 16))
    single2 = infer_case([m2], t1n, combined, (16, 16, 16))
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
    out = infer_case([_fresh_model()], t1n, combined, (16, 16, 16))
    vmax = float(np.max(np.where(combined.bits, 0.0, t1n.voxels)))
    assert out.voxels.min() >= 0.0
    assert out.voxels[combined.bits].max() <= vmax + 1e-3


def test_infer_case_requires_models_and_matching_dims():
    t1n, _, tumor, healthy = build_case(4600)
    combined = MaskVolume(tumor.bits | healthy.bits, role="combined")
    with pytest.raises(DataError):
        infer_case([], t1n, combined, (16, 16, 16))
    with pytest.raises(DataError):
        infer_case([_fresh_model()], t1n,
                   MaskVolume(np.zeros((8, 8, 8), bool), role="combined"),
                   (8, 8, 8))


class _RecordingModel:
    """Stands in for a UNet: records what forward is given, predicts -1."""

    def __init__(self):
        self.inputs = []

    def forward(self, voided, mask, training=False, rng=None):
        self.inputs.append((voided.data, mask.data))
        return Tensor(np.full_like(voided.data, -1.0))


def test_training_and_inference_give_the_network_the_same_inputs():
    # a crop smaller than the scan, from volumes in disk (Fortran) order, as read
    t1n, _, tumor, healthy = build_case(4800, n=24)
    t1n = Volume(np.asfortranarray(t1n.voxels))
    tumor, healthy = (MaskVolume(np.asfortranarray(m.bits), role=m.role) for m in (tumor, healthy))
    sample = make_training_sample("caseN", t1n, tumor, healthy)
    crop = (16, 16, 8)
    prep = prepare_sample(sample, crop)
    model = _RecordingModel()
    infer_case([model], void_image(t1n, sample.combined), sample.combined, crop)
    (voided, mask), = model.inputs
    assert mask.any() and not mask.all()
    for trained, inferred in ((prep.voided, voided), (prep.mask, mask)):
        assert inferred.dtype == trained.dtype == np.float32
        assert inferred.shape == trained.shape == (1, 1, *crop)
        assert inferred.flags.c_contiguous and trained.flags.c_contiguous
        assert inferred.tobytes() == trained.tobytes()


# ---------------------------------------------------------------------------
# No-grad evaluation
# ---------------------------------------------------------------------------

def test_no_grad_forward_builds_no_graph_and_matches():
    s, = build_prepared_samples(count=1)
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
    samples = build_prepared_samples(count=3)
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


# ---------------------------------------------------------------------------
# Step memory
# ---------------------------------------------------------------------------

def _crop_sample(n):
    """One prepared n^3 crop: a random target, voided in a box at its centre."""
    gt = np.random.default_rng(34).uniform(-1, 1, (1, 1, n, n, n)).astype(np.float32)
    mask = np.zeros_like(gt)
    mask[..., n // 4:n // 2, n // 4:n // 2, n // 4:n // 2] = 1.0
    voided = np.where(mask > 0, np.float32(-1.0), gt)
    return PreparedSample("c0", voided, mask, gt, np.ones(gt.shape, dtype=bool))


def _traced_steps(n, base, steps, with_model):
    """tracemalloc's peak over ``steps`` train steps at an n^3 crop, in bytes:
    with the model and Adam built inside the trace, or before it."""
    config = TrainConfig(crop_dims=(n, n, n), base_channels=base, dropout_rate=0.2)
    batch = [_crop_sample(n)]

    def build():
        model = build_unet(config.unet, util.make_rng(0, "init", 0))
        return model, Adam(model.param_tensors(), lr=1e-3)

    model, opt = (None, None) if with_model else build()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if with_model:
            model, opt = build()
        for step in range(steps):
            loss = trainer._loss_for(model, batch, config, True,
                                     util.make_rng(0, "dropout", 0, 0, step))
            model.zero_grad()
            loss.backward()
            opt.step()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_train_step_keeps_no_per_voxel_copy_it_can_recompute():
    # 32^3 base 8: 21.1 MiB, against 27.7 MiB while the decoders kept their
    # upsampled and concatenated arrays, and 34.0 MiB when instance_norm also
    # kept its centred input, dropout a float32 factor and relu its positive mask
    peak = _traced_steps(32, 8, steps=1, with_model=False)
    assert peak <= 24 * 2**20, f"a step peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("n", [24, 32])
@pytest.mark.parametrize("base", [4, 8])
def test_train_memory_estimate_matches_traced_steps(n, base):
    # two steps, so that the second forward runs beside the first's gradients
    peak = _traced_steps(n, base, steps=2, with_model=True)
    config = TrainConfig(crop_dims=(n, n, n), base_channels=base)
    assert abs(train_memory_bytes(config, 0) / peak - 1) <= 0.1
    assert train_memory_bytes(config, 3) - train_memory_bytes(config, 0) == 3 * 13 * n ** 3
