"""Cross-validated training and stitched inference.

Scans split into k folds by case (all mask variants of a scan stay in
one fold). The ``train`` command fixes that plan once, from the
manifest's case ids, before it reads a sample; ``train_fold`` trains the
two sets it is given. Each fold trains its own model; the checkpoint
tracks the best validation loss seen so far, updating only on strict
improvement. Every random choice derives from the global seed, so a
rerun reproduces the loss curves bit for bit.

Training and inference see one window of each scan: the ``crop_dims``
box that ``volume.crop_center`` centres on the whole volume, which
``network_inputs`` voids and scales for both, by the voided scan's max: the
one scale of the input, the target and the prediction. Inference runs each
model once on that window, not a sliding window; masked voxels outside it
keep their given value (ROADMAP item 1), and ``volume.stitch`` writes the
prediction back through the same box. An ensemble's models run one after
another, each conv splitting its walk over the cores BLAS leaves free.
Running the models themselves side by side measured 1.19-1.36x faster
for five forwards with BLAS on one thread of two cores; that is ROADMAP
item 13, not done yet.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, no_grad
from .checkpoint import save_checkpoint
from .errors import ConfigError, DataError, NumericError
from .losses import composite_loss
from .masks import TrainingSample
from .optim import Adam
from .unet import UNet, UNetConfig, build_unet
from .util import make_rng
from .volume import MaskVolume, Volume, crop_center, stitch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    folds: int = 5
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    lambda_mae: float = 1.0
    lambda_ssim: float = 1.0
    batch_size: int = 1
    seed: int = 0
    crop_dims: tuple[int, int, int] = (208, 208, 144)
    base_channels: int = 32
    dropout_rate: float = 0.2
    mae_region: str = "non_tumor"   # or "healthy_only"

    def __post_init__(self):
        self.unet  # UNetConfig checks base_channels and dropout_rate
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1 and beta2 must lie in [0, 1), got ({self.beta1}, {self.beta2})")
        if self.lambda_mae < 0 or self.lambda_ssim < 0:
            raise ConfigError(f"lambda_mae and lambda_ssim must be >= 0, got "
                              f"({self.lambda_mae}, {self.lambda_ssim})")
        check_crop_dims(self.crop_dims)
        if self.mae_region not in ("non_tumor", "healthy_only"):
            raise ConfigError(f"mae_region must be non_tumor or healthy_only, got {self.mae_region!r}")

    @property
    def unet(self) -> UNetConfig:
        """The architecture each fold trains."""
        return UNetConfig(base_channels=self.base_channels, dropout_rate=self.dropout_rate)


def check_crop_dims(crop_dims) -> None:
    """Refuse a crop that the U-Net's three pooling stages cannot halve evenly."""
    if len(crop_dims) != 3 or any(e < 1 or e % 8 for e in crop_dims):
        raise ConfigError(f"config key 'crop_dims': {crop_dims} is not 3 positive multiples of 8")


def train_memory_bytes(config: TrainConfig, samples: int) -> int:
    """Estimated traced peak of a ``train`` run: one step plus the samples held.

    A step peaks at the larger of two moments. At the end of the forward
    pass, the graph holds about 76 bytes per crop voxel per base channel
    plus 87 per crop voxel, for each sample of the batch, beside three
    float32 copies of the parameters (the parameters and Adam's two
    moments; Adam's step drops the gradients it applied); the U-Net has
    about 5,715 parameters per base channel squared. In Adam's step, the
    activations are gone and about 5.25 copies of the parameters are live. Each prepared sample holds
    13 bytes per crop voxel (three float32 crops and a bool one).

    Fitted on tracemalloc's peak over two steps of one model (batch 1 and 2,
    crops 24^3-64^3, base 4-16, and 16^3 at base 32, dropout 0.2): every
    estimate came within 3.2 % of the measured peak (48^3 base 8: 75.9 MiB
    measured). The defaults (208x208x144, base 32, batch 1) come to about
    15 GiB a step.
    """
    voxels = int(np.prod(config.crop_dims))
    base = config.base_channels
    params = 4 * 5715 * base * base
    step = max(voxels * config.batch_size * (76 * base + 87) + 3 * params, 21 * params // 4)
    return step + 13 * voxels * samples


@dataclass
class FoldResult:
    fold: int
    best_epoch: int
    best_val_loss: float
    checkpoint_path: str
    history: list[dict] = field(default_factory=list)


def kfold_split(case_ids: list[str], k: int, seed: int) -> tuple[tuple[str, ...], ...]:
    """Deterministic k folds: sort, seeded shuffle, round-robin deal.

    Fold sizes differ by at most one. Duplicate ids or k larger than the
    case count are rejected.
    """
    ids = sorted(case_ids)
    if len(set(ids)) != len(ids):
        raise DataError("case ids contain duplicates")
    if k < 2 or k > len(ids):
        raise DataError(f"need 2 <= k <= {len(ids)} cases, got k={k}")
    order = make_rng(seed, "kfold").permutation(len(ids))
    shuffled = [ids[i] for i in order]
    return tuple(tuple(shuffled[i::k]) for i in range(k))


# -- normalization -------------------------------------------------------------


def normalize_two_stage(voxels: np.ndarray, vmax: float) -> np.ndarray:
    """Map raw intensities to [-1, 1]: divide by vmax, then 2v - 1.

    ``vmax`` is the max of the whole voided scan (``network_inputs``), so a
    crop comes out exactly as the same voxels of the whole normalized volume
    would; a target voxel under the mask brighter than ``vmax`` maps above +1.
    """
    if vmax <= 0:
        raise DataError(f"volume max {vmax} must be positive to normalize")
    return voxels * np.float32(1.0 / vmax) * np.float32(2.0) - np.float32(1.0)


def denormalize(voxels: np.ndarray, vmax: float) -> np.ndarray:
    """Invert normalize_two_stage: (v + 1) / 2 * max."""
    return ((voxels + np.float32(1.0)) * np.float32(0.5) * np.float32(vmax)).astype(np.float32)


# -- sample preprocessing --------------------------------------------------------


@dataclass
class PreparedSample:
    """Cropped, normalized arrays ready to feed the network."""

    case_id: str
    voided: np.ndarray      # [1,1,D,H,W] float32, signed-unit
    mask: np.ndarray        # [1,1,D,H,W] float32 in {0,1}
    gt: np.ndarray          # [1,1,D,H,W] float32, signed-unit
    region: np.ndarray      # [1,1,D,H,W] bool, MAE region


def network_inputs(scan: Volume, combined: MaskVolume, box) -> tuple:
    """``(x, m, vmax)``: the window ``box`` of the scan, voided under the
    combined mask and normalized by ``vmax``, the max of the whole voided
    scan, and the mask's bits, each a C-ordered [1,1,D,H,W] float32 array.
    Only the window is copied, and any values under the mask give the same x."""
    if scan.dims != combined.dims:
        raise DataError(f"volume dims {scan.dims} and mask dims {combined.dims} disagree")
    vmax = float(np.max(scan.voxels, where=~combined.bits, initial=0.0))
    bits = np.ascontiguousarray(combined.bits[box])
    window = np.array(scan.voxels[box], order="C")   # always a copy: the scan stays as given
    window[bits] = 0.0
    return normalize_two_stage(window, vmax)[None, None], bits.astype(np.float32)[None, None], vmax


def prepare_sample(sample: TrainingSample, crop_dims, mae_region: str = "non_tumor") -> PreparedSample:
    """Cut the centred crop from every component, input and target on
    ``network_inputs``'s one scale: outside the mask they agree bit for bit.
    The crops are C-ordered copies, so every array has one layout."""
    box = crop_center(sample.t1n.dims, crop_dims, (slice(None),) * 3)
    region = ~np.ascontiguousarray(sample.unhealthy.bits[box])[None, None]
    if mae_region == "healthy_only":
        region &= sample.combined.bits[box]
    if not region.any():
        raise DataError(f"{sample.case_id}: empty MAE region after cropping")
    voided, mask, vmax = network_inputs(sample.t1n, sample.combined, box)
    gt = normalize_two_stage(np.ascontiguousarray(sample.t1n.voxels[box]), vmax)
    return PreparedSample(case_id=sample.case_id, voided=voided, mask=mask, gt=gt[None, None],
                          region=region)


# -- training --------------------------------------------------------------------


def _loss_for(model: UNet, batch: list[PreparedSample], config: TrainConfig,
              training: bool, rng: np.random.Generator | None) -> Tensor:
    voided = Tensor(np.concatenate([s.voided for s in batch], axis=0))
    mask = Tensor(np.concatenate([s.mask for s in batch], axis=0))
    gt = np.concatenate([s.gt for s in batch], axis=0)
    region = np.concatenate([s.region for s in batch], axis=0)
    pred = model.forward(voided, mask, training=training, rng=rng)
    return composite_loss(pred, gt, region, config.lambda_mae, config.lambda_ssim)


def validation_loss(model: UNet, samples: list[PreparedSample], config: TrainConfig) -> float:
    if not samples:
        raise DataError("validation fold is empty")
    total = 0.0
    with no_grad():
        for s in samples:
            total += _loss_for(model, [s], config, training=False, rng=None).item()
    return total / len(samples)


def train_fold(train_set: list[PreparedSample], val_set: list[PreparedSample],
               config: TrainConfig, fold_index: int, out_dir, log_fh=None) -> FoldResult:
    """Train one fold on exactly the given sets and keep its best-validation checkpoint.
    ``fold_index`` labels the fold's random streams, checkpoint and log records."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not train_set or not val_set:
        raise DataError(f"fold {fold_index} leaves an empty split "
                        f"({len(train_set)} train / {len(val_set)} val)")

    model = build_unet(config.unet, make_rng(config.seed, "init", fold_index))
    opt = Adam(model.param_tensors(), lr=config.lr, betas=(config.beta1, config.beta2))

    ckpt_path = out_dir / f"fold{fold_index}-best.vxpt"
    best = float("inf")
    best_epoch = -1
    history: list[dict] = []

    for epoch in range(config.epochs):
        started = time.monotonic()
        order = make_rng(config.seed, "shuffle", fold_index, epoch).permutation(len(train_set))
        epoch_total = 0.0
        for step_index, start in enumerate(range(0, len(order), config.batch_size)):
            batch = [train_set[i] for i in order[start:start + config.batch_size]]
            drng = make_rng(config.seed, "dropout", fold_index, epoch, step_index)
            loss = _loss_for(model, batch, config, training=True, rng=drng)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(
                    f"fold {fold_index} epoch {epoch}: non-finite loss {value} "
                    f"on case(s) {[s.case_id for s in batch]}")
            model.zero_grad()
            loss.backward()
            opt.step()
            epoch_total += value * len(batch)
        train_loss = epoch_total / len(train_set)
        val_loss = validation_loss(model, val_set, config)
        if not np.isfinite(val_loss):
            raise NumericError(f"fold {fold_index} epoch {epoch}: non-finite validation loss")

        record = {"fold": fold_index, "epoch": epoch, "train_loss": train_loss,
                  "val_loss": val_loss, "seconds": round(time.monotonic() - started, 3)}
        history.append(record)
        if log_fh is not None:
            log_fh.write(json.dumps(record) + "\n")
            log_fh.flush()

        if val_loss < best:  # strict: ties keep the earlier checkpoint
            best = val_loss
            best_epoch = epoch
            save_checkpoint(model, {"epoch": epoch, "fold": fold_index,
                                    "val_loss": val_loss, "seed": config.seed}, ckpt_path)

    return FoldResult(fold=fold_index, best_epoch=best_epoch, best_val_loss=best,
                      checkpoint_path=str(ckpt_path), history=history)


# -- inference ---------------------------------------------------------------------


def infer_case(models: list[UNet], volume: Volume, combined: MaskVolume,
               crop_dims) -> Volume:
    """Predict the masked region and stitch it into the given volume.

    Accepts the ground-truth scan or an already-voided one: ``network_inputs``
    voids the window itself. With several models the signed-unit predictions
    are averaged before denormalization. Voxels outside the mask pass through
    bit for bit.
    """
    if not models:
        raise DataError("infer_case needs at least one model")
    box = crop_center(volume.dims, crop_dims, (slice(None),) * 3)
    x, m, vmax = network_inputs(volume, combined, box)
    acc: np.ndarray | None = None
    with no_grad():
        for model in models:
            pred = model.forward(Tensor(x), Tensor(m), training=False).data[0, 0]
            acc = pred if acc is None else acc + pred
    mean_pred = acc / np.float32(len(models))
    clipped = np.clip(mean_pred, -1.0, 1.0)
    return stitch(volume, denormalize(clipped, vmax), combined.bits[box], box)
