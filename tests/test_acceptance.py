"""Release acceptance suite: one test per shipping criterion.

Each test covers one numbered criterion end to end, with its tolerance and
time budget pinned in the asserts, and prints a single PASS/FAIL line (visible
with -rA, or in the failure report) carrying the measured numbers.  Everything
here is checked against the independent oracles in conftest, never against
the library's own output.
"""

import json
import shutil
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    away_from_zero,
    build_prepared_samples,
    conv3d_oracle,
    gradcheck,
    gradcheck_global,
    leaf,
    make_input_dir,
    make_nifti_bytes,
    separated_pool_input,
    smooth_volume,
    ssim3d_oracle,
    write_config,
)
from voxelpaint import cli
from voxelpaint import autodiff as ad
from voxelpaint.autodiff import Tensor
from voxelpaint.checkpoint import load_checkpoint
from voxelpaint.dataset import load_manifest
from voxelpaint.errors import NiftiError
from voxelpaint.losses import LossWeights, SsimParams, composite_loss, gaussian_window, masked_mae, ssim3d
from voxelpaint.masks import MaskGenParams, apply_mask_transform, dilate, generate_mask_set, make_training_sample
from voxelpaint.nifti import read_nifti, write_nifti
from voxelpaint.trainer import TrainConfig, denormalize, normalize_two_stage, train_fold
from voxelpaint.unet import UNetConfig, build_unet
from voxelpaint.volume import Volume, crop_center, stitch


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


# ---------------------------------------------------------------------------
# 1. Gradients: every primitive plus the full small network
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    with criterion(1, "gradient checks, every primitive and the full net, rel err <= 1e-3"):
        start = time.monotonic()
        rng = np.random.default_rng(1001)
        worst_by_op = {}

        def check(name, build_loss, tensors, h=1e-3):
            worst_by_op[name] = gradcheck(build_loss, tensors, rng, n_samples=20, h=h)

        a, b = leaf(rng, (4, 60)), leaf(rng, (4, 60))
        check("add", lambda: ((a + b) * (a + b)).mean(), [a, b])
        check("sub", lambda: ((a - b) * (a + b)).mean(), [a, b])
        check("mul", lambda: (a * b * a).mean(), [a, b])
        d = leaf(rng, (4, 60), scale=0.3, offset=2.0)
        check("div", lambda: (a / d).mean(), [a, d])
        check("neg", lambda: ((-a) * b).mean(), [a, b])
        k = away_from_zero(rng, (4, 60))
        check("abs", lambda: (k.abs() * b).mean(), [k, b])
        check("sum", lambda: (a * b).sum(), [a, b])
        check("mean", lambda: (a * b).mean(), [a, b])

        x = leaf(rng, (1, 2, 5, 5, 5))
        w = leaf(rng, (3, 2, 3, 3, 3), scale=0.5)
        bias = leaf(rng, (3,))
        check("conv3d", lambda: (lambda o: (o * o).mean())(ad.conv3d(x, w, bias, padding=1)),
              [x, w, bias])

        xn = leaf(rng, (2, 3, 4, 4, 4))
        gamma = leaf(rng, (3,), scale=0.2, offset=1.0)
        beta = leaf(rng, (3,), scale=0.2)
        check("instance_norm",
              lambda: (lambda o: (o * o).mean())(ad.instance_norm(xn, gamma, beta)),
              [xn, gamma, beta])

        r = away_from_zero(rng, (4, 60))
        check("relu", lambda: (ad.relu(r) * b).mean(), [r, b])
        pr = away_from_zero(rng, (2, 3, 4, 4, 4))
        alpha = leaf(rng, (1,), scale=0.1, offset=0.25)
        pw = leaf(rng, (2, 3, 4, 4, 4))
        check("prelu", lambda: (ad.prelu(pr, alpha) * pw).mean(), [pr, alpha, pw])
        check("dropout",
              lambda: (ad.dropout(a, 0.3, True, np.random.default_rng(55)) * b).mean(),
              [a, b])

        mp = separated_pool_input(rng, 1, 2, 4, 4, 4)
        mpw = leaf(rng, (1, 2, 2, 2, 2))
        check("maxpool3d", lambda: (ad.maxpool3d(mp) * mpw).mean(), [mp, mpw])
        up = leaf(rng, (1, 2, 3, 3, 3))
        upw = leaf(rng, (1, 2, 6, 6, 6))
        check("upsample3d_nearest", lambda: (ad.upsample3d_nearest(up) * upw).mean(), [up, upw])
        ca, cb = leaf(rng, (1, 2, 4, 4, 4)), leaf(rng, (1, 3, 4, 4, 4))
        cw = leaf(rng, (1, 5, 4, 4, 4))
        check("concat_channels", lambda: (ad.concat_channels(ca, cb) * cw).mean(), [ca, cb, cw])

        for name, worst in worst_by_op.items():
            assert worst <= 1e-3, f"{name} gradcheck rel err {worst:.3e} > 1e-3"

        # Full small U-Net: base channels 8 on a 16^3 input.  The graph runs in
        # f64 and the probes shrink to h=1e-5 so the finite differences stay
        # clear of maxpool/PReLU branch boundaries.
        model = build_unet(UNetConfig(base_channels=8, dropout_rate=0.2),
                           np.random.default_rng(5))
        params = list(model.params.values())
        for t in params:
            t.data = t.data.astype(np.float64)
        rng_in = np.random.default_rng(7)
        voided = Tensor(rng_in.standard_normal((1, 1, 16, 16, 16)))
        net_mask = Tensor((rng_in.random((1, 1, 16, 16, 16)) > 0.8).astype(np.float64))
        target = Tensor(rng_in.standard_normal((1, 1, 16, 16, 16)))

        def net_loss():
            out = model.forward(voided, net_mask, training=True,
                                rng=np.random.default_rng(99))
            diff = out - target
            return (diff * diff).mean()

        worst_net = gradcheck_global(net_loss, params, np.random.default_rng(31),
                                     n_samples=24, h=1e-5)
        assert worst_net <= 1e-3, f"full U-Net gradcheck rel err {worst_net:.3e} > 1e-3"

        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s, budget 120s"
        print(f"  worst primitive {max(worst_by_op.values()):.3e}, "
              f"full net {worst_net:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Convolution against the nested-loop oracle
# ---------------------------------------------------------------------------

def test_criterion_2_convolution_oracle():
    with criterion(2, "conv3d matches the naive oracle within 1e-5 on 100 random cases"):
        start = time.monotonic()
        rng = np.random.default_rng(2002)
        overall = 0.0
        for case in range(100):
            n = int(rng.integers(1, 3))
            ci = int(rng.integers(1, 4))
            co = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3]))
            p = int(rng.integers(0, k))
            spatial = tuple(int(rng.integers(k, 7)) for _ in range(3))
            x = rng.standard_normal((n, ci) + spatial).astype(np.float32)
            w = rng.standard_normal((co, ci, k, k, k)).astype(np.float32)
            bias = rng.standard_normal(co).astype(np.float32) if rng.random() < 0.5 else None
            got = ad.conv3d(Tensor(x), Tensor(w),
                            None if bias is None else Tensor(bias), padding=p).data
            want = conv3d_oracle(x, w, bias, padding=p)
            diff = float(np.max(np.abs(got.astype(np.float64) - want)))
            assert diff <= 1e-5, f"case {case}: max abs diff {diff:.2e} > 1e-5"
            overall = max(overall, diff)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"conv oracle suite took {elapsed:.1f}s, budget 60s"
        print(f"  overall max abs diff {overall:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. SSIM identities and the per-window oracle
# ---------------------------------------------------------------------------

def test_criterion_3_ssim_suite():
    with criterion(3, "SSIM: self=1 exactly, symmetric, oracle within 1e-6, "
                      "constant pair = c1/(1+c1) within 1e-9"):
        rng = np.random.default_rng(3003)
        a32 = rng.random((16, 16, 16)).astype(np.float32)
        assert ssim3d(a32, a32.copy()).item() == 1.0

        b32 = np.clip(a32 + 0.1 * rng.standard_normal(a32.shape), 0, 1).astype(np.float32)
        assert ssim3d(a32, b32).item() == ssim3d(b32, a32).item()

        params = SsimParams()
        window = gaussian_window(params.window_size, params.sigma)
        worst = 0.0
        for shape in [(16, 16, 16), (12, 10, 9), (7, 7, 7)]:
            a = rng.random(shape)
            b = np.clip(a + 0.15 * rng.standard_normal(shape), 0, 1)
            got = ssim3d(a, b, params).item()
            want = ssim3d_oracle(a, b, window, params.c1, params.c2)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-6, f"SSIM oracle diff {worst:.2e} > 1e-6"

        zeros = np.zeros((11, 11, 11))
        ones = np.ones((11, 11, 11))
        expected = params.c1 / (1.0 + params.c1)
        got = ssim3d(zeros, ones, params).item()
        assert abs(got - expected) <= 1e-9, \
            f"constant-pair SSIM {got!r} vs c1/(1+c1)={expected!r}"
        print(f"  oracle diff {worst:.2e}, constant pair {abs(got - expected):.2e}")


# ---------------------------------------------------------------------------
# 4. Loss reductions
# ---------------------------------------------------------------------------

def test_criterion_4_loss_reductions():
    with criterion(4, "masked MAE = plain MAE on full mask (1e-12), zero self-loss, "
                      "lambda zeroing isolates components"):
        rng = np.random.default_rng(4004)
        shape = (1, 1, 10, 10, 10)
        gt = (rng.random(shape) * 2.0 - 1.0)            # f64
        pred_data = np.clip(gt + 0.2 * rng.standard_normal(shape), -1, 1)
        full = np.ones(shape, dtype=bool)

        pred = Tensor(pred_data.copy(), requires_grad=True)
        plain = float(np.mean(np.abs(pred_data - gt)))
        got = masked_mae(pred, gt, full).item()
        assert abs(got - plain) <= 1e-12, f"full-mask MAE {got!r} vs plain {plain!r}"

        exact = composite_loss(Tensor(gt.copy(), requires_grad=True), gt, full).item()
        assert exact == 0.0, f"composite loss on an exact prediction is {exact!r}"

        region = rng.random(shape) < 0.4
        region.flat[0] = True
        params = SsimParams(data_range=2.0)
        mae_only = composite_loss(pred, gt, region, LossWeights(1.0, 0.0), params).item()
        ssim_only = composite_loss(pred, gt, region, LossWeights(0.0, 1.0), params).item()
        assert abs(mae_only - masked_mae(pred, gt, region).item()) <= 1e-12
        assert abs(ssim_only - (1.0 - ssim3d(pred, gt, params).item())) <= 1e-12
        print(f"  full-mask delta {abs(got - plain):.2e}, self-loss {exact!r}")


# ---------------------------------------------------------------------------
# 5. Geometry: centered crop, stitch, normalization round trip
# ---------------------------------------------------------------------------

def test_criterion_5_geometry():
    with criterion(5, "crop starts (16,16,5), stitch exact outside the mask on 1000 "
                      "cases, normalization round trip <= 1e-6"):
        whole = (slice(None),) * 3
        starts = tuple(w.start for w in crop_center((240, 240, 155), (208, 208, 144), whole))
        assert starts == (16, 16, 5), f"crop starts {starts}"

        rng = np.random.default_rng(5005)
        for case in range(1000):
            dims = tuple(int(rng.integers(4, 11)) for _ in range(3))
            tgt = tuple(int(rng.integers(2, d + 1)) for d in dims)
            original = Volume(rng.standard_normal(dims).astype(np.float32))
            box = crop_center(dims, tgt, whole)
            pred = rng.standard_normal(tgt).astype(np.float32)
            bits = rng.random(tgt) < 0.4  # mask lives on the crop grid
            out = stitch(original, pred, bits, box).voxels
            inner = tuple(slice(w.start, w.start + t) for w, t in zip(box, tgt))
            window = out[inner]
            assert np.array_equal(window[bits], pred[bits]), \
                f"case {case}: stitch did not copy the prediction inside the mask"
            assert np.array_equal(window[~bits], original.voxels[inner][~bits]), \
                f"case {case}: stitch touched unmasked voxels in the window"
            touched = np.zeros(dims, dtype=bool)
            touched[inner] = bits
            assert np.array_equal(out[~touched], original.voxels[~touched]), \
                f"case {case}: stitch touched voxels outside the crop window"

        raw = smooth_volume(np.random.default_rng(77), n=16, peak=850.0)
        vmax = float(raw.max())
        back = denormalize(normalize_two_stage(raw, vmax), vmax)
        rel = float(np.max(np.abs(back - raw)) / np.max(np.abs(raw)))
        assert rel <= 1e-6, f"normalization round-trip rel err {rel:.2e} > 1e-6"
        print(f"  round-trip rel err {rel:.2e}")


# ---------------------------------------------------------------------------
# 6. Mask transforms and placement invariants
# ---------------------------------------------------------------------------

def test_criterion_6_mask_augmentation():
    with criterion(6, "mirror involution and right-angle rotations exact; every "
                      "generated mask respects the margin and union invariants"):
        rng = np.random.default_rng(6006)
        bits = rng.random((14, 16, 12)) < 0.3
        for mx in (False, True):
            for my in (False, True):
                for mz in (False, True):
                    once = apply_mask_transform(bits, (mx, my, mz), 0.0, 0.0)
                    axes = tuple(i for i, m in enumerate((mx, my, mz)) if m)
                    assert np.array_equal(once, np.flip(bits, axes) if axes else bits)
                    twice = apply_mask_transform(once, (mx, my, mz), 0.0, 0.0)
                    assert np.array_equal(twice, bits), f"mirror {(mx, my, mz)} not involutive"

        cube = rng.random((16, 16, 16)) < 0.25
        none = (False, False, False)
        for quarter in range(4):
            got_xy = apply_mask_transform(cube, none, 90.0 * quarter, 0.0)
            assert np.array_equal(got_xy, np.rot90(cube, quarter, axes=(0, 1))), \
                f"{90 * quarter} degree rotation in xy disagrees with the oracle"
            got_yz = apply_mask_transform(cube, none, 0.0, 90.0 * quarter)
            assert np.array_equal(got_yz, np.rot90(cube, quarter, axes=(1, 2))), \
                f"{90 * quarter} degree rotation in yz disagrees with the oracle"

        from conftest import build_case
        for seed in range(6100, 6108):
            t1n, brain, tumor, _ = build_case(seed)
            params = MaskGenParams(margin=2, max_attempts=200)
            masks = generate_mask_set(brain, tumor, params,
                                      np.random.default_rng(seed), count=3)
            forbidden = dilate(tumor.bits, params.margin)
            for healthy in masks:
                assert healthy.bits.any()
                assert not (healthy.bits & forbidden).any(), \
                    f"seed {seed}: healthy mask violates the dilated-tumor margin"
                sample = make_training_sample("c", t1n, tumor, healthy)
                assert np.array_equal(sample.combined.bits,
                                      healthy.bits | tumor.bits), \
                    f"seed {seed}: combined mask is not the union"
        print("  8 seeds x 3 variants all satisfy margin and union invariants")


# ---------------------------------------------------------------------------
# 7. Volume parsing
# ---------------------------------------------------------------------------

def test_criterion_7_parsing(tmp_path):
    with criterion(7, "write-read round trip bit-exact for f32; malformed headers "
                      "raise the designated error codes"):
        rng = np.random.default_rng(7007)
        vox = rng.standard_normal((9, 7, 5)).astype(np.float32)
        vol = Volume(vox, affine_bytes=bytes(range(76)))
        for name in ("round.nii", "round.nii.gz"):
            write_nifti(vol, tmp_path / name)
            back = read_nifti(tmp_path / name)
            assert back.voxels.tobytes() == vox.tobytes(), f"{name} not bit-exact"
            assert back.affine_bytes == vol.affine_bytes

        fixtures = [
            (dict(sizeof_hdr=340), "bad_header"),
            (dict(magic=b"ni1\x00"), "bad_magic"),
            (dict(datatype=8), "bad_datatype"),
            (dict(dim0=2), "bad_dims"),
            (dict(dim0=4, trailing=(2, 1, 1, 1)), "bad_dims"),
            (dict(shape=(0, 4, 5)), "bad_dims"),
        ]
        for kwargs, code in fixtures:
            path = tmp_path / f"bad_{code}_{len(kwargs)}.nii"
            path.write_bytes(make_nifti_bytes(**kwargs))
            with pytest.raises(NiftiError) as exc:
                read_nifti(path)
            assert exc.value.code == code, \
                f"{kwargs} raised code {exc.value.code!r}, expected {code!r}"

        short = tmp_path / "short.nii"
        short.write_bytes(make_nifti_bytes()[:100])
        with pytest.raises(NiftiError) as exc:
            read_nifti(short)
        assert exc.value.code == "truncated"
        print("  round trip bit-exact; 7 malformed fixtures hit their codes")


# ---------------------------------------------------------------------------
# 8. Training smoke test
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_training_smoke(tmp_path):
    with criterion(8, "loss falls below 0.1x first epoch in <=200 epochs and <5min; "
                      "checkpoint = curve minimum; rerun bit-identical"):
        config = TrainConfig(epochs=200, folds=5, lr=5e-3, seed=7,
                             crop_dims=(16, 16, 16), base_channels=8,
                             dropout_rate=0.0)

        def run(out_dir):
            out_dir.mkdir()
            samples = build_prepared_samples(count=10, n=16, seed=123)
            return train_fold(samples, config, 0, out_dir)

        start = time.monotonic()
        first_run = run(tmp_path / "run1")
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"training took {elapsed:.0f}s, budget 300s"

        first_loss = first_run.history[0]["train_loss"]
        final_loss = first_run.history[-1]["train_loss"]
        assert len(first_run.history) <= 200
        assert final_loss < 0.1 * first_loss, \
            f"final loss {final_loss:.4f} >= 0.1 x first loss {first_loss:.4f}"

        curve = [row["val_loss"] for row in first_run.history]
        assert first_run.best_val_loss == min(curve)
        _, meta = load_checkpoint(first_run.checkpoint_path)
        assert meta["val_loss"] == min(curve), \
            f"checkpoint val loss {meta['val_loss']!r} != curve minimum {min(curve)!r}"
        assert meta["epoch"] == first_run.best_epoch

        second_run = run(tmp_path / "run2")
        bytes1 = open(first_run.checkpoint_path, "rb").read()
        bytes2 = open(second_run.checkpoint_path, "rb").read()
        assert bytes1 == bytes2, "rerun produced a different checkpoint"

        def curve_rows(result):  # drop wall-clock timings before comparing
            return [{k: v for k, v in row.items() if k != "seconds"}
                    for row in result.history]

        assert curve_rows(first_run) == curve_rows(second_run), \
            "rerun produced a different training curve"
        print(f"  loss {first_loss:.4f} -> {final_loss:.4f} "
              f"(ratio {final_loss / first_loss:.4f}) in {elapsed:.0f}s; rerun identical")


# ---------------------------------------------------------------------------
# 9. End-to-end pipeline through the command line
# ---------------------------------------------------------------------------

def test_criterion_9_end_to_end(tmp_path, capsys):
    with criterion(9, "prepare/train/infer/evaluate/report all exit 0; perfect "
                      "prediction scores SSIM 1.0 / MSE 0.0; published statistics "
                      "echo verbatim"):
        input_dir = make_input_dir(tmp_path, n_cases=2, seed=900)
        dataset_dir = tmp_path / "dataset"
        config = write_config(tmp_path / "prepare.json", {
            "seed": 9,
            "prepare": {"input_dir": str(input_dir), "out_dir": str(dataset_dir),
                        "margin": 1, "variants": 2, "max_attempts": 400}})
        assert cli.main(["prepare", "--config", config]) == 0

        train_dir = tmp_path / "run"
        config = write_config(tmp_path / "train.json", {
            "seed": 9,
            "train": {"dataset_dir": str(dataset_dir), "out_dir": str(train_dir),
                      "epochs": 2, "folds": 2, "lr": 1e-3, "crop_dims": [16, 16, 16],
                      "base_channels": 2, "dropout_rate": 0.0}})
        assert cli.main(["train", "--config", config]) == 0

        pred_dir = tmp_path / "pred"
        config = write_config(tmp_path / "infer.json", {
            "infer": {"dataset_dir": str(dataset_dir),
                      "checkpoints": [str(train_dir / f"fold{i}-best.vxpt")
                                      for i in range(2)],
                      "out_dir": str(pred_dir), "crop_dims": [16, 16, 16]}})
        assert cli.main(["infer", "--config", config]) == 0

        eval_dir = tmp_path / "eval"
        config = write_config(tmp_path / "evaluate.json", {
            "evaluate": {"pred_dir": str(pred_dir), "gt_dir": str(dataset_dir),
                         "out_dir": str(eval_dir)}})
        assert cli.main(["evaluate", "--config", config]) == 0

        report_dir = tmp_path / "report"
        config = write_config(tmp_path / "report.json", {
            "report": {"summary": str(eval_dir / "summary.json"),
                       "out_dir": str(report_dir)}})
        assert cli.main(["report", "--config", config]) == 0
        assert (report_dir / "report.txt").exists()

        # Perfect predictions: copy the ground truth over the inferences.
        perfect_dir = tmp_path / "perfect"
        perfect_dir.mkdir()
        for entry in load_manifest(dataset_dir).samples:
            shutil.copyfile(
                dataset_dir / entry.directory / f"{entry.sample_id}-t1n.nii.gz",
                perfect_dir / f"{entry.sample_id}-t1n-inpainted.nii.gz")
        perfect_eval = tmp_path / "perfect_eval"
        config = write_config(tmp_path / "perfect.json", {
            "evaluate": {"pred_dir": str(perfect_dir), "gt_dir": str(dataset_dir),
                         "out_dir": str(perfect_eval)}})
        assert cli.main(["evaluate", "--config", config]) == 0
        summary = json.loads((perfect_eval / "summary.json").read_text())
        assert summary["ssim"]["mean"] == 1.0, f"perfect SSIM {summary['ssim']['mean']!r}"
        assert summary["mse"]["mean"] == 0.0, f"perfect MSE {summary['mse']['mean']!r}"

        # The published benchmark statistics, echoed verbatim by the report.
        published = {
            "mse": {"mean": 0.00476023, "std": 0.087, "p25": 0.00188717,
                    "median": 0.00389297, "p75": 0.00671933},
            "psnr": {"mean": 24.9959218, "std": 4.694, "p25": 21.726779,
                     "median": 24.4689038, "p75": 27.2419672},
            "ssim": {"mean": 0.87300897, "std": 0.00401174, "p25": 0.80683365,
                     "median": 0.87981504, "p75": 0.94228190},
            "case_count": 219,
            "psnr_infinite_count": 0,
        }
        fixture = tmp_path / "published.json"
        fixture.write_text(json.dumps(published))
        config = write_config(tmp_path / "published_report.json", {
            "report": {"summary": str(fixture)}})
        capsys.readouterr()  # flush everything printed so far
        assert cli.main(["report", "--config", config]) == 0
        table = capsys.readouterr().out
        lines = [line for line in table.splitlines() if line.strip()]
        stat_lines = [line for line in lines
                      if line[:22].strip() in ("Mean", "Standard deviation",
                                               "25 quantile", "Median", "75 quantile")]
        assert len(stat_lines) == 5, "report does not render the five-statistic layout"
        mean_row = next(line for line in stat_lines if line[:22].strip() == "Mean")
        assert "0.87300897" in mean_row, f"mean SSIM not echoed verbatim: {mean_row!r}"
        print("  pipeline exit codes 0; SSIM 1.0 / MSE 0.0; 0.87300897 echoed")
