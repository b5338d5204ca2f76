"""Command line interface: config resolution, exit codes, end-to-end commands."""

import gzip
import hashlib
import json
import shutil

import numpy as np
import pytest

from conftest import make_input_dir, write_config
from voxelpaint import cli
from voxelpaint.dataset import load_manifest
from voxelpaint.nifti import read_nifti, write_nifti, write_nifti_mask
from voxelpaint.volume import MaskVolume, Volume


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """Prepared dataset plus trained checkpoints, shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    input_dir = make_input_dir(root)
    dataset_dir = root / "dataset"
    config = root / "prepare.json"
    write_config(config, {
        "seed": 9,
        "prepare": {"input_dir": str(input_dir), "out_dir": str(dataset_dir),
                    "margin": 1, "variants": 2, "max_attempts": 400},
    })
    assert cli.main(["prepare", "--config", str(config)]) == 0

    train_dir = root / "run"
    config = root / "train.json"
    write_config(config, {
        "seed": 9,
        "train": {"dataset_dir": str(dataset_dir), "out_dir": str(train_dir),
                  "epochs": 2, "folds": 2, "lr": 1e-3, "crop_dims": [16, 16, 16],
                  "base_channels": 2, "dropout_rate": 0.0},
    })
    assert cli.main(["train", "--config", str(config)]) == 0
    return {"root": root, "input_dir": input_dir, "dataset_dir": dataset_dir,
            "train_dir": train_dir}


def poison_scan(path):
    """Overwrite one voxel of a NIfTI scan with NaN, keeping everything else."""
    volume = read_nifti(path)
    volume.voxels[tuple(d // 2 for d in volume.dims)] = np.nan
    write_nifti(volume, path)


def cut_in_half(path):
    """Truncate a .nii.gz file mid-stream, as an interrupted copy leaves it."""
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


# ---------------------------------------------------------------------------
# config loading and flag overrides
# ---------------------------------------------------------------------------

def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_invalid_json_exits_3(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text("{not json")
    assert cli.main(["prepare", "--config", str(config)]) == 3


def test_non_object_root_exits_3(tmp_path):
    config = tmp_path / "list.json"
    config.write_text("[1, 2, 3]")
    assert cli.main(["prepare", "--config", str(config)]) == 3


def test_unknown_top_level_key_exits_3(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {"prepare": {}, "bogus": 1})
    assert cli.main(["prepare", "--config", config]) == 3
    assert "bogus" in capsys.readouterr().err


def test_missing_section_exits_3(tmp_path):
    config = write_config(tmp_path / "c.json", {"seed": 3})
    assert cli.main(["train", "--config", config]) == 3


def test_section_must_be_object_exits_3(tmp_path):
    config = write_config(tmp_path / "c.json", {"train": [1]})
    assert cli.main(["train", "--config", config]) == 3


def test_unknown_section_key_exits_3(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": "x", "out_dir": "y", "learning_rate": 1}})
    assert cli.main(["prepare", "--config", config]) == 3
    assert "learning_rate" in capsys.readouterr().err


def test_missing_required_key_exits_3(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {"prepare": {"input_dir": "x"}})
    assert cli.main(["prepare", "--config", config]) == 3
    assert "out_dir" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, top", [
    ("train", {"epochs": "abc"}, {}),
    ("train", {"crop_dims": 5}, {}),
    ("infer", {"checkpoints": 5}, {}),
    ("prepare", {"margin": None}, {}),
    ("prepare", {}, {"seed": "x"}),
    ("train", {"crop_dims": [16, None, 16]}, {}),
    ("train", {"crop_dims": "abc"}, {}),
    ("infer", {"checkpoints": [5]}, {}),
    ("train", {"epochs": 2.7}, {}),
    ("train", {"crop_dims": [48.9, 16, 16]}, {}),
    ("train", {"crop_dims": [16, True, 16]}, {}),
    ("train", {"lr": True}, {}),
    ("prepare", {}, {"seed": True}),
], ids=["epochs", "crop_dims", "checkpoints", "margin", "seed",
        "crop_dims_element", "crop_dims_string", "checkpoints_element",
        "epochs_fraction", "crop_dims_fraction", "crop_dims_bool", "lr_bool", "seed_bool"])
def test_malformed_config_value_exits_3(tmp_path, capsys, command, section, top):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    required = {"prepare": {"input_dir": str(data_dir)},
                "train": {"dataset_dir": str(data_dir)},
                "infer": {"dataset_dir": str(data_dir), "checkpoints": []}}[command]
    config = write_config(tmp_path / "c.json", {
        **top, command: {**required, "out_dir": str(tmp_path / "out"), **section}})
    assert cli.main([command, "--config", config]) == 3
    key = next(iter(section or top))
    assert f"config key {key!r}" in capsys.readouterr().err


def test_lossless_config_values_still_convert():
    section = {"epochs": 2.0, "lr": 1, "crop_dims": [16.0, "24", 32], "seed": "7"}
    assert cli._typed(section, "epochs", 500) == 2
    assert cli._typed(section, "lr", 1e-4) == 1.0
    assert cli._typed(section, "crop_dims", (8, 8, 8)) == (16, 24, 32)
    assert cli._typed(section, "seed", 0) == 7


def test_resolved_config_is_echoed_and_saved(tmp_path, capsys):
    input_dir = make_input_dir(tmp_path, n_cases=1, seed=410)
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "seed": 5,
        "prepare": {"input_dir": str(input_dir), "out_dir": str(out_dir),
                    "margin": 1, "variants": 1, "max_attempts": 400},
    })
    assert cli.main(["prepare", "--config", config]) == 0
    saved = json.loads((out_dir / "resolved_config.json").read_text())
    assert saved["command"] == "prepare"
    assert saved["seed"] == 5
    assert saved["margin"] == 1
    # the same JSON goes to stdout before the command runs
    assert '"command": "prepare"' in capsys.readouterr().out


def test_seed_flag_overrides_config_seed(tmp_path):
    input_dir = make_input_dir(tmp_path, n_cases=1, seed=420)
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "seed": 5,
        "prepare": {"input_dir": str(input_dir), "out_dir": str(out_dir),
                    "margin": 1, "variants": 1, "max_attempts": 400},
    })
    assert cli.main(["prepare", "--config", config, "--seed", "11"]) == 0
    saved = json.loads((out_dir / "resolved_config.json").read_text())
    assert saved["seed"] == 11
    assert load_manifest(out_dir).seed == 11


def test_out_flag_overrides_out_dir(tmp_path):
    input_dir = make_input_dir(tmp_path, n_cases=1, seed=430)
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": str(input_dir), "out_dir": str(tmp_path / "ignored"),
                    "margin": 1, "variants": 1, "max_attempts": 400},
    })
    other = tmp_path / "actual"
    assert cli.main(["prepare", "--config", config, "--out", str(other)]) == 0
    assert (other / "manifest.json").exists()
    assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def test_prepare_creates_samples_and_manifest(cli_workspace):
    dataset_dir = cli_workspace["dataset_dir"]
    manifest = load_manifest(dataset_dir)
    assert manifest.seed == 9
    assert len(manifest.samples) == 4  # 2 cases x 2 variants
    assert manifest.skipped == []
    for entry in manifest.samples:
        sample_dir = dataset_dir / entry.directory
        for component in ("t1n", "t1n-voided", "mask-healthy", "mask-unhealthy", "mask"):
            assert (sample_dir / f"{entry.sample_id}-{component}.nii.gz").exists()
    # variants of one case share the case seed, distinct cases do not
    seeds = {e.case_id: e.seed for e in manifest.samples}
    assert len(set(seeds.values())) == 2


def test_prepare_skips_case_without_tumor_mask(tmp_path, capsys):
    input_dir = make_input_dir(tmp_path, n_cases=1, seed=440)
    (input_dir / "caseXX-t1n.nii.gz").write_bytes(
        (input_dir / "case00-t1n.nii.gz").read_bytes())
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": str(input_dir), "out_dir": str(out_dir),
                    "margin": 1, "variants": 1, "max_attempts": 400},
    })
    assert cli.main(["prepare", "--config", config]) == 0
    manifest = load_manifest(out_dir)
    assert [e.case_id for e in manifest.samples] == ["case00"]
    assert manifest.skipped == [{"case_id": "caseXX", "reason": "missing tumor mask"}]
    assert "1 case(s) skipped" in capsys.readouterr().out


def test_prepare_skips_case_with_non_finite_scan(tmp_path, capsys):
    input_dir = make_input_dir(tmp_path, n_cases=2, seed=450)
    poison_scan(input_dir / "case01-t1n.nii.gz")
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": str(input_dir), "out_dir": str(out_dir),
                    "margin": 1, "variants": 1, "max_attempts": 400},
    })
    assert cli.main(["prepare", "--config", config]) == 0
    manifest = load_manifest(out_dir)
    assert [e.case_id for e in manifest.samples] == ["case00"]
    assert [s["case_id"] for s in manifest.skipped] == ["case01"]
    assert "NaN or infinite" in manifest.skipped[0]["reason"]
    assert not list(out_dir.glob("case01-*"))
    assert "1 case(s) skipped" in capsys.readouterr().out


def test_prepare_skips_case_with_truncated_gzip(tmp_path, capsys):
    input_dir = make_input_dir(tmp_path, n_cases=2, seed=450)
    cut_in_half(input_dir / "case01-t1n.nii.gz")
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": str(input_dir), "out_dir": str(out_dir),
                    "margin": 1, "variants": 1, "max_attempts": 400},
    })
    assert cli.main(["prepare", "--config", config]) == 0
    manifest = load_manifest(out_dir)
    assert [e.case_id for e in manifest.samples] == ["case00"]
    assert [s["case_id"] for s in manifest.skipped] == ["case01"]
    assert "compressed stream ends" in manifest.skipped[0]["reason"]
    assert "1 case(s) skipped" in capsys.readouterr().out


def test_prepare_thin_scan_below_margin(tmp_path, capsys):
    # three slices against the default margin of 4: the dilation radius
    # exceeds the z extent
    input_dir = tmp_path / "scans"
    input_dir.mkdir()
    rng = np.random.default_rng(460)
    voxels = (100.0 + 900.0 * rng.random((40, 40, 3))).astype(np.float32)
    tumor = np.zeros((40, 40, 3), dtype=bool)
    tumor[6:10, 6:10, 1] = True
    write_nifti(Volume(voxels), input_dir / "thin-t1n.nii.gz")
    write_nifti_mask(MaskVolume(tumor, role="unhealthy"), input_dir / "thin-mask-unhealthy.nii.gz")
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": str(input_dir), "out_dir": str(out_dir)}})
    assert cli.main(["prepare", "--config", config]) == 0
    manifest = load_manifest(out_dir)
    assert len(manifest.samples) == 5
    assert manifest.skipped == []
    assert "prepared 5 samples" in capsys.readouterr().out


def test_prepare_without_scans_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": str(empty), "out_dir": str(tmp_path / "out")}})
    assert cli.main(["prepare", "--config", config]) == 2


def test_prepare_missing_input_dir_exits_2(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": str(tmp_path / "nowhere"),
                    "out_dir": str(tmp_path / "out")}})
    assert cli.main(["prepare", "--config", config]) == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_logs_and_checkpoints(cli_workspace):
    train_dir = cli_workspace["train_dir"]
    result = json.loads((train_dir / "train_result.json").read_text())
    assert [r["fold"] for r in result] == [0, 1]
    for row in result:
        assert (train_dir / f"fold{row['fold']}-best.vxpt").exists()
        assert row["best_val_loss"] == pytest.approx(row["best_val_loss"])
    log_lines = (train_dir / "train_log.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in log_lines]
    assert len(records) == 4  # 2 folds x 2 epochs
    assert {r["fold"] for r in records} == {0, 1}


def test_train_invalid_hyperparameters_exit_3(cli_workspace, tmp_path):
    config = write_config(tmp_path / "c.json", {
        "train": {"dataset_dir": str(cli_workspace["dataset_dir"]),
                  "out_dir": str(tmp_path / "out"), "epochs": 0}})
    assert cli.main(["train", "--config", config]) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_numeric_blowup_exits_4(cli_workspace, tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {
        "train": {"dataset_dir": str(cli_workspace["dataset_dir"]),
                  "out_dir": str(tmp_path / "out"), "epochs": 1, "folds": 2,
                  "lr": 1e30, "lambda_mae": 1e38, "crop_dims": [16, 16, 16],
                  "base_channels": 2, "dropout_rate": 0.0}})
    assert cli.main(["train", "--config", config]) == 4
    assert "error" in capsys.readouterr().err


def test_train_sample_dims_disagree_exits_3(cli_workspace, tmp_path, capsys):
    # a voided scan larger than its scan would still centre-crop to crop_dims
    dataset_dir = tmp_path / "dataset"
    shutil.copytree(cli_workspace["dataset_dir"], dataset_dir)
    entry = load_manifest(dataset_dir).samples[0]
    voided = dataset_dir / entry.directory / f"{entry.sample_id}-t1n-voided.nii.gz"
    write_nifti(Volume(np.ones((20, 20, 20), np.float32)), voided)
    config = write_config(tmp_path / "c.json", {
        "train": {"dataset_dir": str(dataset_dir), "out_dir": str(tmp_path / "out"),
                  "epochs": 1, "folds": 2, "crop_dims": [16, 16, 16],
                  "base_channels": 2, "dropout_rate": 0.0}})
    assert cli.main(["train", "--config", config]) == 3
    assert "t1n-voided" in capsys.readouterr().err


def test_train_empty_manifest_exits_3(tmp_path):
    dataset_dir = tmp_path / "dataset"
    dataset_dir.mkdir()
    (dataset_dir / "manifest.json").write_text(
        json.dumps({"seed": 0, "samples": [], "skipped": []}))
    config = write_config(tmp_path / "c.json", {
        "train": {"dataset_dir": str(dataset_dir), "out_dir": str(tmp_path / "out")}})
    assert cli.main(["train", "--config", config]) == 3


@pytest.mark.parametrize("manifest", [
    '{"seed": 0, "samples": [',
    '[]',
    '{"seed": 0, "samples": [{"case_id": "a", "variant": 0}]}',
], ids=["truncated", "list_root", "entry_lacks_fields"])
def test_train_malformed_manifest_exits_3(tmp_path, capsys, manifest):
    dataset_dir = tmp_path / "dataset"
    dataset_dir.mkdir()
    (dataset_dir / "manifest.json").write_text(manifest)
    config = write_config(tmp_path / "c.json", {
        "train": {"dataset_dir": str(dataset_dir), "out_dir": str(tmp_path / "out")}})
    assert cli.main(["train", "--config", config]) == 3
    assert str(dataset_dir / "manifest.json") in capsys.readouterr().err


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def test_infer_writes_inpainted_volumes(cli_workspace, tmp_path):
    dataset_dir = cli_workspace["dataset_dir"]
    train_dir = cli_workspace["train_dir"]
    out_dir = tmp_path / "pred"
    checkpoints = [str(train_dir / f"fold{i}-best.vxpt") for i in range(2)]
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(dataset_dir), "checkpoints": checkpoints,
                  "out_dir": str(out_dir), "crop_dims": [16, 16, 16]}})
    assert cli.main(["infer", "--config", config]) == 0
    manifest = load_manifest(dataset_dir)
    assert len(manifest.samples) == 4
    for entry in manifest.samples:
        pred_path = out_dir / f"{entry.sample_id}-t1n-inpainted.nii.gz"
        assert pred_path.exists()
        pred = read_nifti(pred_path)
        gt = read_nifti(dataset_dir / entry.directory / f"{entry.sample_id}-t1n.nii.gz")
        assert pred.voxels.shape == gt.voxels.shape
        assert np.all(np.isfinite(pred.voxels))


def test_infer_accepts_single_checkpoint_string(cli_workspace, tmp_path):
    out_dir = tmp_path / "pred"
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(cli_workspace["dataset_dir"]),
                  "checkpoints": str(cli_workspace["train_dir"] / "fold0-best.vxpt"),
                  "out_dir": str(out_dir), "crop_dims": [16, 16, 16]}})
    assert cli.main(["infer", "--config", config]) == 0
    assert len(list(out_dir.glob("*-t1n-inpainted.nii.gz"))) == 4


def test_infer_missing_checkpoint_exits_2(cli_workspace, tmp_path):
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(cli_workspace["dataset_dir"]),
                  "checkpoints": [str(tmp_path / "nope.ckpt")],
                  "out_dir": str(tmp_path / "pred")}})
    assert cli.main(["infer", "--config", config]) == 2


def test_infer_empty_checkpoint_list_exits_3(cli_workspace, tmp_path):
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(cli_workspace["dataset_dir"]),
                  "checkpoints": [], "out_dir": str(tmp_path / "pred")}})
    assert cli.main(["infer", "--config", config]) == 3


def test_infer_without_samples_exits_2(cli_workspace, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(empty),
                  "checkpoints": [str(cli_workspace["train_dir"] / "fold0-best.vxpt")],
                  "out_dir": str(tmp_path / "pred")}})
    assert cli.main(["infer", "--config", config]) == 2


def test_infer_non_finite_scan_exits_3(cli_workspace, tmp_path, capsys):
    dataset_dir = tmp_path / "dataset"
    shutil.copytree(cli_workspace["dataset_dir"], dataset_dir)
    entry = load_manifest(dataset_dir).samples[0]
    poison_scan(dataset_dir / entry.directory / f"{entry.sample_id}-t1n-voided.nii.gz")
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(dataset_dir),
                  "checkpoints": [str(cli_workspace["train_dir"] / "fold0-best.vxpt")],
                  "out_dir": str(tmp_path / "pred"), "crop_dims": [16, 16, 16]}})
    assert cli.main(["infer", "--config", config]) == 3
    assert "NaN or infinite" in capsys.readouterr().err


def test_infer_truncated_gzip_exits_3(cli_workspace, tmp_path, capsys):
    dataset_dir = tmp_path / "dataset"
    shutil.copytree(cli_workspace["dataset_dir"], dataset_dir)
    entry = load_manifest(dataset_dir).samples[0]
    cut_in_half(dataset_dir / entry.directory / f"{entry.sample_id}-t1n-voided.nii.gz")
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(dataset_dir),
                  "checkpoints": [str(cli_workspace["train_dir"] / "fold0-best.vxpt")],
                  "out_dir": str(tmp_path / "pred"), "crop_dims": [16, 16, 16]}})
    assert cli.main(["infer", "--config", config]) == 3
    assert "compressed stream ends" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_perfect_predictions(cli_workspace, tmp_path, capsys):
    dataset_dir = cli_workspace["dataset_dir"]
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    manifest = load_manifest(dataset_dir)
    for entry in manifest.samples:
        shutil.copyfile(dataset_dir / entry.directory / f"{entry.sample_id}-t1n.nii.gz",
                        pred_dir / f"{entry.sample_id}-t1n-inpainted.nii.gz")
    out_dir = tmp_path / "eval"
    config = write_config(tmp_path / "c.json", {
        "evaluate": {"pred_dir": str(pred_dir), "gt_dir": str(dataset_dir),
                     "out_dir": str(out_dir)}})
    assert cli.main(["evaluate", "--config", config]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["case_count"] == 4
    assert summary["mse"]["mean"] == 0.0
    assert summary["ssim"]["mean"] == 1.0
    assert summary["psnr"] is None  # every PSNR is infinite
    assert summary["psnr_infinite_count"] == 4
    csv_lines = (out_dir / "cases.csv").read_text().splitlines()
    assert len(csv_lines) == 5  # header + 4 cases
    out = capsys.readouterr().out
    assert "SSIM" in out and "Mean" in out


def test_evaluate_real_predictions(cli_workspace, tmp_path):
    dataset_dir = cli_workspace["dataset_dir"]
    train_dir = cli_workspace["train_dir"]
    pred_dir = tmp_path / "pred"
    config = write_config(tmp_path / "infer.json", {
        "infer": {"dataset_dir": str(dataset_dir),
                  "checkpoints": [str(train_dir / "fold0-best.vxpt")],
                  "out_dir": str(pred_dir), "crop_dims": [16, 16, 16]}})
    assert cli.main(["infer", "--config", config]) == 0
    out_dir = tmp_path / "eval"
    config = write_config(tmp_path / "eval.json", {
        "evaluate": {"pred_dir": str(pred_dir), "gt_dir": str(dataset_dir),
                     "out_dir": str(out_dir)}})
    assert cli.main(["evaluate", "--config", config]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["case_count"] == 4
    assert 0.0 <= summary["ssim"]["mean"] <= 1.0
    assert summary["mse"]["mean"] >= 0.0


def test_evaluate_missing_prediction_exits_2(cli_workspace, tmp_path):
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    config = write_config(tmp_path / "c.json", {
        "evaluate": {"pred_dir": str(pred_dir),
                     "gt_dir": str(cli_workspace["dataset_dir"]),
                     "out_dir": str(tmp_path / "eval")}})
    assert cli.main(["evaluate", "--config", config]) == 2


def test_evaluate_non_finite_prediction_exits_3(cli_workspace, tmp_path, capsys):
    dataset_dir = cli_workspace["dataset_dir"]
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    for entry in load_manifest(dataset_dir).samples:
        shutil.copyfile(dataset_dir / entry.directory / f"{entry.sample_id}-t1n.nii.gz",
                        pred_dir / f"{entry.sample_id}-t1n-inpainted.nii.gz")
    poison_scan(pred_dir / f"{entry.sample_id}-t1n-inpainted.nii.gz")
    config = write_config(tmp_path / "c.json", {
        "evaluate": {"pred_dir": str(pred_dir), "gt_dir": str(dataset_dir),
                     "out_dir": str(tmp_path / "eval")}})
    assert cli.main(["evaluate", "--config", config]) == 3
    assert "NaN or infinite" in capsys.readouterr().err


@pytest.mark.parametrize("component, role", [("mask-healthy", "healthy"),
                                             ("mask-unhealthy", "unhealthy")])
def test_evaluate_mask_dims_disagree_exits_3(cli_workspace, tmp_path, capsys, component, role):
    # a mask on a larger grid than the scan, set only outside the scan
    gt_dir = tmp_path / "gt"
    shutil.copytree(cli_workspace["dataset_dir"], gt_dir)
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    for entry in load_manifest(gt_dir).samples:
        shutil.copyfile(gt_dir / entry.directory / f"{entry.sample_id}-t1n.nii.gz",
                        pred_dir / f"{entry.sample_id}-t1n-inpainted.nii.gz")
    bits = np.zeros((20, 20, 20), dtype=bool)
    bits[18, 18, 18] = True
    write_nifti_mask(MaskVolume(bits, role=role),
                     gt_dir / entry.directory / f"{entry.sample_id}-{component}.nii.gz")
    config = write_config(tmp_path / "c.json", {
        "evaluate": {"pred_dir": str(pred_dir), "gt_dir": str(gt_dir),
                     "out_dir": str(tmp_path / "eval")}})
    assert cli.main(["evaluate", "--config", config]) == 3
    assert f"{role} mask dims" in capsys.readouterr().err


def test_evaluate_junk_after_gzip_exits_3(cli_workspace, tmp_path, capsys):
    dataset_dir = cli_workspace["dataset_dir"]
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    for entry in load_manifest(dataset_dir).samples:
        shutil.copyfile(dataset_dir / entry.directory / f"{entry.sample_id}-t1n.nii.gz",
                        pred_dir / f"{entry.sample_id}-t1n-inpainted.nii.gz")
    with open(pred_dir / f"{entry.sample_id}-t1n-inpainted.nii.gz", "ab") as fh:
        fh.write(b"junk")
    config = write_config(tmp_path / "c.json", {
        "evaluate": {"pred_dir": str(pred_dir), "gt_dir": str(dataset_dir),
                     "out_dir": str(tmp_path / "eval")}})
    assert cli.main(["evaluate", "--config", config]) == 3
    assert "not a valid gzip stream" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_renders_summary(tmp_path, capsys):
    summary = {
        "case_count": 4,
        "mse": {"mean": 0.00476023, "std": 0.087, "p25": 0.00188717,
                "median": 0.0043, "p75": 0.00671933},
        "psnr": {"mean": 24.9959218, "std": 4.694, "p25": 21.7267790,
                 "median": 24.9, "p75": 27.2419672},
        "ssim": {"mean": 0.87300897, "std": 0.004, "p25": 0.80683365,
                 "median": 0.873, "p75": 0.94228190},
    }
    summary_path = tmp_path / "summary.json"
    summary_path.write_text(json.dumps(summary))
    out_dir = tmp_path / "report"
    config = write_config(tmp_path / "c.json", {
        "report": {"summary": str(summary_path), "out_dir": str(out_dir)}})
    assert cli.main(["report", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "0.87300897" in out
    report_text = (out_dir / "report.txt").read_text()
    assert "0.87300897" in report_text
    assert report_text in out


def test_report_missing_summary_exits_2(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "report": {"summary": str(tmp_path / "none.json")}})
    assert cli.main(["report", "--config", config]) == 2


def test_report_invalid_summary_exits_3(tmp_path):
    summary_path = tmp_path / "summary.json"
    summary_path.write_text("{broken")
    config = write_config(tmp_path / "c.json", {
        "report": {"summary": str(summary_path)}})
    assert cli.main(["report", "--config", config]) == 3


@pytest.mark.parametrize("summary", [
    [{"mean": 1.0}],
    {"case_count": 1, "mse": 0.5},
    {"case_count": 1, "ssim": [0.9]},
], ids=["list_root", "number_block", "list_block"])
def test_report_malformed_summary_exits_3(tmp_path, capsys, summary):
    summary_path = tmp_path / "summary.json"
    summary_path.write_text(json.dumps(summary))
    config = write_config(tmp_path / "c.json", {
        "report": {"summary": str(summary_path)}})
    assert cli.main(["report", "--config", config]) == 3
    assert "summary" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# whole loop, pinned outputs
# ---------------------------------------------------------------------------

def _non_cubic_inputs(root, dims=(40, 36, 28)):
    """Two scans of a non-cubic grid, each with a ball tumor off-centre."""
    input_dir = root / "scans"
    input_dir.mkdir()
    grid = np.indices(dims).astype(np.float64)
    centre = [(d - 1) / 2 for d in dims]
    brain = sum(((grid[i] - centre[i]) / (0.42 * dims[i])) ** 2 for i in range(3)) <= 1.0
    for i, spot in enumerate(((14, 20, 12), (25, 14, 16))):
        rng = np.random.default_rng(4700 + i)
        voxels = np.rint(200.0 + 800.0 * rng.random(dims)).astype(np.float32)
        voxels[~brain] = 0.0
        tumor = sum((grid[a] - spot[a]) ** 2 for a in range(3)) <= 2.3 ** 2
        write_nifti(Volume(voxels), input_dir / f"case{i:02d}-t1n.nii.gz")
        write_nifti_mask(MaskVolume(tumor & brain, role="unhealthy"),
                         input_dir / f"case{i:02d}-mask-unhealthy.nii.gz")
    return input_dir


def _digest(paths):
    """sha256 over the files' names and contents, .gz files decompressed."""
    h = hashlib.sha256()
    for path in sorted(paths):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0")
        h.update(gzip.decompress(data) if path.suffix == ".gz" else data)
    return h.hexdigest()


def test_whole_loop_outputs_are_pinned(tmp_path):
    # digests computed before evaluation moved into the SSIM box, volumes
    # kept disk order and normalization moved after the crop: those changes
    # must not move a byte. The prepared dataset involves no BLAS call; the
    # trained outputs do (numpy 2.4, OpenBLAS on x86-64), so a different
    # GEMM kernel can change the second digest without a defect here.
    input_dir = _non_cubic_inputs(tmp_path)
    dataset, run, pred, ev = (tmp_path / n for n in ("dataset", "run", "pred", "eval"))
    commands = {
        "prepare": {"input_dir": str(input_dir), "out_dir": str(dataset), "margin": 2,
                    "variants": 1, "max_attempts": 400},
        "train": {"dataset_dir": str(dataset), "out_dir": str(run), "epochs": 2, "folds": 2,
                  "lr": 1e-3, "crop_dims": [24, 24, 16], "base_channels": 2,
                  "dropout_rate": 0.2},
        "infer": {"dataset_dir": str(dataset), "out_dir": str(pred), "crop_dims": [32, 32, 24],
                  "checkpoints": [str(run / f"fold{k}-best.vxpt") for k in range(2)]},
        "evaluate": {"pred_dir": str(pred), "gt_dir": str(dataset), "out_dir": str(ev)},
    }
    for name, section in commands.items():
        config = write_config(tmp_path / f"{name}.json", {"seed": 11, name: section})
        assert cli.main([name, "--config", config]) == 0, name
    assert len(load_manifest(dataset).samples) == 2
    assert _digest(dataset.glob("*/*.nii.gz")) == (
        "3ff5f24cdf58660102617d7445bb5f796fa376043c525e117b4609688c62e925")
    assert _digest([*pred.glob("*.nii.gz"), ev / "cases.csv", ev / "summary.json"]) == (
        "0eb54595bb1e1e494a885d29d479feaa870c6e0a99d6a428fddf66d41088502c")
    # the checkpoints too, metadata block included
    assert _digest(run.glob("fold*-best.vxpt")) == (
        "7711d67a024ff6ac447b62c771d4db77be96a29583b721bca61da0ac0cb456ff")
