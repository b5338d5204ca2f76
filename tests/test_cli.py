"""Command line interface: config resolution, exit codes, end-to-end commands."""

import gzip
import hashlib
import json
import os
import shutil
import struct
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import build_case, make_input_dir, write_config
from voxelpaint import cli, nifti
from voxelpaint.checkpoint import load_checkpoint, save_checkpoint
from voxelpaint.dataset import (Manifest, ManifestEntry, load_manifest, read_sample, sample_dirs,
                                sample_id, save_manifest, write_sample)
from voxelpaint.masks import make_training_sample
from voxelpaint.nifti import read_nifti, read_nifti_mask, write_nifti, write_nifti_mask
from voxelpaint.trainer import TrainConfig, prepare_sample, train_memory_bytes
from voxelpaint.unet import UNetConfig, build_unet
from voxelpaint.util import build_record
from voxelpaint.volume import MaskVolume, Volume


def _train_config(path, dataset_dir, out_dir):
    """The train section of cli_workspace, for any dataset and output."""
    return write_config(path, {
        "seed": 9,
        "train": {"dataset_dir": str(dataset_dir), "out_dir": str(out_dir),
                  "epochs": 2, "folds": 2, "lr": 1e-3, "crop_dims": [16, 16, 16],
                  "base_channels": 2, "dropout_rate": 0.0}})


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
    assert cli.main(["train", "--config", _train_config(root / "train.json", dataset_dir, train_dir)]) == 0
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
    ("train", {"lr": float("nan")}, {}),
    ("train", {"lr": "inf"}, {}),
    ("train", {"lambda_mae": float("nan")}, {}),
    ("train", {"lambda_ssim": "inf"}, {}),
    ("train", {"crop_dims": [0, 16, 16]}, {}),
    ("train", {"crop_dims": [-8, 16, 16]}, {}),
    ("train", {"crop_dims": [16, 16]}, {}),
    ("infer", {"crop_dims": [12, 12, 12]}, {}),
    ("infer", {"crop_dims": [16, 16, 16, 16]}, {}),
], ids=["epochs", "crop_dims", "checkpoints", "margin", "seed",
        "crop_dims_element", "crop_dims_string", "checkpoints_element",
        "epochs_fraction", "crop_dims_fraction", "crop_dims_bool", "lr_bool", "seed_bool",
        "lr_nan", "lr_inf", "lambda_mae_nan", "lambda_ssim_inf", "crop_dims_zero",
        "crop_dims_negative", "crop_dims_two", "infer_crop_dims_12", "infer_crop_dims_four"])
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


# Every record type the program reads from JSON, with its keys by kind: an
# int, a float, a string, and one without a default (None where it has none).
RECORD_KEYS = {
    "prepare": ("margin", "volume_fraction", "input_dir", "input_dir"),
    "train": ("epochs", "lr", "out_dir", "dataset_dir"),
    "infer": ("crop_dims", None, "dataset_dir", "checkpoints"),
    "evaluate": (None, None, "pred_dir", "gt_dir"),
    "report": (None, None, "summary", "summary"),
    "top_level": ("seed", None, None, None),
    "manifest": ("seed", None, None, "seed"),
    "manifest_entry": ("variant", None, "directory", "sample_id"),
    "checkpoint_config": ("base_channels", "dropout_rate", None, None),
}


def _bad_records():
    for record, (int_key, float_key, str_key, required) in RECORD_KEYS.items():
        cases = []
        if int_key:
            cases += [(int_key, "bool", True), (int_key, "fraction", 2.5)]
        if float_key:
            cases += [(float_key, "string", "abc"), (float_key, "inf", "inf")]
        for key in filter(None, (int_key, float_key, str_key)):
            cases += [(key, "null", None), (key, "nan", float("nan"))]
        if required:
            cases.append((required, "missing", KeyError))
        cases.append(("bogus", "unknown", 1))
        for key, label, value in cases:
            yield pytest.param(record, key, value, id=f"{record}-{key}-{label}")


@pytest.mark.parametrize("record, key, value", _bad_records())
def test_every_record_refuses_the_same_bad_values(tmp_path, capsys, record, key, value):
    data = tmp_path / "data"
    data.mkdir()
    out = str(tmp_path / "out")
    sections = {
        "prepare": {"input_dir": str(data), "out_dir": out},
        "train": {"dataset_dir": str(data), "out_dir": out},
        "infer": {"dataset_dir": str(data), "checkpoints": [str(data / "m.vxpt")], "out_dir": out},
        "evaluate": {"pred_dir": str(data), "gt_dir": str(data), "out_dir": out},
        "report": {"summary": str(data / "summary.json")},
    }
    command = {"top_level": "prepare", "manifest": "train", "manifest_entry": "train",
               "checkpoint_config": "infer"}.get(record, record)
    config = {"seed": 1, command: sections[command]}
    entry = {"case_id": "a", "variant": 0, "sample_id": "a-m0", "directory": "a-m0", "seed": 0}
    manifest = {"seed": 0, "samples": [entry], "skipped": []}
    unet = {"base_channels": 1, "dropout_rate": 0.2}
    obj = {"top_level": config, "manifest": manifest, "manifest_entry": entry,
           "checkpoint_config": unet}.get(record) or sections[record]
    if value is KeyError:
        del obj[key]
    else:
        obj[key] = [16, value, 16] if key == "crop_dims" else value

    (data / "manifest.json").write_text(json.dumps(manifest))
    checkpoint = data / "m.vxpt"
    save_checkpoint(build_unet(UNetConfig(base_channels=1), np.random.default_rng(0)), {},
                    checkpoint)
    raw = checkpoint.read_bytes()
    (meta_len,) = struct.unpack("<I", raw[8:12])
    blob = json.dumps({**json.loads(raw[12:12 + meta_len]), "config": unet}).encode()
    checkpoint.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + meta_len:])
    path = write_config(tmp_path / "c.json", config)

    assert cli.main([command, "--config", path]) == 3
    assert f"key {key!r}" in capsys.readouterr().err


def test_lossless_config_values_still_convert():
    section = {"epochs": 2.0, "lr": 1, "crop_dims": [16.0, "24", 32], "seed": "7"}
    config = build_record(TrainConfig, section)
    assert config.epochs == 2
    assert config.lr == 1.0
    assert config.crop_dims == (16, 24, 32)
    assert config.seed == 7


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


def test_only_prepare_and_train_take_a_seed(tmp_path, capsys):
    # infer is deterministic, evaluate and report draw nothing
    config = write_config(tmp_path / "c.json", {
        "seed": 3,
        "prepare": {"input_dir": "scans", "out_dir": "dataset"},
        "train": {"dataset_dir": "dataset", "out_dir": "run"},
        "infer": {"dataset_dir": "dataset", "checkpoints": ["m.vxpt"], "out_dir": "pred"},
        "evaluate": {"pred_dir": "pred", "gt_dir": "dataset", "out_dir": "eval"},
        "report": {"summary": "eval/summary.json"}})
    for command in cli._COMMANDS:
        record = cli._load_config(config, command, None, None)
        seeded = command in ("prepare", "train")
        assert hasattr(record, "seed") == seeded, command
        assert not seeded or record.seed == 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["infer", "--config", config, "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_one_shared_config_runs_all_five_commands(tmp_path):
    input_dir = make_input_dir(tmp_path, n_cases=2, seed=480)
    dataset, run, pred, ev = (tmp_path / n for n in ("dataset", "run", "pred", "eval"))
    config = write_config(tmp_path / "c.json", {
        "seed": 9,
        "prepare": {"input_dir": str(input_dir), "out_dir": str(dataset), "margin": 1,
                    "variants": 1, "max_attempts": 400},
        "train": {"dataset_dir": str(dataset), "out_dir": str(run), "epochs": 1, "folds": 2,
                  "crop_dims": [16, 16, 16], "base_channels": 2},
        "infer": {"dataset_dir": str(dataset), "out_dir": str(pred), "crop_dims": [16, 16, 16],
                  "checkpoints": [str(run / f"fold{k}-best.vxpt") for k in range(2)]},
        "evaluate": {"pred_dir": str(pred), "gt_dir": str(dataset), "out_dir": str(ev)},
        "report": {"summary": str(ev / "summary.json"), "out_dir": str(ev)}})
    for command in cli._COMMANDS:
        assert cli.main([command, "--config", config]) == 0, command
    seeds = {d.name: json.loads((d / "resolved_config.json").read_text()).get("seed")
             for d in (dataset, run, pred, ev)}
    assert seeds == {"dataset": 9, "run": 9, "pred": None, "eval": None}


def test_readme_config_example_loads_for_every_command(tmp_path):
    # a key the README shows must be one its command takes
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("## Command line", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "config.json"
    config.write_text(example)
    assert set(json.loads(example)) == {"seed", *cli._COMMANDS}
    for command in cli._COMMANDS:
        assert isinstance(cli._load_config(str(config), command, None, None),
                          cli._COMMANDS[command][0])


def _saved_config(config, command, seed=None, out=None):
    """The record _load_config builds, and the resolved_config.json its echo saves."""
    record = cli._load_config(str(config), command, seed, out)
    cli._echo_config(command, record)()
    return record, json.loads((Path(record.out_dir) / "resolved_config.json").read_text())


def test_saved_config_holds_every_field_of_the_record(tmp_path, capsys):
    run = tmp_path / "run"
    config = write_config(tmp_path / "c.json", {
        "train": {"dataset_dir": str(tmp_path / "nowhere"), "out_dir": str(run)}})
    # the echo comes first; the missing dataset refuses the run before it saves
    assert cli.main(["train", "--config", config]) == 2
    echoed = json.loads(capsys.readouterr().out)
    assert not run.exists()
    record, saved = _saved_config(config, "train")
    assert saved == echoed == {"command": "train", **json.loads(json.dumps(asdict(record)))}
    assert len(saved) == 16   # the 15 fields of a train record, and the command
    assert saved["lr"] == 1e-4 and saved["beta1"] == 0.9 and saved["beta2"] == 0.999
    assert saved["lambda_mae"] == saved["lambda_ssim"] == 1.0
    assert saved["mae_region"] == "non_tumor"
    assert saved["crop_dims"] == [208, 208, 144]
    assert saved["seed"] == 0


def test_saved_config_holds_the_flags_and_a_list_of_checkpoints(tmp_path):
    config = write_config(tmp_path / "c.json", {
        "seed": 3,
        "train": {"dataset_dir": "dataset", "out_dir": str(tmp_path / "ignored")},
        "infer": {"dataset_dir": "dataset", "checkpoints": "m.vxpt",
                  "out_dir": str(tmp_path / "ignored")}})
    _, saved = _saved_config(config, "train", seed=11, out=str(tmp_path / "run"))
    assert saved["seed"] == 11 and saved["out_dir"] == str(tmp_path / "run")
    _, saved = _saved_config(config, "infer", out=str(tmp_path / "pred"))
    assert saved["checkpoints"] == ["m.vxpt"] and saved["out_dir"] == str(tmp_path / "pred")
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_saved_config_rebuilds_the_record(tmp_path, command):
    # every field in the saved form is one its section takes, in a form it accepts
    config = write_config(tmp_path / "c.json", {
        "seed": "7",
        "prepare": {"input_dir": "scans", "out_dir": str(tmp_path / "dataset"), "margin": 2.0},
        "train": {"dataset_dir": "dataset", "out_dir": str(tmp_path / "run"),
                  "crop_dims": [16, "24", 32.0], "mae_region": "healthy_only"},
        "infer": {"dataset_dir": "dataset", "checkpoints": "m.vxpt",
                  "out_dir": str(tmp_path / "pred")},
        "evaluate": {"pred_dir": "pred", "gt_dir": "dataset", "out_dir": str(tmp_path / "eval")},
        "report": {"summary": "eval/summary.json", "out_dir": str(tmp_path / "eval")}})
    record, saved = _saved_config(config, command)
    assert saved.pop("command") == command
    top = {"seed": saved.pop("seed")} if "seed" in saved else {}
    rebuilt = write_config(tmp_path / "rebuilt.json", {**top, command: saved})
    assert cli._load_config(rebuilt, command, None, None) == record


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


def _prepare_skips_case01_for_its_vox_offset(tmp_path, offset):
    """A prepare over two cases, case01's scan with ``offset`` as vox_offset, lists case01 as skipped."""
    input_dir = make_input_dir(tmp_path, n_cases=2, seed=450)
    path = input_dir / "case01-t1n.nii.gz"
    raw = bytearray(gzip.decompress(path.read_bytes()))
    struct.pack_into("<f", raw, 108, offset)
    path.write_bytes(gzip.compress(bytes(raw)))
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": str(input_dir), "out_dir": str(out_dir),
                    "margin": 1, "variants": 1, "max_attempts": 400},
    })
    assert cli.main(["prepare", "--config", config]) == 0
    manifest = load_manifest(out_dir)
    assert [e.case_id for e in manifest.samples] == ["case00"]
    assert [s["case_id"] for s in manifest.skipped] == ["case01"]
    assert "vox_offset" in manifest.skipped[0]["reason"]


@pytest.mark.parametrize("offset", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_prepare_skips_case_whose_vox_offset_is_not_finite(tmp_path, offset):
    _prepare_skips_case01_for_its_vox_offset(tmp_path, offset)


@pytest.mark.parametrize("offset", [350.0, 351.9, 400.5])
def test_prepare_skips_case_whose_vox_offset_is_in_the_header_or_fractional(tmp_path, offset):
    _prepare_skips_case01_for_its_vox_offset(tmp_path, offset)


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


def test_prepare_skips_case_given_as_nii_and_nii_gz(tmp_path, capsys):
    input_dir = make_input_dir(tmp_path, n_cases=2, seed=450)
    write_nifti(read_nifti(input_dir / "case00-t1n.nii.gz"), input_dir / "case00-t1n.nii")
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": str(input_dir), "out_dir": str(out_dir),
                    "margin": 1, "variants": 2, "max_attempts": 400},
    })
    assert cli.main(["prepare", "--config", config]) == 0
    manifest = load_manifest(out_dir)
    assert [e.sample_id for e in manifest.samples] == ["case01-m0", "case01-m1"]
    assert manifest.skipped == [{"case_id": "case00",
                                 "reason": "two scans: case00-t1n.nii and case00-t1n.nii.gz"}]
    assert not list(out_dir.glob("case00-*"))
    assert "prepared 2 samples (1 case(s) skipped)" in capsys.readouterr().out


def test_prepare_skips_case_with_two_tumor_masks(tmp_path, capsys):
    input_dir = make_input_dir(tmp_path, n_cases=2, seed=450)
    # a different tumor beside the .nii.gz: neither may be taken silently
    tumor = read_nifti_mask(input_dir / "case01-mask-unhealthy.nii.gz", "unhealthy")
    write_nifti_mask(MaskVolume(np.roll(tumor.bits, 1, axis=0), role="unhealthy"),
                     input_dir / "case01-mask-unhealthy.nii")
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": str(input_dir), "out_dir": str(out_dir),
                    "margin": 1, "variants": 2, "max_attempts": 400},
    })
    assert cli.main(["prepare", "--config", config]) == 0
    manifest = load_manifest(out_dir)
    assert [e.sample_id for e in manifest.samples] == ["case00-m0", "case00-m1"]
    assert manifest.skipped == [{
        "case_id": "case01",
        "reason": "two tumor masks: case01-mask-unhealthy.nii and case01-mask-unhealthy.nii.gz"}]
    assert not list(out_dir.glob("case01-*"))
    assert "prepared 2 samples (1 case(s) skipped)" in capsys.readouterr().out


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


@pytest.mark.parametrize("variants", [0, -1])
def test_prepare_variants_below_one_exits_3(tmp_path, capsys, variants):
    input_dir = make_input_dir(tmp_path, n_cases=1, seed=470)
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "prepare": {"input_dir": str(input_dir), "out_dir": str(out_dir),
                    "margin": 1, "variants": variants}})
    assert cli.main(["prepare", "--config", config]) == 3
    assert "variants" in capsys.readouterr().err
    assert not (out_dir / "manifest.json").exists()


def _prepare_into(out_dir, input_dir, variants):
    config = write_config(out_dir.parent / f"prepare-{variants}.json", {
        "prepare": {"input_dir": str(input_dir), "out_dir": str(out_dir),
                    "margin": 1, "variants": variants, "max_attempts": 400}})
    return cli.main(["prepare", "--config", config])


def test_prepare_again_leaves_only_its_manifest_samples(tmp_path):
    # infer and evaluate take every sample directory, so one the new
    # manifest does not list must not survive a rerun
    input_dir = make_input_dir(tmp_path, n_cases=2, seed=475)
    out_dir = tmp_path / "out"
    assert _prepare_into(out_dir, input_dir, 2) == 0
    assert _prepare_into(out_dir, input_dir, 1) == 0
    listed = sorted(e.directory for e in load_manifest(out_dir).samples)
    assert listed == ["case00-m0", "case01-m0"]
    assert [d.name for d in sample_dirs(out_dir)] == listed


def test_prepare_again_keeps_what_no_manifest_lists(tmp_path):
    input_dir = make_input_dir(tmp_path, n_cases=2, seed=476)
    out_dir = tmp_path / "out"
    assert _prepare_into(out_dir, input_dir, 2) == 0
    (out_dir / "case00-m1" / "notes.txt").write_text("mine")
    (out_dir / "case01-m1" / "case01-m1-t1n-inpainted.nii.gz").write_bytes(b"mine")
    assert _prepare_into(out_dir, input_dir, 1) == 0
    assert [p.name for p in (out_dir / "case00-m1").iterdir()] == ["notes.txt"]
    assert [p.name for p in (out_dir / "case01-m1").iterdir()] == ["case01-m1-t1n-inpainted.nii.gz"]
    assert (out_dir / "case00-m0" / "case00-m0-t1n.nii.gz").exists()


@pytest.mark.parametrize("earlier", [0, 1], ids=["no_manifest", "manifest_of_m0"])
@pytest.mark.parametrize("kind", ["dir", "file"])
def test_prepare_refuses_an_unlisted_path_under_a_sample_id_it_would_write(tmp_path, capsys,
                                                                           earlier, kind):
    input_dir = make_input_dir(tmp_path, n_cases=2, seed=481)
    out_dir = tmp_path / "out"
    if earlier:
        assert _prepare_into(out_dir, input_dir, earlier) == 0
    out_dir.mkdir(exist_ok=True)
    theirs = out_dir / "case01-m1"
    if kind == "dir":
        theirs.mkdir()
        theirs = theirs / "case01-m1-t1n.nii.gz"
    theirs.write_bytes(b"not prepare's")
    before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert _prepare_into(out_dir, input_dir, 2) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "case01-m1" in err
    # refused before its first write
    assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before


def test_prepare_deflates_each_case_scan_and_tumor_mask_once(tmp_path, monkeypatch):
    # every variant's t1n and mask-unhealthy hold the first variant's bytes;
    # they are encoded once a case, the other three files once a variant
    input_dir = make_input_dir(tmp_path, n_cases=2, seed=478)
    encodes = []
    encode = nifti._encode
    monkeypatch.setattr(nifti, "_encode", lambda *a: encodes.append(a[1]) or encode(*a))
    assert _prepare_into(tmp_path / "out", input_dir, 3) == 0
    assert len(encodes) == 2 * (2 + 3 * 3)
    for case in ("case00", "case01"):
        for component in ("t1n", "mask-unhealthy"):
            first = (tmp_path / "out" / f"{case}-m0" / f"{case}-m0-{component}.nii.gz").read_bytes()
            for variant in (1, 2):
                sid = f"{case}-m{variant}"
                assert (tmp_path / "out" / sid / f"{sid}-{component}.nii.gz").read_bytes() == first


def test_prepare_rerun_writes_the_same_bytes(tmp_path):
    input_dir = make_input_dir(tmp_path, n_cases=2, seed=479)
    out_dir = tmp_path / "out"

    def files():
        return {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}

    assert _prepare_into(out_dir, input_dir, 2) == 0
    first = files()
    assert _prepare_into(out_dir, input_dir, 2) == 0
    assert files() == first and len(first) == 2 + 4 * 5   # the manifest, the config, 4 samples


@pytest.mark.parametrize("directory", ["../x", "..", ".", "", "a/b"])
def test_prepare_refuses_an_old_manifest_entry_that_is_not_a_plain_name(tmp_path, capsys,
                                                                         directory):
    input_dir = make_input_dir(tmp_path, n_cases=1, seed=477)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (tmp_path / "x").mkdir()
    (tmp_path / "x" / "a-m0-t1n.nii.gz").write_bytes(b"not prepare's")
    # written by hand: ManifestEntry itself refuses such a directory
    entry = {"case_id": "a", "variant": 0, "sample_id": "a-m0", "directory": directory, "seed": 0}
    (out_dir / "manifest.json").write_text(json.dumps({"seed": 0, "samples": [entry], "skipped": []}))
    before = (out_dir / "manifest.json").read_bytes()
    assert _prepare_into(out_dir, input_dir, 1) == 3
    assert "plain name" in capsys.readouterr().err
    assert (out_dir / "manifest.json").read_bytes() == before
    # refused before its first write, so not even its config is saved
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json"]
    assert (tmp_path / "x" / "a-m0-t1n.nii.gz").read_bytes() == b"not prepare's"


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


# each out-of-range value, with the class that checks it
INVALID_HYPERPARAMETERS = (
    ("epochs", 0),          # TrainConfig
    ("lr", 0),              # TrainConfig, for Adam
    ("beta1", 1.0),         # TrainConfig, for Adam
    ("lambda_mae", -1),     # TrainConfig, for composite_loss
    ("dropout_rate", 1.0),  # UNetConfig, built by TrainConfig
    ("folds", 1),           # TrainConfig
    ("batch_size", 0),      # TrainConfig
)


def test_train_invalid_hyperparameters_exit_3(cli_workspace, tmp_path, capsys):
    for key, value in INVALID_HYPERPARAMETERS:
        config = write_config(tmp_path / "c.json", {
            "train": {"dataset_dir": str(cli_workspace["dataset_dir"]),
                      "out_dir": str(tmp_path / "out"), key: value}})
        assert cli.main(["train", "--config", config]) == 3, key
        assert key in capsys.readouterr().err, key
    assert not (tmp_path / "out" / "train_log.jsonl").exists()
    assert not (tmp_path / "out" / "resolved_config.json").exists()


def _unreadable_dataset(tmp_path):
    """A dataset whose manifest lists two cases whose sample files do not
    exist: reading one would exit 2."""
    dataset_dir = tmp_path / "dataset"
    dataset_dir.mkdir()
    save_manifest(Manifest(seed=0, samples=[
        ManifestEntry(case_id=c, variant=0, sample_id=f"{c}-m0", directory=f"{c}-m0", seed=0)
        for c in ("a", "b")]), dataset_dir)
    return dataset_dir


def test_train_bad_base_channels_exits_3_before_reading_samples(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {
        "train": {"dataset_dir": str(_unreadable_dataset(tmp_path)),
                  "out_dir": str(tmp_path / "out"), "base_channels": 0}})
    assert cli.main(["train", "--config", config]) == 3
    assert "base_channels" in capsys.readouterr().err


def test_train_more_folds_than_cases_exits_3_before_reading_samples(tmp_path, capsys):
    # the fold plan comes from the manifest alone, before any sample is read
    # or the log of an earlier run is emptied
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    log = out_dir / "train_log.jsonl"
    log.write_text('{"fold": 0, "epoch": 0}\n{"fold": 1, "epoch": 0}\n')
    before = log.read_bytes()
    config = write_config(tmp_path / "c.json", {
        "train": {"dataset_dir": str(_unreadable_dataset(tmp_path)), "out_dir": str(out_dir),
                  "folds": 3}})
    assert cli.main(["train", "--config", config]) == 3
    assert "need 2 <= k <= 2 cases, got k=3" in capsys.readouterr().err
    assert log.read_bytes() == before


def test_train_refuses_a_step_larger_than_physical_memory_before_reading_samples(
        tmp_path, capsys, monkeypatch):
    dataset_dir, out_dir = _unreadable_dataset(tmp_path), tmp_path / "out"
    section = {"dataset_dir": str(dataset_dir), "out_dir": str(out_dir),
               "folds": 2, "crop_dims": [32, 32, 32], "base_channels": 4}
    config = write_config(tmp_path / "c.json", {"train": section})
    need = train_memory_bytes(TrainConfig(crop_dims=(32, 32, 32), base_channels=4), 2)
    page, real = os.sysconf("SC_PAGE_SIZE"), os.sysconf

    def memory(pages):
        monkeypatch.setattr(os, "sysconf",
                            lambda name: pages if name == "SC_PHYS_PAGES" else real(name))

    memory(need // page // 2)
    assert cli.main(["train", "--config", config]) == 3
    err = capsys.readouterr().err
    assert f"{need / 2**20:,.1f} MiB" in err and f"{need // page // 2 * page / 2**20:,.1f} MiB" in err
    assert not out_dir.exists()
    memory(need // page)
    assert cli.main(["train", "--config", config]) == 3
    # with one page more the step fits, and train goes on to read the samples
    memory(need // page + 1)
    assert cli.main(["train", "--config", config]) == 2


def _train_files(out_dir):
    """Each file of a train run by name, with what may differ between two
    runs of one config left out: the paths in train_result.json and
    resolved_config.json and the wall clock in train_log.jsonl."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "train_result.json":
            rows = json.loads(path.read_text())
            files[path.name] = [{**r, "checkpoint": Path(r["checkpoint"]).name} for r in rows]
        elif path.name == "train_log.jsonl":
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            files[path.name] = [{k: v for k, v in r.items() if k != "seconds"} for r in rows]
        elif path.name != "resolved_config.json":
            files[path.name] = path.read_bytes()
    return files


def _three_case_dataset(tmp_path):
    input_dir = make_input_dir(tmp_path, n_cases=3, seed=480)
    assert _prepare_into(tmp_path / "dataset", input_dir, 1) == 0
    return tmp_path / "dataset"


def _train(tmp_path, dataset_dir, out_dir, **keys):
    section = {"dataset_dir": str(dataset_dir), "out_dir": str(out_dir), "epochs": 1,
               "folds": 2, "crop_dims": [16, 16, 16], "base_channels": 2,
               "dropout_rate": 0.0, **keys}
    return cli.main(["train", "--config", write_config(tmp_path / "t.json", {"train": section})])


def test_train_rerun_gives_the_bytes_of_a_fresh_run(tmp_path):
    # a rerun with fewer folds must not leave the earlier run's third checkpoint
    dataset_dir = _three_case_dataset(tmp_path)
    assert _train(tmp_path, dataset_dir, tmp_path / "run", folds=3) == 0
    assert (tmp_path / "run" / "fold2-best.vxpt").exists()
    assert _train(tmp_path, dataset_dir, tmp_path / "run") == 0
    assert _train(tmp_path, dataset_dir, tmp_path / "fresh") == 0
    files = _train_files(tmp_path / "run")
    assert files == _train_files(tmp_path / "fresh")
    assert sorted(files) == ["fold0-best.vxpt", "fold1-best.vxpt", "train_log.jsonl",
                             "train_result.json"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_failed_rerun_leaves_no_file_of_the_earlier_run(cli_workspace, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(tmp_path, cli_workspace["dataset_dir"], run) == 0
    assert _train(tmp_path, cli_workspace["dataset_dir"], run, lr=1e30, lambda_mae=1e38) == 4
    assert "non-finite" in capsys.readouterr().err
    assert sorted(p.name for p in run.iterdir()) == ["resolved_config.json", "train_log.jsonl"]
    assert json.loads((run / "resolved_config.json").read_text())["lr"] == 1e30


@pytest.mark.parametrize("listed", ["../elsewhere/fold0-best.vxpt", "notes.txt", "sub/fold0-best.vxpt"])
def test_train_refuses_a_result_listing_a_file_it_did_not_write(cli_workspace, tmp_path, capsys,
                                                                 listed):
    run = tmp_path / "run"
    run.mkdir()
    target = run / listed
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("mine")
    (run / "train_result.json").write_text(json.dumps([{"fold": 0, "checkpoint": str(target)}]))
    assert _train(tmp_path, cli_workspace["dataset_dir"], run) == 3
    assert "not a checkpoint in" in capsys.readouterr().err
    assert target.read_text() == "mine" and (run / "train_result.json").exists()
    assert not (run / "train_log.jsonl").exists()


def test_train_refused_rerun_keeps_the_config_of_the_earlier_run(cli_workspace, tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(tmp_path, cli_workspace["dataset_dir"], run) == 0
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert _train(tmp_path, cli_workspace["dataset_dir"], run, folds=3, lr=0.5) == 3
    assert "need 2 <= k <= 2 cases, got k=3" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_train_result_paths_resolve_from_any_working_directory(cli_workspace, tmp_path,
                                                               monkeypatch):
    # the same out_dir, named "run" from p4/ and then "p4/run" from p4's parent
    (tmp_path / "p4").mkdir()
    monkeypatch.chdir(tmp_path / "p4")
    assert _train(tmp_path, cli_workspace["dataset_dir"], "run") == 0
    monkeypatch.chdir(tmp_path)
    assert _train(tmp_path, cli_workspace["dataset_dir"], "p4/run") == 0
    rows = json.loads((tmp_path / "p4" / "run" / "train_result.json").read_text())
    assert [row["checkpoint"] for row in rows] == [
        str((tmp_path / "p4" / "run" / f"fold{k}-best.vxpt").resolve()) for k in range(2)]


@pytest.mark.parametrize("text", ["not json", '{"fold": 0}', '[{"fold": 0}]', '[{"checkpoint": 3}]'])
def test_train_refuses_a_malformed_result(cli_workspace, tmp_path, capsys, text):
    run = tmp_path / "run"
    run.mkdir()
    (run / "train_result.json").write_text(text)
    assert _train(tmp_path, cli_workspace["dataset_dir"], run) == 3
    assert "is malformed" in capsys.readouterr().err
    assert (run / "train_result.json").read_text() == text


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
    # a healthy mask larger than its scan would still centre-crop to crop_dims
    dataset_dir = tmp_path / "dataset"
    shutil.copytree(cli_workspace["dataset_dir"], dataset_dir)
    entry = load_manifest(dataset_dir).samples[0]
    healthy = dataset_dir / entry.directory / f"{entry.sample_id}-mask-healthy.nii.gz"
    write_nifti_mask(MaskVolume(np.zeros((20, 20, 20), bool)), healthy)
    config = _train_config(tmp_path / "c.json", dataset_dir, tmp_path / "out")
    assert cli.main(["train", "--config", config]) == 3
    err = capsys.readouterr().err
    assert "mask-healthy" in err and entry.sample_id in err


def test_train_refuses_overlapping_masks_naming_the_sample(cli_workspace, tmp_path, capsys):
    dataset_dir = tmp_path / "dataset"
    shutil.copytree(cli_workspace["dataset_dir"], dataset_dir)
    entry = load_manifest(dataset_dir).samples[1]
    path = dataset_dir / entry.directory / f"{entry.sample_id}-mask-healthy.nii.gz"
    unhealthy = read_nifti_mask(path.with_name(f"{entry.sample_id}-mask-unhealthy.nii.gz"), "unhealthy")
    healthy = read_nifti_mask(path, "healthy")
    write_nifti_mask(MaskVolume(healthy.bits | unhealthy.bits), path)
    config = _train_config(tmp_path / "c.json", dataset_dir, tmp_path / "out")
    assert cli.main(["train", "--config", config]) == 3
    err = capsys.readouterr().err
    assert "overlap" in err and entry.sample_id in err


def test_train_reads_only_the_scan_and_its_two_masks(cli_workspace, tmp_path):
    # the voided scan and the combined mask derive from the other three files
    dataset_dir = tmp_path / "dataset"
    shutil.copytree(cli_workspace["dataset_dir"], dataset_dir)
    for entry in load_manifest(dataset_dir).samples:
        for component in ("t1n-voided", "mask"):
            (dataset_dir / entry.directory / f"{entry.sample_id}-{component}.nii.gz").unlink()
    out_dir = tmp_path / "out"
    assert cli.main(["train", "--config", _train_config(tmp_path / "c.json", dataset_dir, out_dir)]) == 0
    for fold in range(2):
        name = f"fold{fold}-best.vxpt"
        assert (out_dir / name).read_bytes() == (cli_workspace["train_dir"] / name).read_bytes()


def test_train_holds_one_full_size_sample_at_a_time(tmp_path):
    # large scans and tiny crops, so reading the samples sets the peak: with
    # each full-size sample freed once cropped, train peaks no higher than
    # one sample's read, however many samples the manifest lists
    dataset_dir = tmp_path / "dataset"
    manifest = Manifest(seed=0, samples=[])
    for i in range(4):
        t1n, _, tumor, healthy = build_case(4100 + i, n=64)
        sid = sample_id(f"case{i}", 0)
        write_sample(dataset_dir / sid, sid, make_training_sample(f"case{i}", t1n, tumor, healthy))
        manifest.samples.append(ManifestEntry(case_id=f"case{i}", variant=0, sample_id=sid,
                                              directory=sid, seed=0))
    save_manifest(manifest, dataset_dir)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_read = max(peak(lambda: prepare_sample(read_sample(dataset_dir / e.directory, e.sample_id,
                                                           e.case_id),
                                               (8, 8, 8)))
                   for e in manifest.samples)
    config = write_config(tmp_path / "c.json", {
        "train": {"dataset_dir": str(dataset_dir), "out_dir": str(tmp_path / "out"),
                  "epochs": 1, "folds": 2, "crop_dims": [8, 8, 8], "base_channels": 2}})
    train_peak = peak(lambda: cli.main(["train", "--config", config]))
    assert (tmp_path / "out" / "train_result.json").exists()
    sample_bytes = (4 + 3) * 64 ** 3   # one float32 scan, three bool masks
    assert train_peak - one_read < sample_bytes / 2, (train_peak, one_read)


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
    '{"seed": 0, "samples": [{"case_id": "a", "variant": 0, "sample_id": "a-m0",'
    ' "directory": 5, "seed": 0}]}',
    '{"seed": 0, "samples": [{"case_id": "a", "variant": true, "sample_id": "a-m0",'
    ' "directory": "a-m0", "seed": 0}]}',
    '{"seed": 0, "samples": [{"case_id": "a", "variant": 0, "sample_id": "a-m0",'
    ' "directory": "a-m0", "seed": 0}, {"case_id": "a", "variant": 0, "sample_id": "a-m0",'
    ' "directory": "a-m0", "seed": 0}]}',
    '{"seed": "x", "samples": []}',
    '{"seed": 0, "samples": [], "skipped": 7}',
    '{"seed": 0, "samples": [], "extra": 1}',
    '{"seed": 0}',
], ids=["truncated", "list_root", "entry_lacks_fields", "number_directory", "bool_variant",
        "repeated_sample_id", "string_seed", "number_skipped", "unknown_key", "no_samples"])
def test_train_malformed_manifest_exits_3(tmp_path, capsys, manifest):
    dataset_dir = tmp_path / "dataset"
    dataset_dir.mkdir()
    (dataset_dir / "manifest.json").write_text(manifest)
    config = write_config(tmp_path / "c.json", {
        "train": {"dataset_dir": str(dataset_dir), "out_dir": str(tmp_path / "out")}})
    assert cli.main(["train", "--config", config]) == 3
    assert str(dataset_dir / "manifest.json") in capsys.readouterr().err


def test_train_refuses_a_manifest_entry_outside_the_dataset(cli_workspace, tmp_path, capsys):
    # every sample is complete, only moved beside the dataset: read through
    # ../outside it would train
    dataset_dir, outside = tmp_path / "dataset", tmp_path / "outside"
    shutil.copytree(cli_workspace["dataset_dir"], dataset_dir)
    outside.mkdir()
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    for entry in manifest["samples"]:
        (dataset_dir / entry["directory"]).rename(outside / entry["directory"])
        entry["directory"] = f"../outside/{entry['directory']}"
    (dataset_dir / "manifest.json").write_text(json.dumps(manifest))
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", {
        "train": {"dataset_dir": str(dataset_dir), "out_dir": str(out_dir), "epochs": 1,
                  "folds": 2, "crop_dims": [16, 16, 16], "base_channels": 2}})
    assert cli.main(["train", "--config", config]) == 3
    assert "plain name" in capsys.readouterr().err
    assert not list(out_dir.glob("*.vxpt"))


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


def test_infer_missing_checkpoint_exits_2(cli_workspace, tmp_path, capsys):
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(cli_workspace["dataset_dir"]),
                  "checkpoints": [str(tmp_path / "nope.ckpt")],
                  "out_dir": str(tmp_path / "pred")}})
    assert cli.main(["infer", "--config", config]) == 2
    assert str(tmp_path / "nope.ckpt") in capsys.readouterr().err


def test_infer_empty_checkpoint_list_exits_3(cli_workspace, tmp_path):
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(cli_workspace["dataset_dir"]),
                  "checkpoints": [], "out_dir": str(tmp_path / "pred")}})
    assert cli.main(["infer", "--config", config]) == 3


def test_infer_checkpoint_with_fractional_base_channels_exits_3(cli_workspace, tmp_path, capsys):
    raw = (cli_workspace["train_dir"] / "fold0-best.vxpt").read_bytes()
    version, meta_len = struct.unpack("<II", raw[4:12])
    meta = json.loads(raw[12:12 + meta_len])
    meta["config"]["base_channels"] = 2.5
    blob = json.dumps(meta).encode()
    checkpoint = tmp_path / "tampered.vxpt"
    checkpoint.write_bytes(raw[:4] + struct.pack("<II", version, len(blob)) + blob
                           + raw[12 + meta_len:])
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(cli_workspace["dataset_dir"]),
                  "checkpoints": [str(checkpoint)], "out_dir": str(tmp_path / "pred")}})
    assert cli.main(["infer", "--config", config]) == 3
    assert "base_channels" in capsys.readouterr().err


def test_infer_checkpoint_with_rank_100_exits_3_with_one_error_line(cli_workspace, tmp_path, capsys):
    raw = bytearray((cli_workspace["train_dir"] / "fold0-best.vxpt").read_bytes())
    meta_len = struct.unpack_from("<I", raw, 8)[0]
    name_len = struct.unpack_from("<H", raw, 12 + meta_len)[0]
    raw[12 + meta_len + 2 + name_len] = 100   # the first record's rank byte
    checkpoint = tmp_path / "rank.vxpt"
    checkpoint.write_bytes(bytes(raw))
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(cli_workspace["dataset_dir"]),
                  "checkpoints": [str(checkpoint)], "out_dir": str(tmp_path / "pred")}})
    assert cli.main(["infer", "--config", config]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "rank 100" in err[0], err


def test_infer_non_finite_checkpoint_exits_3_before_writing(cli_workspace, tmp_path, capsys):
    model, meta = load_checkpoint(cli_workspace["train_dir"] / "fold0-best.vxpt")
    dict(model.parameters())["enc0.conv1.weight"].data.flat[0] = np.nan
    checkpoint = tmp_path / "nan.vxpt"
    save_checkpoint(model, meta, checkpoint)
    out_dir = tmp_path / "pred"
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(cli_workspace["dataset_dir"]),
                  "checkpoints": [str(cli_workspace["train_dir"] / "fold1-best.vxpt"),
                                  str(checkpoint)],
                  "out_dir": str(out_dir), "crop_dims": [16, 16, 16]}})
    assert cli.main(["infer", "--config", config]) == 3
    assert "enc0.conv1.weight" in capsys.readouterr().err
    assert not list(out_dir.glob("*.nii.gz"))


@pytest.mark.parametrize("command", ["infer", "evaluate"])
@pytest.mark.parametrize("inside", ["pred", "sub/../pred"])
def test_out_dir_inside_the_walked_directory_exits_3(cli_workspace, tmp_path, capsys, command,
                                                     inside):
    # without a manifest, every directory under dataset_dir (infer) or gt_dir
    # (evaluate) is read as a sample, so an output directory there is refused
    dataset_dir = tmp_path / "dataset"
    shutil.copytree(cli_workspace["dataset_dir"], dataset_dir)
    before = sorted(dataset_dir.rglob("*"))
    out_dir = str(dataset_dir / inside)
    section = {
        "infer": {"dataset_dir": str(dataset_dir), "out_dir": out_dir, "crop_dims": [16, 16, 16],
                  "checkpoints": [str(cli_workspace["train_dir"] / "fold0-best.vxpt")]},
        "evaluate": {"pred_dir": str(tmp_path), "gt_dir": str(dataset_dir), "out_dir": out_dir},
    }[command]
    config = write_config(tmp_path / "c.json", {command: section})
    assert cli.main([command, "--config", config]) == 3
    assert "config key 'out_dir'" in capsys.readouterr().err
    config = write_config(tmp_path / "c.json", {command: {**section, "out_dir": str(tmp_path / "o")}})
    assert cli.main([command, "--config", config, "--out", out_dir]) == 3
    assert sorted(dataset_dir.rglob("*")) == before


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


def test_infer_sample_without_mask_exits_2_naming_it(cli_workspace, tmp_path, capsys):
    dataset_dir = tmp_path / "dataset"
    shutil.copytree(cli_workspace["dataset_dir"], dataset_dir)
    entry = load_manifest(dataset_dir).samples[1]
    missing = dataset_dir / entry.directory / f"{entry.sample_id}-mask.nii.gz"
    missing.unlink()
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(dataset_dir),
                  "checkpoints": [str(cli_workspace["train_dir"] / "fold0-best.vxpt")],
                  "out_dir": str(tmp_path / "pred"), "crop_dims": [16, 16, 16]}})
    assert cli.main(["infer", "--config", config]) == 2
    assert str(missing) in capsys.readouterr().err


def test_infer_reads_challenge_layout_without_manifest(cli_workspace, tmp_path):
    # the challenge's validation layout: per-case t1n-voided and mask, nothing else
    source = cli_workspace["dataset_dir"]
    infer_in = tmp_path / "challenge"
    sids = [e.sample_id for e in load_manifest(source).samples[:2]]
    for sid in sids:
        (infer_in / sid).mkdir(parents=True)
        for part in ("t1n-voided", "mask"):
            shutil.copyfile(source / sid / f"{sid}-{part}.nii.gz", infer_in / sid / f"{sid}-{part}.nii.gz")
    out_dir = tmp_path / "pred"
    config = write_config(tmp_path / "c.json", {
        "infer": {"dataset_dir": str(infer_in),
                  "checkpoints": [str(cli_workspace["train_dir"] / "fold0-best.vxpt")],
                  "out_dir": str(out_dir), "crop_dims": [16, 16, 16]}})
    assert cli.main(["infer", "--config", config]) == 0
    assert sorted(p.name for p in out_dir.glob("*-t1n-inpainted.nii.gz")) == \
        [f"{sid}-t1n-inpainted.nii.gz" for sid in sids]


def test_infer_and_evaluate_take_the_manifests_samples_beside_a_train_out_dir(cli_workspace,
                                                                              tmp_path):
    # a directory the manifest does not list, such as train's out_dir, is no sample
    dataset_dir = tmp_path / "dataset"
    shutil.copytree(cli_workspace["dataset_dir"], dataset_dir)
    assert _train(tmp_path, dataset_dir, dataset_dir / "run") == 0
    sids = sorted(e.sample_id for e in load_manifest(dataset_dir).samples)
    assert sample_dirs(dataset_dir) == [dataset_dir / sid for sid in sids]
    config = write_config(tmp_path / "infer.json", {
        "infer": {"dataset_dir": str(dataset_dir),
                  "checkpoints": [str(dataset_dir / "run" / "fold0-best.vxpt")],
                  "out_dir": str(tmp_path / "pred"), "crop_dims": [16, 16, 16]}})
    assert cli.main(["infer", "--config", config]) == 0
    assert sorted(p.name for p in (tmp_path / "pred").glob("*-t1n-inpainted.nii.gz")) == \
        [f"{sid}-t1n-inpainted.nii.gz" for sid in sids]
    config = write_config(tmp_path / "eval.json", {
        "evaluate": {"pred_dir": str(tmp_path / "pred"), "gt_dir": str(dataset_dir),
                     "out_dir": str(tmp_path / "eval")}})
    assert cli.main(["evaluate", "--config", config]) == 0
    assert json.loads((tmp_path / "eval" / "summary.json").read_text())["case_count"] == len(sids)


def test_infer_and_evaluate_walk_a_layout_without_manifest(cli_workspace, tmp_path):
    # no manifest: every directory is a sample, in sorted order
    source = cli_workspace["dataset_dir"]
    layout = tmp_path / "cases"
    sids = [e.sample_id for e in load_manifest(source).samples[:2]]
    for sid in sids:
        shutil.copytree(source / sid, layout / sid)
    assert sample_dirs(layout) == [layout / sid for sid in sorted(sids)]
    config = write_config(tmp_path / "infer.json", {
        "infer": {"dataset_dir": str(layout),
                  "checkpoints": [str(cli_workspace["train_dir"] / "fold0-best.vxpt")],
                  "out_dir": str(tmp_path / "pred"), "crop_dims": [16, 16, 16]}})
    assert cli.main(["infer", "--config", config]) == 0
    config = write_config(tmp_path / "eval.json", {
        "evaluate": {"pred_dir": str(tmp_path / "pred"), "gt_dir": str(layout),
                     "out_dir": str(tmp_path / "eval")}})
    assert cli.main(["evaluate", "--config", config]) == 0
    assert json.loads((tmp_path / "eval" / "summary.json").read_text())["case_count"] == 2


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


def test_evaluate_sample_without_t1n_exits_2_naming_it(cli_workspace, tmp_path, capsys):
    gt_dir = tmp_path / "gt"
    shutil.copytree(cli_workspace["dataset_dir"], gt_dir)
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    for entry in load_manifest(gt_dir).samples:
        shutil.copyfile(gt_dir / entry.directory / f"{entry.sample_id}-t1n.nii.gz",
                        pred_dir / f"{entry.sample_id}-t1n-inpainted.nii.gz")
    missing = gt_dir / entry.directory / f"{entry.sample_id}-t1n.nii.gz"
    missing.unlink()
    config = write_config(tmp_path / "c.json", {
        "evaluate": {"pred_dir": str(pred_dir), "gt_dir": str(gt_dir),
                     "out_dir": str(tmp_path / "eval")}})
    assert cli.main(["evaluate", "--config", config]) == 2
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "eval" / "summary.json").exists()


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


# each input of the wrong kind: a directory where a file should be, a file
# that is not UTF-8, or an out_dir that is a file
UNREADABLE_INPUTS = {
    "config_directory": ("report", 2),
    "config_not_utf8": ("report", 3),
    "summary_directory": ("report", 2),
    "summary_not_utf8": ("report", 3),
    "manifest_directory": ("train", 3),
    "checkpoint_directory": ("infer", 2),
    "out_dir_file": ("prepare", 3),
}


@pytest.mark.parametrize("case", list(UNREADABLE_INPUTS))
def test_unreadable_input_exits_with_one_error_line_naming_it(tmp_path, capsys, case):
    command, code = UNREADABLE_INPUTS[case]
    latin1 = '{"report": {"summary": "caf\u00e9"}}'.encode("latin-1")
    dataset, bad = tmp_path / "dataset", tmp_path / "bad"
    dataset.mkdir()
    if case == "manifest_directory":
        bad = dataset / "manifest.json"
    if case.endswith("directory"):
        bad.mkdir()
    else:
        bad.write_bytes(b"not a directory" if case == "out_dir_file" else latin1)
    config = str(bad) if case.startswith("config") else write_config(tmp_path / "c.json", {
        "report": {"summary": str(bad)},
        "train": {"dataset_dir": str(dataset), "out_dir": str(tmp_path / "run")},
        "infer": {"dataset_dir": str(dataset), "checkpoints": [str(bad)],
                  "out_dir": str(tmp_path / "pred")},
        "prepare": {"input_dir": str(dataset), "out_dir": str(bad)}})
    assert cli.main([command, "--config", config]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0], err


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
    {"case_count": 1, "mse": {"mean": "x"}},
    {"case_count": 1, "psnr": {"median": True}},
], ids=["list_root", "number_block", "list_block", "string_value", "bool_value"])
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
    # must not move a byte. The trained digests were re-pinned when the
    # norm-fed convs lost their biases, a change of float32 rounding only
    # (checkpoint version 2). The prepared dataset involves no BLAS call; the
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
        "74d98e80d902ba72ee92a3492c66db51053716be547746a6bad69fdb60593ea4")
    # the checkpoints too, metadata block included
    assert _digest(run.glob("fold*-best.vxpt")) == (
        "628afddeedce2244eba4d4fcaf6d3dbc6d09b51c5bafccb03a9c3f979ba87930")


def test_output_path_taken_by_a_directory_exits_3_naming_it(tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    summary_path.write_text(json.dumps({"case_count": 1}))
    taken = tmp_path / "ev" / "report.txt"
    taken.mkdir(parents=True)
    config = write_config(tmp_path / "c.json", {
        "report": {"summary": str(summary_path), "out_dir": str(taken.parent)}})
    assert cli.main(["report", "--config", config]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(taken) in err[0], err
    assert taken.is_dir() and sorted(p.name for p in taken.parent.iterdir()) == [
        "report.txt", "resolved_config.json"]
