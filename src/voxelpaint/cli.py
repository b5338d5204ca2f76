"""Command line front end: prepare, train, infer, evaluate, report.

Each command reads its own section of a single JSON config file; the
--seed and --out flags override the file. The fully resolved config is
echoed to stdout and written next to the outputs, so a run can always
be reproduced. Exit codes: 0 success, 2 missing input, 3 invalid
config or data, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .checkpoint import load_checkpoint
from .dataset import (Manifest, ManifestEntry, component_path, inpainted_path, load_manifest,
                      read_sample, sample_id, save_manifest, write_sample)
from .errors import (ConfigError, DataError, MaskPlacementError, NiftiError, NumericError,
                     ShapeError, VoxelPaintError)
from .masks import MaskGenParams, MaskVolume, generate_mask_set, make_training_sample
from .metrics import (aggregate_stats, evaluate_case, region_max_intensity, render_report_table,
                      write_cases_csv)
from .nifti import read_nifti, read_nifti_mask, write_nifti
from .trainer import TrainConfig, infer_case, prepare_sample, train_fold
from .util import atomic_open, concurrently, derive_seed, make_rng

_SCHEMAS = {
    "prepare": {"required": ("input_dir", "out_dir"),
                "optional": tuple(f.name for f in fields(MaskGenParams))},
    "train": {"required": ("dataset_dir", "out_dir"),
              "optional": tuple(f.name for f in fields(TrainConfig) if f.name != "seed")},
    "infer": {"required": ("dataset_dir", "checkpoints", "out_dir"),
              "optional": ("crop_dims",)},
    "evaluate": {"required": ("pred_dir", "gt_dir", "out_dir"), "optional": ()},
    "report": {"required": ("summary",), "optional": ("out_dir",)},
}


def _typed(section: dict, key: str, default, element=None):
    """section[key], or default when absent, converted to default's type.

    A tuple or list value is converted element by element, to ``element``
    or else to the type of default's first element; a string is not taken
    for a sequence, and only a string converts to str. A bool is not taken
    for a number, nor a float with a fraction for an int. A value that does
    not convert raises ConfigError naming the key, so a malformed config
    exits 3 like any other invalid config.
    """
    value = section.get(key, default)
    kind = type(default)
    try:
        if kind in (tuple, list):
            if isinstance(value, str):
                raise TypeError("a string is not a sequence")
            item = element or type(default[0])
            return kind(_strict(item, v) for v in value)
        return _strict(kind, value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r}: {value!r} is not a valid {kind.__name__}") from exc


def _strict(kind, value):
    if kind is str and not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    if kind in (int, float) and isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool, not a number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return kind(value)


def _load_config(path: str, command: str, seed_flag: int | None, out_flag: str | None) -> dict:
    cfg_path = Path(path)
    if not cfg_path.exists():
        raise FileNotFoundError(f"config file {cfg_path} does not exist")
    try:
        payload = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {cfg_path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")

    allowed_top = set(_HANDLERS) | {"seed"}
    unknown_top = set(payload) - allowed_top
    if unknown_top:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown_top)}")
    if command not in payload:
        raise ConfigError(f"config has no {command!r} section")
    section = payload[command]
    if not isinstance(section, dict):
        raise ConfigError(f"config section {command!r} must be an object")

    schema = _SCHEMAS[command]
    allowed = set(schema["required"]) | set(schema["optional"])
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {command!r} section: {sorted(unknown)}")

    resolved = dict(section)
    resolved["seed"] = seed_flag if seed_flag is not None else _typed(payload, "seed", 0)
    if out_flag is not None:
        resolved["out_dir"] = out_flag
    missing = [k for k in schema["required"] if k not in resolved]
    if missing:
        raise ConfigError(f"{command!r} section lacks required keys: {missing}")
    resolved["command"] = command
    return resolved


def _echo_config(resolved: dict) -> None:
    text = json.dumps(resolved, indent=2, sort_keys=True)
    print(text)
    out_dir = resolved.get("out_dir")
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_open(out / "resolved_config.json") as fh:
            fh.write(text + "\n")


def _require_dir(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.is_dir():
        raise FileNotFoundError(f"{what} directory {path} does not exist")
    return path


# -- commands -------------------------------------------------------------------


def cmd_prepare(cfg: dict) -> int:
    input_dir = _require_dir(cfg["input_dir"], "input")
    out_dir = Path(cfg["out_dir"])
    params = MaskGenParams(**{f.name: _typed(cfg, f.name, f.default) for f in fields(MaskGenParams)})
    seed = cfg["seed"]

    scans: dict[str, list[Path]] = {}
    for path in sorted(set(input_dir.glob("*-t1n.nii")) | set(input_dir.glob("*-t1n.nii.gz"))):
        scans.setdefault(path.name.split("-t1n.nii")[0], []).append(path)
    if not scans:
        raise FileNotFoundError(f"no *-t1n.nii[.gz] scans under {input_dir}")

    manifest = Manifest(seed=seed)
    for case_id, paths in scans.items():
        tumors = [p for p in (input_dir / f"{case_id}-mask-unhealthy{suffix}"
                              for suffix in (".nii", ".nii.gz")) if p.exists()]
        reason = None
        if len(paths) > 1:
            reason = "two scans: " + " and ".join(p.name for p in paths)
        elif len(tumors) > 1:
            reason = "two tumor masks: " + " and ".join(p.name for p in tumors)
        elif not tumors:
            reason = "missing tumor mask"
        if reason:
            manifest.skipped.append({"case_id": case_id, "reason": reason})
            continue
        t1n_path, tumor_path = paths[0], tumors[0]
        try:
            t1n, tumor = concurrently(lambda: read_nifti(t1n_path),
                                      lambda: read_nifti_mask(tumor_path, "unhealthy"))
            brain = MaskVolume(t1n.voxels > 0, role="brain")
            case_seed = derive_seed(seed, "case", case_id)
            rng = make_rng(seed, "case", case_id)
            healthy_masks = generate_mask_set(brain, tumor, params, rng)
        except (MaskPlacementError, DataError, NiftiError, ShapeError) as exc:
            manifest.skipped.append({"case_id": case_id, "reason": str(exc)})
            continue
        for variant, healthy in enumerate(healthy_masks):
            sid = sample_id(case_id, variant)
            sample = make_training_sample(case_id, t1n, tumor, healthy)
            write_sample(out_dir / sid, sid, sample)
            manifest.samples.append(ManifestEntry(case_id=case_id, variant=variant,
                                                  sample_id=sid, directory=sid,
                                                  seed=case_seed))
    save_manifest(manifest, out_dir)
    print(f"prepared {len(manifest.samples)} samples "
          f"({len(manifest.skipped)} case(s) skipped) -> {out_dir}")
    return 0


def cmd_train(cfg: dict) -> int:
    dataset_dir = _require_dir(cfg["dataset_dir"], "dataset")
    out_dir = Path(cfg["out_dir"])
    config = TrainConfig(seed=cfg["seed"],
                         **{key: _typed(cfg, key, getattr(TrainConfig, key))
                            for key in _SCHEMAS["train"]["optional"]})

    manifest = load_manifest(dataset_dir)
    if not manifest.samples:
        raise DataError(f"manifest in {dataset_dir} lists no samples")
    # each full-size sample is freed once cropped, before the next one is read
    samples = [prepare_sample(read_sample(dataset_dir / entry.directory, entry.sample_id,
                                          entry.case_id),
                              config.crop_dims, config.mae_region)
               for entry in manifest.samples]

    results = []
    with open(out_dir / "train_log.jsonl", "w") as log_fh:
        for fold in range(config.folds):
            result = train_fold(samples, config, fold, out_dir, log_fh=log_fh)
            results.append(result)
            print(f"fold {fold}: best val loss {result.best_val_loss:.6f} "
                  f"at epoch {result.best_epoch} -> {result.checkpoint_path}")
    payload = [{"fold": r.fold, "best_epoch": r.best_epoch, "best_val_loss": r.best_val_loss,
                "checkpoint": r.checkpoint_path} for r in results]
    with atomic_open(out_dir / "train_result.json") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_infer(cfg: dict) -> int:
    dataset_dir = _require_dir(cfg["dataset_dir"], "dataset")
    out_dir = Path(cfg["out_dir"])
    crop_dims = _typed(cfg, "crop_dims", TrainConfig.crop_dims)
    ckpt_paths = cfg["checkpoints"]
    ckpt_paths = [ckpt_paths] if isinstance(ckpt_paths, str) else _typed(cfg, "checkpoints", [], element=str)
    if not ckpt_paths:
        raise ConfigError("infer needs at least one checkpoint path")
    models = []
    for p in ckpt_paths:
        if not Path(p).exists():
            raise FileNotFoundError(f"checkpoint {p} does not exist")
        models.append(load_checkpoint(p)[0])

    sample_dirs = sorted(d for d in dataset_dir.iterdir() if d.is_dir())
    produced = 0
    for d in sample_dirs:
        sid = d.name
        mask_path = component_path(d, sid, "mask")
        if not mask_path.exists():
            continue
        volume_path = component_path(d, sid, "t1n-voided")
        if not volume_path.exists():
            volume_path = component_path(d, sid, "t1n")
        if not volume_path.exists():
            continue
        volume, combined = concurrently(lambda: read_nifti(volume_path),
                                        lambda: read_nifti_mask(mask_path, "combined"))
        result = infer_case(models, volume, combined, crop_dims)
        write_nifti(result, inpainted_path(out_dir, sid))
        produced += 1
    if produced == 0:
        raise FileNotFoundError(f"no inferable samples (mask plus volume) under {dataset_dir}")
    print(f"inpainted {produced} sample(s) -> {out_dir}")
    return 0


def cmd_evaluate(cfg: dict) -> int:
    pred_dir = _require_dir(cfg["pred_dir"], "prediction")
    gt_dir = _require_dir(cfg["gt_dir"], "ground truth")
    out_dir = Path(cfg["out_dir"])

    cases = []
    sample_dirs = sorted(d for d in gt_dir.iterdir() if d.is_dir())
    for d in sample_dirs:
        sid = d.name
        gt_path = component_path(d, sid, "t1n")
        if not gt_path.exists():
            continue
        pred_path = inpainted_path(pred_dir, sid)
        if not pred_path.exists():
            raise FileNotFoundError(f"no prediction {pred_path} for sample {sid}")
        gt, pred, healthy, unhealthy = concurrently(
            lambda: read_nifti(gt_path),
            lambda: read_nifti(pred_path),
            lambda: read_nifti_mask(component_path(d, sid, "mask-healthy"), "healthy"),
            lambda: read_nifti_mask(component_path(d, sid, "mask-unhealthy"), "unhealthy"))
        vmax = region_max_intensity(gt, healthy, unhealthy)
        cases.append(evaluate_case(sid, pred, gt, healthy, vmax))
    if not cases:
        raise FileNotFoundError(f"no evaluable samples under {gt_dir}")

    summary = asdict(aggregate_stats(cases))
    write_cases_csv(cases, out_dir / "cases.csv")
    with atomic_open(out_dir / "summary.json") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    print(render_report_table(summary), end="")
    return 0


def cmd_report(cfg: dict) -> int:
    summary_path = Path(cfg["summary"])
    if not summary_path.exists():
        raise FileNotFoundError(f"summary file {summary_path} does not exist")
    try:
        summary = json.loads(summary_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"summary {summary_path} is not valid JSON: {exc}") from exc
    table = render_report_table(summary)
    print(table, end="")
    out_dir = cfg.get("out_dir")
    if out_dir:
        with atomic_open(Path(out_dir) / "report.txt") as fh:
            fh.write(table)
    return 0


_HANDLERS = {"prepare": cmd_prepare, "train": cmd_train, "infer": cmd_infer,
             "evaluate": cmd_evaluate, "report": cmd_report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="voxelpaint",
        description="Mask synthesis, inpainting U-Net training, and evaluation for brain MRI.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        resolved = _load_config(args.config, args.command, args.seed, args.out)
        _echo_config(resolved)
        return _HANDLERS[args.command](resolved)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except VoxelPaintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
