"""Command line front end: prepare, train, infer, evaluate, report.

Each command reads its own section of a single JSON config file; prepare
and train, the two that draw random numbers, also read its top-level seed.
--out, and for those two --seed, override the file. ``util.build_record``
builds the command's record from them, so an invalid value exits 3 before
anything is written. That record is the one form of the run's config: it
is echoed to stdout, every default included, and saved as out_dir's
resolved_config.json once the command has checked its inputs, right
before its first other write there, so a run can always be reproduced and
a refused rerun leaves the config of the run whose files remain. Exit
codes: 0 success, 2 missing input (or a directory where an input file
should be), 3 invalid config or data (also a file that is not UTF-8 JSON,
an out_dir that is a file, or an output path taken by a directory), 4
numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

from .checkpoint import load_checkpoint
from .dataset import (COMPONENTS, MANIFEST_NAME, Manifest, ManifestEntry, component_path,
                      component_reads, inpainted_path, load_manifest, read_sample, sample_dirs,
                      sample_id, save_manifest, write_sample)
from .errors import (ConfigError, DataError, MaskPlacementError, NiftiError, NumericError,
                     ShapeError, VoxelPaintError)
from .masks import MaskGenParams, MaskVolume, generate_mask_set, make_training_sample
from .metrics import (aggregate_stats, evaluate_case, region_max_intensity, render_report_table,
                      write_cases_csv)
from .nifti import read_nifti, read_nifti_mask, write_nifti
from .trainer import (TrainConfig, check_crop_dims, infer_case, kfold_split, prepare_sample,
                      train_fold, train_memory_bytes)
from .util import atomic_open, build_record, concurrently, derive_seed, make_rng


@dataclass(frozen=True, kw_only=True)
class PrepareSection(MaskGenParams):
    input_dir: str
    out_dir: str
    seed: int = 0


@dataclass(frozen=True, kw_only=True)
class TrainSection(TrainConfig):
    dataset_dir: str
    out_dir: str


@dataclass(frozen=True)
class InferSection:
    dataset_dir: str
    checkpoints: list[str]
    out_dir: str
    crop_dims: tuple[int, int, int] = TrainConfig.crop_dims

    def __post_init__(self):
        check_crop_dims(self.crop_dims)
        if not self.checkpoints:
            raise ConfigError("config key 'checkpoints' lists no checkpoint")
        _check_out_dir(self.out_dir, "dataset_dir", self.dataset_dir)


@dataclass(frozen=True)
class EvaluateSection:
    pred_dir: str
    gt_dir: str
    out_dir: str

    def __post_init__(self):
        _check_out_dir(self.out_dir, "gt_dir", self.gt_dir)


def _check_out_dir(out_dir: str, key: str, walked: str) -> None:
    """Refuse an out_dir below the directory the command reads samples from:
    without a manifest there, every sub-directory is read as a sample."""
    if Path(walked).resolve() in Path(out_dir).resolve().parents:
        raise ConfigError(f"config key 'out_dir': {out_dir} lies inside {key} {walked}, "
                          f"where every directory is read as a sample")


@dataclass(frozen=True)
class ReportSection:
    summary: str
    out_dir: str = ""


def _load_config(path: str, command: str, seed_flag: int | None, out_flag: str | None):
    """The command's section record, with the top-level seed and the flags applied."""
    cfg_path = Path(path)
    if not cfg_path.exists():
        raise FileNotFoundError(f"config file {cfg_path} does not exist")
    try:
        payload = json.loads(cfg_path.read_text(encoding="utf-8"))
    except ValueError as exc:   # not JSON, or not UTF-8
        raise ConfigError(f"config {cfg_path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    unknown_top = sorted(set(payload) - set(_COMMANDS) - {"seed"})
    if unknown_top:
        raise ConfigError(f"config key {unknown_top[0]!r} is unknown")
    section = payload.get(command)
    if not isinstance(section, dict):
        raise ConfigError(f"config has no {command!r} section holding an object")
    if "seed" in section:
        raise ConfigError(f"config key 'seed' belongs at the top level, not in {command!r}")

    given = dict(section)
    if command in _SEEDED:
        given["seed"] = payload.get("seed", 0) if seed_flag is None else seed_flag
    if out_flag is not None:
        given["out_dir"] = out_flag
    if isinstance(given.get("checkpoints"), str):   # infer also takes one path as a string
        given["checkpoints"] = [given["checkpoints"]]
    try:
        record = build_record(_COMMANDS[command][0], given)
    except ValueError as exc:
        raise ConfigError(f"config {exc}") from exc
    out_dir = Path(record.out_dir)
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"config key 'out_dir': {nearest} is not a directory")
    return record


def _echo_config(command: str, record) -> Callable[[], None]:
    """Print the record the command runs, every default included, and return
    the call that saves the same text as its out_dir's resolved_config.json.
    The command makes that call once its inputs are checked, right before it
    first writes into out_dir, so a refused rerun keeps the earlier run's."""
    text = json.dumps({"command": command, **asdict(record)}, indent=2, sort_keys=True)
    print(text)

    def save() -> None:
        if record.out_dir:
            out = Path(record.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            with atomic_open(out / "resolved_config.json") as fh:
                fh.write(text + "\n")
    return save


def _require_dir(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.is_dir():
        raise FileNotFoundError(f"{what} directory {path} does not exist")
    return path


# -- commands -------------------------------------------------------------------


def cmd_prepare(cfg: PrepareSection, save_config: Callable[[], None]) -> int:
    input_dir = _require_dir(cfg.input_dir, "input")
    out_dir = Path(cfg.out_dir)

    scans: dict[str, list[Path]] = {}
    for path in sorted(set(input_dir.glob("*-t1n.nii")) | set(input_dir.glob("*-t1n.nii.gz"))):
        scans.setdefault(path.name.split("-t1n.nii")[0], []).append(path)
    if not scans:
        raise FileNotFoundError(f"no *-t1n.nii[.gz] scans under {input_dir}")
    # prepare owns the samples that the manifest already in out_dir lists, and no other path
    old = load_manifest(out_dir).samples if (out_dir / MANIFEST_NAME).exists() else []
    save_config()

    manifest = Manifest(seed=cfg.seed, samples=[])
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
            case_seed = derive_seed(cfg.seed, "case", case_id)
            rng = make_rng(cfg.seed, "case", case_id)
            healthy_masks = generate_mask_set(brain, tumor, cfg, rng)
        except (MaskPlacementError, DataError, NiftiError, ShapeError) as exc:
            manifest.skipped.append({"case_id": case_id, "reason": str(exc)})
            continue
        shared = {}   # the case's t1n and tumor mask, deflated once for all its variants
        for variant, healthy in enumerate(healthy_masks):
            sid = sample_id(case_id, variant)
            write_sample(out_dir / sid, sid, make_training_sample(case_id, t1n, tumor, healthy),
                         shared)
            manifest.samples.append(ManifestEntry(case_id=case_id, variant=variant,
                                                  sample_id=sid, directory=sid,
                                                  seed=case_seed))
    written = {entry.directory for entry in manifest.samples}
    for entry in old:
        if entry.directory not in written:
            sample_dir = out_dir / entry.directory
            for component in COMPONENTS:
                component_path(sample_dir, entry.sample_id, component).unlink(missing_ok=True)
            if sample_dir.is_dir() and not any(sample_dir.iterdir()):
                sample_dir.rmdir()
    save_manifest(manifest, out_dir)
    print(f"prepared {len(manifest.samples)} samples "
          f"({len(manifest.skipped)} case(s) skipped) -> {out_dir}")
    return 0


def cmd_train(cfg: TrainSection, save_config: Callable[[], None]) -> int:
    dataset_dir = _require_dir(cfg.dataset_dir, "dataset")
    out_dir = Path(cfg.out_dir)

    manifest = load_manifest(dataset_dir)
    if not manifest.samples:
        raise DataError(f"manifest in {dataset_dir} lists no samples")
    folds = kfold_split(sorted({e.case_id for e in manifest.samples}), cfg.folds, cfg.seed)
    need = train_memory_bytes(cfg, len(manifest.samples))
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"training at crop_dims {list(cfg.crop_dims)}, base_channels "
                          f"{cfg.base_channels} and batch_size {cfg.batch_size} needs about "
                          f"{need / 2**20:,.1f} MiB (one step and {len(manifest.samples)} held "
                          f"samples), more than this machine's {have / 2**20:,.1f} MiB")
    previous = _previous_run(out_dir)
    # each full-size sample is freed once cropped, before the next one is read
    samples = [prepare_sample(read_sample(dataset_dir / entry.directory, entry.sample_id,
                                          entry.case_id),
                              cfg.crop_dims, cfg.mae_region)
               for entry in manifest.samples]

    save_config()
    for path in previous:   # the result first: without one, out_dir holds an unfinished run
        path.unlink(missing_ok=True)
    results = []
    with open(out_dir / "train_log.jsonl", "w") as log_fh:
        for fold, val_cases in enumerate(folds):
            result = train_fold([s for s in samples if s.case_id not in val_cases],
                                [s for s in samples if s.case_id in val_cases],
                                cfg, fold, out_dir, log_fh=log_fh)
            results.append(result)
            print(f"fold {fold}: best val loss {result.best_val_loss:.6f} "
                  f"at epoch {result.best_epoch} -> {result.checkpoint_path}")
    # absolute, so that a later run resolves them from any working directory
    payload = [{"fold": r.fold, "best_epoch": r.best_epoch, "best_val_loss": r.best_val_loss,
                "checkpoint": str(Path(r.checkpoint_path).resolve())} for r in results]
    with atomic_open(out_dir / "train_result.json") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _previous_run(out_dir: Path) -> list[Path]:
    """An earlier run's train_result.json and the checkpoints it lists, which
    train removes so that out_dir never mixes two runs; train writes its
    result last, so a directory without one holds an unfinished run. A listed
    checkpoint that is not a fold*-best.vxpt file directly in out_dir raises
    DataError, before anything is removed."""
    result = out_dir / "train_result.json"
    if not result.exists():
        return []
    try:
        listed = [Path(row["checkpoint"]) for row in json.loads(result.read_text())]
    except (ValueError, TypeError, KeyError) as exc:
        raise DataError(f"{result} is malformed: {exc!r}") from exc
    for path in listed:
        if not path.match("fold*-best.vxpt") or path.parent.resolve() != out_dir.resolve():
            raise DataError(f"{result} lists {path}, which is not a checkpoint in {out_dir}")
    return [result, *listed]


def cmd_infer(cfg: InferSection, save_config: Callable[[], None]) -> int:
    dataset_dir = _require_dir(cfg.dataset_dir, "dataset")
    out_dir = Path(cfg.out_dir)
    models = [load_checkpoint(p)[0] for p in cfg.checkpoints]

    dirs = sample_dirs(dataset_dir)
    save_config()
    for d in dirs:
        # the challenge's layout gives the voided scan; a prepared sample also has t1n
        scan = "t1n-voided" if component_path(d, d.name, "t1n-voided").exists() else "t1n"
        volume, combined = concurrently(*component_reads(d, d.name, (scan, "mask")))
        result = infer_case(models, volume, combined, cfg.crop_dims)
        write_nifti(result, inpainted_path(out_dir, d.name))
    print(f"inpainted {len(dirs)} sample(s) -> {out_dir}")
    return 0


def cmd_evaluate(cfg: EvaluateSection, save_config: Callable[[], None]) -> int:
    pred_dir = _require_dir(cfg.pred_dir, "prediction")
    gt_dir = _require_dir(cfg.gt_dir, "ground truth")
    out_dir = Path(cfg.out_dir)

    cases = []
    for d in sample_dirs(gt_dir):
        sid = d.name
        read_gt, *read_masks = component_reads(d, sid, ("t1n", "mask-healthy", "mask-unhealthy"))
        # one call for all four files, the two scans first so that their
        # decoding overlaps
        gt, pred, healthy, unhealthy = concurrently(
            read_gt, partial(read_nifti, inpainted_path(pred_dir, sid)), *read_masks)
        vmax = region_max_intensity(gt, healthy, unhealthy)
        cases.append(evaluate_case(sid, pred, gt, healthy, vmax))

    summary = asdict(aggregate_stats(cases))
    save_config()
    write_cases_csv(cases, out_dir / "cases.csv")
    with atomic_open(out_dir / "summary.json") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    print(render_report_table(summary), end="")
    return 0


def cmd_report(cfg: ReportSection, save_config: Callable[[], None]) -> int:
    summary_path = Path(cfg.summary)
    if not summary_path.exists():
        raise FileNotFoundError(f"summary file {summary_path} does not exist")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except ValueError as exc:   # not JSON, or not UTF-8
        raise DataError(f"summary {summary_path} is not valid JSON: {exc}") from exc
    table = render_report_table(summary)
    print(table, end="")
    save_config()
    if cfg.out_dir:
        with atomic_open(Path(cfg.out_dir) / "report.txt") as fh:
            fh.write(table)
    return 0


_COMMANDS = {"prepare": (PrepareSection, cmd_prepare), "train": (TrainSection, cmd_train),
             "infer": (InferSection, cmd_infer), "evaluate": (EvaluateSection, cmd_evaluate),
             "report": (ReportSection, cmd_report)}
# the commands whose record holds a seed: those that draw random numbers
_SEEDED = {name for name, (cls, _) in _COMMANDS.items() if "seed" in {f.name for f in fields(cls)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="voxelpaint",
        description="Mask synthesis, inpainting U-Net training, and evaluation for brain MRI.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        if name in _SEEDED:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        record = _load_config(args.config, args.command, vars(args).get("seed"), args.out)
        return _COMMANDS[args.command][1](record, _echo_config(args.command, record))
    except (FileNotFoundError, IsADirectoryError) as exc:   # a directory where a file should be
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
