"""The benchmark's workloads and the command loop each one runs.

Every workload runs the paper's whole loop through ``voxelpaint.cli.main``
in this process, one command after the other (a closed loop with one
caller): ``prepare`` -> ``train`` -> ``infer`` -> ``evaluate``. The
workloads differ in scale, which moves the share of each layer:

* ``train-desk``: desk-scale training, 48^3 crops of 64^3 scans. conv3d's
  im2col gather and ssim3d dominate a ~3 s step.
* ``scan-pipeline``: BraTS geometry (240x240x155). NIfTI compression in
  ``prepare`` and ``infer``, decompression in ``infer`` and ``evaluate``,
  mask morphology on full volumes, a 5-checkpoint forward-only ensemble at
  48^3, and float64 single-channel ssim3d in ``evaluate``. Its training
  stage uses 16^3 crops, so it measures what ``train`` spends reading and
  normalizing full-size samples.

On ``train-desk`` ``prepare`` is part of set-up: set-up writes
the scans and runs the program's ``prepare`` on them (masks, NIfTI gzip,
dataset writes), and the timed loop starts at ``train``. On
``scan-pipeline``, where ``prepare`` is the heaviest command, set-up writes
the scans and the inference ensemble, and the timed loop starts at
``prepare``. Either way ``prepare_variants_per_s`` is measured.

After ``prepare`` the benchmark builds the inference input, untimed: the
voided scan of each chosen sample with every masked voxel set to
SENTINEL. ``infer`` voids those voxels itself before the network sees
them, so the sentinel never changes a prediction; a masked output voxel
that still holds it was not inpainted. That is how ``infer_mask_coverage``
is measured from outside the program.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import shutil
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
from spans import MIB, Tracer
from voxelpaint import cli
from voxelpaint.checkpoint import load_checkpoint
from voxelpaint.dataset import load_manifest
from voxelpaint.metrics import evaluate_case, region_max_intensity
from voxelpaint.nifti import read_nifti, read_nifti_mask, write_nifti
from voxelpaint.volume import MaskVolume, Volume

SENTINEL = np.float32(-4096.0)   # below any denormalized prediction, which lies in [0, max]
PROGRAM_SEED = 7                 # the CLI's seed; the benchmark seed varies the scans
# Set-ups and timed commands repeat until they reach these minimums. The
# repeats are spread over the whole run, in a window after each command of
# the timed loop and of the tracemalloc pass: on a shared virtual machine
# the speed shifts every few seconds, and a median over samples taken across
# a run steadies the figures far more than one over a block of repeats.
SETUP_REPEATS = 3                # at least this many set-ups, and ...
SETUP_MIN_S = 2.0                # ... until they add up to this
COMMAND_MIN_S = 2.0              # timed runs of one command add up to this


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dims: tuple[int, int, int]
    cases: int
    variants: int
    margin: int
    train: dict                 # extra keys of the CLI train section
    infer_crop: tuple[int, int, int]
    infer_samples: int          # prepared samples handed to infer and evaluate
    ensemble: int = 0           # set-up checkpoints for infer; 0 means the trained folds
    prepare_in_setup: bool = True   # set-up runs prepare; the timed loop starts at train


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-desk",
        why="desk-scale training: 48^3 crops, base 8, 2 folds; conv3d im2col and ssim3d dominate a ~3 s step",
        dims=(64, 64, 64), cases=2, variants=2, margin=4,
        train={"epochs": 1, "folds": 2, "crop_dims": [48, 48, 48], "base_channels": 8,
               "batch_size": 1, "dropout_rate": 0.2},
        infer_crop=(48, 48, 48), infer_samples=1),
    Workload(
        name="scan-pipeline",
        why="BraTS geometry 240x240x155: NIfTI gzip, full-volume morphology, 5-model ensemble at 48^3, f64 SSIM",
        dims=(240, 240, 155), cases=2, variants=1, margin=4,
        train={"epochs": 1, "folds": 2, "crop_dims": [16, 16, 16], "base_channels": 8,
               "batch_size": 1, "dropout_rate": 0.2},
        infer_crop=(48, 48, 48), infer_samples=1, ensemble=5, prepare_in_setup=False),
)}


@dataclass
class Checks:
    """Every checked operation; ``failed`` feeds ops_failed_ratio."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Cycle:
    seconds: dict[str, float]        # this pass's seconds per command (its last run)
    peaks: dict[str, float]
    digests: dict[str, str]
    val_loss: float
    coverage_base: tuple[int, int]   # (masked voxels predicted, masked voxels)

    def matches(self, other: "Cycle") -> bool:
        """Same output files with the same bytes."""
        return bool(self.digests) and self.digests == other.digests


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.checks = Checks()
        self.case_ids = [f"case{i:02d}" for i in range(workload.cases)]
        self.ensemble: list[str] = []
        self.runs: dict[str, list[float]] = {}   # seconds of every timed set-up and command run
        self.timed: dict[str, Callable[[float], float]] = {}   # reruns of the loop's timed commands
        # one window before the timed loop, one after each command of it and of the tracemalloc pass
        self.windows = 1 + (3 if workload.prepare_in_setup else 4) + 4
        self.windows_done = 0

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> float:
        """Generate the input scans (and the inference ensemble). Where the
        workload prepares in set-up, also run ``prepare`` on them into
        work/setup. Return seconds."""
        for sub in ("inputs", "ensemble", "setup"):
            shutil.rmtree(self.work / sub, ignore_errors=True)
        start = time.perf_counter()
        gen.write_scans(self.work / "inputs", self.seed, self.case_ids, self.w.dims)
        if self.w.ensemble:
            self.ensemble = gen.write_checkpoints(self.work / "ensemble", self.seed,
                                                  self.w.ensemble, base_channels=8)
        if self.w.prepare_in_setup:
            self._prepare(Tracer(), self.work / "setup", {}, until=0.0)
        return time.perf_counter() - start

    def window(self) -> None:
        """The next timing window: set up, and rerun each command the loop has
        timed so far on the same inputs, until the timed runs reach the share
        of their minimums that this window's place in the run gives. Where the
        workload prepares in set-up, the inference inputs are then rebuilt from
        the last set-up's dataset (untimed, like everything between commands)."""
        self.windows_done += 1
        share = min(1.0, self.windows_done / self.windows)
        runs = self.runs.setdefault("setup", [])
        before = len(runs)
        while not runs or len(runs) < SETUP_REPEATS * share or sum(runs) < SETUP_MIN_S * share:
            runs.append(self.setup())
        if len(runs) > before and self.w.prepare_in_setup:
            self._infer_inputs(self.work / "setup")
        for name, rerun in self.timed.items():
            if sum(self.runs[name]) < COMMAND_MIN_S * share:
                rerun(COMMAND_MIN_S * share)

    def check_perfect_prediction(self) -> None:
        """Criterion 9's identity: a prediction equal to the truth scores SSIM 1
        and MSE 0. Checked on a small scan of its own, to keep set-up short."""
        scan, tumor = gen.make_scan(self.seed, "identity-check", (24, 24, 24))
        region = MaskVolume(tumor.bits, role="healthy")
        result = evaluate_case("identity-check", scan, scan, region,
                               region_max_intensity(scan, region, tumor))
        self.checks.expect(result.ssim == 1.0 and result.mse == 0.0,
                           f"perfect prediction scored ssim={result.ssim} mse={result.mse}")

    # -- one pass of the loop ------------------------------------------------------

    def _command(self, tracer: Tracer, name: str, section: dict, peaks,
                 until: float | None) -> float:
        """Run one CLI command in-process and return the seconds of its last
        run. With ``until`` the runs are timed: each is kept in self.runs, and
        the command runs again on the same inputs while they add up to less."""
        config = self.work / f"{name}.json"
        config.write_text(json.dumps({"seed": PROGRAM_SEED, name: section}))
        while True:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                index = len(tracer.spans)
                with tracer.span(f"cli.{name}"):
                    rc = cli.main([name, "--config", str(config)])
            span = tracer.spans[index]
            peaks[name] = max(peaks.get(name, 0.0), span[5] / MIB)
            if not self.checks.expect(rc == 0, f"{name} exited {rc}: {err.getvalue().strip()}"):
                raise RuntimeError(f"{name} failed")
            if until is None:
                return span[2] - span[1]
            runs = self.runs.setdefault(name, [])
            runs.append(span[2] - span[1])
            if sum(runs) >= until:
                return runs[-1]

    def _prepare(self, tracer: Tracer, out: Path, peaks, until: float | None) -> float:
        """Run prepare into out/dataset, check its manifest, return seconds."""
        w = self.w
        seconds = self._command(tracer, "prepare", {"input_dir": str(self.work / "inputs"),
                                                    "out_dir": str(out / "dataset"),
                                                    "margin": w.margin, "variants": w.variants},
                                peaks, until)
        manifest = load_manifest(out / "dataset")
        expected = {f"{c}-m{v}" for c in self.case_ids for v in range(w.variants)}
        prepared = sorted(e.sample_id for e in manifest.samples)
        self.checks.expect(set(prepared) == expected and not manifest.skipped,
                           f"manifest lists {prepared}, skipped {manifest.skipped}")
        return seconds

    def _infer_inputs(self, root: Path) -> None:
        """Build root/infer-in from the first prepared samples of root/dataset."""
        for sid in _sample_ids(root)[:self.w.infer_samples]:
            self._sentinel_input(root / "dataset", root / "infer-in", sid)

    def cycle(self, tracer: Tracer, timed: bool = False, full: bool = True,
              out_name: str = "cycle", between: Callable[[], None] | None = None) -> Cycle:
        """One pass of prepare -> train -> infer -> evaluate into work/``out_name``,
        calling ``between`` after each command. With ``timed``, each command's
        run is timed and can be rerun by later windows. Without ``full``, a
        workload that prepares in set-up starts at train, on the set-up's
        dataset and inference inputs."""
        w = self.w
        out = self.work / out_name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        seconds: dict[str, float] = {}
        peaks: dict[str, float] = {}
        until = 0.0 if timed else None

        def command(name: str, section: dict) -> None:
            seconds[name] = self._command(tracer, name, section, peaks, until)
            if timed:
                self.timed[name] = lambda u: self._command(Tracer(), name, section, {}, u)
            if between:
                between()

        if full or not w.prepare_in_setup:
            source = out
            seconds["prepare"] = self._prepare(tracer, out, peaks, until)
            if timed:
                self.timed["prepare"] = lambda u: self._prepare(Tracer(), out, {}, u)
            self._infer_inputs(out)
            if between:
                between()
        else:
            source = self.work / "setup"
        samples = _sample_ids(source)[:w.infer_samples]

        run_dir = out / "run"
        command("train", {"dataset_dir": str(source / "dataset"), "out_dir": str(run_dir),
                          **w.train})
        folds = w.train["folds"]
        for fold in range(folds):
            path = run_dir / f"fold{fold}-best.vxpt"
            try:
                load_checkpoint(path)
                self.checks.expect(True, str(path))
            except Exception as exc:  # any load failure is a failed check, reported by name
                self.checks.expect(False, f"checkpoint {path} does not load: {exc}")
        result = json.loads((run_dir / "train_result.json").read_text())
        val_loss = statistics.fmean(r["best_val_loss"] for r in result)
        self.checks.expect(np.isfinite(val_loss), f"validation loss {val_loss}")

        checkpoints = self.ensemble or [str(run_dir / f"fold{i}-best.vxpt") for i in range(folds)]
        command("infer", {"dataset_dir": str(source / "infer-in"), "checkpoints": checkpoints,
                          "out_dir": str(out / "pred"), "crop_dims": list(w.infer_crop)})
        covered, masked = self._coverage(source / "infer-in", out / "pred", samples)

        command("evaluate", {"pred_dir": str(out / "pred"), "gt_dir": str(source / "infer-in"),
                             "out_dir": str(out / "eval")})
        summary = json.loads((out / "eval" / "summary.json").read_text())
        self.checks.expect(summary["case_count"] == len(samples),
                           f"summary case_count {summary['case_count']} != {len(samples)}")
        digests = _digests(out)
        if source != out:
            digests.update(_digests(source))
        return Cycle(seconds, peaks, digests, val_loss, (covered, masked))

    def _coverage(self, infer_in: Path, pred: Path, samples: list[str]) -> tuple[int, int]:
        """Check each inpainted output and count (masked voxels predicted,
        masked voxels): a masked voxel that still holds SENTINEL was not."""
        masked = covered = 0
        for sid in samples:
            given = read_nifti(infer_in / sid / f"{sid}-t1n-voided.nii.gz").voxels
            mask = read_nifti_mask(infer_in / sid / f"{sid}-mask.nii.gz", "combined").bits
            got = read_nifti(pred / f"{sid}-t1n-inpainted.nii.gz").voxels
            same_outside = np.array_equal(got[~mask].view(np.uint32), given[~mask].view(np.uint32))
            self.checks.expect(bool(np.isfinite(got).all()) and same_outside,
                               f"{sid}: non-finite output or changed voxels outside the mask")
            masked += int(mask.sum())
            covered += int((got[mask] != SENTINEL).sum())
        return covered, masked

    def _sentinel_input(self, dataset: Path, infer_in: Path, sid: str) -> None:
        """Copy one prepared sample for infer/evaluate, with its voided scan's
        masked voxels set to SENTINEL."""
        src, dst = dataset / sid, infer_in / sid
        dst.mkdir(parents=True)
        for part in ("t1n", "mask", "mask-healthy", "mask-unhealthy"):
            shutil.copyfile(src / f"{sid}-{part}.nii.gz", dst / f"{sid}-{part}.nii.gz")
        mask = read_nifti_mask(src / f"{sid}-mask.nii.gz", "combined").bits
        volume = read_nifti(src / f"{sid}-t1n-voided.nii.gz")
        voxels = volume.voxels.copy()
        voxels[mask] = SENTINEL
        raw = dst / f"{sid}-t1n-voided.nii"
        write_nifti(Volume(voxels, affine_bytes=volume.affine_bytes), raw)
        # fast gzip: this file is benchmark input, not program output
        (dst / f"{sid}-t1n-voided.nii.gz").write_bytes(
            gzip.compress(raw.read_bytes(), compresslevel=1, mtime=0))
        raw.unlink()


def _sample_ids(root: Path) -> list[str]:
    return sorted(e.sample_id for e in load_manifest(root / "dataset").samples)


def _digests(root: Path) -> dict[str, str]:
    """sha256 of every output file by relative path. resolved_config.json is
    left out and train_result.json enters without its checkpoint paths (both
    hold paths); train_log.jsonl enters without its wall-clock field."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "resolved_config.json":
            continue
        if path.name in ("train_log.jsonl", "train_result.json"):
            text = path.read_text()
            rows = json.loads(text) if path.suffix == ".json" else [json.loads(x) for x in text.splitlines()]
            data = json.dumps([{k: v for k, v in r.items() if k not in ("seconds", "checkpoint")}
                               for r in rows]).encode()
        else:
            data = path.read_bytes()
        out[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def memory_cycle(bench: Bench, tracer: Tracer, between: Callable[[], None] | None = None) -> Cycle:
    """One full untimed pass into work/memory with tracemalloc on, switched off
    while ``between`` runs after each command. Per-command peaks are above
    the traced memory at the command's start."""
    def paused():
        tracemalloc.stop()
        between()
        tracemalloc.start()

    tracemalloc.start()
    try:
        return bench.cycle(tracer, out_name="memory", between=paused if between else None)
    finally:
        tracemalloc.stop()
