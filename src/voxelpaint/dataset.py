"""On-disk dataset layout: per-sample directories plus a manifest.

A prepared sample lives in its own directory named by the sample id
("{case}-m{variant}") and holds five files:

    {sid}-t1n.nii.gz             ground truth scan
    {sid}-t1n-voided.nii.gz      scan with the combined region zeroed
    {sid}-mask-healthy.nii.gz    synthesized healthy mask
    {sid}-mask-unhealthy.nii.gz  expert tumor mask
    {sid}-mask.nii.gz            combined mask

Scans are stored as float32 and masks as uint8 (0/1), each gzipped at
deflate level 1; the reader also accepts float32 masks, as written by
earlier versions.

The manifest (manifest.json) records the seed, the successful samples,
and any skipped cases with reasons.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import DataError
from .masks import TrainingSample
from .nifti import read_nifti, read_nifti_mask, write_nifti, write_nifti_mask
from .util import atomic_open

COMPONENTS = ("t1n", "t1n-voided", "mask-healthy", "mask-unhealthy", "mask")
MANIFEST_NAME = "manifest.json"


def sample_id(case_id: str, variant: int) -> str:
    return f"{case_id}-m{variant}"


def component_path(sample_dir: Path, sid: str, component: str) -> Path:
    if component not in COMPONENTS:
        raise DataError(f"unknown sample component {component!r}")
    return Path(sample_dir) / f"{sid}-{component}.nii.gz"


def inpainted_path(pred_dir: Path, sid: str) -> Path:
    """Where infer writes, and evaluate reads, a sample's inpainted scan."""
    return Path(pred_dir) / f"{sid}-t1n-inpainted.nii.gz"


def write_sample(sample_dir, sid: str, sample: TrainingSample) -> None:
    sample_dir = Path(sample_dir)
    sample_dir.mkdir(parents=True, exist_ok=True)
    write_nifti(sample.t1n, component_path(sample_dir, sid, "t1n"))
    write_nifti(sample.t1n_voided, component_path(sample_dir, sid, "t1n-voided"))
    write_nifti_mask(sample.healthy, component_path(sample_dir, sid, "mask-healthy"))
    write_nifti_mask(sample.unhealthy, component_path(sample_dir, sid, "mask-unhealthy"))
    write_nifti_mask(sample.combined, component_path(sample_dir, sid, "mask"))


def read_sample(sample_dir, sid: str, case_id: str | None = None) -> TrainingSample:
    sample_dir = Path(sample_dir)
    t1n = read_nifti(component_path(sample_dir, sid, "t1n"))
    voided = read_nifti(component_path(sample_dir, sid, "t1n-voided"))
    healthy = read_nifti_mask(component_path(sample_dir, sid, "mask-healthy"), "healthy")
    unhealthy = read_nifti_mask(component_path(sample_dir, sid, "mask-unhealthy"), "unhealthy")
    combined = read_nifti_mask(component_path(sample_dir, sid, "mask"), "combined")
    for component, part in zip(COMPONENTS[1:], (voided, healthy, unhealthy, combined)):
        if part.dims != t1n.dims:
            raise DataError(f"sample {sid}: {component} dims {part.dims} differ from t1n dims {t1n.dims}")
    return TrainingSample(case_id=case_id or sid, t1n=t1n, t1n_voided=voided,
                          healthy=healthy, unhealthy=unhealthy, combined=combined)


@dataclass
class ManifestEntry:
    case_id: str
    variant: int
    sample_id: str
    directory: str
    seed: int


@dataclass
class Manifest:
    seed: int
    samples: list[ManifestEntry] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)


def save_manifest(manifest: Manifest, dataset_dir) -> Path:
    path = Path(dataset_dir) / MANIFEST_NAME
    with atomic_open(path) as fh:
        fh.write(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(dataset_dir) -> Manifest:
    """The manifest of a prepared dataset; a missing or malformed one raises DataError."""
    path = Path(dataset_dir) / MANIFEST_NAME
    if not path.exists():
        raise DataError(f"no {MANIFEST_NAME} in {dataset_dir}")
    try:
        payload = json.loads(path.read_text())
        return Manifest(
            seed=payload["seed"],
            samples=[ManifestEntry(**e) for e in payload["samples"]],
            skipped=payload.get("skipped", []),
        )
    except (ValueError, LookupError, TypeError) as exc:
        raise DataError(f"manifest {path} is malformed: {exc!r}") from exc
