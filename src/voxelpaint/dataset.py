"""On-disk dataset layout: per-sample directories plus a manifest.

A prepared sample lives in its own directory named by the sample id
("{case}-m{variant}") and holds five files:

    {sid}-t1n.nii.gz             ground truth scan
    {sid}-t1n-voided.nii.gz      scan with the combined region zeroed
    {sid}-mask-healthy.nii.gz    synthesized healthy mask
    {sid}-mask-unhealthy.nii.gz  expert tumor mask
    {sid}-mask.nii.gz            combined mask

``read_sample`` reads the first, third and fourth; the other two derive
from them, and ``infer`` reads them as the challenge's layout gives them.

Scans are stored as float32 and masks as uint8 (0/1), each gzipped as
``nifti`` writes it; the reader also accepts float32 masks, as written by
earlier versions. The variants of one case share their t1n and
mask-unhealthy files byte for byte, and ``prepare`` deflates each once.

The manifest (manifest.json) records the seed, the successful samples,
and any skipped cases with reasons.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

from .errors import DataError
from .masks import TrainingSample, make_training_sample, void_image
from .nifti import (encode_nifti, encode_nifti_mask, read_nifti, read_nifti_mask, write_encoded,
                    write_nifti, write_nifti_mask)
from .util import atomic_open, build_record, concurrently

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


def write_sample(sample_dir, sid: str, sample: TrainingSample, shared: dict | None = None) -> None:
    """Write the five component files, side by side (``util.concurrently``).

    ``shared`` serves one case's variants, whose t1n and mask-unhealthy are
    the same volumes: the first call stores those two files' encoded bytes
    in it, and later calls write the same bytes without deflating again.
    """
    Path(sample_dir).mkdir(parents=True, exist_ok=True)
    path = partial(component_path, sample_dir, sid)
    shared = {} if shared is None else shared

    def write_shared(component, encode, volume):
        if component not in shared:
            shared[component] = encode(volume, path(component))
        write_encoded(shared[component], path(component))

    concurrently(lambda: write_shared("t1n", encode_nifti, sample.t1n),
                 lambda: write_nifti(void_image(sample.t1n, sample.combined), path("t1n-voided")),
                 lambda: write_nifti_mask(sample.healthy, path("mask-healthy")),
                 lambda: write_shared("mask-unhealthy", encode_nifti_mask, sample.unhealthy),
                 lambda: write_nifti_mask(sample.combined, path("mask")))


def sample_dirs(root) -> list[Path]:
    """Every directory under ``root``, sorted: the samples infer and evaluate
    take. A root without one raises FileNotFoundError."""
    dirs = sorted(d for d in Path(root).iterdir() if d.is_dir())
    if not dirs:
        raise FileNotFoundError(f"no sample directories under {root}")
    return dirs


# the role each mask component is read with; scans have none
_MASK_ROLES = {"mask-healthy": "healthy", "mask-unhealthy": "unhealthy", "mask": "combined"}


def component_reads(sample_dir, sid: str, components) -> list:
    """One read call per named component, for ``util.concurrently``: scans
    through ``read_nifti``, masks through ``read_nifti_mask`` with their role.
    A missing file raises FileNotFoundError naming its path."""
    path = partial(component_path, sample_dir, sid)
    return [partial(read_nifti_mask, path(c), _MASK_ROLES[c]) if c in _MASK_ROLES
            else partial(read_nifti, path(c)) for c in components]


def read_sample(sample_dir, sid: str, case_id: str) -> TrainingSample:
    """Read the scan and its two masks, side by side (``util.concurrently``),
    into a sample by ``masks.make_training_sample``, as ``prepare`` builds it.

    A damaged file raises its NiftiError; when several are, the error of
    the first in COMPONENTS order is raised, as a one-by-one read would.
    make_training_sample's DataError is raised naming the sample.
    """
    t1n, healthy, unhealthy = concurrently(
        *component_reads(sample_dir, sid, ("t1n", "mask-healthy", "mask-unhealthy")))
    try:
        return make_training_sample(case_id, t1n, unhealthy, healthy)
    except DataError as exc:
        raise DataError(f"sample {sid}: {exc}") from None


@dataclass
class ManifestEntry:
    """One prepared sample. Its ``directory`` and ``sample_id`` must be plain
    names, so that no entry reaches outside the dataset; either one empty,
    ``.``, ``..`` or holding a path separator raises ValueError."""

    case_id: str
    variant: int
    sample_id: str
    directory: str
    seed: int

    def __post_init__(self):
        for name in (self.directory, self.sample_id):
            if name in ("", ".", "..") or Path(name).name != name:
                raise ValueError(f"sample {self.sample_id!r} in directory {self.directory!r}: "
                                 "each must be a plain name")


@dataclass
class Manifest:
    seed: int
    samples: list[ManifestEntry]
    skipped: list[dict] = field(default_factory=list)


def save_manifest(manifest: Manifest, dataset_dir) -> Path:
    path = Path(dataset_dir) / MANIFEST_NAME
    with atomic_open(path) as fh:
        fh.write(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(dataset_dir) -> Manifest:
    """The manifest of a prepared dataset; a missing or malformed one (by
    ``util.build_record``), or one that lists a sample id twice, raises DataError."""
    path = Path(dataset_dir) / MANIFEST_NAME
    if not path.exists():
        raise DataError(f"no {MANIFEST_NAME} in {dataset_dir}")
    try:
        manifest = build_record(Manifest, json.loads(path.read_text()))
    except ValueError as exc:
        raise DataError(f"manifest {path} is malformed: {exc}") from exc
    repeated = sorted(sid for sid, n in Counter(e.sample_id for e in manifest.samples).items() if n > 1)
    if repeated:
        raise DataError(f"manifest {path} lists sample ids more than once: {repeated}")
    return manifest
