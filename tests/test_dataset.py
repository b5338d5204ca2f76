"""On-disk sample layout and the dataset manifest."""

import numpy as np
import pytest

from conftest import build_case
from voxelpaint.dataset import (
    Manifest,
    ManifestEntry,
    component_path,
    load_manifest,
    read_sample,
    sample_id,
    save_manifest,
    write_sample,
)
from voxelpaint.errors import DataError
from voxelpaint.masks import make_training_sample


def test_sample_id_and_component_paths(tmp_path):
    sid = sample_id("sub-001", 3)
    assert sid == "sub-001-m3"
    path = component_path(tmp_path, sid, "t1n-voided")
    assert path.name == "sub-001-m3-t1n-voided.nii.gz"
    with pytest.raises(DataError):
        component_path(tmp_path, sid, "t2w")


def test_sample_round_trip(tmp_path):
    t1n, _, tumor, healthy = build_case(5000)
    sample = make_training_sample("caseD", t1n, tumor, healthy)
    sid = sample_id("caseD", 0)
    write_sample(tmp_path, sid, sample)

    expected = {f"{sid}-{c}.nii.gz" for c in
                ("t1n", "t1n-voided", "mask-healthy", "mask-unhealthy", "mask")}
    assert {p.name for p in tmp_path.iterdir()} == expected

    back = read_sample(tmp_path, sid, case_id="caseD")
    assert back.case_id == "caseD"
    assert np.array_equal(back.t1n.voxels, sample.t1n.voxels)
    assert np.array_equal(back.healthy.bits, sample.healthy.bits)
    assert np.array_equal(back.unhealthy.bits, sample.unhealthy.bits)
    assert np.array_equal(back.combined.bits, sample.combined.bits)
    assert back.healthy.role == "healthy"
    assert back.combined.role == "combined"


def test_manifest_round_trip(tmp_path):
    manifest = Manifest(seed=99, samples=[])
    for case in ("caseB", "caseA"):
        for variant in range(2):
            manifest.samples.append(ManifestEntry(
                case_id=case, variant=variant,
                sample_id=sample_id(case, variant),
                directory=case, seed=99 + variant))
    manifest.skipped.append({"case_id": "caseC", "reason": "no legal mask placement"})
    save_manifest(manifest, tmp_path)

    back = load_manifest(tmp_path)
    assert back.seed == 99
    assert len(back.samples) == 4
    assert back.samples[0].sample_id == "caseB-m0"
    assert back.skipped[0]["case_id"] == "caseC"


def test_load_manifest_missing(tmp_path):
    with pytest.raises(DataError):
        load_manifest(tmp_path)
