"""Outputs are written atomically: a failure mid-write keeps the old file."""

import builtins
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from voxelpaint import cli, util
from voxelpaint.checkpoint import save_checkpoint
from voxelpaint.dataset import Manifest, ManifestEntry, save_manifest
from voxelpaint.metrics import CaseMetrics, aggregate_stats, write_cases_csv
from voxelpaint.nifti import write_nifti, write_nifti_mask
from voxelpaint.unet import UNetConfig, build_unet
from voxelpaint.volume import MaskVolume, Volume


class _FailingFile:
    """Writes half of the first chunk it is given, then raises."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise OSError("injected write failure")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _scan(value):
    return Volume(np.full((4, 5, 6), value, np.float32))


def _model(seed):
    return build_unet(UNetConfig(base_channels=2), np.random.default_rng(seed))


def _case(ssim):
    return CaseMetrics(case_id="c0", ssim=ssim, psnr=30.0, mse=0.1, rmse=0.3, region_voxels=9)


def _report(v, path):
    # the summary lives elsewhere, so path's directory holds only the report
    with tempfile.TemporaryDirectory() as tmp:
        summary = Path(tmp) / "summary.json"
        summary.write_text(json.dumps(asdict(aggregate_stats([_case(0.5 + 0.1 * v)]))))
        cli.cmd_report({"summary": str(summary), "out_dir": str(path.parent)})


# (file name, writer of version `v` of that file at the given path)
WRITERS = [
    ("v.nii.gz", lambda v, path: write_nifti(_scan(v), path)),
    ("v.nii", lambda v, path: write_nifti(_scan(v), path)),
    ("m.nii.gz", lambda v, path: write_nifti_mask(
        MaskVolume(np.arange(120).reshape(4, 5, 6) % (v + 2) == 0), path)),
    ("fold0-best.vxpt", lambda v, path: save_checkpoint(_model(v), {"epoch": v}, path)),
    ("manifest.json", lambda v, path: save_manifest(
        Manifest(seed=v, samples=[ManifestEntry("c0", 0, "c0-m0", "c0-m0", v)]), path.parent)),
    ("cases.csv", lambda v, path: write_cases_csv([_case(0.5 + 0.1 * v)], path)),
    ("resolved_config.json", lambda v, path: cli._echo_config({"seed": v, "out_dir": str(path.parent)})),
    ("report.txt", _report),
]


@pytest.mark.parametrize("name,write", WRITERS, ids=[n for n, _ in WRITERS])
def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, name, write):
    path = tmp_path / name
    write(1, path)
    old = path.read_bytes()

    monkeypatch.setattr(util, "open",
                        lambda *a, **k: _FailingFile(builtins.open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="injected"):
        write(2, path)
    monkeypatch.undo()

    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [name]
    write(2, path)
    assert path.read_bytes() != old


def test_atomic_open_replaces_on_success(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with util.atomic_open(path) as fh:
        fh.write("new\n")
        assert path.read_text() == "old\n"   # nothing visible before the block ends
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
