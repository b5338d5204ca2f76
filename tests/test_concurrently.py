"""util.concurrently: call order, the first failure, nested calls; and
util.free_workers, the side-by-side calls that leave BLAS its cores."""

import os
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import build_case, pool_of
from voxelpaint import nifti, util
from voxelpaint.dataset import component_path, read_sample, sample_id, write_sample
from voxelpaint.errors import NiftiError
from voxelpaint.masks import make_training_sample
from voxelpaint.nifti import read_nifti, write_nifti
from voxelpaint.util import concurrently
from voxelpaint.volume import Volume


def _in_thread(fn, timeout=60.0):
    """fn() on a thread of its own; fails the test if it has not returned by timeout."""
    out = {}
    worker = threading.Thread(target=lambda: out.setdefault("value", fn()), daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"no return within {timeout} s"
    return out["value"]


def test_results_come_back_in_call_order():
    def square(i):
        if i % 7 == 0:
            time.sleep(0.002)   # finishes after calls behind it
        return i * i

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often, to shuffle them further
    try:
        got = _in_thread(lambda: concurrently(*(partial(square, i) for i in range(200))))
    finally:
        sys.setswitchinterval(previous)
    assert got == [i * i for i in range(200)]


def test_first_failing_call_raises():
    def fail(i):
        if i == 1:
            time.sleep(0.05)   # finishes after call 3 has failed
            raise KeyError("item 1")
        if i == 3:
            raise ValueError("item 3")
        return i

    with pytest.raises(KeyError, match="item 1"):
        concurrently(*(partial(fail, i) for i in range(5)))


def test_read_sample_raises_the_first_damaged_component(tmp_path):
    t1n, _, tumor, healthy = build_case(5001)
    sid = sample_id("caseE", 0)
    write_sample(tmp_path, sid, make_training_sample("caseE", t1n, tumor, healthy))
    for component in ("mask-healthy", "mask-unhealthy"):
        path = component_path(tmp_path, sid, component)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
    with pytest.raises(NiftiError) as info:
        read_sample(tmp_path, sid, "caseE")
    assert info.value.code == "bad_gzip"
    assert str(component_path(tmp_path, sid, "mask-healthy")) in str(info.value)


def test_nested_call_returns():
    def outer(i):
        return sum(concurrently(*(partial(int.__mul__, i, j) for j in range(4))))

    got = _in_thread(lambda: concurrently(*(partial(outer, i) for i in range(16))))
    assert got == [6 * i for i in range(16)]


@pytest.mark.parametrize("blas,cpus,workers", [(1, 2, 2), (2, 2, 1), (None, 2, 1), (1, 1, 1)],
                         ids=["pinned_blas", "blas_on_every_core", "unknown_blas", "one_cpu"])
def test_free_workers_are_the_cpus_blas_leaves(monkeypatch, blas, cpus, workers):
    monkeypatch.setattr(util, "_blas_threads", lambda: blas)
    monkeypatch.setattr(util, "_usable_cpus", lambda: cpus)
    assert util.free_workers.__wrapped__() == workers


@pytest.mark.skipif(not list((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")),
                    reason="numpy bundles no OpenBLAS here")
def test_blas_threads_reads_the_bundled_openblas():
    code = "from voxelpaint.util import _blas_threads; print(_blas_threads())"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "1"


@pytest.mark.skipif(not list((Path(np.__file__).parent.parent / "numpy.libs").glob("*scipy_openblas*")),
                    reason="numpy bundles no scipy-openblas here")
def test_gemm_binds_the_bundled_openblas():
    # C += A @ B on a 2x3 by 3x4 product whose rows sit in wider arrays, for both dtypes
    code = """if True:
        import numpy as np
        from voxelpaint import nifti, util
        print(util._openblas()._name)
        for dtype in (np.float32, np.float64):
            a, b = np.arange(10, dtype=dtype).reshape(2, 5), np.arange(18, dtype=dtype).reshape(3, 6)
            c = np.ones((2, 7), dtype=dtype)
            util.gemm(np.dtype(dtype))(2, 4, 3, a.ctypes.data, 5, b.ctypes.data, 6, c.ctypes.data, 7)
            want = np.ones((2, 7)); want[:, :4] += a[:, :3].astype(np.float64) @ b[:, :4]
            print(np.array_equal(c, want))
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    library, *checks = out.stdout.split()
    assert Path(library).parent.name == "numpy.libs" and "scipy_openblas" in Path(library).name
    assert checks == ["True", "True"]


def test_gemm_is_none_for_other_dtypes():
    assert util.gemm(np.dtype(np.float16)) is None
    assert util.gemm(np.dtype(">f4")) is None


def test_nested_calls_run_side_by_side():
    # two calls of a nested call meet at a barrier, so each must have a
    # thread of its own: the nesting pool thread and an idle one
    meet = threading.Barrier(2, timeout=10)

    def outer():
        return concurrently(meet.wait, meet.wait)

    with pool_of(2):
        got = _in_thread(lambda: concurrently(outer, lambda: None))
    assert sorted(got[0]) == [0, 1]


def test_files_and_their_members_read_side_by_side_on_many_threads(tmp_path, monkeypatch):
    # six files read side by side, each inflating its members side by side
    # into one buffer, on more threads than cores and with frequent thread
    # switches: a member lost or put in another's place changes the bytes
    monkeypatch.setattr(nifti, "MEMBER", 4096)
    rng = np.random.default_rng(9)
    volumes = [Volume(rng.integers(0, 50, (24, 20, 16)).astype(np.float32)) for _ in range(6)]
    paths = [tmp_path / f"v{i}.nii.gz" for i in range(6)]
    for volume, path in zip(volumes, paths):
        write_nifti(volume, path)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pool_of(8):
            got = _in_thread(lambda: concurrently(*(partial(read_nifti, p) for p in paths)))
    finally:
        sys.setswitchinterval(previous)
    assert [g.voxels.tobytes() for g in got] == [v.voxels.tobytes() for v in volumes]
