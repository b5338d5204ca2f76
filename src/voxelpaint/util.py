"""Seed derivation for reproducible per-scope RNG streams, atomic writes,
the one builder of records read from JSON, the thread pool that runs
independent calls side by side, the count of workers that the pool
may keep busy beside BLAS's own threads, and the accumulating GEMM of the
OpenBLAS that numpy bundles.

Python's builtin hash() is salted per process, so seeds are derived from
sha256 instead; the same parts always map to the same stream.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from the given parts (ints, strings, ...)."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(*parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp sibling of path for writing; a clean exit moves it onto path.

    If the block raises, the file already at path stays as it was and the
    temp file is removed, so readers never see a half-written output. A
    directory at path raises ConfigError naming the output: it is the
    output that is misplaced, not an input that is missing.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except IsADirectoryError:
            raise ConfigError(f"output {path} is a directory") from None
    finally:
        tmp.unlink(missing_ok=True)


def build_record(cls, obj):
    """The dataclass ``cls`` built from the JSON object ``obj`` by its type hints.

    A non-object, an unknown key, a missing key without a default, or a value
    its hint refuses raises ValueError naming the key. ``str`` takes a string,
    ``int`` an int, whole float or int string, ``float`` a finite number or
    numeric string, never a bool. ``tuple[...]`` takes a list of its length,
    ``list[X]`` any list, each element by its hint; a dataclass an object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{obj!r} is not an object")
    hints, values = get_type_hints(cls), {}
    unknown = sorted(obj.keys() - hints.keys())
    if unknown:
        raise ValueError(f"key {unknown[0]!r} is unknown")
    for f in fields(cls):
        if f.name in obj:
            values[f.name] = _convert(hints[f.name], obj[f.name], f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"key {f.name!r} is missing")
    return cls(**values)


def _convert(kind, value, key: str):
    if is_dataclass(kind) and isinstance(value, dict):
        return build_record(kind, value)
    origin, args = get_origin(kind), get_args(kind)
    if origin in (list, tuple) and isinstance(value, list):
        args = args * len(value) if origin is list else args
        if len(args) == len(value):
            return origin(_convert(a, v, key) for a, v in zip(args, value))
    elif isinstance(value, (str, dict)) and kind is type(value):
        return value
    elif kind in (int, float) and not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            number = kind(value)
            whole = number == value or isinstance(value, str)   # a string int() parses is whole
            if whole if kind is int else math.isfinite(number):
                return number
    raise ValueError(f"key {key!r}: {value!r} is not a valid {kind.__name__}")


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_in_worker = threading.local()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# thread-count getters of scipy-openblas (64- and 32-bit integers) and plain OpenBLAS
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")
# CBLAS enum values: row-major order, no transpose
_ROW_MAJOR, _NO_TRANS = ctypes.c_int(101), ctypes.c_int(111)


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that numpy's wheel bundles (``numpy.libs``), or None;
    opening the library numpy loaded reuses its handle."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        with contextlib.suppress(OSError):
            return ctypes.CDLL(str(path))
    return None


def _blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, or None if none answers."""
    lib = _openblas()
    for name in _BLAS_THREAD_GETTERS:
        if hasattr(lib, name):
            getter = getattr(lib, name)
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter()
    return None


@functools.cache
def gemm(dtype: np.dtype):
    """``C += A @ B`` by numpy's bundled OpenBLAS (``cblas_?gemm``, alpha =
    beta = 1, row-major, no transposes) for native float32 or float64; None
    for other dtypes or where numpy bundles no ILP64 scipy-openblas.

    Called as ``gemm(m, n, k, a, lda, b, ldb, c, ldc)``, with A m x k, B k x n
    and C m x n each given by the address of its first element and its row
    stride in elements; sizes as ``ctypes.c_int64`` skip a conversion per
    call. Nothing is checked: the caller keeps the rows inside live arrays.
    ctypes releases the interpreter lock for the call.
    """
    name = {np.dtype(np.float32): "scipy_cblas_sgemm64_",
            np.dtype(np.float64): "scipy_cblas_dgemm64_"}.get(np.dtype(dtype), "")
    lib = _openblas()
    if not hasattr(lib, name):
        return None
    func, scalar = getattr(lib, name), np.ctypeslib.as_ctypes_type(dtype)
    size, ptr = ctypes.c_int64, ctypes.c_void_p
    func.argtypes = [ctypes.c_int] * 3 + [size] * 3 + [scalar, ptr, size, ptr, size, scalar, ptr, size]
    func.restype = None
    one = scalar(1.0)

    def accumulate(m, n, k, a, lda, b, ldb, c, ldc):
        func(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, m, n, k, one, a, lda, b, ldb, one, c, ldc)

    return accumulate


@functools.cache
def free_workers() -> int:
    """Calls the pool may run side by side beside BLAS's own threads, read once
    per process: ``usable CPUs // BLAS threads``, at least 1, and 1 when the
    BLAS thread count cannot be read (BLAS is then taken to use every core).
    With BLAS on both of two cores, forcing the conv walk's split anyway made a
    48^3 base-8 train step 12-32 % slower in 2 of 5 process pairs."""
    threads = _blas_threads()
    return max(1, _usable_cpus() // threads) if threads else 1


def _mark_worker() -> None:
    _in_worker.active = True


def concurrently(*calls) -> list:
    """``[call() for call in calls]``, the calls run side by side on the process's pool.

    The pool has one thread per CPU the process may use; threads pay off
    because zlib and BLAS release the interpreter lock. It is built on first
    use and kept for the process, since building one per call cost more than
    it saved on small scans. No more calls run at once than were passed, so
    the caller bounds the memory in flight: at most five files, a sample's,
    or one part of a conv walk per ``free_workers``.
    Every call finishes before this returns. Results come back in call
    order, and if calls raise, the exception of the first failing call in
    that order is raised. A call made from inside a pool thread submits its
    calls too, then runs on its own thread each one that no idle pool thread
    has taken, and waits only for calls already running; so nested use
    cannot deadlock, and a file's gzip members spread over idle threads.
    """
    global _pool
    if len(calls) == 1:   # nothing to run beside it: no pool round trip
        return [calls[0]()]
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="voxelpaint",
                                       initializer=_mark_worker)
    futures = [_pool.submit(call) for call in calls]
    if getattr(_in_worker, "active", False):
        # cancel() succeeds only on a call that no thread has started
        futures = [_run(call) if f.cancel() else f for call, f in zip(calls, futures)]
    wait(futures)
    return [f.result() for f in futures]


def _run(call) -> Future:
    """``call()`` run on this thread, its result or exception in a done Future."""
    done = Future()
    try:
        done.set_result(call())
    except BaseException as exc:   # as the pool's own threads catch it
        done.set_exception(exc)
    return done
