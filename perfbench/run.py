"""voxelpaint benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 5 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a traced run. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

# BLAS reads these when numpy loads, so they are set before any import of numpy
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_trace"    # span files of --trace 1 runs, kept

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "train_val_loss": "loss",
    "prepare_variants_per_s": "1/s",
    "infer_cases_per_s": "1/s",
    "infer_mask_coverage": "ratio",
    "evaluate_cases_per_s": "1/s",
    "peak_traced_mib": "MiB",
}

# per-layer figures that are counts computed from shapes, sizes and calls:
# they must repeat exactly between two passes over the same inputs
COUNTS = ("autodiff.conv3d.calls", "autodiff.conv3d.macs", "autodiff.conv3d.bytes",
          "autodiff.elementwise.calls", "autodiff.nodes_per_step", "optim.adam.params",
          "trainer.infer_case.forwards", "checkpoint.save.calls", "checkpoint.save.bytes",
          "nifti.read.calls", "nifti.write.calls", "nifti.write.raw_bytes",
          "nifti.write.gz_bytes", "masks.sample_healthy_mask.calls",
          "masks.placement_attempts_per_variant")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("peak_mib"):
        return "MiB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's .git, read from its files; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_end_to_end(bench, seconds: float) -> dict[str, float]:
    from spans import Tracer
    from workloads import memory_cycle

    bench.check_perfect_prediction()
    bench.window()
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycles.append(bench.cycle(Tracer(), timed=True, full=False, between=bench.window))
    memory = memory_cycle(bench, Tracer(memory=True), between=bench.window)
    for later in cycles[1:] + [memory]:
        bench.checks.expect(later.matches(cycles[0]), "outputs differ between passes over the same inputs")

    w = bench.w
    variants = w.cases * w.variants
    cases = min(w.infer_samples, variants)
    median = {name: statistics.median(runs) for name, runs in bench.runs.items()}
    covered, masked = cycles[0].coverage_base
    print(f"infer_mask_coverage base: {covered} of {masked} masked voxels predicted")
    return {
        "setup_s": median["setup"],
        "prepare_variants_per_s": variants / median["prepare"],
        "train_samples_per_s": w.train["epochs"] * variants * (w.train["folds"] - 1) / median["train"],
        "train_val_loss": statistics.median(c.val_loss for c in cycles),
        "infer_cases_per_s": cases / median["infer"],
        "infer_mask_coverage": covered / masked,
        "evaluate_cases_per_s": cases / median["evaluate"],
        "peak_traced_mib": max(memory.peaks.values()),
    }


def run_traced(bench) -> dict[str, float]:
    from spans import Tracer
    from workloads import memory_cycle

    bench.setup()
    bench.check_perfect_prediction()
    base = bench.cycle(Tracer())
    tracer = Tracer()
    tracer.install()
    try:
        traced = bench.cycle(tracer)
    finally:
        tracer.remove()
    memory_tracer = Tracer(memory=True)
    memory_tracer.install()
    try:
        memory = memory_cycle(bench, memory_tracer)
    finally:
        memory_tracer.remove()
    bench.checks.expect(traced.matches(base) and memory.matches(base),
                        "traced outputs differ from untraced outputs")
    TRACE_DIR.mkdir(exist_ok=True)
    spans_file = TRACE_DIR / f"{bench.w.name}-seed{bench.seed}.jsonl"
    tracer.dump(spans_file)
    print(f"spans of the traced pass: {spans_file}")
    metrics = tracer.summary()
    memory_metrics = memory_tracer.summary()
    differing = [k for k in COUNTS if metrics[k] != memory_metrics[k]]
    bench.checks.expect(not differing, f"computed counts differ between passes: {differing}")
    for key in ("autodiff.conv3d.peak_mib", "unet.forward.peak_mib"):
        metrics[key] = memory_metrics[key]
    metrics["trace.overhead_ratio"] = sum(traced.seconds.values()) / sum(base.seconds.values())
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "voxelpaint" / "__init__.py").is_file():
        print(f"error: no voxelpaint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    bench = Bench(WORKLOADS[args.workload], args.seed, WORK)
    metrics: dict[str, float] = {}
    try:
        metrics = run_traced(bench) if args.trace else run_end_to_end(bench, args.seconds)
    except Exception as exc:  # a crashed command or check is a failed run, reported below
        bench.checks.expect(False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    checks = bench.checks
    failed = len(checks.failures)
    if args.trace:
        metrics["ops_failed_ratio"] = failed / checks.attempted
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        units = END_TO_END_UNITS
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(f"ops_failed_ratio base: {failed} of {checks.attempted} checks failed")
    for name in sorted(metrics):
        print(f"{name:48s} {metrics[name]:16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
