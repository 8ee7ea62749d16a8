"""Benchmark for ribfill: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 35 --trace 0

Run from the repository root.  The library is imported from ``src/`` next
to this directory, so the benchmark measures the tree it sits in.

``--trace 0`` sets the workload up five to fifteen times (``setup_s`` is
the median), then runs units of work (an Adam step, or a case) back to back
for ``--seconds`` and reports the median seconds per unit (``unit_s``) and
the peak resident memory.  ``--trace 1`` sets up once under the tracer,
runs half the time untraced and half traced, and reports per-layer
numbers from the spans plus the tracing overhead between the two halves.
The first unit of each phase is a warm-up and is not part of any median.

Outputs are checked outside the timed region; a failed check or a unit
that raises counts in ``failed``.  The last line of stdout is the result
object; the line before it is the machine record.  Both, with the raw
samples and (when traced) every span, also go to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, traced_package  # noqa: E402
from workloads import NET, WORKLOADS  # noqa: E402

#: set-ups per untraced run: at least MIN, then more until SECONDS are spent
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 15, 1.5

END_TO_END = {"setup_s": "s", "unit_s": "s", "peak_rss_mb": "MB"}

#: per-layer metrics that are the median inclusive ms of one call
CALL_MS = (
    "net.forward", "net.backward", "net.adam_step", "net.save_checkpoint", "net.load_checkpoint",
    "metrics.edt_sq", "metrics.directed_hausdorff", "metrics.dsc",
    "phantom.generate_phantom", "defects.prepare_case", "defects.normalized_working_ct",
    "nifti.write_volume", "nifti.read_volume", "manifest.write_manifest", "manifest.read_manifest",
)
LOSS_SPANS = ("losses.rib_loss", "losses.loss_gradient")
STEP_SPANS = ("net.forward", "net.backward", "net.adam_step", *LOSS_SPANS)
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in CALL_MS},
    "losses.ms": "ms",
    "train.self_ms": "ms",
    "net.conv_gflop_fwd": "GFLOP",
    "net.conv_gflop_bwd": "GFLOP",
    "net.forward_gflops": "GFLOP/s",
    "net.backward_gflops": "GFLOP/s",
    "blas.dgemm_gflops": "GFLOP/s",
    "net.checkpoint_bytes": "bytes",
    "metrics.crop_voxels": "count",
    "metrics.surface_voxels": "count",
    "nifti.bytes_written": "bytes",
    "nifti.bytes_read": "bytes",
    "unit_s_tail": "s",
    "unit_s_tail_pct": "%",
    "unit_samples": "count",
    "trace.overhead_frac": "frac",
    "trace.cover_frac": "frac",
}


# ---------------------------------------------------------------------------
# the library and the machine


def import_library():
    """ribfill from this checkout's ``src/``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    rf = importlib.import_module("ribfill")
    if not Path(rf.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ribfill resolved to {rf.__file__}, outside {src}")
    return rf


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read from files; None outside git."""
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


def machine_record(rf, args) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ribfill": rf.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


def dgemm_gflops(n: int = 512, reps: int = 15) -> float:
    """Reference rate: median of ``reps`` float64 n x n matrix products."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    c = np.empty((n, n))
    times = []
    for _ in range(reps + 10):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / median(times[10:]) / 1e9  # the first ten wake the BLAS threads


def conv_gflop(config, dims: tuple[int, int, int]) -> tuple[float, float]:
    """Computed conv GFLOP of one forward and one backward pass.

    Each layer runs at the grid level its name implies: ``enc<i>`` and
    ``dec<i>.merge`` at level i, ``dec<i>.reduce`` at level i+1 (before the
    upsample), ``bott`` at the deepest level, the 1x1x1 ``head`` at level 0.
    The backward is a weight gradient for every layer plus an input
    gradient for every layer but the first, whose input needs none.
    """
    w, h, d = dims
    fwd = first = 0.0
    for name, c_in, c_out in config.layer_plan():
        kind = name.split(".")[0]
        if kind == "bott":
            level = config.depth
        elif kind == "head":
            level = 0
        else:
            level = int(kind[3:]) + (1 if name.endswith(".reduce") else 0)
        taps = 1 if kind == "head" else 27
        flops = 2.0 * taps * c_in * c_out * (w >> level) * (h >> level) * (d >> level)
        fwd += flops
        first = first or flops
    return fwd / 1e9, (2.0 * fwd - first) / 1e9


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    With n sorted samples that is rank n - 10 (1-based), i.e. percentile
    100 * (n - 10) / n.  Runs with ten samples or fewer report the maximum
    at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# running


class Runner:
    def __init__(self, workload) -> None:
        self.w = workload
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return True, fn(*args)
        except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return False, None

    def phase(self, seconds: float, run_unit, limit: int | None = None, tracer: Tracer | None = None):
        """Units back to back for ``seconds``; returns their wall times.

        The first unit is a warm-up and is not returned.  At least three
        units run, however long they take, and never more than ``limit``.
        """
        times: list[float] = []
        spent = 0.0  # unit time only; checks do not eat into the budget
        i = 0
        while (spent < seconds or i < 3) and (limit is None or i < limit):
            t0 = time.perf_counter()
            if tracer is None:
                ok, result = self.attempt(f"unit {i}", run_unit, i)
            else:
                with traced_package(tracer, self.w.rf), tracer.span("unit"):
                    ok, result = self.attempt(f"unit {i}", run_unit, i)
            dt = time.perf_counter() - t0
            spent += dt
            if ok:
                err = self.w.check(i, result)
                if err is not None:
                    self.failures.append(err)
                elif i > 0:
                    times.append(dt)
            i += 1
        return times

    def final(self, traced: bool) -> None:
        for what, ok in self.w.final_checks(traced):
            self.attempted += 1
            if not ok:
                self.failures.append(f"check failed: {what}")


def run(rf, args) -> tuple[dict, dict]:
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        w = WORKLOADS[args.workload](rf, args.seed, work)
        runner = Runner(w)
        if args.trace:
            metrics, extra = traced_run(rf, w, runner, args.seconds)
        else:
            metrics, extra = plain_run(w, runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not runner.failures,
        "attempted": max(1, runner.attempted),
        "failed": min(len(runner.failures), max(1, runner.attempted)),
        "metrics": metrics,
    }
    extra["failures"] = runner.failures
    return result, extra


def plain_run(w, runner: Runner, seconds: float):
    setups: list[float] = []
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)
    units = runner.phase(seconds, w.unit)
    if runner.attempt("finish", w.finish)[0]:
        runner.final(traced=False)
    values = {
        "setup_s": median(setups),
        "unit_s": median(units) if units else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, {"setup_samples": setups, "unit_samples": units}


def traced_run(rf, w, runner: Runner, seconds: float):
    tracer = Tracer()
    with traced_package(tracer, rf), tracer.span("setup"):
        w.setup()
    plain = runner.phase(seconds / 2, w.unit)
    w.begin_traced()
    traced = runner.phase(seconds / 2, w.traced_unit, w.traced_limit(), tracer)
    with traced_package(tracer, rf), tracer.span("finish"):
        finished = runner.attempt("finish", w.finish)[0]
    if finished:
        runner.final(traced=True)

    kids = tracer.children()
    units = tracer.indices("unit")[1:]  # the first is the warm-up
    dur = {u: tracer.spans[u][2] - tracer.spans[u][1] for u in units}

    def per_unit(fn) -> float:
        return 1000.0 * median(fn(u) for u in units) if units else 0.0

    v: dict[str, float] = {f"{name}_ms": tracer.median_ms(name) for name in CALL_MS}
    v["losses.ms"] = per_unit(lambda u: tracer.child_time(u, kids, LOSS_SPANS))
    if w.runs_backward:
        v["train.self_ms"] = per_unit(lambda u: dur[u] - tracer.child_time(u, kids, STEP_SPANS))
    else:
        v["train.self_ms"] = 0.0
    fwd = bwd = 0.0
    if w.net_dims is not None:
        fwd, bwd = conv_gflop(rf.NetConfig(**NET), w.net_dims)
        bwd = bwd if w.runs_backward else 0.0
    v["net.conv_gflop_fwd"], v["net.conv_gflop_bwd"] = fwd, bwd
    v["net.forward_gflops"] = fwd / (v["net.forward_ms"] / 1000.0) if v["net.forward_ms"] else 0.0
    v["net.backward_gflops"] = bwd / (v["net.backward_ms"] / 1000.0) if v["net.backward_ms"] and bwd else 0.0
    v["blas.dgemm_gflops"] = dgemm_gflops()
    for name in ("net.checkpoint_bytes", "metrics.crop_voxels", "metrics.surface_voxels",
                 "nifti.bytes_written", "nifti.bytes_read"):
        v[name] = float(median(w.counts[name])) if name in w.counts else 0.0
    v["unit_s_tail"], v["unit_s_tail_pct"] = tail(plain) if plain else (float("nan"), 0.0)
    v["unit_samples"] = float(len(plain))
    traced_s = [dur[u] for u in units]
    v["trace.overhead_frac"] = median(traced_s) / median(plain) - 1.0 if plain and traced_s else float("nan")
    v["trace.cover_frac"] = median(tracer.child_time(u, kids) / dur[u] for u in units) if units else 0.0
    metrics = {k: {"value": v[k], "unit": unit} for k, unit in PER_LAYER.items()}
    extra = {
        "unit_samples": plain,
        "traced_unit_samples": traced_s,
        "span_calls": {name: len(tracer.durations(name)) for name in CALL_MS},
        "spans": tracer.records(),
    }
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        rf = import_library()
    except ImportError as exc:
        print(f"error: cannot import the library under test: {exc}", file=sys.stderr)
        return 2

    record = machine_record(rf, args)
    result, extra = run(rf, args)
    record["failed_frac"] = result["failed"] / result["attempted"]
    record["samples"] = {k: len(v) for k, v in extra.items() if k.endswith("_samples")}
    record["samples"].update(extra.get("span_calls", {}))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"record": record, "result": result, **extra}, indent=1) + "\n")
    for failure in extra["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
