"""Seeded single-process benchmark of ttembed.

Run from the repository root:

    python3 bench/run.py --workload lookup-zipf --seed 1 --seconds 25 --trace 0

Workloads: lookup-zipf, train-uniform, train-ring-zipf, compress (see
bench/README.md).  Each is a closed loop with one client: the next step is
issued only after the previous one returns.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it wraps ttembed's public
functions and reports per-layer metrics instead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it holds the details (machine, seeds, checksums,
sample counts).  The package is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

# BLAS runs single-threaded so that timings do not depend on what else
# shares the machine's cores; it reads the count once, when numpy loads it
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from tracing import Profile, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
DEFAULT_SEED = 1
# never used while the workloads were tuned; confirm claims on it too
HELD_OUT_SEED = 7
SETUP_REPEATS = 11
MODULES = ("indexing", "linalg", "planning", "ttmatrix", "trmatrix", "layers", "fileformat")

# name -> (unit, better); BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": ("s", "lower"),
    "rows_per_s": ("rows/s", "higher"),
    "step_ms_p90": ("ms", "lower"),
    "final_loss": ("MSE", "lower"),
    "recon_rel_err": ("ratio", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
PER_LAYER = {
    "indexing.to_multi.calls": ("calls/step", "lower"),
    "indexing.to_multi.self_ms": ("ms/step", "lower"),
    "ttmatrix.row.calls": ("calls/step", "lower"),
    "ttmatrix.row.self_ms": ("ms/step", "lower"),
    "ttmatrix.row.flops": ("calc_flop/step", "lower"),
    "ttmatrix.materialize.self_ms": ("ms/step", "lower"),
    "ttmatrix.tt_svd.self_ms": ("ms/step", "lower"),
    "trmatrix.row.calls": ("calls/step", "lower"),
    "trmatrix.row.self_ms": ("ms/step", "lower"),
    "layers.forward.self_ms": ("ms/step", "lower"),
    "layers.backward.self_ms": ("ms/step", "lower"),
    "layers.backward.rows": ("rows/step", "lower"),
    "layers.apply_gradients.self_ms": ("ms/step", "lower"),
    "linalg.svd.calls": ("calls/step", "lower"),
    "linalg.svd.self_ms": ("ms/step", "lower"),
    "linalg.svd.unfold1_ms": ("ms/step", "lower"),
    "linalg.svd.unfold2_ms": ("ms/step", "lower"),
    "fileformat.load_tt.ms": ("ms/call", "lower"),
    "fileformat.save_tt.ms": ("ms/call", "lower"),
    "fileformat.load_dmat.ms": ("ms/call", "lower"),
    "fileformat.bytes_read": ("B/call", "lower"),
    "fileformat.bytes_written": ("B/call", "lower"),
    "stream.dup_share": ("fraction", "higher"),
    "stream.unique_rows": ("rows/step", "lower"),
    "baseline.dense_gather_ms": ("ms/step", "lower"),
    "harness.check_ms": ("ms/step", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
}
# reported where a workload fits nothing (lookup-zipf): the result line
# carries every end-to-end metric, and no metric may read 0
NOT_FITTED = 1.0


def import_fresh():
    """Import ttembed anew from src/ (dropping any loaded copy) and return
    its modules; repeated calls let set-up time include the import."""
    for name in [m for m in sys.modules if m == "ttembed" or m.startswith("ttembed.")]:
        del sys.modules[name]
    package = importlib.import_module("ttembed")
    if not Path(package.__file__).resolve().is_relative_to(SRC_DIR):
        raise ImportError(f"ttembed was imported from {package.__file__}, not {SRC_DIR}")
    return SimpleNamespace(**{m: importlib.import_module(f"ttembed.{m}") for m in MODULES})


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu_max = "unavailable"
    for files in (["/sys/fs/cgroup/cpu.max"],
                  ["/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"]):
        try:
            cpu_max = " ".join(Path(f).read_text().strip() for f in files)
            break
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def measure_setup(workload, tracer, profile):
    """Median over SETUP_REPEATS of (fresh import + model build or load)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        mods = import_fresh()
        if tracer:
            tracer.install(mods)
            tracer.enabled = True
        workload.setup(mods)
        samples.append(perf_counter() - t0)
        if tracer:
            tracer.enabled = False
            profile.add(tracer.drain())
    return median(samples)


def run_loop(runners, seconds, tracer=None, profile=None):
    """Closed loop for `seconds`, and at least one episode per runner.

    Episodes cycle through `runners`.  The traced run passes the wrapped
    workload and then a copy set up on unwrapped modules, so untraced steps
    are timed in the same stretches of host speed as traced ones, and their
    checksums must match.  Spans are recorded in the first runner's episodes
    only.  Returns step times per runner, the failure count, the checksum of
    every clean episode (all must equal the first), the fitted quality after
    the first episode, and the harness timings of the first runner's steps.
    """
    episode = runners[0].episode
    times = [[] for _ in runners]
    check_s, gather_s, digests = [], [], []
    failed = 0
    quality = None
    start = perf_counter()
    k = 0
    while k < episode * len(runners) or perf_counter() - start < seconds:
        j = k % episode
        if j == 0:
            r = k // episode % len(runners)
            workload, traced = runners[r], tracer is not None and r == 0
            workload.reset()
            digest, clean = hashlib.sha256(), True
        if traced:
            tracer.step = k + 1
            tracer.enabled = True
        t0 = perf_counter()
        try:
            out = workload.step(j)
            ok = True
        except Exception:
            traceback.print_exc()
            ok = False
        times[r].append(perf_counter() - t0)
        if traced:
            tracer.enabled = False
            profile.add(tracer.drain())
            g0 = perf_counter()
            workload.dense_gather(j)
            gather_s.append(perf_counter() - g0)
        c0 = perf_counter()
        ok = ok and workload.check(j, out)
        if ok:
            workload.digest(digest, j, out)
        last = j == episode - 1
        if last and ok and clean:
            workload.end_episode(digest)
            digests.append((r, digest.hexdigest()))
            ok = digests[-1][1] == digests[0][1]  # every episode repeats the first exactly
        if r == 0:
            check_s.append(perf_counter() - c0)
        if last and ok and clean and len(digests) == 1:
            quality = workload.quality()
        clean = clean and ok
        failed += not ok
        k += 1
    return SimpleNamespace(times=times, attempted=k, failed=failed, digests=digests,
                           quality=quality, check_s=check_s, gather_s=gather_s)


def percentile_ms(times, q) -> float:
    return float(np.percentile(np.asarray(times), q) * 1e3)


def end_to_end_metrics(workload, setup_s, loop) -> dict:
    fitted = loop.quality or (NOT_FITTED, NOT_FITTED)
    # Identical steps run up to 1.7x faster while the host runs the core
    # fast, in stretches of up to a few seconds, and the share of such time
    # swings between runs; the median and the mean follow that share.  The
    # slow state is the common one, so the 90th percentile is the steady one.
    step_ms_p90 = percentile_ms(loop.times[0], 90)
    return {
        "setup_s": setup_s,
        "rows_per_s": workload.rows_per_step * 1e3 / step_ms_p90,
        "step_ms_p90": step_ms_p90,
        "final_loss": fitted[0],
        "recon_rel_err": fitted[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(workload, loop, setup_profile, profile) -> dict:
    traced, untraced = loop.times
    steps = len(traced)

    def per_step(table, name, scale=1.0):
        return table.get(name, 0) * scale / steps

    def per_call_ms(name):
        calls = profile.calls.get(name, 0) + setup_profile.calls.get(name, 0)
        total = profile.total_s.get(name, 0.0) + setup_profile.total_s.get(name, 0.0)
        return 1e3 * total / calls if calls else 0.0

    def bytes_per_call(names):
        calls = sum(p.calls.get(n, 0) for p in (profile, setup_profile) for n in names)
        total = sum(p.count.get(n, 0) for p in (profile, setup_profile) for n in names)
        return total / calls if calls else 0.0

    batches = [workload.indices(k % workload.episode) for k in range(steps)]
    unique = [np.unique(b).size for b in batches if b is not None]
    sizes = [b.size for b in batches if b is not None]
    return {
        "indexing.to_multi.calls": per_step(profile.calls, "indexing.to_multi"),
        "indexing.to_multi.self_ms": per_step(profile.self_s, "indexing.to_multi", 1e3),
        "ttmatrix.row.calls": per_step(profile.calls, "ttmatrix.row"),
        "ttmatrix.row.self_ms": per_step(profile.self_s, "ttmatrix.row", 1e3),
        "ttmatrix.row.flops": per_step(profile.calls, "ttmatrix.row") * workload.row_flops,
        "ttmatrix.materialize.self_ms": per_step(profile.self_s, "ttmatrix.materialize", 1e3),
        "ttmatrix.tt_svd.self_ms": per_step(profile.self_s, "ttmatrix.tt_svd", 1e3),
        "trmatrix.row.calls": per_step(profile.calls, "trmatrix.row"),
        "trmatrix.row.self_ms": per_step(profile.self_s, "trmatrix.row", 1e3),
        "layers.forward.self_ms": per_step(profile.self_s, "layers.forward", 1e3),
        "layers.backward.self_ms": per_step(profile.self_s, "layers.backward", 1e3),
        "layers.backward.rows": per_step(profile.count, "layers.backward"),
        "layers.apply_gradients.self_ms": per_step(profile.self_s, "layers.apply_gradients", 1e3),
        "linalg.svd.calls": per_step(profile.calls, "linalg.svd"),
        "linalg.svd.self_ms": per_step(profile.self_s, "linalg.svd", 1e3),
        "linalg.svd.unfold1_ms": per_step(profile.unfold_s, 1, 1e3),
        "linalg.svd.unfold2_ms": per_step(profile.unfold_s, 2, 1e3),
        "fileformat.load_tt.ms": per_call_ms("fileformat.load_tt"),
        "fileformat.save_tt.ms": per_call_ms("fileformat.save_tt"),
        "fileformat.load_dmat.ms": per_call_ms("fileformat.load_dmat"),
        "fileformat.bytes_read": bytes_per_call(("fileformat.load_tt", "fileformat.load_dmat")),
        "fileformat.bytes_written": bytes_per_call(("fileformat.save_tt",)),
        "stream.dup_share": 1.0 - sum(unique) / sum(sizes) if sizes else 0.0,
        "stream.unique_rows": sum(unique) / steps,
        "baseline.dense_gather_ms": 1e3 * sum(loop.gather_s) / steps,
        "harness.check_ms": 1e3 * sum(loop.check_s) / steps,
        "trace.overhead_share": (sum(traced) / steps) / (sum(untraced) / len(untraced)) - 1.0,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured loop; at least one episode always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC_DIR / "ttembed" / "__init__.py").is_file():
        print(f"error: no ttembed package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    args = parse_args(argv)
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](import_fresh(), args.seed, workdir)
        runners = [workload]
        tracer = Tracer() if args.trace else None
        if tracer:
            untraced = copy.copy(workload)  # shares the inputs, not the model
            untraced.setup(import_fresh())  # before the imports the tracer wraps
            runners.append(untraced)
        setup_profile, profile = Profile(), Profile()
        setup_s = measure_setup(workload, tracer, setup_profile)
        loop = run_loop(runners, args.seconds, tracer, profile)
        checksums = [next((h for r, h in loop.digests if r == i), None) for i in range(len(runners))]
        failed = loop.failed + (None in checksums)  # an unchecked runner is a failure
        detail = {
            "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED, "trace": args.trace, "seconds": args.seconds,
            "steps": len(loop.times[0]), "episode_steps": workload.episode,
            "step_ms": {f"p{q}": percentile_ms(loop.times[0], q) for q in (0, 10, 25, 50, 75, 90)},
            "episodes_checked": len(loop.digests), "checksum": checksums[0],
            "machine": machine_record(),
        }
        if tracer:
            detail["untraced_steps"] = len(loop.times[1])
            detail["untraced_checksum"] = checksums[1]
            values = per_layer_metrics(workload, loop, setup_profile, profile)
            units = PER_LAYER
            detail["computed_not_measured"] = ["ttmatrix.row.flops"]
        else:
            values = end_to_end_metrics(workload, setup_s, loop)
            units = END_TO_END
            detail["fitted"] = loop.quality is not None
        print(json.dumps(detail))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": loop.attempted,
            "failed": failed,
            "metrics": {n: {"value": float(values[n]), "unit": units[n][0]} for n in units},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
