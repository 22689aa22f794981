"""Benchmark of mac3mg: one workload per run, metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload vcycle-729 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded.
``--trace 1`` wraps the program's public entry points (see ``spans.py``),
sets up once under the tracer, runs one untraced and one traced pass, and
reports the per-layer metrics and the tracing overhead (traced minus
untraced pass time).  Lines before the last describe the environment, each
output check and the known quirks; the last line is the result object.
The workloads, metrics and checks are described in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap the BLAS pools at the usable CPU count; must run before numpy loads."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def import_program() -> None:
    """Import mac3mg from this checkout's ``src``, never from elsewhere."""
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path.insert(0, str(SRC))
    try:
        import mac3mg
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mac3mg from {SRC}: {exc}") from None
    if Path(mac3mg.__file__).resolve().parent != SRC / "mac3mg":
        raise SystemExit(f"perfbench: mac3mg imported from {mac3mg.__file__}, not {SRC}")


def git_commit() -> str:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "mac3mg").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def mem_total_mb() -> float:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20


def environment(args, cap: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(), "cpu_count": os.cpu_count(), "mem_total_mb": mem_total_mb(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_thread_cap": cap, "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: list) -> tuple[float, float]:
    """(percentile, value) of the highest order statistic with at least ten
    samples above it.  Below 21 samples no such statistic lies above the
    median, and the median is reported."""
    xs = sorted(values)
    if len(xs) < 21:
        return 50.0, statistics.median(xs)
    i = len(xs) - 11
    return 100.0 * i / (len(xs) - 1), xs[i]


def note(label: str, payload) -> None:
    print(f"{label}: {json.dumps(payload, sort_keys=True)}", flush=True)


def check_passes(wl, passes, seed, reference) -> tuple[int, int]:
    attempted = failed = 0
    for res in passes:
        problems = wl.check(res, seed, reference)
        for msg in res.errors:
            note("error", msg)
        for key, msg in problems:
            note("check-failed", f"{key}: {msg}")
        attempted += res.attempted
        failed += len(res.errors) + len({key for key, _ in problems})
    return attempted, failed


def quirks(wl, passes) -> None:
    """Print what the known quirks look like in this run's outputs."""
    last = passes[-1]
    if wl.name == "vcycle-729":
        for cfg, norms in wl.record(last).items():
            rel = [x / norms[0] for x in norms]
            k = min(range(len(rel)), key=rel.__getitem__)
            note("history", {"config": cfg, "r0": norms[0], "final_over_r0": rel[-1],
                             "min_over_r0": rel[k], "min_at_cycle": k,
                             "growth_after_min": (rel[-1] / rel[k]) ** (1 / (len(rel) - 1 - k))
                             if k < len(rel) - 1 else None})
    elif wl.name == "exact-243":
        for out in last.outputs:
            note("solve", {"solve": out["solve"], "summary": out["report"].summary(),
                           "tol_is_absolute": out["report"].config["tol"]})


def run_untraced(wl, seed: int, seconds: float, reference: dict) -> dict:
    setup_times = []
    for _ in range(wl.setup_repeats):
        ctx = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        ctx = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(ctx, seed))
        longest = max(p.wall_s for p in passes)
        if (len(passes) >= wl.min_passes
                and time.perf_counter() - t_start + longest > seconds):
            break
    rss = peak_rss_mb()
    attempted, failed = check_passes(wl, passes, seed, reference)
    quirks(wl, passes)
    ops = [t for p in passes for t in p.op_times]
    pct, tail_value = tail(ops)
    note("timing", {"setup_s": setup_times, "pass_s": [p.wall_s for p in passes],
                    "op_samples": len(ops), "op_tail_percentile": round(pct, 1),
                    "fail_frac": failed / max(attempted, 1)})
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "peak_rss_mb": (rss, "MB"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_tail_s": (tail_value, "s"),
        "dof_per_s": (sum(p.dof_work for p in passes) / sum(p.dof_time for p in passes), "1/s"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(wl, seed: int, reference: dict) -> dict:
    from spans import (PER_LAYER_UNITS, Tracer, baseline_rows, instrument, layer_metrics,
                       self_time_ranking)

    tracer = Tracer()
    instrument(tracer)
    try:
        tracer.phase, tracer.enabled = "setup", True
        ctx = wl.setup()
        tracer.enabled = False
        untraced = wl.run_pass(ctx, seed)
        tracer.phase, tracer.enabled = "pass", True
        traced = wl.run_pass(ctx, seed)
        tracer.enabled = False
    finally:
        tracer.unwrap_all()
    attempted, failed = check_passes(wl, [untraced, traced], seed, reference)
    quirks(wl, [traced])
    layers = layer_metrics(tracer.spans, wl.finest, traced.wall_s - untraced.wall_s)
    note("overhead", {"untraced_pass_s": untraced.wall_s, "traced_pass_s": traced.wall_s,
                      "spans": layers["trace.spans"]})
    if wl.finest is not None:
        for row in baseline_rows(tracer.spans, wl.finest):
            note("baseline", row)
    for name, secs in self_time_ranking(tracer.spans):
        note("self-time", {"span": name, "s": secs})
    metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("vcycle-729", "exact-243", "lfa-81"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap = cap_blas_threads()
    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    note("env", environment(args, cap))
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    wl = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(wl, args.seed, reference)
    else:
        result = run_untraced(wl, args.seed, args.seconds, reference)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
