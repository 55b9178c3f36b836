"""Run one qelmkit benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload sweep-fs10 --seed 18 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the end-to-end metrics of BENCHMARK.json are measured with
no tracing. With --trace 1 half the time runs untraced and half traced,
and the per-layer metrics of BENCHMARK.json come from the traced half; the
span file is written next to the result record under .perfbench/.

Every metric is printed by name with its unit and sample count, then a
result record with the machine facts, and last one JSON line
{"correct", "attempted", "failed", "metrics"}. The exit code is 1 when any
operation failed or did not match the reference, 2 when the package
source or BENCHMARK.json is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / ".perfbench"
WORKLOAD_NAMES = ("sweep-fs10", "sweep-small", "serve-rows")

# BLAS threads, pinned before numpy loads: the same on every run and never
# above the CPU count.
BLAS_THREADS = 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=18,
                        help="day-generation seed; 18 is the frozen instance")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measured time per run (whole passes, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the reference outputs of the frozen seed")
    parser.add_argument("--prepare-serve", metavar="DIR",
                        help=argparse.SUPPRESS)   # child step: train and save pipelines
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(REPO / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _commit() -> str:
    head = REPO / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = REPO / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else "unknown"
    return ref


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*.py")):
        digest.update(path.relative_to(REPO).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_threads_requested": BLAS_THREADS,
        "git_commit": _commit(),
        "source_sha256": _source_sha256(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_values(run) -> dict[str, tuple[float, int, str]]:
    """metric name -> (value, sample count, unit), for every workload."""
    import numpy as np
    request_ms = np.asarray(run.request_s) * 1e3
    return {
        "setup_s": (statistics.median(run.setup_s), len(run.setup_s), "s"),
        "cells_per_s": (run.cells / run.cell_time_s, run.cells, "1/s"),
        "wall_s": (statistics.median(run.wall_s), len(run.wall_s), "s"),
        "request_p50_ms": (float(np.percentile(request_ms, 50)), len(request_ms), "ms"),
        "request_p99_ms": (float(np.percentile(request_ms, 99)), len(request_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), 1, "MB"),
    }


def per_layer_values(tracer, base, traced) -> dict[str, float]:
    """The tracer's per-name totals and counts, plus the trace's own cost."""
    values: dict[str, float] = {}
    for name, (calls, total_s, self_s) in tracer.stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.total_s"] = total_s
        values[f"{name}.self_s"] = self_s
    values.update(tracer.counts)
    untraced = statistics.median(base.wall_s)
    values["trace.overhead_pct"] = (statistics.median(traced.wall_s) / untraced - 1) * 100
    values["trace.traced_s"] = sum(traced.wall_s) + sum(traced.setup_s)
    values["trace.spans"] = tracer.num_spans
    return values


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def make_tracer():
    from tracer import Tracer
    from qelmkit import elevator, harness, qelm, quantum, stats
    return Tracer({"elevator": elevator, "quantum": quantum, "qelm": qelm,
                   "stats": stats, "harness": harness},
                  {"qelm.Pipeline": qelm.Pipeline})


def collect(workload, ctx, seconds: float, trace: bool, spec: dict):
    """Measure one workload.

    Returns ({metric: (value, sample count or None, unit)}, runs, tracer);
    the metrics are every end-to-end one, or with `trace` BENCHMARK.json's
    per-layer ones (a function that never ran reads 0)."""
    import workloads
    if not trace:
        run = workloads.measure(workload, ctx, seconds)
        if not run.wall_s:          # no pass completed: nothing to report
            return {}, (run,), None
        return end_to_end_values(run), (run,), None
    tracer = make_tracer()
    base, traced = workloads.measure_traced(workload, ctx, seconds, tracer)
    if not (base.wall_s and traced.wall_s):
        return {}, (base, traced), tracer
    values = per_layer_values(tracer, base, traced)
    return ({m["name"]: (values.get(m["name"], 0), None, m["unit"])
             for m in spec["per_layer"]}, (base, traced), tracer)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    import workloads

    workload = workloads.WORKLOADS[name]
    out_dir = OUT / name
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if name == "serve-rows":
        # Training and saving run in a child, so neither their time nor
        # their memory counts towards this process.
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--prepare-serve", str(out_dir), "--seed", str(seed)],
                       check=True, timeout=170)
    reference = workloads.load_reference(name, seed)
    ctx = workload.prepare(seed, out_dir, reference)
    facts = machine_facts(seed)
    facts["reference"] = "recorded" if reference is not None else "internal checks"

    metrics, runs, tracer = collect(workload, ctx, seconds, trace, spec)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    failures = [note for r in runs for note in r.failures]
    record = {"workload": name, "seconds": seconds, "trace": int(trace), "facts": facts,
              "failed_frac": failed / attempted, "failures": failures,
              "metrics": {k: {"value": v, "n": n, "unit": u}
                          for k, (v, n, u) in metrics.items()}}
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.npz")
        record["layers"] = dict(sorted(tracer.stats.items(), key=lambda kv: -kv[1][2]))

    for key, (value, n, unit) in metrics.items():
        samples = f"  (n={n})" if n is not None else ""
        print(f"{name:<12} {key:<40} {value:>14.6g} {unit}{samples}")
    print(f"{name:<12} {'failed_frac':<40} {failed / attempted:>14.6g} "
          f"({failed}/{attempted} operations)")
    for note in failures:
        print(f"{name:<12} FAILED: {note}")
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("record: " + json.dumps({"workload": name, "facts": facts}))
    reported = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][2]}
                                  for k in reported if k in metrics}}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["failed"] == 0 else 1


def record_reference(seed: int) -> int:
    """Write reference/<workload>.json from this source tree."""
    import workloads
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        out_dir = OUT / name
        if name == "serve-rows":
            workloads.prepare_serve(seed, out_dir)
        ctx = workload.prepare(seed, out_dir, None)
        doc = {"seed": seed, "master_seed": workloads.MASTER_SEED,
               "source_sha256": _source_sha256(),
               "rtol": workloads.REFERENCE_RTOL, "atol": workloads.REFERENCE_ATOL,
               **workload.reference_of(ctx, workload.setup(ctx))}
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(doc, fh, indent=0)
        print(f"recorded reference for {name}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (REPO / "src" / "qelmkit" / "__init__.py").exists():
        print(f"qelmkit source not found under {REPO / 'src'}", file=sys.stderr)
        return 2
    if not (REPO / "BENCHMARK.json").exists():
        print(f"BENCHMARK.json not found in {REPO}", file=sys.stderr)
        return 2
    if args.prepare_serve:
        import workloads
        workloads.prepare_serve(args.seed, Path(args.prepare_serve))
        return 0
    if args.record_reference:
        return record_reference(args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        load_spec())


if __name__ == "__main__":
    sys.exit(main())
