"""One workload in one fresh process; started by run.py, not by hand.

Prints ``ready`` once ppratios, numpy and scipy are imported and each layer
the workload uses has been called once, then (unless ``--setup-only``) runs
the workload and prints one JSON line with its raw results.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.integrate  # noqa: E402,F401
import scipy.special  # noqa: E402,F401

import ppratios  # noqa: E402

if not Path(ppratios.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"ppratios imported from {ppratios.__file__}, not from {SRC}")

import layers  # noqa: E402
import workloads  # noqa: E402
from ppratios import cli  # noqa: E402
from ppratios import limit_laws as ll  # noqa: E402
from ppratios import rng  # noqa: E402
from ppratios import samplers as sp  # noqa: E402
from ppratios import tail_models as tm  # noqa: E402
from ppratios import verify as vf  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_PASSES = 3


def warm_up(workload: str, work: Path) -> None:
    """One tiny call into each layer the workload uses."""
    rng.uniform_grid(1, 0, 4, 4)
    emp = vf.EmpiricalDistribution.from_samples(np.linspace(0.05, 0.95, 16))
    vf.ks_distance(emp, lambda x: x)
    if workload == "nb_suite":
        for method in sorted(sp.NB_METHODS):
            sp.negbin_batch(1, 1.0, 0.5, method, 64, 1, probe=ll.LaplaceProbe(1.0, 0.5, 1.0))
        ll.nb_count_pmf(1, 1.0, 0.5, 4)
        ll.nb_laplace(1, 1.0, ll.LaplaceProbe(1.0, 0.5, 1.0))
        vf.chi_square_counts(np.array([10.0, 10.0]), np.array([10.0, 10.0]))
    elif workload == "sweep_numeric":
        for model in (tm.pareto_perturbed(1.0, 1.0, 1.0), tm.pareto_log(1.0, 1.0),
                      tm.pareto_log(2.0, -0.5), tm.pareto(1.0)):
            sp.pivot_ratio_batch(model, 1e-3, 1, 1, 16, 1)
    else:
        code = cli.run(["laws", "--law", "w", "--alpha", "1", "--r", "1", "--n", "1",
                        "--grid", "0.1:0.9:3", "--out-dir", str(work / "warm_up")])
        if code != 0:
            raise RuntimeError(f"warm-up CLI call exited {code}")
        sp.ratio_configuration_batch(tm.pareto(1.0), 0.01, 1, 2, 0.1, 16, 1)
        sp.log_trim_ratio_batch(tm.pareto(1.0), 0.01, 1, 16, 1)


def _artifact_counts(outputs: list) -> tuple[int, int]:
    """CSV data rows and bytes in the artifact directories of one operation."""
    rows = size = 0
    for item in outputs:
        if isinstance(item, Path):
            for path in item.iterdir():
                size += path.stat().st_size
                if path.suffix == ".csv":
                    rows += workloads.data_rows(path)
    return rows, size


def run_pass(ops, out_root: Path, tracer=None) -> dict:
    """Run every operation once; time each, gates included, digests excluded."""
    records = []
    cli_rows = cli_bytes = 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            with tracer.window() if tracer else contextlib.nullcontext():
                outcome = op.run()
        except Exception as exc:
            traceback.print_exc()
            records.append({"name": op.name, "ok": False, "error": True,
                            "seconds": time.perf_counter() - t0,
                            "detail": f"{type(exc).__name__}: {exc}", "digest": None})
            continue
        seconds = time.perf_counter() - t0
        rows, size = _artifact_counts(outcome.outputs)
        cli_rows += rows
        cli_bytes += size
        records.append({"name": op.name, "ok": bool(outcome.ok), "error": False,
                        "seconds": seconds, "detail": outcome.detail,
                        "digest": workloads.digest(outcome.outputs)})
    shutil.rmtree(out_root, ignore_errors=True)
    return {"wall_s": sum(rec["seconds"] for rec in records), "ops": records,
            "cli_rows": cli_rows, "cli_bytes": cli_bytes}


def traced_pass(ops, out_root: Path) -> tuple[dict, dict, list]:
    with Tracer(ppratios, layers.summarize) as tracer:
        result = run_pass(ops, out_root, tracer)
    partition = tracer.partition()
    metrics = layers.layer_metrics(tracer.spans, partition,
                                   result["cli_rows"], result["cli_bytes"])
    return result, metrics, layers.top_functions(tracer.spans, partition)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    work_root = HERE / ".work"
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        warm_up(args.workload, work)
        print("ready", flush=True)
        if args.setup_only:
            return

        # the sweep is the single-threaded baseline; others use up to 2 threads
        threads = 1 if args.workload == "sweep_numeric" else min(2, os.cpu_count() or 1)
        out = work / "out"
        ops = workloads.build(args.workload, args.seed, threads, out)
        result = {"rows": sum(op.rows for op in ops), "provenance": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "ppratios": ppratios.__version__,
            "threads": threads}}
        if args.trace == 0:
            # at least MIN_PASSES, so that medians can set a slow pass aside;
            # then only passes that fit in --seconds
            passes = []
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or (
                    time.perf_counter() - start
                    + statistics.median(p["wall_s"] for p in passes) <= args.seconds):
                passes.append(run_pass(ops, out))
                if len(passes) == 1:
                    # later passes can only add allocator fragmentation (on
                    # cli_session about 90 MiB over three passes), so the
                    # peak is read after one pass whatever --seconds is
                    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    result["peak_rss_mb"] = rss_kib / 1024.0
            result["passes"] = passes
        else:
            untraced = run_pass(ops, out)
            first, metrics_a, top = traced_pass(ops, out)
            second, metrics_b, _ = traced_pass(ops, out)
            metrics_a["trace.overhead_ratio"] = first["wall_s"] / untraced["wall_s"]
            result["passes"] = [untraced, first, second]
            result["layers"] = metrics_a
            result["layers_repeat"] = metrics_b
            result["top_functions"] = top
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
