"""ppratios benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Usage (from the repository root)::

    python3 bench/run.py --workload nb_suite --seed 1 --seconds 36 --trace 0
    python3 bench/run.py                      # every workload, default seed

Each workload runs in a fresh process (``bench/worker.py``).  Set-up time is
measured as the median over several fresh processes, from process start to
ready.  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance, every operation's gate and output digest, and the metrics as a
table.  See README.md for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

WORKLOADS = ("nb_suite", "sweep_numeric", "cli_session")
SETUP_PROBES = 3  # fresh processes timed for set-up, besides the measured one
WORKER_TIMEOUT_S = 150.0

UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MiB"}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _start(workload: str, argv: list) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload] + argv
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _await_ready(proc: subprocess.Popen, started: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return time.perf_counter() - started


def _setup_probe(workload: str) -> float:
    started = time.perf_counter()
    proc = _start(workload, ["--setup-only"])
    try:
        elapsed = _await_ready(proc, started)
        proc.stdout.read()
    finally:
        if proc.wait(timeout=WORKER_TIMEOUT_S) != 0:
            raise RuntimeError("set-up probe exited with an error")
    return elapsed


def run_workload(workload: str, seed: int, seconds: int, trace: int):
    """Run one workload; return (result dict for the JSON line, report lines)."""
    # set-up time is an end-to-end metric, so a traced run skips the probes
    setups = [_setup_probe(workload) for _ in range(SETUP_PROBES if trace == 0 else 0)]
    started = time.perf_counter()
    proc = _start(workload, ["--seed", str(seed), "--seconds", str(seconds),
                             "--trace", str(trace)])
    try:
        setups.append(_await_ready(proc, started))
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])
    return report(workload, seed, trace, setups, raw)


def report(workload, seed, trace, setups, raw):
    """Checks and metrics from the worker's raw results; see run_workload."""
    passes = raw["passes"]
    records = [rec for p in passes for rec in p["ops"]]
    attempted = len(records)
    failed = sum(not rec["ok"] for rec in records)
    errors = sum(rec["error"] for rec in records)

    # every pass replays the same seed, so every output must repeat byte for byte
    digests = {}
    for rec in records:
        digests.setdefault(rec["name"], set()).add(rec["digest"])
    checks = {"no_exceptions": errors == 0,
              "outputs_repeat": all(len(d) == 1 and None not in d for d in digests.values())}

    prov = raw["provenance"]
    prov.update({"nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _git_commit(),
                 "workload": workload, "seed": seed})
    lines = [f"# provenance {json.dumps(prov, sort_keys=True)}"]
    for rec in passes[0]["ops"]:
        status = "ok" if rec["ok"] else ("ERROR" if rec["error"] else "FAIL")
        lines.append(f"# op {rec['name']}: {status} ({rec['detail']}) "
                     f"sha256={rec['digest']}")

    if trace == 0:
        # each operation's median over the passes, so one slow pass of one
        # operation does not move the sum
        walls = [p["wall_s"] for p in passes]
        wall = sum(statistics.median(p["ops"][i]["seconds"] for p in passes)
                   for i in range(len(passes[0]["ops"])))
        table = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "trials_per_s": raw["rows"] / wall,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in table.items()}
        lines.append(f"# passes {len(walls)}: wall_s " + " ".join(f"{w:.3f}" for w in walls))
        lines.append("# set-ups: setup_s " + " ".join(f"{t:.3f}" for t in setups))
        shown = dict(metrics, fail_ratio={"value": failed / attempted, "unit": "1"})
    else:
        metrics_a, metrics_b = raw["layers"], raw["layers_repeat"]
        checks["counters_repeat"] = all(metrics_a[k] == metrics_b[k] for k in layers.REPEATABLE)
        metrics = {name: {"value": metrics_a[name], "unit": unit}
                   for name, unit, _ in layers.METRICS}
        for name, secs, count in raw["top_functions"]:
            lines.append(f"# self {name}: {secs:.4f} s over {count} spans")
        shown = metrics
    for key, ok in checks.items():
        lines.append(f"# check {key}: {'ok' if ok else 'FAILED'}")
    for name, m in shown.items():
        lines.append(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    result = {"correct": all(checks.values()), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "ppratios" / "__init__.py").is_file():
        print(f"error: no ppratios sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
