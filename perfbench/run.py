"""Run a benchmark workload of modal_qcrb and print its metrics.

    python3 perfbench/run.py --workload beam-grid --seed 1 --seconds 40 --trace 0

Run it from anywhere; it finds ``src/`` next to this directory and puts
it on the path of the interpreters it spawns.  Each run spawns
SETUP_SAMPLES fresh interpreters, one after another.  All of them time
their cold import and first call (``setup_s`` is the median); the middle
one goes on to warm up, check every output and run the timed phase (see
``worker.py``), so the set-up samples fall before and after it.  BLAS is
pinned to one thread.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The lines before it
print every metric with its unit, ``failed_ratio``, the environment and
where the full record went: ``.perfbench-out/result-*.json`` holds the
generated configs, every failure with its reason, and the sha256 of every
output file per config, so two commits can be compared byte for byte at
the same seed.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 9
YARDSTICK_MS = 6.0  # the reference host's yardstick time; times are scaled to it
DEADLINE_S = 170.0  # per workload; the run must end within 180 s
# One client thread and one BLAS thread: on a host that lends the benchmark
# two cores, a second BLAS thread competes with neighbours for the other
# core and its wake-ups show as noise, not as the program's cost.
BLAS_THREADS = "1"

END_TO_END = {
    "calls_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {name: unit for name, unit, _, _ in LAYER_METRICS} | {
    "cli.output_mb": "MB",
    "import.ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="nominal length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="three configs, one cycle, one interpreter")
    return parser.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def spawn(role: str, index: int, args, workload: str, workdir: Path, env: dict, deadline: float) -> dict:
    result_path = workdir / f"{role}-{index}.json"
    spawned_at = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
        "--spawned-at", repr(spawned_at),
        "--workdir", str(workdir),
        "--result", str(result_path),
    ] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {role} interpreter passed the deadline") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{workload}: {role} interpreter exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(result_path.read_text())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def scaled_ms(samples: list[dict], readings: list[float]) -> list[float]:
    """Call times scaled to a host that runs the yardstick in YARDSTICK_MS.

    The host lends the benchmark cores that neighbours share, and its speed
    swings by up to 2x, in states that can last minutes.  The worker times
    a fixed yardstick (``worker.yardstick_ms``) after the first call past
    every 0.2 s, and each call is scaled by the reading that followed it:
    a change of host speed moves both and cancels, a change of modal_qcrb's
    speed moves only the call.
    """
    return [s["ms"] * YARDSTICK_MS / readings[s["yardstick"]] for s in samples]


def calls_per_s(samples: list[dict], readings: list[float]) -> float:
    completed = sum(not s["failed"] for s in samples)
    return completed / (sum(scaled_ms(samples, readings)) / 1e3)


def run_workload(args, workload: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
    workdir = OUT / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    n_setup = 1 if args.smoke else SETUP_SAMPLES
    before = (n_setup - 1) // 2
    starts = [spawn("setup", i, args, workload, workdir, env, deadline) for i in range(before)]
    run = spawn("run", 0, args, workload, workdir, env, deadline)
    starts.append(run)
    starts += [spawn("setup", i, args, workload, workdir, env, deadline) for i in range(before, n_setup - 1)]

    untraced = run["timed"]["untraced"]
    readings = run["yardsticks"]["untraced"]
    samples = untraced + run["timed"].get("traced", [])
    attempted = len(samples)
    failed = sum(s["failed"] for s in samples)
    latencies = scaled_ms(untraced, readings)
    tail_ms, tail_pct, beyond = tail(latencies)
    setup_s = statistics.median(s["setup_s"] * YARDSTICK_MS / s["yardstick_ms"] for s in starts)
    raw = [s["ms"] for s in untraced]
    raw_metrics = {
        "calls_per_s": sum(not s["failed"] for s in untraced) / (sum(raw) / 1e3),
        "latency_ms_p50": statistics.median(raw),
        "latency_ms_tail": tail(raw)[0],
        "setup_s": statistics.median(s["setup_s"] for s in starts),
    }

    if args.trace:
        traced = run["timed"]["traced"]
        metrics = dict(run["trace"])
        metrics["cli.output_mb"] = sum(s["output_bytes"] for s in traced) / len(traced) / 1e6
        metrics["import.ms"] = statistics.median(s["import_ms"] for s in starts)
        metrics["trace.overhead_ratio"] = calls_per_s(traced, run["yardsticks"]["traced"]) / calls_per_s(
            untraced, readings
        )
        units = PER_LAYER
    else:
        metrics = {
            "calls_per_s": calls_per_s(untraced, readings),
            "latency_ms_p50": statistics.median(latencies),
            "latency_ms_tail": tail_ms,
            "setup_s": setup_s,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = END_TO_END

    outputs_digest = hashlib.sha256(
        "".join(f"{cid}:{sha}\n" for cid, files in sorted(run["digests"].items()) for sha in sorted(files.values())).encode()
    ).hexdigest()
    record = {
        "workload": run["workload"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failed_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "latency_ms_tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(latencies)},
        "raw_metrics": raw_metrics,
        "yardstick_ms": {
            "reference": YARDSTICK_MS,
            "untraced": readings,
            "setup": [s["yardstick_ms"] for s in starts],
        },
        "setup_samples_s": [s["setup_s"] for s in starts],
        "import_samples_ms": [s["import_ms"] for s in starts],
        "environment": {
            "nproc": nproc,
            "cpu": platform.processor() or platform.machine(),
            "blas": run["blas"],
            "blas_pinned_env": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "versions": run["versions"],
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "seed": args.seed,
        },
        "configs": run["configs"],
        "order": run["order"],
        "failures": run["failures"],
        "diagnostics": run["diagnostics"],
        "outputs_sha256": outputs_digest,
        "digests": run["digests"],
        "output_bytes": {s["config"]: s["output_bytes"] for s in samples},
        "trace_wrapped": run.get("trace_wrapped"),
        "spans_file": run.get("spans_file"),
    }
    path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    record["path"] = str(path.relative_to(ROOT))
    return metrics, record


def report(record: dict) -> None:
    wl = record["workload"]
    n = record["latency_ms_tail"]["samples"]
    cycles = ", ".join(f"{k} {phase}" for phase, k in wl["cycles"].items())
    print(
        f"perfbench {wl['name']}: seed {record['seed']}, cycles of {len(record['order'])} configs "
        f"({cycles}), {n} untraced calls timed"
    )
    for name, m in record["metrics"].items():
        note = ""
        if name == "latency_ms_tail":
            t = record["latency_ms_tail"]
            note = f"  (p{t['percentile']:.1f}: {t['samples_beyond']} of {t['samples']} samples beyond)"
        elif name == "setup_s":
            note = f"  (median of {len(record['setup_samples_s'])} fresh interpreters)"
        if name in record["raw_metrics"]:
            note += f"  [{record['raw_metrics'][name]:.6g} unscaled]"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_ratio':40s} {record['failed_ratio']:.6g}  ({record['failed']} of {record['attempted']} calls)")
    for cfg_id, reasons in record["failures"].items():
        print(f"    failed {cfg_id}: {'; '.join(reasons[:3])}")
    env = record["environment"]
    print(
        f"  environment: nproc {env['nproc']}, BLAS {env['blas']['name']} {env['blas']['version']} "
        f"with {env['blas']['threads']} threads (OPENBLAS_NUM_THREADS={env['blas_pinned_env']['OPENBLAS_NUM_THREADS']}), "
        + ", ".join(f"{k} {v}" for k, v in env["versions"].items())
        + f", commit {env['git_commit']}, source sha256 {env['source_sha256'][:16]}"
    )
    print(f"  outputs sha256 {record['outputs_sha256']}; full record in {record['path']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "modal_qcrb" / "__init__.py").is_file():
        print(f"perfbench: no modal_qcrb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    selected = names if args.workload == "all" else [args.workload]
    if any(name not in names for name in selected):
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(names)}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in declared[section]}

    OUT.mkdir(exist_ok=True)
    results = []
    try:
        for name in selected:
            metrics, record = run_workload(args, name)
            got = {k: v["unit"] for k, v in record["metrics"].items()}
            if got != expected:
                raise BenchError(f"{name}: metrics {sorted(got)} do not match BENCHMARK.json {sorted(expected)}")
            report(record)
            results.append((name, metrics, record))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for _, _, r in results),
        "attempted": sum(r["attempted"] for _, _, r in results),
        "failed": sum(r["failed"] for _, _, r in results),
        "metrics": {
            (f"{name}/{k}" if prefix else k): {"value": v, "unit": expected[k]}
            for name, metrics, _ in results
            for k, v in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
