"""One fresh interpreter of a benchmark run.

``run.py`` spawns this script once per set-up sample and once for the
measured run.  It times the package's cold import and its first (cold)
call, and for the measured run it then goes on:

1. warm-up: one pass over the workload's cycle, untimed.  Lazy caches
   fill, and every output is checked here, outside the timed region.
2. timed phase: whole cycles, closed loop, one call at a time, until
   ``--seconds`` have passed (at least MIN_CYCLES cycles).  Each call's
   output is digested afterwards and must match its warm-up digest.  With
   tracing, half the time runs untraced and half traced.  After the first
   call past every YARDSTICK_EVERY_S, the yardstick is timed, so that
   ``run.py`` can take the host's changing speed out of the call times.

The result goes to the JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_CYCLES = 4  # per phase
YARDSTICK_EVERY_S = 0.2  # the yardstick runs after the first call past this interval


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def blas_record() -> dict:
    """BLAS as numpy was built with it, and the thread count in effect."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths[:1]:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = int(fn())
                break
    return record


def yardstick_ms() -> float:
    """Wall time of a fixed piece of interpreter and numpy work, in ms.

    It calls no modal_qcrb code, so its time follows only how fast the host
    runs the benchmark at the moment; ``run.py`` scales call times by it.
    """
    import numpy as np

    x = np.linspace(-3.0, 3.0, 256)
    grid = x[:, None] + 1j * x[None, :]
    start = time.perf_counter_ns()
    counts: dict[int, int] = {}
    total = 0
    for i in range(20000):
        k = i % 113
        counts[k] = counts.get(k, 0) + i
        total += i * k
    "".join([str(i) for i in range(3000)])
    field = np.exp(-0.5 * np.abs(grid) ** 2) * np.exp(1j * grid.real)
    total += float(np.sum(np.conj(field) * field).real)
    return (time.perf_counter_ns() - start) / 1e6


def run_call(wl, cfg, parse: bool, tracer=None, call_id: int = 0):
    """One closed-loop call: (latency ms, output, error or None)."""
    prepared = wl.prepare(cfg)
    stderr = io.StringIO()
    error = None
    outcome = None
    with redirect_stderr(stderr):
        if tracer is not None:
            tracer.call_id = call_id
        start = time.perf_counter_ns()
        try:
            outcome = wl.call(prepared)
        except Exception as exc:  # a failed call is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.call_id = None
    output = wl.collect(cfg, outcome, parse)
    if error is None:
        error = wl.outcome_error(outcome, stderr.getvalue())
    return (end - start) / 1e6, output, error


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.perf_counter()
    import modal_qcrb  # noqa: F401  (the cold import being timed)

    import_ms = (time.perf_counter() - import_start) * 1e3

    import workloads
    from tracing import Tracer

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    configs = wl.configs[:3] if args.smoke else wl.configs
    order = [i for i in wl.order if i < len(configs)]

    # a failure here shows again in the warm-up call of the same config
    run_call(wl, configs[0], parse=False)
    # time.monotonic is CLOCK_MONOTONIC, shared with the parent that spawned us
    setup_s = time.monotonic() - args.spawned_at
    result = {
        "import_ms": import_ms,
        "setup_s": setup_s,
        "yardstick_ms": statistics.median(yardstick_ms() for _ in range(3)),
    }
    if args.role == "setup":
        Path(args.result).write_text(json.dumps(result))
        return 0

    # warm-up pass: fills lazy caches and checks every output
    failures: dict[str, list[str]] = {}
    reference: dict[str, object] = {}
    for i in order:
        cfg = configs[i]
        _, output, error = run_call(wl, cfg, parse=True)
        reasons = [error] if error else wl.check(cfg, output)
        if reasons:
            failures[cfg.id] = [f"warm-up: {r}" for r in reasons]
        reference[cfg.id] = output
    for cfg_id, reasons in wl.cross_check(reference).items():
        failures.setdefault(cfg_id, []).extend(reasons)
    for output in reference.values():
        output.data = None
    failed_checks = set(failures)

    phases = ["untraced"]
    tracer = None
    if args.trace:
        phases = ["untraced", "traced"]
        tracer = Tracer()
    # smoke runs measure one cycle per phase
    min_cycles = 1 if args.smoke else MIN_CYCLES
    phase_s = 0.0 if args.smoke else args.seconds / len(phases)

    timed, yardsticks, cycles = {}, {}, {}
    gc.collect()
    for phase in phases:
        if phase == "traced":
            tracer.install()
        samples = []
        readings: list[float] = []
        call_id = 0
        cycles[phase] = 0
        phase_start = next_reading = time.monotonic()
        while cycles[phase] < min_cycles or time.monotonic() - phase_start < phase_s:
            cycles[phase] += 1
            for i in order:
                cfg = configs[i]
                latency, output, error = run_call(
                    wl, cfg, parse=False, tracer=tracer if phase == "traced" else None, call_id=call_id
                )
                call_id += 1
                if error is None and output.digest != reference[cfg.id].digest:
                    error = "output bytes differ from the warm-up call of the same config"
                samples.append(
                    {
                        "config": cfg.id,
                        "ms": latency,
                        "failed": bool(error) or cfg.id in failed_checks,
                        "output_bytes": output.nbytes,
                        # index of the yardstick reading taken after this call
                        "yardstick": len(readings),
                    }
                )
                if error:
                    failures.setdefault(cfg.id, []).append(f"{phase}: {error}")
                if time.monotonic() >= next_reading:
                    readings.append(yardstick_ms())
                    next_reading = time.monotonic() + YARDSTICK_EVERY_S
        if samples[-1]["yardstick"] == len(readings):
            readings.append(yardstick_ms())
        timed[phase] = samples
        yardsticks[phase] = readings
        if phase == "traced":
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result.update(
        {
            "workload": {"name": wl.name, "why": wl.why, "notes": wl.notes, "cycles": cycles},
            "configs": [{"id": c.id, **c.spec} for c in configs],
            "order": [configs[i].id for i in order],
            "digests": {cid: out.files for cid, out in reference.items()},
            "failures": failures,
            "diagnostics": wl.diagnostics,
            "timed": timed,
            "yardsticks": yardsticks,
            "peak_rss_mb": peak_rss_mb,
            "blas": blas_record(),
            "versions": {
                "python": sys.version.split()[0],
                "numpy": sys.modules["numpy"].__version__,
                "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules else None,
                "modal_qcrb": getattr(modal_qcrb, "__version__", None),
            },
        }
    )
    if tracer is not None:
        n_traced = len(timed["traced"])
        result["trace"] = tracer.summary(n_traced)
        result["trace_wrapped"] = sorted(tracer.wrapped)
        spans_path = workdir / "spans.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
