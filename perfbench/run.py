"""Run one qsms benchmark workload and print its metrics.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 20 --trace 0

One client in one process drives qsms through ``qsms.cli.main(argv)`` and the
``qsms.protocol``/``qsms.shamir`` API in a closed loop: each pass starts when
the previous one ends, while one more pass of the last one's length still
fits in --seconds (at least two run). With --trace 0 the passes run untraced
and the last line of stdout is a JSON object with the end-to-end metrics
listed in BENCHMARK.json; with --trace 1 untraced and traced passes of one
input alternate and it carries the per-layer metrics. The lines before it
give every metric by name with its unit, and the environment record. A full
report goes to perfbench/.out/, with the spans of the last traced pass.

Exit status: 0 when the run completed ("correct" in the result says whether
every check passed); 1 when the checks fail their self-test; 2 on bad
arguments or when the qsms sources are missing under src/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
SETUP_PROBES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The wide workload's state: 13^6 complex128 amplitudes.
WIDE_STATE_BYTES = 16 * 13**6
# A tail percentile needs this many passes beyond it.
TAIL_BEYOND = 10

# Span names reported as call counts and as self time.
CALLS = ["zmod.is_prime", "zmod.lagrange_coefficient", "shamir.Polynomial.evaluate",
         "qudit.prepare_ghz", "qudit.apply_qft", "qudit.measure_all",
         "qudit.measure_position", "protocol.aggregate"]
SELF = ["zmod.is_prime", "zmod.lagrange_coefficient", "shamir.generate_shares",
        "shamir.compute_shadow", "shamir.reconstruct", "qudit.prepare_ghz",
        "qudit.apply_qft", "qudit.apply_shift", "qudit.measure_all",
        "qudit.measure_position", "protocol.run_quantum_phase",
        "protocol.prepare_run", "protocol.aggregate", "protocol.run_protocol",
        "protocol.to_json", "adversary.intercept_and_measure",
        "adversary.intercept_resend", "adversary.collusion_inference", "cli.main"]
# Per-layer units that are measured times or rates; the rest repeat exactly.
TIMED_UNITS = ("s", "GB/s")


def cap_threads(nproc: int) -> None:
    """Keep numpy's thread pools within the cores this process may use."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def last_level_cache() -> str:
    levels = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = _read(str(index / "level")).strip()
        if level.isdigit():
            levels[int(level)] = _read(str(index / "size")).strip()
    return levels[max(levels)] if levels else "unknown"


def copy_gbps(nbytes: int) -> float:
    """Bandwidth of a numpy copy of an nbytes complex array (read + write)."""
    import numpy as np

    src = np.ones(nbytes // 16, dtype=np.complex128)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(5):
        start = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - start)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def environment(nproc: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "llc": last_level_cache(),
        "host.copy_gbps": copy_gbps(WIDE_STATE_BYTES),
        "wide_state_bytes": WIDE_STATE_BYTES,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load": "1 client, closed loop, single process",
        "note": "host.copy_gbps copies a wide-sized array. The largest state "
                "the 2^24 amplitude guard allows (256 MiB) is under 4x a "
                "300 MiB LLC, so neither it nor qudit.gate_gbps is a DRAM "
                "figure on such a host.",
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each timed from inside."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_pass(wl, inputs, checks, tracer=None):
    """One timed pass; the checks run after the clock and the tracer stop.

    A pass the program aborts with an exception counts as one failed check
    and yields no outputs, so the run goes on and reports it.
    """
    if tracer is not None:
        tracer.reset()
        tracer.install()
    start = perf_counter()
    try:
        raw = wl.execute(inputs)
    except Exception as exc:
        traceback.print_exc()
        raw = exc
    finally:
        wall = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if isinstance(raw, Exception):
        from workloads import PassResult

        checks.record(f"{wl.name} pass", False, f"raised {raw!r}")
        return wall, PassResult({}, 0, 0)
    return wall, wl.check(inputs, raw, checks)


def same_outputs(checks, first, again) -> None:
    for label, data in first.outputs.items():
        checks.identical(f"{label} repeats byte for byte", data,
                         again.outputs.get(label, b""))


def room(start: float, seconds: float, last: float) -> bool:
    """Whether a pass as long as the last one still ends within --seconds."""
    return perf_counter() - start + last <= seconds


def tail(walls: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with TAIL_BEYOND passes
    beyond it, or None when there are too few passes."""
    n = len(walls)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(walls)[n - TAIL_BEYOND - 1]


def untraced(wl, workload: str, seed: int, seconds: float, checks) -> tuple[dict, dict]:
    setup = setup_seconds(workload, seed)
    walls, first = [], None
    start = perf_counter()
    while len(walls) < 2 or room(start, seconds, walls[-1]):
        # The second pass repeats the first one's input, and its outputs must
        # match byte for byte; every other pass gets a fresh input, so a
        # cache across calls could speed up one pass but not the median.
        # Only the first pass's outputs are kept, so the peak RSS below does
        # not grow with the number of passes.
        wall, result = run_pass(wl, wl.inputs(max(len(walls) - 1, 0)), checks)
        if first is None:
            first = result
        elif len(walls) == 1:
            same_outputs(checks, first, result)
        del result
        walls.append(wall)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    median = statistics.median(walls)
    shots = first.shots
    tail_at = tail(walls)
    metrics = {
        "wall_s": (median, "s", f"median of {len(walls)} passes"),
        "wall_s_tail": (tail_at[1], "s", f"p{tail_at[0]:.1f} of {len(walls)} "
                        f"passes, {TAIL_BEYOND} beyond it") if tail_at else
        (None, "s", f"needs more than {TAIL_BEYOND} passes, got {len(walls)}"),
        "shots_per_s": (shots / median, "1/s", f"{shots} honest shots per pass")
        if shots else (None, "1/s", "no quantum phase in this workload"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh processes"),
        "peak_rss_mib": (rss_mib, "MiB", "ru_maxrss of this process"),
    }
    return metrics, {"walls": walls, "setup": setup}


def layer_metrics(tracer, result) -> dict:
    calls, self_s = tracer.layer_totals()
    counts = tracer.counts
    shots = counts["protocol.shots"]
    gate_bytes = counts["qudit.gate_bytes"]
    gate_s = self_s["qudit.apply_qft"] + self_s["qudit.apply_shift"]
    enumerated = tracer.counted_in("shamir.Polynomial", "adversary.collusion_inference")
    metrics = {f"{name}.calls": (calls[name], "count") for name in CALLS}
    metrics.update({f"{name}.self_s": (self_s[name], "s") for name in SELF})
    metrics.update({
        "zmod.FieldElement.count": (counts["zmod.FieldElement"], "count"),
        "qudit.QuditState.count": (counts["qudit.QuditState"], "count"),
        "qudit.states_per_shot": (counts["qudit.QuditState"] / shots if shots else 0.0,
                                  "count/shot"),
        "qudit.gate_bytes": (gate_bytes, "B"),
        "qudit.gate_gbps": (gate_bytes / gate_s / 1e9 if gate_s else 0.0, "GB/s"),
        "protocol.transcript_bytes": (counts["protocol.transcript_bytes"], "B"),
        "protocol.messages": (counts["protocol.messages"], "count"),
        "adversary.collusion.polys_enumerated": (enumerated, "count"),
        "adversary.collusion.useful_frac": (
            counts["adversary.collusion.candidates"] / enumerated if enumerated else 0.0,
            "ratio"),
        "cli.output_bytes": (result.output_bytes, "B"),
    })
    return metrics


def traced(wl, workload: str, seed: int, seconds: float, checks) -> tuple[dict, dict]:
    from tracer import Tracer

    tracer = Tracer()
    inputs = wl.inputs(0)
    plain, timed, layers, first = [], [], [], None
    start = perf_counter()
    while len(timed) < 2 or room(start, seconds, plain[-1] + timed[-1]):
        checks.equal("untraced pass runs without wrappers", tracer.removed(), [])
        wall, result = run_pass(wl, inputs, checks)
        plain.append(wall)
        if first is None:
            first = result
        else:
            same_outputs(checks, first, result)
        wall, result = run_pass(wl, inputs, checks, tracer)
        timed.append(wall)
        same_outputs(checks, first, result)
        layers.append(layer_metrics(tracer, result))
        del result
    checks.equal("wrappers removed after tracing", tracer.removed(), [])
    exact = [{k: v for k, v in m.items() if v[1] not in TIMED_UNITS} for m in layers]
    checks.record("traced passes give identical counts",
                  all(e == exact[0] for e in exact), "counts differ between passes")
    tracer.save(OUT / f"spans-{workload}-seed{seed}.npz", trace_id=len(timed) - 1)

    metrics = {
        name: (statistics.median(m[name][0] for m in layers), unit,
               f"median of {len(layers)} traced passes")
        if unit in TIMED_UNITS else (value, unit, "same in every traced pass")
        for name, (value, unit) in layers[0].items()
    }
    overhead = statistics.median(timed) / statistics.median(plain) - 1
    metrics["trace.overhead_frac"] = (
        overhead, "ratio", f"traced/untraced median wall - 1, {len(timed)}+{len(plain)} passes")
    return metrics, {"walls": plain, "traced_walls": timed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one qsms benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        help="demo, wide, attacks or field")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the inputs derive from it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsms" / "__init__.py").is_file():
        print(f"error: no qsms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    from checks import Checks, self_test
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    problems = self_test()
    if problems:
        print("error: these checks cannot fail: " + "; ".join(problems),
              file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    checks = Checks()
    measure = traced if args.trace else untraced
    metrics, samples = measure(wl, args.workload, args.seed, args.seconds, checks)
    if not args.trace:
        metrics["failed_frac"] = (checks.failed_frac, "ratio",
                                  f"{checks.failed} of {checks.attempted} checks failed")
    env = environment(nproc)

    print(f"qsms benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    for name, (value, unit, note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>12} {unit:<10} {note}")
    for failure in checks.failures:
        print(f"  check failed: {failure}")
    print("env " + json.dumps(env))
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({
        "args": vars(args), "env": env, "samples": samples,
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
        "metrics": {k: {"value": v, "unit": u, "note": note}
                    for k, (v, u, note) in metrics.items()},
    }, indent=2))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
