"""entwave benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload cli-roundtrip --seed 1 --seconds 30 --trace 0

``--trace 0`` times passes with the program untouched and prints the
end-to-end metrics; ``--trace 1`` reruns pass 0 with and without the span
tracer, then once more under ENTWAVE_THREADS=1, and prints the per-layer
metrics.  Metric names, units and workloads come from BENCHMARK.json at the
repository root.  The last stdout line is the JSON result; the lines before
it hold the environment block and a readable table.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# Set-up samples taken before and after the passes, so that their median spans
# the run rather than one stretch of a shared host's speed.
SETUP_REPEATS = (2, 3)
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from entwave.cli import main; main(['wavelet', 'info'])")


def import_program():
    """Import entwave from this checkout's src/, or exit non-zero if it is not there."""
    if not (SRC / "entwave" / "__init__.py").is_file():
        sys.exit(f"perfbench: no entwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import entwave

    if SRC.resolve() not in Path(entwave.__file__).resolve().parents:
        sys.exit(f"perfbench: imported entwave from {entwave.__file__}, not {SRC}")
    return entwave


def measure_setup(repeats: int) -> tuple[list, bool]:
    """Times for a fresh interpreter to import the CLI and run `wavelet info`."""
    times, ok = [], True
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        ok = ok and proc.returncode == 0 and "c_psi_prime: 0.5" in proc.stdout
    return times, ok


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def _cache_bytes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            out[f"l{level}_bytes"] = int(size.rstrip("KM")) * scale
    return out


def environment(workload) -> dict:
    import numpy
    import scipy

    blas = {k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ENTWAVE_THREADS": os.environ.get("ENTWAVE_THREADS", "unset"),
        "blas_threads": blas,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_cache_bytes(),
        "working_set": workload.working_set(),
    }


@contextlib.contextmanager
def env_var(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def run_checks(workload, seed: int) -> tuple[int, int]:
    """Once-per-run gates outside the timed region: (attempted, failed)."""
    try:
        results = workload.check(seed)
    except Exception as exc:
        print(f"perfbench: check raised {exc!r}", file=sys.stderr)
        return 1, 1
    failed = 0
    for name, (error, bound) in results.items():
        passed = error <= bound
        failed += not passed
        print(f"check {name}: {error:.3e} <= {bound:.0e} {'PASS' if passed else 'FAIL'}")
    return len(results), failed


def timed_pass(workload, inputs, ops, pass_id: str) -> tuple[float, float]:
    ops.start_pass(pass_id)
    t0 = time.perf_counter()
    rel = workload.run_pass(inputs, ops)
    return time.perf_counter() - t0, rel


def passes_for(workload, seconds: float) -> int:
    """Passes that fill ``seconds`` on the reference machine, at least one.

    A fixed count, rather than a deadline, times the same work on every
    machine and on both sides of a comparison.
    """
    return max(1, int(seconds // workload.PASS_SECONDS))


def op_quantiles(seconds: list) -> tuple[float, float]:
    """p50 and p90 of one pass's op latencies (inclusive deciles)."""
    if len(seconds) < 2:
        return seconds[0], seconds[0]
    deciles = statistics.quantiles(seconds, n=10, method="inclusive")
    return deciles[4], deciles[8]


def _median_finite(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else math.nan


def untraced_run(workload, seed: int, seconds: float):
    from workloads import OpLog

    setup_times, setup_ok = measure_setup(SETUP_REPEATS[0])
    ops = OpLog()
    walls, rels, quantiles = [], [], []
    for index in range(passes_for(workload, seconds)):
        first_op = len(ops.seconds)
        wall, rel = timed_pass(workload, workload.inputs(seed, index), ops, str(index))
        walls.append(wall)
        rels.append(rel)
        quantiles.append(op_quantiles(ops.seconds[first_op:]))
    # Read before the checks, whose grids are not part of the workload.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    more_times, more_ok = measure_setup(SETUP_REPEATS[1])
    attempted, failed = run_checks(workload, seed)
    attempted, failed = attempted + 1, failed + (not (setup_ok and more_ok))
    metrics = {
        "setup_s": statistics.median(setup_times + more_times),
        "wall_s": statistics.median(walls),
        "op_s.p50": statistics.median(q[0] for q in quantiles),
        "op_s.p90": statistics.median(q[1] for q in quantiles),
        "peak_rss_mb": peak_rss_mb,
        "rel_err": _median_finite(rels),
    }
    notes = {"pass_walls_s": walls, "ops": len(ops.seconds), "setup_repeats": sum(SETUP_REPEATS)}
    return metrics, attempted + len(ops.seconds), failed + ops.failed, notes


def traced_run(workload, seed: int, seconds: float, spans_path: Path):
    """Pass 0 after a warm-up: untraced and traced in turn, then traced with one thread."""
    from tracing import Tracer, layer_metrics
    from workloads import OpLog

    tracer = Tracer()
    with tracer.installed(), tracer.op("check"):
        attempted, failed = run_checks(workload, seed)
    check_layers = layer_metrics(tracer.spans)
    inputs = workload.inputs(seed, 0)
    plain, traced = OpLog(), OpLog(tracer)
    # First-pass costs would bias the overhead.
    timed_pass(workload, workload.warmup_inputs(inputs), plain, "warmup")
    untraced_walls, traced_walls, layers, digests = [], [], [], []
    for rep in range(passes_for(workload, seconds / 2)):
        # Alternate which of the pair runs first, so drift does not bias the overhead.
        for tracing_on in ((False, True) if rep % 2 == 0 else (True, False)):
            if tracing_on:
                first = len(tracer.spans)
                with tracer.installed():
                    wall, _ = timed_pass(workload, inputs, traced, f"traced{rep}")
                traced_walls.append(wall)
                layers.append(layer_metrics(tracer.spans[first:]))
            else:
                wall, _ = timed_pass(workload, inputs, plain, f"untraced{rep}")
                untraced_walls.append(wall)
            digests.append(workload.output_digest())
    first = len(tracer.spans)
    with env_var("ENTWAVE_THREADS", "1"), tracer.installed():
        timed_pass(workload, inputs, traced, "threads1")
    one_thread = layer_metrics(tracer.spans[first:])
    digests.append(workload.output_digest())
    tracer.write_jsonl(spans_path)

    metrics = {name: statistics.median(rep[name] for rep in layers) for name in layers[0]}
    metrics["fock.completeness_gram.busy_s"] = check_layers["fock.completeness_gram.busy_s"]
    for layer in ("ccwt.forward_fast", "ccwt.inverse"):
        ms, ms_1t = metrics[f"{layer}.ms_per_plane"], one_thread[f"{layer}.ms_per_plane"]
        metrics[f"{layer}.ms_per_plane_1t"] = ms_1t
        metrics[f"{layer}.thread_speedup"] = ms_1t / ms if ms else 0.0
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    invariant = len(set(digests)) == 1
    print(f"check output_bytes_invariant (tracing on/off, ENTWAVE_THREADS=1/default): "
          f"{'PASS' if invariant else 'FAIL'}")
    attempted += 1 + len(plain.seconds) + len(traced.seconds)
    failed += (not invariant) + plain.failed + traced.failed
    metrics["fail_ratio"] = failed / attempted
    notes = {"repetitions": len(layers), "spans": len(tracer.spans), "spans_file": str(spans_path)}
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work)
        print(json.dumps({"environment": environment(workload)}))
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, attempted, failed, notes = traced_run(workload, args.seed, args.seconds,
                                                           spans_path)
        else:
            metrics, attempted, failed, notes = untraced_run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(listed):
        sys.exit(f"perfbench: computed metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(listed))}")
    missing = sorted(name for name, value in metrics.items() if not math.isfinite(value))
    if missing:
        sys.exit(f"perfbench: no measured value for {missing}; "
                 f"{failed} of {attempted} ops or checks failed")
    print(json.dumps({"notes": notes}))
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {listed[name]}")
    if "fail_ratio" not in metrics:
        print(f"{'fail_ratio':<36} {failed / attempted:>16.6g} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": listed[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
