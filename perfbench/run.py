"""Run one benchmark workload against the rgg_spectra sources of this checkout.

    python3 perfbench/run.py --workload fig1-compare --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with no wrappers installed.
--trace 1 traces one set-up, then runs every operation twice, once plain and
once with every layer boundary wrapped, and reports per-layer metrics of the
traced copies and the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The measured operations run in this one
process; --trace 0 measures set-up in SETUP_REPEATS child processes, one
after another, because only a fresh interpreter pays the cold costs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

# The perfbench modules are imported inside functions: numpy must not load
# before pin_threads, and the checkout root joins sys.path only in main.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("fig1-compare", "mc-lattice-d1", "bounds-cli-d2-l2")
# One BLAS thread: a second one spin-waits between calls and competes with
# the interpreter's thread, which made repeated runs of one seed differ by
# up to a third on a 2-core machine.
BLAS_THREADS = 1
# setup_s is the median of this many cold set-ups, each in its own process.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# ops_per_s is the median throughput of this many consecutive slices of the
# measured operations, so a burst of outside load moves one slice, not the
# reported value.
ROUNDS = 5
# Samples that must lie beyond the reported tail latency.
TAIL_BEYOND = 10


def pin_threads() -> None:
    """Pin BLAS to BLAS_THREADS and leave RGG_SPECTRA_THREADS at its default
    of one worker.  Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("RGG_SPECTRA_THREADS", None)


def import_package():
    """Import rgg_spectra and its CLI module from this checkout's sources."""
    pkg = importlib.import_module("rgg_spectra")
    importlib.import_module("rgg_spectra.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rgg_spectra was imported from {pkg.__file__}, not from {SRC}")
    return pkg


class Ledger:
    """Operations attempted and failed; the first few problems go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, inp, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"operation {inp.index} (seed {inp.seed}) failed: {'; '.join(problems)}", file=sys.stderr)


def attempt(workload, pkg, inp, ledger: Ledger, counts: Counter, scope=None) -> float:
    """Run one operation, time it, check its output; returns its latency."""
    out, problems = None, []
    tic = time.perf_counter()
    try:
        if scope is None:
            out = workload.run(pkg, inp)
        else:
            with scope:
                out = workload.run(pkg, inp)
    except Exception as exc:  # a failed operation is counted, not fatal
        problems = [f"raised {exc!r}"]
    latency = time.perf_counter() - tic
    if not problems:
        try:
            problems = workload.check(pkg, inp, out, counts)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
    ledger.record(inp, problems)
    return latency


def warm_up(workload, pkg, ledger: Ledger, counts: Counter, scope=None) -> float:
    """The set-up's warm-up: the default seed's first operation, whose output
    is also checked against the recorded reference values."""
    from perfbench.workloads import DEFAULT_SEED, make_input

    return attempt(workload, pkg, make_input(DEFAULT_SEED, 0), ledger, counts, scope)


def cold_set_up(name: str, out_dir: Path) -> dict:
    """One set-up in a fresh interpreter: the first import of rgg_spectra and
    its CLI (numpy, scipy and their sub-imports included) plus the warm-up,
    whose lazy set-up (lattice-ESD cache fill, BLAS warm-up) lands here."""
    tic = time.perf_counter()
    pkg = import_package()
    imported = time.perf_counter() - tic
    from perfbench import workloads  # after the timed import: it loads numpy

    ledger = Ledger()
    warm = warm_up(workloads.build(name, out_dir), pkg, ledger, Counter())
    return {"setup_s": imported + warm, "import_s": imported, "failed": ledger.failed}


def cold_set_ups(name: str, run_dir: Path, ledger: Ledger) -> list[dict]:
    """SETUP_REPEATS cold set-ups, each in a child process that ends before
    the next starts; their warm-ups count as attempted operations."""
    results = []
    for k in range(SETUP_REPEATS):
        out_dir = run_dir / f"setup-{k}"
        out_dir.mkdir()
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seconds", "1"]
        proc = subprocess.run(
            command + ["--cold-setup", str(out_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )  # fmt: skip
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        ledger.attempted += 1
        ledger.failed += result["failed"]
        results.append(result)
    return results


def measure_for(workload, pkg, seed: int, seconds: float, ledger: Ledger) -> list[float]:
    """Closed loop until the operations' own time reaches `seconds`."""
    from perfbench.workloads import make_input

    latencies = []
    while sum(latencies) < seconds:
        latencies.append(attempt(workload, pkg, make_input(seed, len(latencies)), ledger, Counter()))
    return latencies


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it
    (fewer when the run is short): (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def throughput(latencies: list[float], per_op: int) -> float:
    """Median over ROUNDS consecutive slices of (work units done / time)."""
    size = len(latencies) / ROUNDS
    slices = [latencies[round(k * size) : round((k + 1) * size)] for k in range(ROUNDS)]
    return statistics.median(len(part) * per_op / sum(part) for part in slices if part)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(workload, set_ups: list[dict], latencies, ledger: Ledger) -> tuple[dict, list[str]]:
    value, percentile, beyond = tail(latencies)
    setup_times = [result["setup_s"] for result in set_ups]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (throughput(latencies, workload.trials_per_op), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    imports = ", ".join(f"{result['import_s']:.4f}" for result in set_ups)
    notes = {
        "setup_s": f"median of {len(set_ups)} cold set-ups: {', '.join(f'{t:.4f}' for t in setup_times)}"
        f" (import part: {imports})",
        "ops_per_s": f"{'trials' if workload.trials_per_op > 1 else 'operations'} per second, median of {ROUNDS} slices",
        "op_tail_s": f"p{percentile:.1f}, {beyond} of {len(latencies)} samples beyond",
    }
    lines = [f"{name} {v!r} {unit}  {notes.get(name, '')}".rstrip() for name, (v, unit) in metrics.items()]
    fail_rate = ledger.failed / ledger.attempted
    lines.append(f"fail_rate {fail_rate!r} ratio  {ledger.failed} of {ledger.attempted} operations, warm-ups included")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}, lines


def traced(workload, pkg, import_s: float, seed: int, seconds: float, ledger: Ledger, trace_path: Path, settings: dict):
    """A traced set-up on `pkg`, imported in `import_s` seconds, then
    each operation twice, untraced and traced in alternating order, until
    the untraced copies reach half the time; the tracer's wrappers are
    installed only around the traced warm-up and the traced copies."""
    from perfbench.tracer import PER_LAYER, SETUP_OP, Tracer, layer_metrics, setup_metrics
    from perfbench.workloads import make_input

    tracer, counts = Tracer(pkg), Counter()
    misses = pkg.harness._dgg_esd.cache_info().misses
    with tracer:
        warm = warm_up(workload, pkg, ledger, counts, tracer.operation(SETUP_OP))
    values = setup_metrics(tracer.spans, import_s, warm)
    values["dgg.lattice_esd_misses"] = pkg.harness._dgg_esd.cache_info().misses - misses

    counts.clear()
    plain, latencies = [], []
    while sum(plain) < seconds / 2:
        inp = make_input(seed, len(plain))
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if with_trace:
                with tracer:
                    latencies.append(attempt(workload, pkg, inp, ledger, counts, tracer.operation(inp.index)))
            else:
                plain.append(attempt(workload, pkg, inp, ledger, Counter()))
    values.update(layer_metrics(tracer.spans))
    values["cli.bytes_written"] = counts["cli.bytes_written"] / len(latencies)
    values["trace.overhead_frac"] = sum(latencies) / sum(plain) - 1.0
    tracer.write(trace_path, settings)
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    lines = [
        f"{name} {values[name]!r} {unit}{'  (computed)' if computed else ''}"
        for name, (unit, computed) in PER_LAYER.items()
    ]
    lines.append(f"trace file {trace_path.name} ({len(tracer.spans)} spans, {len(latencies)} traced operations)")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One cold set-up of the workload with its output in the given directory;
    # the run starts this in child processes.
    parser.add_argument("--cold-setup", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "rgg_spectra" / "__init__.py").is_file():
        print(f"error: no rgg_spectra sources under {SRC}", file=sys.stderr)
        return 2

    pin_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.cold_setup is not None:
        print(json.dumps(cold_set_up(args.workload, args.cold_setup)))
        return 0
    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        ledger = Ledger()
        set_ups = [] if args.trace else cold_set_ups(args.workload, run_dir, ledger)
        # numpy is imported only now, after the BLAS thread count is pinned,
        # and first by the package, so a traced set-up's import matches a cold one.
        tic = time.perf_counter()
        pkg = import_package()
        import_s = time.perf_counter() - tic
        import numpy
        import scipy

        from perfbench import workloads

        settings = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "blas_threads": BLAS_THREADS,
            "usable_cores": len(os.sched_getaffinity(0)),
            "RGG_SPECTRA_THREADS": "unset (package default: 1 worker)",
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        out_dir = run_dir / "ops"
        out_dir.mkdir()
        workload = workloads.build(args.workload, out_dir)
        if args.trace:
            trace_path = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, lines = traced(workload, pkg, import_s, args.seed, args.seconds, ledger, trace_path, settings)
        else:
            warm_up(workload, pkg, ledger, Counter())
            latencies = measure_for(workload, pkg, args.seed, args.seconds, ledger)
            metrics, lines = end_to_end(workload, set_ups, latencies, ledger)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("settings " + " ".join(f"{k}={v}" for k, v in settings.items()))
    print("\n".join(lines))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
