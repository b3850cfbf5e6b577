"""Benchmark of aaqpt: three closed-loop workloads, timed end to end and,
in a separate traced run, module by module.

    python3 bench/run.py                          # every workload, one process each
    python3 bench/run.py --workload extract_large --seed 3 --seconds 20 --trace 0

A run sets up (imports, input generation and warm-up), then repeats one
operation for ``--seconds`` seconds, at least MIN_OPS times, and checks
every operation's output against the independent references of
``reference.py``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Result and trace files go to ``bench/out/``.  See README.md.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread, set before anything imports numpy: with OpenBLAS's
# default thread count on a small machine, products of 48 x 48 complex
# matrices stall at random.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("experiment_shots", "extract_large", "cli_qutrit")
MIN_OPS = 100
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

# The import that setup_s times, run in a fresh interpreter.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, aaqpt, aaqpt.cli; "
    "print(time.perf_counter() - t)"
)

LAYER_MS = (
    "tomography.run_exact",
    "tomography.born_table",
    "tomography.sample",
    "tomography.linear_inversion",
    "tomography.project",
    "realignment.is_faithful",
    "realignment.ccnr_sum",
    "realignment.ppt_min_eigenvalue",
    "extraction.extract",
    "extraction.reachable_report",
    "channel.apply_extended",
    "channel.propagate",
    "channel.superop_to_choi",
    "qstate.validate_density",
    "qstate.fidelity",
    "serialize.load",
    "serialize.dump",
    "cli.main_self",
    "catalog.build",
)
LAYER_CALLS = (
    "tomography.run_exact",
    "tomography.born_table",
    "tomography.project",
    "extraction.extract",
    "qstate.validate_density",
)
MODULE_TOTALS = ("qstate", "realignment", "channel", "extraction", "tomography")


def import_program() -> None:
    """Import aaqpt from this checkout's ``src``, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import aaqpt
    except ImportError as exc:
        print(f"error: cannot import aaqpt from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(aaqpt.__file__).resolve().is_relative_to(SRC):
        print(f"error: aaqpt was imported from {aaqpt.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and aaqpt."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def prepare(name: str, seed: int, work: Path):
    """Generate the inputs from the seed and run the warm-up operations.
    Any integer is a seed: it is taken modulo 2**64, so negative ones work."""
    import numpy as np
    import workloads

    w = workloads.make(name, work)
    w.prepare(np.random.default_rng(seed % 2**64))
    for _ in range(workloads.WARMUP_OPS):
        inp = w.next_input()
        w.check(inp, w.run(inp))
    return w


def setup(name: str, seed: int, work: Path):
    """Set up SETUP_REPEATS times; return the last workload and setup_s,
    the median import time plus the median preparation time."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    preps = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        w = prepare(name, seed, work)
        preps.append(time.perf_counter() - start)
    return w, statistics.median(imports) + statistics.median(preps)


def measure(w, seconds: float, tracer=None) -> dict:
    """The closed loop.  With a tracer, every second operation runs with
    the wrappers installed; the others give the untraced reference."""
    lat, cpu, traced_lat, errors, mismatches = [], [], [], [], []
    attempted = failed = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted < MIN_OPS:
        inp = w.next_input()
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.install()
        attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = w.run(inp)
        except Exception:
            failed += 1
            errors.append(traceback.format_exc())
            continue
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if traced:
                tracer.uninstall()
        (traced_lat if traced else lat).append(t1 - t0)
        if not traced:
            cpu.append(c1 - c0)
        try:
            w.check(inp, out)
        except Exception:
            mismatches.append(traceback.format_exc())
    return {
        "attempted": attempted,
        "failed": failed,
        "lat": lat,
        "cpu": cpu,
        "traced_lat": traced_lat,
        "errors": errors,
        "mismatches": mismatches,
    }


def end_to_end(loop: dict, setup_s: float) -> dict:
    lat = loop["lat"]
    ms = [x * 1e3 for x in lat]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "cpu_ms_per_op": (sum(loop["cpu"]) * 1e3 / len(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(loop: dict, tracer) -> dict:
    n = len(loop["traced_lat"])
    metrics = {}
    for key in LAYER_MS:
        metrics[f"{key}_ms"] = (tracer.self_ns.get(key, 0) / 1e6 / n, "ms")
    for key in LAYER_CALLS:
        metrics[f"{key}_calls"] = (tracer.calls.get(key, 0) / n, "count")
    for module in MODULE_TOTALS:
        total = sum(v for k, v in tracer.self_ns.items() if k.split(".")[0] == module)
        metrics[f"{module}.self_ms"] = (total / 1e6 / n, "ms")
    traced_ms = sum(loop["traced_lat"]) * 1e3 / n
    metrics["trace.outside_ms"] = (traced_ms - sum(tracer.self_ns.values()) / 1e6 / n, "ms")
    overhead = statistics.median(loop["traced_lat"]) / statistics.median(loop["lat"]) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def trace_table(tracer, n: int) -> dict:
    keys = sorted(tracer.calls, key=lambda k: -tracer.self_ns[k])
    return {
        k: {"self_ms_per_op": tracer.self_ns[k] / 1e6 / n, "calls_per_op": tracer.calls[k] / n}
        for k in keys
    }


def run_one(args) -> int:
    import_program()
    from tracer import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        w, setup_s = setup(args.workload, args.seed, work)
        loop = measure(w, args.seconds, tracer)
        if tracer is not None and tracer.missing:
            print(f"warning: not found, so their metrics read 0: {tracer.missing}", file=sys.stderr)
        try:
            w.final_check()
        except Exception:
            loop["mismatches"].append(traceback.format_exc())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in (loop["errors"] + loop["mismatches"])[:5]:
        print(problem, file=sys.stderr, end="")
    correct = not loop["mismatches"]
    if args.trace:
        metrics = per_layer(loop, tracer)
        table = trace_table(tracer, len(loop["traced_lat"]))
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "traced_ops": len(loop["traced_lat"]),
                                    "functions": table}, indent=1) + "\n")
    else:
        metrics = end_to_end(loop, setup_s)
    result = {
        "correct": correct,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a process of its own, one after the other."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + args.seconds)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {key:36s} {m['value']:12.4f} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
