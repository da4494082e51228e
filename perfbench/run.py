"""Benchmark of the steercert command line: three closed-loop workloads.

Usage, from the root of a steercert checkout:

    python3 perfbench/run.py --workload certify_devices --seed 1 --seconds 20 --trace 0

The workloads are certify_devices, bounds_scan and povm_randomness (see
inputs.py and README.md). Each run makes its inputs from --seed in this
process, starts one worker process that calls steercert.cli.main in a
closed loop for --seconds, checks every output, and prints one JSON
object as its last line: correct, attempted, failed and the metrics.
With --trace 0 these are the end-to-end metrics; with --trace 1 a second,
traced worker gives the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import check
from inputs import WORKLOADS, make_plan
from spans import aggregate, span_names
from worker import REF_FREE_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
# Fresh interpreters timed for setup_s, before and after the worker, so one
# slow stretch of the machine does not set the median.
SETUP_REPEATS = (4, 4)
IMPORTTIME_REPEATS = 3
WORKER_TIMEOUT_S = 170
# Operations that fail on every run because of a known program fault;
# they are counted in `failed` and do not make the run incorrect.
KNOWN_FAULTS = {"certify_nan"}
LAYER_CALLS = ("measurements.is_projective", "povm.is_extremal_rank_one")
IMPORT_ROOTS = ("numpy", "scipy", "jsonschema", "steercert")


# One BLAS thread: on 2 cores a second OpenBLAS thread gives the workloads
# no speed-up, spins while idle and makes every timing depend on whether
# the other core is free.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def program_env() -> dict:
    """Environment of every program process: this checkout's sources first,
    STEERCERT_THREADS unset, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("STEERCERT_THREADS", None)
    env.update(BLAS_THREADS)
    return env


def source_version() -> str:
    text = (SRC / "steercert" / "__init__.py").read_text(encoding="utf-8")
    m = re.search(r'^__version__ = "([^"]+)"', text, re.M)
    if not m:
        raise SystemExit("steercert/__init__.py names no __version__")
    return m.group(1)


def measure_setup(env, repeats: int) -> list[float]:
    """Wall times of fresh `python3 -m steercert.cli --version` calls."""
    want = source_version()
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        p = subprocess.run(
            [sys.executable, "-m", "steercert.cli", "--version"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        times.append(perf_counter() - t0)
        if p.returncode != 0 or p.stdout.strip() != want:
            raise SystemExit(f"steercert --version failed: {p.returncode} {p.stderr[-300:]}")
    return times


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds per package root, outermost imports only."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header row
            continue
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        rows.append((level, name.strip(), cumulative))
    totals = dict.fromkeys(IMPORT_ROOTS, 0.0)
    stack: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(rows):  # parents before children
        while stack and stack[-1][0] >= level:
            stack.pop()
        root = name.split(".")[0]
        if root in totals and all(n.split(".")[0] != root for _, n in stack):
            totals[root] += cumulative / 1e6
        stack.append((level, name))
    return totals


def measure_imports(env) -> dict:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        p = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import steercert.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if p.returncode != 0:
            raise SystemExit(f"importing steercert.cli failed: {p.stderr[-300:]}")
        runs.append(parse_importtime(p.stderr))
    return {
        f"setup.import_{root}_s": statistics.median(r[root] for r in runs)
        for root in IMPORT_ROOTS
    }


def run_worker(plan, seconds, outdir: Path, trace: bool, env) -> dict:
    outdir.mkdir(parents=True)
    request = outdir / "request.json"
    request.write_text(json.dumps({
        "cycle": [op["argv"] for op in plan],
        "seconds": seconds,
        "outdir": str(outdir),
        "trace": trace,
    }))
    worker = Path(__file__).resolve().parent / "worker.py"
    subprocess.run(
        [sys.executable, str(worker), str(request)],
        env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S,
    )
    return json.loads((outdir / "summary.json").read_text())


def check_records(plan, summary, outdir: Path) -> tuple[bool, int]:
    """Check every output of every pass.

    Returns whether all were right, known faults aside, and how many
    calls of the timed pass failed.
    """
    correct = True
    failed = 0
    for name, p in summary["passes"].items():
        for seq in range(p["first"], p["first"] + p["count"]):
            rec = summary["records"][seq]
            op = plan[rec["op"]]
            text = (outdir / f"{seq}.out").read_text(encoding="utf-8")
            reason = check(op, rec["code"], rec["exc"], text)
            if reason is None:
                continue
            failed += name == "timed"
            if op["kind"] not in KNOWN_FAULTS:
                correct = False
                print(f"WRONG {name} #{seq} {' '.join(op['argv'])[:120]}: {reason}", file=sys.stderr)
    return correct, failed


def quantile(sorted_values, q: float) -> float:
    h = (len(sorted_values) - 1) * q
    lo = int(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def corrected_times(pass_, records, n_ops: int) -> tuple[list, list]:
    """Wall and CPU seconds of each call of the cycle, corrected for the
    speed of the host while it ran.

    On a shared host the core slows down by up to 1.8 times for stretches
    that can outlast a run, so raw times spread from run to run with the
    host's load, not the program's. Each call is therefore divided by the
    mean time of the reference kernel run just before and just after it,
    which the same slowdown stretches in the same way, and the median of
    that ratio over the pass is turned back into seconds with the kernel's
    time on a free core.
    """
    seqs = range(pass_["first"], pass_["first"] + pass_["count"])
    refs = [records[s]["ref_s"] for s in seqs] + [pass_["ref_end_s"]]
    lat = [[] for _ in range(n_ops)]
    cpu = [[] for _ in range(n_ops)]
    for j, s in enumerate(seqs):
        r = records[s]
        ref = (refs[j] + refs[j + 1]) / 2
        lat[r["op"]].append(r["latency_s"] / ref)
        cpu[r["op"]].append(r["cpu_s"] / ref)
    return (
        [REF_FREE_S * statistics.median(v) for v in lat],
        [REF_FREE_S * statistics.median(v) for v in cpu],
    )


def end_to_end(summary, n_ops: int) -> dict:
    p = summary["passes"]["timed"]
    lat, cpu = corrected_times(p, summary["records"], n_ops)
    ordered = sorted(lat)
    p90 = quantile(ordered, 0.9)
    # Each call of the cycle ran p["count"] / n_ops times.
    beyond = sum(t > p90 for t in lat) * p["count"] // n_ops
    if beyond < 10:
        print(f"warning: only {beyond} calls beyond p90; run longer", file=sys.stderr)
    return {
        "throughput_ops_s": (n_ops / sum(lat), "ops/s"),
        "latency_p50_s": (quantile(ordered, 0.5), "s"),
        "latency_p90_s": (p90, "s"),
        "cpu_per_op_s": (sum(cpu) / n_ops, "s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }


def per_layer(traced, untraced, n_ops: int) -> dict:
    p = traced["passes"]["timed"]
    layers = aggregate(traced["spans"], p["count"])
    # Busy time of every layer on every workload; an idle layer reads 0.
    out = {f"{n}_s": (layers[n]["busy"], "s") for n in span_names()}
    out["cli.self_s"] = (layers["cli.main"]["self"], "s")
    for n in LAYER_CALLS:
        out[f"{n}.calls"] = (layers[n]["calls"], "count")
    out["cli.main.peak_alloc_mb"] = (traced["peak_alloc_mb"], "MB")
    traced_tput = n_ops / sum(corrected_times(p, traced["records"], n_ops)[0])
    untraced_tput = n_ops / sum(corrected_times(untraced["passes"]["timed"], untraced["records"], n_ops)[0])
    out["trace.throughput_ops_s"] = (traced_tput, "ops/s")
    out["trace.overhead_pct"] = (100.0 * (untraced_tput / traced_tput - 1.0), "%")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run then kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not (SRC / "steercert" / "cli.py").is_file():
        print(f"perfbench: no steercert sources under {SRC}", file=sys.stderr)
        return 2
    env = program_env()
    metrics = {}
    measure_setup(env, 1)  # byte-compiles the sources; not counted
    if args.trace:
        metrics.update((k, (v, "s")) for k, v in measure_imports(env).items())
    else:
        setup = measure_setup(env, SETUP_REPEATS[0])
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = make_plan(args.workload, args.seed, str(workdir))
        # A traced run splits its time between an untraced and a traced worker.
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = run_worker(plan, seconds, workdir / "untraced", False, env)
        correct, failed = check_records(plan, untraced, workdir / "untraced")
        attempted = untraced["passes"]["timed"]["count"]
        if args.trace:
            traced = run_worker(plan, seconds, workdir / "traced", True, env)
            ok, traced_failed = check_records(plan, traced, workdir / "traced")
            correct = correct and ok
            attempted += traced["passes"]["timed"]["count"]
            failed += traced_failed
            metrics.update(per_layer(traced, untraced, len(plan)))
            OUT.mkdir(exist_ok=True)
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps({
                "fields": ["name", "parent", "op", "start_s", "end_s"],
                "ops": [plan[r["op"]]["argv"][0] for r in traced["records"]],
                "spans": traced["spans"],
            }))
        else:
            metrics.update(end_to_end(untraced, len(plan)))
            setup += measure_setup(env, SETUP_REPEATS[1])
            metrics["setup_s"] = (statistics.median(setup), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
