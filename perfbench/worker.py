"""One closed-loop client calling steercert.cli.main in process.

Usage: python3 worker.py REQUEST.json

REQUEST holds the cycle (a list of argv lists), the seconds to measure,
the directory for outputs and whether to trace. The worker imports the
CLI, runs one untimed warm-up cycle, then repeats whole cycles until the
time is up, so every run attempts the same mix. Each call's stdout goes
to <outdir>/<seq>.out for the checker; nothing is checked here, so the
worker's time and memory are the program's. Before every call, and once
after the last, the worker times a fixed reference kernel, so that each
call can be set against the speed of the core around it (see run.py). A
traced worker also runs one cycle under tracemalloc before the timed part
and keeps its spans in memory until the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import tracemalloc
from time import perf_counter, process_time

import numpy as np

# The reference kernel: a little of what every CLI call does (JSON
# parsing, small dense linear algebra, interpreted Python), on fixed
# inputs and with none of the program's code. Its matrices are small
# enough that BLAS never splits them over threads, so a BLAS thread
# setting made by the program cannot change its time.
_REF_RNG = np.random.default_rng(0)
_REF_M = _REF_RNG.standard_normal((32, 32, 2)) @ [1, 1j]
_REF_M = _REF_M + _REF_M.conj().T
_REF_DOC = json.dumps(_REF_RNG.standard_normal((32, 64, 2)).tolist())
# About its wall time between two calls on a free core of the machine in
# README.md. Alone it takes 2.2 ms there; between calls it is slower, as
# each call leaves the caches full of its own data.
REF_FREE_S = 3.0e-3


def reference_kernel() -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = perf_counter()
    np.array(json.loads(_REF_DOC))
    _REF_M @ _REF_M
    np.linalg.eigvalsh(_REF_M)
    np.kron(_REF_M[:8, :8], _REF_M[:8, :8]).sum()
    table = {}
    for i in range(800):
        table[str(i)] = [i, i * 0.5]
    return perf_counter() - t0


def call(main, argv):
    """(exit code, name of an escaped exception or None, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code, exc = main(argv), None
        except SystemExit as e:  # argparse usage errors
            code, exc = e.code, None
        except Exception as e:  # the loop goes on; the checker reports it
            code, exc = None, type(e).__name__
    return code, exc, out.getvalue()


def run_cycles(call_fn, cycle, seconds, outdir, records, tracer=None):
    """Whole cycles until `seconds` have passed (one cycle if 0).

    Appends one record per call with its wall time, its CPU time
    (user+system of every thread of the process) and the time of the
    reference kernel run just before it. Returns the time of the kernel
    run after the last call.
    """
    start = perf_counter()
    while True:
        for i, argv in enumerate(cycle):
            seq = len(records)
            ref = reference_kernel()
            if tracer is not None:
                tracer.op = seq
            t0, c0 = perf_counter(), process_time()
            code, exc, text = call_fn(argv)
            latency, cpu = perf_counter() - t0, process_time() - c0
            with open(os.path.join(outdir, f"{seq}.out"), "w", encoding="utf-8") as fh:
                fh.write(text)
            records.append({
                "op": i, "code": code, "exc": exc,
                "latency_s": latency, "cpu_s": cpu, "ref_s": ref,
            })
        if perf_counter() - start >= seconds:
            return reference_kernel()


def peak_alloc_call(main):
    """A call() that also records the tracemalloc peak above its start."""
    peaks = []

    def measured(argv):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call(main, argv)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return result

    return measured, peaks


def main(request_path: str) -> None:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    cycle, outdir = req["cycle"], req["outdir"]
    from steercert import cli

    records: list[dict] = []
    passes = {}

    def run_pass(name, call_fn, seconds, tracer=None):
        first = len(records)
        ref_end = run_cycles(call_fn, cycle, seconds, outdir, records, tracer)
        passes[name] = {"first": first, "count": len(records) - first, "ref_end_s": ref_end}

    run_pass("warmup", lambda argv: call(cli.main, argv), 0)
    summary = {"passes": passes, "records": records}
    if req["trace"]:
        from spans import Tracer, install

        measured, peaks = peak_alloc_call(cli.main)
        tracemalloc.start()
        run_pass("alloc", measured, 0)
        tracemalloc.stop()
        summary["peak_alloc_mb"] = max(peaks) / 2**20
        tracer = Tracer()
        traced_main = install(tracer)
        run_pass("timed", lambda argv: call(traced_main, argv), req["seconds"], tracer)
        summary["spans"] = tracer.spans
    else:
        run_pass("timed", lambda argv: call(cli.main, argv), req["seconds"])
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


if __name__ == "__main__":
    main(sys.argv[1])
