"""One workload in a fresh process: set-up, then timed jobs.

Started by ``run.py`` with BLAS pinned to one thread. It runs in one of
three modes:

- ``--setup-only``: stop after set-up and report only the set-up time.
- ``--serve``: run one job per request read from stdin, for the paired run
  of ``--trace 0``. Requests are ``run <index>`` and ``quit``; each is
  answered with one JSON line.
- otherwise: timed passes over the job list until ``--seconds`` is used up,
  for the traced run of ``--trace 1``.

Whichever ``ringecho`` is first on ``PYTHONPATH`` is the program measured;
``--expect`` names the directory it must come from.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter


def run_job(job, tracer) -> dict:
    """Run one job. Only ``job.run`` is timed; with a tracer, the wrappers
    are installed only while the job runs, so its check leaves no spans."""
    if tracer is not None:
        tracer.install()
    w0, c0 = perf_counter(), time.process_time()
    try:
        out, reason = job.run(), None
    except Exception as exc:  # a failed job is recorded, never fatal
        out, reason = None, f"{type(exc).__name__}: {exc}"
    c1, w1 = time.process_time(), perf_counter()
    if tracer is not None:
        tracer.uninstall()
    if reason is None:
        try:
            reason = job.check(out)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
    del out
    if job.out_dir is not None:
        if tracer is not None and job.out_dir.is_dir():
            tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in job.out_dir.iterdir())
        shutil.rmtree(job.out_dir, ignore_errors=True)
    return {"job": job.name, "wall_s": w1 - w0, "cpu_s": c1 - c0, "reason": reason}


def run_pass(job_list, tracer) -> dict:
    """Run every job once."""
    if tracer is not None:
        tracer.reset()
    t_pass = perf_counter()
    records = []
    for i, job in enumerate(job_list):
        if tracer is not None:
            tracer.job = i
        records.append(run_job(job, tracer))
    result = {
        "traced": tracer is not None,
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "elapsed_s": perf_counter() - t_pass,
        "jobs": records,
    }
    if tracer is not None:
        result["layers"], result["absent"] = tracer.layer_metrics()
        result["called"] = sorted(tracer.called())
    return result


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def summary(jobs, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "known_defects": jobs.KNOWN_DEFECTS,
        "negative_control": jobs.NEGATIVE_CONTROL,
        "env": environment(),
    }


def serve(jobs, job_list, setup_s: float) -> int:
    """Answer ``run <index>`` and ``quit`` on stdin, one JSON line each.

    Replies go to a copy of the original stdout; fd 1 itself is pointed at
    stderr, so nothing the program prints can break the protocol.
    """
    reply = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(obj) -> None:
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    send({"setup_s": setup_s, "jobs": [job.name for job in job_list]})
    for line in sys.stdin:
        request = line.split()
        if request[:1] == ["run"]:
            send(run_job(job_list[int(request[1])], None))
        elif request == ["quit"]:
            send(summary(jobs, setup_s))
            return 0
        else:
            print(f"error: unknown request {line!r}", file=sys.stderr)
            return 2
    return 1  # stdin closed without quit: the parent is gone


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--memory-cap", type=int, required=True)
    ap.add_argument("--expect", required=True, help="directory the ringecho package must come from")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--serve", action="store_true")
    args = ap.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (args.memory_cap, args.memory_cap))
    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)

    t0 = perf_counter()
    import jobs  # imports ringecho and numpy

    job_list = jobs.build(args.workload, args.seed, work)
    jobs.warm_up(args.workload, work)
    setup_s = perf_counter() - t0
    origin = Path(jobs.ringecho.__file__).resolve().parent.parent
    if origin != Path(args.expect).resolve():
        print(f"error: ringecho was imported from {origin}, not {args.expect}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.serve:
        return serve(jobs, job_list, setup_s)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    # with tracing, untraced and traced passes alternate so both see the
    # same machine state; trace.overhead_s is the difference of their medians
    min_passes = 2 if tracer else 1
    passes: list[dict] = []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        p = run_pass(job_list, tracer if traced else None)
        passes.append(p)
        elapsed = perf_counter() - t_start
        if len(passes) >= min_passes and elapsed + p["elapsed_s"] > args.seconds:
            break
    if tracer is not None:
        # spans of the last traced pass, written once the timing is over
        with open(work.parent / f"spans_{args.workload}.jsonl", "w") as fh:
            for rec in tracer.span_records(t_start):
                fh.write(json.dumps(rec) + "\n")
    print(json.dumps({
        **summary(jobs, setup_s),
        "passes": passes,
        "public": tracer.public() if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
