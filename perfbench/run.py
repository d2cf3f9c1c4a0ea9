"""Benchmark for ringecho.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each was chosen):
``paper_figures``, ``validate_rho`` and ``highq_layers``. The workload is a
closed loop: one process issues the jobs one after another, and repeats the
job list until ``--seconds`` is used up. Each run starts fresh child
processes with BLAS pinned to one thread and a fixed address-space cap, so an
allocation larger than the cap fails one job instead of the machine.

With ``--trace 0`` the program in ``src/`` is timed job by job against a
fixed copy of the seed program in ``perfbench/seed/``, each in its own child
process, one job at a time; the last stdout line reports the end-to-end
metrics. With ``--trace 1`` it reports the per-layer metrics of the traced
passes of ``src/`` alone. Both print every job's verdict, the environment
and every metric by name and unit before that line. Exit code 0 on a
completed run, 1 if a child process fails, 2 on bad arguments or a missing
``src/ringecho``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, PER_LAYER_UNITS, RATIO_BASES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"                       # the program measured
SEED_SRC = ROOT / "perfbench" / "seed"   # the seed program it is timed against
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("paper_figures", "validate_rho", "highq_layers")
MEMORY_CAP = 3 << 30          # bytes of address space for each child process
SETUP_SAMPLES = 3             # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170.0           # every child must end within this of the start
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_vs_seed": "ratio", "cpu_vs_seed": "ratio", "peak_rss_mb": "MB",
                    "failed_frac": "1", "setup_s": "s"}


def tree_sha256(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def source_identity() -> dict:
    """The git commit when the checkout has one, and digests of the program
    and of the seed copy always."""
    ident = {}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        ident["git_commit"] = ref
    ident["source_sha256"] = tree_sha256(SRC)
    ident["seed_sha256"] = tree_sha256(SEED_SRC)
    return ident


def child_command(args, src: Path, extra: list[str]) -> tuple[list[str], dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.update({name: "1" for name in BLAS_ENV})
    tag = "seed" if src == SEED_SRC else "src"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(OUT / f"work_{args.workload}_{tag}"), "--memory-cap", str(MEMORY_CAP),
        "--expect", str(src), *extra,
    ]
    return cmd, env


def run_child(args, extra: list[str], deadline: float) -> dict:
    cmd, env = child_command(args, SRC, extra)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Server:
    """A child process in ``--serve`` mode: one job per request."""

    def __init__(self, args, src: Path, deadline: float):
        cmd, env = child_command(args, src, ["--serve"])
        self.deadline = deadline
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.hello = self.read()
        except BaseException:
            self.close()
            raise

    def read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, self.deadline - time.monotonic()))
        if not ready:
            raise TimeoutError("child did not answer before the run's time limit")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, request: str) -> dict:
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def paired_run(args, deadline: float) -> tuple[dict[str, list], dict[str, list], dict, float]:
    """Time the program against the seed copy, job by job.

    Each job runs in the program's child and right after in the seed's, or
    the other way round, so both see the machine at the same moment. Passes
    over the job list come in rounds of two: the program goes first in one
    and second in the other, since the first of the two runs can find less
    memory ready to use. Rounds repeat while the next one is expected to end
    within ``--seconds``; there is always one. Returns each side's records
    by job, the program child's summary and its set-up time.
    """
    servers: list[Server] = []
    try:
        # one after the other, so the program's set-up runs alone
        prog = Server(args, SRC, deadline)
        servers.append(prog)
        seed = Server(args, SEED_SRC, deadline)
        servers.append(seed)
        names = prog.hello["jobs"]
        if seed.hello["jobs"] != names:
            raise RuntimeError("the program and the seed copy built different job lists")
        records: dict[Server, dict[str, list]] = {prog: {n: [] for n in names},
                                                  seed: {n: [] for n in names}}
        t_start = time.monotonic()
        while True:
            t_round = time.monotonic()
            for order in ((prog, seed), (seed, prog)):
                for i, name in enumerate(names):
                    for side in order:
                        records[side][name].append(side.ask(f"run {i}"))
            now = time.monotonic()
            if (now - t_start) + (now - t_round) > args.seconds:
                break
        summary = prog.ask("quit")
        seed.ask("quit")
        return records[prog], records[seed], summary, prog.hello["setup_s"]
    finally:
        for server in servers:
            server.close()


def by_job(passes: list[dict]) -> dict[str, list[dict]]:
    jobs: dict[str, list[dict]] = {}
    for p in passes:
        for r in p["jobs"]:
            jobs.setdefault(r["job"], []).append(r)
    return jobs


def verdicts(jobs: dict[str, list[dict]], known: dict, control: str) -> tuple[bool, list[str]]:
    """A run is correct when every failed job is a known defect or the
    negative control, and the negative control failed every time it ran."""
    problems = []
    unexpected = [n for n, recs in jobs.items() if n not in known and n != control
                  and any(r["reason"] is not None for r in recs)]
    if unexpected:
        problems.append(f"unexpected failures {unexpected}")
    if any(r["reason"] is None for r in jobs[control]):
        problems.append("negative control passed; the harness is not checking")
    return not problems, problems


def print_jobs(jobs: dict[str, list[dict]], known: dict, control: str) -> None:
    for name, recs in jobs.items():
        secs = statistics.median(r["wall_s"] for r in recs)
        reasons = [r["reason"] for r in recs if r["reason"] is not None]
        if not reasons:
            verdict = "ok"
        elif name == control:
            verdict = f"FAIL as it must (negative control): {reasons[0]}"
        elif name in known:
            verdict = f"FAIL (known defect: {known[name]}): {reasons[0]}"
        else:
            verdict = f"FAIL: {reasons[0]}"
        print(f"job {name:28s} {secs:9.4f} s  {len(reasons)}/{len(recs)} failed  {verdict}")


def pass_s(jobs: dict[str, list[dict]], key: str) -> float:
    """Seconds of one pass over the job list: each job's mean, summed."""
    return sum(statistics.fmean(r[key] for r in recs) for recs in jobs.values())


def coverage(child: dict, passes: list[dict], workload: str) -> None:
    """Print the public functions this workload never calls and, once every
    workload has a traced run in this checkout, those no workload calls."""
    called = set().union(*(p["called"] for p in passes if p["traced"]))
    uncovered = [f for f in child["public"] if f not in called]
    print(f"coverage: {len(uncovered)} of {len(child['public'])} public functions "
          f"not called by {workload}: {' '.join(uncovered)}")
    (OUT / f"coverage_{workload}.json").write_text(json.dumps(sorted(called)))
    files = [OUT / f"coverage_{w}.json" for w in WORKLOADS]
    if all(f.is_file() for f in files):
        union = set().union(*(json.loads(f.read_text()) for f in files))
        never = [f for f in child["public"] if f not in union]
        print(f"coverage: {len(never)} public functions called by no workload: {' '.join(never)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ringecho" / "__init__.py").is_file():
        print(f"error: no ringecho sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    # set-up probes run before and after the measuring children, so setup_s
    # does not rest on one moment of a shared machine
    probes = SETUP_SAMPLES - 1
    try:
        setups = [run_child(args, ["--setup-only"], deadline)["setup_s"] for _ in range(probes // 2)]
        if args.trace:
            child = run_child(args, [], deadline)
            setups.append(child["setup_s"])
            jobs = by_job(child["passes"])
        else:
            jobs, seed_jobs, child, setup_s = paired_run(args, deadline)
            setups.append(setup_s)
        setups += [run_child(args, ["--setup-only"], deadline)["setup_s"]
                   for _ in range(probes - probes // 2)]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for tag in ("src", "seed"):
            shutil.rmtree(OUT / f"work_{args.workload}_{tag}", ignore_errors=True)

    known, control = child["known_defects"], child["negative_control"]
    attempted = sum(len(recs) for recs in jobs.values())
    failed = sum(r["reason"] is not None for recs in jobs.values() for r in recs)
    correct, problems = verdicts(jobs, known, control)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        **child["env"], "blas_threads": {n: "1" for n in BLAS_ENV},
        "memory_cap_bytes": MEMORY_CAP, **source_identity(),
    }
    print("env " + json.dumps(env))
    print_jobs(jobs, known, control)
    for msg in problems:
        print(f"INCORRECT: {msg}")

    if not args.trace:
        print(f"job runs: {attempted} of the program and {attempted} of the seed copy, in "
              f"{attempted // len(jobs) // 2} rounds of two passes")
        for label, side in (("program", jobs), ("seed", seed_jobs)):
            print(f"{label} wall_s = {pass_s(side, 'wall_s'):.6g} s, "
                  f"cpu_s = {pass_s(side, 'cpu_s'):.6g} s per pass (as measured)")
        metrics = {
            "wall_vs_seed": pass_s(jobs, "wall_s") / pass_s(seed_jobs, "wall_s"),
            "cpu_vs_seed": pass_s(jobs, "cpu_s") / pass_s(seed_jobs, "cpu_s"),
            "peak_rss_mb": child["peak_rss_mb"],
            "failed_frac": failed / attempted,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END_UNITS
    else:
        passes = child["passes"]
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
              f"jobs per pass {len(passes[0]['jobs'])}")
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics = {k: statistics.median(p["layers"][k] for p in traced)
                   for k in PER_LAYER_UNITS if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        units = PER_LAYER_UNITS
        for name in traced[0]["absent"]:
            print(f"note: {name} is reported as 0: {args.workload} makes no call it is a ratio of "
                  f"({RATIO_BASES[name]} = 0)")
        # job time that no span accounts for, per traced pass. Reported, not
        # gating: on a shared machine trace.overhead_s is mostly drift and
        # can by chance come out smaller than the gap.
        gap = max((p["wall_s"] - sum(p["layers"][f"{layer}.self_s"] for layer in LAYERS)
                   for p in traced), key=abs)
        ok = abs(gap) <= abs(metrics["trace.overhead_s"])
        print(f"self-time check: traced wall_s minus the layers' self_s is at most {gap:.6f} s, "
              f"within |trace.overhead_s| = {abs(metrics['trace.overhead_s']):.6f} s: "
              f"{'yes' if ok else 'NO'}")
        coverage(child, passes, args.workload)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
