"""csreject benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload clean-csv --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout. Each repetition of the workload runs
in a fresh worker process (perfbench/worker.py), so set-up time and peak
memory belong to that repetition, and one repetition cannot warm a cache in
the program for the next. Repetitions run one after another until the time
is used, and each end-to-end metric is the median over them.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
alternates untraced and traced repetitions and holds the per-layer metrics.
The checks that the program's outputs are correct run on every repetition.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import COUNTS, NOTES, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_rel": "x_ref", "peak_rss_mb": "MB"}
# Printed beside the end-to-end metrics but not gated: raw times follow the
# shared machine's speed, which drifts by up to 2x within minutes.
RAW = {"setup_raw_s": "s", "wall_s": "s", "ref_s": "s"}
# setup_s is given in seconds at the machine speed at which the reference
# loop takes this long, a typical time for it on the 2-vCPU machine that the
# first baseline was taken on
REF_NOMINAL_S = 0.15
MIN_REPS = 3  # untraced repetitions per --trace 0 run
MIN_PAIRS = 2  # untraced + traced pairs per --trace 1 run
DEADLINE_S = 170.0  # the whole run must end within 180 s
BLAS_THREADS = "1"
ENV_NOTE = (
    "no hardware performance counters are read and the file cache is not dropped, "
    "since an unprivileged container allows neither; timings are wall clock"
)


class BenchError(Exception):
    pass


def run_rep(workload: str, seed: int, trace: int, timeout: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(trace), "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} repetition did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    rep = json.loads(lines[-1])
    rep["traced"] = bool(trace)
    rep["rep_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    return rep


def run_reps(workload: str, seed: int, seconds: int, trace: int) -> list[dict]:
    """Repetitions until `seconds` are used; traced runs alternate plain and traced."""
    kinds = [0, 1] if trace else [0]
    minimum = MIN_PAIRS * 2 if trace else MIN_REPS
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        for kind in kinds:
            remaining = DEADLINE_S - (time.monotonic() - start)
            reps.append(run_rep(workload, seed, kind, max(remaining, 1.0)))
        elapsed = time.monotonic() - start
        last_round = sum(r["rep_s"] for r in reps[-len(kinds) :])
        if len(reps) >= minimum and elapsed + last_round > seconds:
            return reps


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_commit() -> str:
    """The commit of a git checkout, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def check_consistency(reps: list[dict]) -> list[str]:
    """Every repetition must print the same outputs, and traced ones the same counts."""
    errors = []
    if len({r["digest"] for r in reps}) > 1:
        errors.append("outputs differ between repetitions of one seed")
    traced = [r["layers"] for r in reps if r["traced"]]
    for name in COUNTS:
        values = {layers[name] for layers in traced}
        if len(values) > 1:
            errors.append(f"count {name} differs between traced repetitions: {sorted(values)}")
    return errors


def summarize(workload: str, seed: int, trace: int, reps: list[dict]) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failures = [why for r in reps for why in r["failures"]]
    errors = check_consistency(reps)

    rows = []  # (name, median, q1, q3, unit, note)
    if trace:
        first = traced[0]["layers"]
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                value = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
                rows.append((name, value, value, value, unit, NOTES[name]))
            elif name in COUNTS:
                rows.append((name, first[name], first[name], first[name], unit, NOTES.get(name, "exact count")))
            else:
                q1, med, q3 = quartiles([r["layers"][name] for r in traced])
                rows.append((name, med, q1, q3, unit, NOTES.get(name, "")))
    else:
        for rep in plain:
            # the reference loop runs right after set-up and right after the
            # timed section, so these ratios cancel the machine's speed then
            rep["setup_s"] = rep["setup_raw_s"] * REF_NOMINAL_S / rep["ref_s"][0]
            rep["wall_rel"] = rep["wall_s"] / statistics.fmean(rep["ref_s"])
        for name, unit in END_TO_END.items():
            q1, med, q3 = quartiles([r[name] for r in plain])
            rows.append((name, med, q1, q3, unit, ""))
        raw = {name: [r[name] for r in plain] for name in ("setup_raw_s", "wall_s")}
        raw["ref_s"] = [statistics.fmean(r["ref_s"]) for r in plain]
        for name, unit in RAW.items():
            q1, med, q3 = quartiles(raw[name])
            rows.append((name, med, q1, q3, unit, "printed only"))

    print(f"perfbench workload={workload} seed={seed} trace={trace} repetitions={len(plain)} untraced, {len(traced)} traced")
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **reps[0]["versions"],
        "blas_threads": BLAS_THREADS,
        "worker_cpu": max(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        "note": ENV_NOTE,
    }
    print("env " + json.dumps(env))
    keys = ("traced", "setup_raw_s", "wall_s", "ref_s", "peak_rss_mb")
    print("reps " + json.dumps([{k: r[k] for k in keys} for r in reps]))
    width = max(len(r[0]) for r in rows)
    for name, med, q1, q3, unit, note in rows:
        print(f"  {name:<{width}}  {med:>14.6g} {unit:<10} q1 {q1:.6g}  q3 {q3:.6g}  {note}")
    risks = [r["risk01c_mean"] for r in plain if r["risk01c_mean"] is not None]
    if risks:
        print(f"  {'risk01c_mean':<{width}}  {risks[0]:>14.6g} {'ratio':<10} mean test 0-1-c risk over the grid cells")
    print(f"  {'failed_frac':<{width}}  {len(failures) / attempted:>14.6g} {'ratio':<10} {len(failures)} of {attempted} operations")
    for why in failures[:20]:
        print(f"  FAILED {why}")
    for why in errors:
        print(f"  ERROR {why}")

    return {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": med, "unit": unit} for name, med, _, _, unit, _ in rows if name not in RAW},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a termination signal raises SystemExit, so subprocess.run kills and
    # waits for the worker before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "csreject", "cli.py")):
        print(f"error: no csreject source under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(args.workload, args.seed, args.trace, reps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
