"""One repetition of a workload in a fresh process.

Set-up (imports, input files, command lines) runs first; it is measured
from the moment the parent started this process, which the parent passes as
--t0 on the system-wide monotonic clock. The timed section then calls
`csreject.cli.main` once per command line, under the tracer with --trace 1.
The checks run after the timed section. The last line of standard output is
one JSON object with this repetition's measurements.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check(commands, outputs, workload: str, seed: int):
    """(operations attempted, failure reasons, grid risks, deterministic record)."""
    from csreject import harness

    import checker
    import workloads

    attempted, failures, risks, record = 0, [], [], []
    for cmd, (text, rc) in zip(commands, outputs):
        if isinstance(cmd, workloads.Audit):
            n, why = checker.check_lines(cmd, text, rc)
            record.append([line for line in text.splitlines() if line.startswith("[")])
        else:
            try:
                rows = harness.read_csv(cmd.out_path(workload, seed))
            except (OSError, ValueError, IndexError) as exc:
                rows = []
                failures.append(f"{cmd.name}: result file unreadable: {exc}")
            golden = harness.read_csv(cmd.golden_path(workload)) if seed == workloads.GOLDEN_SEED else None
            n, why = checker.check_grid(cmd, rows, checker.flagged_count(text, rc), golden)
            risks += [row.risk01c for row in rows]
            record.append([{k: v for k, v in dataclasses.asdict(r).items() if k != "train_seconds"} for r in rows])
        attempted += n
        failures += why
    return attempted, failures, risks, record


def reference_s() -> float:
    """Time of a fixed mix of interpreter work and small-array numpy calls,
    like the program's inner loops, to track how fast the machine runs now."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 256 * 20).reshape(256, 20)
    w = np.linspace(0.5, -0.5, 2 * 20).reshape(2, 20)

    def loop(n: int) -> float:
        acc = 0.0
        for i in range(n):
            g = x @ w.T + 0.5
            acc += float(np.maximum(g, 0.0).sum())
            acc += sum(k * 0.5 for k in range(10)) + len({"i": i, "acc": acc})
        return acc

    loop(500)  # warm up allocator and caches; only the steady state is timed
    t0 = time.perf_counter()
    loop(12000)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    # one CPU for the whole repetition, so the reference loop times the same
    # CPU as the work it normalizes
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import numpy
    import scipy

    from csreject import cli

    import workloads
    from tracer import Tracer

    commands = workloads.prepare(args.workload, args.seed)
    argvs = [cmd.argv(args.workload, args.seed) for cmd in commands]
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0

    ref_before = reference_s()
    with Tracer() if args.trace else contextlib.nullcontext() as tracer:
        outputs = []
        t_start = time.perf_counter()
        for cmd_argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(cmd_argv)
            outputs.append((buf.getvalue(), rc))
        wall_s = time.perf_counter() - t_start
        ref_after = reference_s()
        # read back inside the tracer, so harness.csv_io_s covers read_csv
        attempted, failures, risks, record = _check(commands, outputs, args.workload, args.seed)

    result = {
        "setup_raw_s": setup_s,
        "wall_s": wall_s,
        "ref_s": [ref_before, ref_after],
        "attempted": attempted,
        "failures": failures,
        "risk01c_mean": sum(risks) / len(risks) if risks else None,
        "digest": hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest(),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(os.path.join(workloads.WORK_DIR, f"spans-{args.workload}-s{args.seed}.tsv"))
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
