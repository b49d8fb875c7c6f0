"""`bench` command line: grid runs, aggregation, theorem audits, gradcheck."""

from __future__ import annotations

import argparse
import os
import sys

from . import harness, theory
from .checks import run_gradcheck
from .core import RejectionCost


def _parse_costs(text: str) -> tuple[float, ...]:
    """A comma list such as '0.1,0.2'."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        message = f"--costs takes a comma list such as 0.1,0.2 (a range is no longer accepted), got {text!r}"
        raise ValueError(message) from None


def _check_out(path: str) -> None:
    # an empty path, or one that ends in a separator, has no file name
    if not os.path.basename(path) or os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"--out must name a file in an existing directory: {path}")


def cmd_run(args) -> int:
    # a bad value ends the command with a usage error before any cell trains
    try:
        grid = harness.GridSpec(
            datasets=tuple(args.dataset.split(",")),
            methods=tuple(args.methods.split(",")),
            costs=_parse_costs(args.costs),
            trials=args.trials,
            setting=args.setting,
            master_seed=args.seed,
            noise_rate=args.noise_rate,
            prior=args.prior,
            epochs=args.epochs,
        )
        theory._check_count(args.jobs, "--jobs")
        _check_out(args.out)
        resume = args.resume and os.path.exists(args.out)
        existing = harness.read_csv(args.out) if resume else []
        harness.trial_groups(existing)  # a repeated row, which aggregate would refuse
        # a key omits the setting, so rows of another setting must not mask this grid's cells
        skip = [r.key() for r in existing if r.setting == args.setting]
        # builds the data of the trials left to run: a bad dataset, an empty split or a failed PU draw ends here
        groups = harness.cell_groups(grid, skip)
    except (ValueError, OSError) as exc:
        args.usage_error(str(exc))
    if resume:
        print(f"resuming: {len(skip)} rows already present")
    rows = harness.run_grid(grid, groups, jobs=args.jobs)
    merged = sorted(existing + rows, key=harness.ResultRow.key)
    harness.write_csv(merged, args.out)
    # every flagged row of the file, kept or new, as a fresh run writing it would report
    n_flagged = sum(r.flagged for r in merged)
    print(f"wrote {len(merged)} rows to {args.out} ({n_flagged} flagged)")
    return 1 if n_flagged else 0


def cmd_aggregate(args) -> int:
    try:
        _check_out(args.out)
        summaries = harness.aggregate(harness.read_csv(args.infile))
    except (ValueError, OSError) as exc:
        args.usage_error(str(exc))
    harness.write_summary_csv(summaries, args.out, rescale_0_100=args.rescale)
    print(f"wrote {len(summaries)} summary rows to {args.out}")
    return 0


def _report(passed, text: str) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] {text}")
    return bool(passed)


def _check_seed(args) -> None:
    """numpy's generators take no negative seed; bench run takes any, because it hashes its seeds."""
    if args.seed < 0:
        args.usage_error(f"--seed must be at least 0, got {args.seed}")


def cmd_audit(args) -> int:
    _check_seed(args)
    try:
        for flag in ("--draws", "--calibration-draws", "--excess-instances"):
            theory._check_count(getattr(args, flag[2:].replace("-", "_")), flag)
    except ValueError as exc:
        args.usage_error(str(exc))
    checked, dis = theory.audit_oracle_equivalence(args.draws, seed=args.seed)
    ok = [_report(dis == 0, f"oracle equivalence: {checked} draws, {dis} disagreements")]
    for name, (n, dis) in theory.audit_calibration(n_draws=args.calibration_draws, seed=args.seed + 1).items():
        ok.append(_report(dis == 0, f"calibration ({name}): {n} draws, {dis} disagreements"))
    n, viol, psi = theory.audit_excess_random(args.excess_instances, seed=args.seed + 2)
    text = f"excess-risk chain: {n} instances, {viol} violations, {psi} psi-bound violations"
    ok.append(_report(viol == psi == 0, text))
    witness = theory.miscalibrated_witness(RejectionCost(0.2))
    ok.append(_report(witness, "miscalibrated-loss witness disagrees with the oracle"))
    return 0 if all(ok) else 1


def cmd_gradcheck(args) -> int:
    _check_seed(args)
    results = sorted(run_gradcheck(seed=args.seed).items())
    ok = [_report(passed, f"{name}: max rel err {err:.2e}") for name, (err, passed) in results]
    return 0 if all(ok) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment grid")
    p.add_argument("--dataset", default="twonorm")
    p.add_argument("--methods", default="cs-sigmoid,cs-hinge,sce,defer,angle")
    p.add_argument("--setting", default="clean", choices=harness.SETTINGS)
    p.add_argument("--costs", default=",".join(map(str, harness.DEFAULT_COSTS)))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--noise-rate", type=float, default=0.25)
    p.add_argument("--prior", type=float, default=0.7)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run, usage_error=p.error)

    p = sub.add_parser("aggregate", help="aggregate result rows to mean +- SE")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rescale", action="store_true", help="report on the 0-100 scale")
    p.set_defaults(func=cmd_aggregate, usage_error=p.error)

    p = sub.add_parser("audit", help="run the theorem audits")
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--calibration-draws", type=int, default=1000)
    p.add_argument("--excess-instances", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_audit, usage_error=p.error)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck, usage_error=p.error)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
