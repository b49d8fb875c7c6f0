"""Per-layer tracing from outside the program.

`Tracer` wraps the program's public functions wherever its modules look
them up, records a span per call (name, start, end, parent, cell id) in
memory, and restores every original on exit. Per-row functions get counters
instead of spans. `layer_metrics` turns the record into the per-layer
metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# Per-layer metrics in report order, with units. `trace.overhead_s` is the
# traced wall time minus the untraced one, so run.py fills it in.
PER_LAYER = {
    "harness.cell_s": "s",
    "harness.cell_self_s": "s",
    "harness.cells": "count",
    "harness.cells_flagged": "count",
    "harness.csv_io_s": "s",
    "data.load_csv_s": "s",
    "data.load_csv_calls": "count",
    "data.generate_s": "s",
    "data.rows_generated": "count",
    "data.split_s": "s",
    "data.standardize_s": "s",
    "models.train_s": "s",
    "models.train_self_s": "s",
    "models.forward_s": "s",
    "models.backward_s": "s",
    "models.adam_s": "s",
    "models.steps": "count",
    "surrogate.loss_s": "s",
    "surrogate.loss_calls": "count",
    "surrogate.loss_rows": "count",
    "surrogate.decide_s": "s",
    "surrogate.decide_rows": "count",
    "baselines.loss_s": "s",
    "baselines.tune_s": "s",
    "baselines.tune_candidates": "count",
    "baselines.decide_s": "s",
    "baselines.decide_rows": "count",
    "core.metrics_s": "s",
    "core.metrics_calls": "count",
    "core.decisions_built": "count",
    "weaksup.train_pu_s": "s",
    "weaksup.train_pu_self_s": "s",
    "weaksup.pu_steps": "count",
    "weaksup.clamp_count": "count",
    "weaksup.noise_s": "s",
    "weaksup.make_pu_s": "s",
    "weaksup.loss_calls_per_step": "calls/step",
    "losses.argmin_s": "s",
    "losses.argmin_calls": "count",
    "losses.grid_points": "count",
    "theory.oracle_s": "s",
    "theory.oracle_draws": "count",
    "theory.calibration_s": "s",
    "theory.calibration_draws": "count",
    "theory.excess_s": "s",
    "theory.excess_instances": "count",
    "theory.disagreements": "count",
    "checks.gradcheck_s": "s",
    "checks.gradcheck_cases": "count",
    "checks.gradcheck_failed": "count",
    "trace.overhead_s": "s",
}

# Printed beside a metric whose meaning its name does not carry.
NOTES = {
    "losses.grid_points": "computed: argmin calls x default grid size",
    "weaksup.loss_calls_per_step": "cs_loss_batch calls inside train_pu per step; the work needs 2",
    "trace.overhead_s": "median traced wall_s - median untraced wall_s",
}

# Metrics that must repeat exactly between two traced runs of one seed.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit != "s")

# (module, attribute, span group). A module-level function is wrapped in
# every csreject module that holds it, so callers that imported it by name
# see the wrapper too; "Class.method" is wrapped on the class.
SPANS = (
    ("csreject.harness", "run_cell", "harness.cell"),
    ("csreject.harness", "write_csv", "harness.csv_io"),
    ("csreject.harness", "read_csv", "harness.csv_io"),
    ("csreject.data", "load_csv", "data.load_csv"),
    ("csreject.data", "gen_gauss_mixture", "data.generate"),
    ("csreject.data", "split", "data.split"),
    ("csreject.data", "standardize", "data.standardize"),
    ("csreject.data", "Standardizer.apply", "data.standardize"),
    ("csreject.models", "train", "models.train"),
    ("csreject.models", "LinearModel.forward", "models.forward"),
    ("csreject.models", "MlpModel.forward", "models.forward"),
    ("csreject.models", "LinearModel.backward", "models.backward"),
    ("csreject.models", "MlpModel.backward", "models.backward"),
    ("csreject.models", "adam_step", "models.adam"),
    ("csreject.surrogate", "cs_loss_batch", "surrogate.loss"),
    ("csreject.baselines", "sce_loss_batch", "baselines.loss"),
    ("csreject.baselines", "tune_temperature", "baselines.tune"),
    ("csreject.baselines", "tune_delta", "baselines.tune"),
    ("csreject.core", "compute_metrics", "core.metrics"),
    ("csreject.weaksup", "train_pu", "weaksup.train_pu"),
    ("csreject.weaksup", "inject_uniform_noise", "weaksup.noise"),
    ("csreject.weaksup", "make_pu_dataset", "weaksup.make_pu"),
    ("csreject.losses", "argmin_weighted_conditional_risk", "losses.argmin"),
    ("csreject.theory", "audit_oracle_equivalence", "theory.oracle"),
    ("csreject.theory", "audit_calibration", "theory.calibration"),
    ("csreject.theory", "audit_excess_random", "theory.excess"),
    ("csreject.checks", "run_gradcheck", "checks.gradcheck"),
)
# Factories whose returned loss closures get spans.
LOSS_FACTORIES = (
    ("csreject.baselines", "defer_loss_batch", "baselines.loss"),
    ("csreject.baselines", "angle_loss_batch", "baselines.loss"),
)
# Per-row functions: (module, attribute, counter, timed).
COUNTERS = (
    ("csreject.surrogate", "decide", "surrogate.decide", True),
    ("csreject.baselines", "sce_decide", "baselines.decide", True),
    ("csreject.baselines", "angle_decide", "baselines.decide", True),
    ("csreject.baselines", "defer_decide", "baselines.decide", True),
    ("csreject.core", "Decision.predict", "core.decisions", False),
    ("csreject.core", "Decision.reject", "core.decisions", False),
)

# span record fields
NAME, START, END, PARENT, CELL, COUNTED = range(6)


class Tracer:
    """Context manager: install the wrappers, record, restore on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}  # group -> [calls, seconds]
        self.totals: dict[str, float] = {}  # values read from arguments and returns
        self.cell = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        try:
            for module, attr, group in SPANS:
                self._wrap(module, attr, lambda fn, g=group: self._span(fn, g))
            for module, attr, group in LOSS_FACTORIES:
                self._wrap(module, attr, lambda fn, g=group: self._factory(fn, g))
            for module, attr, group, timed in COUNTERS:
                self._wrap(module, attr, lambda fn, g=group, t=timed: self._counter(fn, g, t))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            else:
                wrapped = make(original)
            self._patches.append((owner, meth, original))
            setattr(owner, meth, wrapped)
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "csreject" or name.startswith("csreject.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, group):
        spans, stack, hook = self.spans, self._stack, _HOOKS.get(group)
        is_cell = group == "harness.cell"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_cell:
                self.cell = "|".join(str(part) for part in args[1])
            rec = [group, 0.0, 0.0, stack[-1] if stack else -1, self.cell, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if is_cell:
                    self.cell = None
            if hook is not None:
                hook(self, fn, args, kwargs, out)
            return out

        return wrapper

    def _factory(self, factory, group):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self._span(factory(*args, **kwargs), group)

        return wrapper

    def _counter(self, fn, group, timed):
        slot = self.counters.setdefault(group, [0, 0.0])
        spans, stack = self.spans, self._stack

        if not timed:

            @functools.wraps(fn)
            def count(*args, **kwargs):
                slot[0] += 1
                return fn(*args, **kwargs)

            return count

        @functools.wraps(fn)
        def timed_count(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                slot[0] += 1
                slot[1] += dt
                if stack:
                    # the enclosing span's self time excludes this call
                    spans[stack[-1]][COUNTED] += dt

        return timed_count

    def add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0) + value

    # -- results ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Tab-separated: name, start, end, parent index (-1 at top), cell id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tcell\n")
            for rec in self.spans:
                fh.write(f"{rec[NAME]}\t{rec[START]:.9f}\t{rec[END]:.9f}\t{rec[PARENT]}\t{rec[CELL] or ''}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric but trace.overhead_s, from the record."""
        spans = self.spans
        n = len(spans)
        covered = [rec[COUNTED] for rec in spans]
        in_pu = [False] * n
        nested = [False] * n  # inside another span of the same group
        for i, rec in enumerate(spans):
            p = rec[PARENT]
            if p < 0:
                continue
            covered[p] += rec[END] - rec[START]
            in_pu[i] = in_pu[p] or spans[p][NAME] == "weaksup.train_pu"
            while p >= 0 and not nested[i]:
                nested[i] = spans[p][NAME] == rec[NAME]
                p = spans[p][PARENT]

        time, self_time, calls, pu_calls = {}, {}, {}, {}
        for i, rec in enumerate(spans):
            g, dur = rec[NAME], rec[END] - rec[START]
            self_time[g] = self_time.get(g, 0.0) + dur - covered[i]
            calls[g] = calls.get(g, 0) + 1
            if not nested[i]:
                time[g] = time.get(g, 0.0) + dur
            if in_pu[i]:
                pu_calls[g] = pu_calls.get(g, 0) + 1

        def counter(group):
            return self.counters.get(group, [0, 0.0])

        t, c, tot = (lambda g: time.get(g, 0.0)), (lambda g: calls.get(g, 0)), (lambda k: self.totals.get(k, 0))
        pu_steps = pu_calls.get("models.adam", 0)
        metrics = {
            "harness.cell_s": t("harness.cell"),
            "harness.cell_self_s": self_time.get("harness.cell", 0.0),
            "harness.cells": c("harness.cell"),
            "harness.cells_flagged": tot("cells_flagged"),
            "harness.csv_io_s": t("harness.csv_io"),
            "data.load_csv_s": t("data.load_csv"),
            "data.load_csv_calls": c("data.load_csv"),
            "data.generate_s": t("data.generate"),
            "data.rows_generated": tot("rows_generated"),
            "data.split_s": t("data.split"),
            "data.standardize_s": t("data.standardize"),
            "models.train_s": t("models.train"),
            "models.train_self_s": self_time.get("models.train", 0.0),
            "models.forward_s": t("models.forward"),
            "models.backward_s": t("models.backward"),
            "models.adam_s": t("models.adam"),
            "models.steps": c("models.adam"),
            "surrogate.loss_s": t("surrogate.loss"),
            "surrogate.loss_calls": c("surrogate.loss"),
            "surrogate.loss_rows": tot("loss_rows"),
            "surrogate.decide_s": counter("surrogate.decide")[1],
            "surrogate.decide_rows": counter("surrogate.decide")[0],
            "baselines.loss_s": t("baselines.loss"),
            "baselines.tune_s": t("baselines.tune"),
            "baselines.tune_candidates": tot("tune_candidates"),
            "baselines.decide_s": counter("baselines.decide")[1],
            "baselines.decide_rows": counter("baselines.decide")[0],
            "core.metrics_s": t("core.metrics"),
            "core.metrics_calls": c("core.metrics"),
            "core.decisions_built": counter("core.decisions")[0],
            "weaksup.train_pu_s": t("weaksup.train_pu"),
            "weaksup.train_pu_self_s": self_time.get("weaksup.train_pu", 0.0),
            "weaksup.pu_steps": pu_steps,
            "weaksup.clamp_count": tot("clamp_count"),
            "weaksup.noise_s": t("weaksup.noise"),
            "weaksup.make_pu_s": t("weaksup.make_pu"),
            "weaksup.loss_calls_per_step": pu_calls.get("surrogate.loss", 0) / pu_steps if pu_steps else 0.0,
            "losses.argmin_s": t("losses.argmin"),
            "losses.argmin_calls": c("losses.argmin"),
            # computed, not counted: calls times the size of the default grid
            "losses.grid_points": c("losses.argmin") * _argmin_grid_size(),
            "theory.oracle_s": t("theory.oracle"),
            "theory.oracle_draws": tot("oracle_draws"),
            "theory.calibration_s": t("theory.calibration"),
            "theory.calibration_draws": tot("calibration_draws"),
            "theory.excess_s": t("theory.excess"),
            "theory.excess_instances": tot("excess_instances"),
            "theory.disagreements": tot("disagreements"),
            "checks.gradcheck_s": t("checks.gradcheck"),
            "checks.gradcheck_cases": tot("gradcheck_cases"),
            "checks.gradcheck_failed": tot("gradcheck_failed"),
        }
        return metrics


def _argmin_grid_size() -> int:
    from csreject.losses import argmin_weighted_conditional_risk

    params = inspect.signature(argmin_weighted_conditional_risk).parameters
    bound, step = params["bound"].default, params["grid_step"].default
    return int(round(2 * bound / step)) + 1


def _tune_candidates(tracer, fn, args, kwargs, out):
    candidates = inspect.signature(fn).bind(*args, **kwargs).arguments.get("candidates")
    if candidates is None:
        from csreject.baselines import default_candidates

        candidates = default_candidates()
    tracer.add("tune_candidates", len(candidates))


# What a span's arguments and return value add to the totals, per group:
# hook(tracer, wrapped function, args, kwargs, return value).
_HOOKS = {
    "harness.cell": lambda tr, fn, args, kwargs, out: tr.add("cells_flagged", int(out.flagged)),
    "data.generate": lambda tr, fn, args, kwargs, out: tr.add("rows_generated", out[0].n),
    "surrogate.loss": lambda tr, fn, args, kwargs, out: tr.add("loss_rows", len(out[0])),
    "baselines.tune": _tune_candidates,
    "weaksup.train_pu": lambda tr, fn, args, kwargs, out: tr.add("clamp_count", out[1]),
    "theory.oracle": lambda tr, fn, args, kwargs, out: (tr.add("oracle_draws", out[0]), tr.add("disagreements", out[1])),
    "theory.calibration": lambda tr, fn, args, kwargs, out: (
        tr.add("calibration_draws", sum(n for n, _ in out.values())),
        tr.add("disagreements", sum(d for _, d in out.values())),
    ),
    "theory.excess": lambda tr, fn, args, kwargs, out: tr.add("excess_instances", out[0]),
    "checks.gradcheck": lambda tr, fn, args, kwargs, out: (
        tr.add("gradcheck_cases", len(out)),
        tr.add("gradcheck_failed", sum(not ok for _, ok in out.values())),
    ),
}
