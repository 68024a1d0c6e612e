"""Tracing from outside the program, for the benchmark's traced run.

``Tracer`` replaces each target function by a wrapper at every alias it has
across the ``twoiso`` submodules, so calls made through ``from .operators
import ...`` are caught too; methods are replaced on their class. A span
target records one span per call: name, start, end, parent span and op id.
A count target only counts calls; it is used where a span per call would
cost more than the call itself. Spans stay in memory, in flat arrays, and
are written out when the run ends. Self time is a span's duration minus the
durations of its direct child spans.

A target that the program no longer has is skipped, and every metric that
needs it is reported as absent.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MODULES = ("analysis", "operators", "spaces", "function_spaces", "sampling", "cli")

# (module, attribute or Class.method, span name)
SPAN_TARGETS = [
    ("analysis", "theorem_verdict", "analysis.theorem_verdict"),
    ("analysis", "PerturbationProblem.__post_init__", "analysis.problem_init"),
    ("analysis", "witness_vector", "analysis.witness_vector"),
    ("analysis", "gamma_coefficient", "analysis.gamma_coefficient"),
    ("analysis", "condition_iib_residual", "analysis.condition_iib_residual"),
    ("analysis", "condition_iia_residual", "analysis.condition_iia_residual"),
    ("analysis", "kernel_condition_residual", "analysis.kernel_condition_residual"),
    ("operators", "defect_quadratic", "operators.defect_quadratic"),
    ("operators", "polarized_defect_form", "operators.polarized_defect_form"),
    ("operators", "defect_apply_in_window", "operators.defect_apply_in_window"),
    ("operators", "safe_subspace", "operators.safe_subspace"),
    ("operators", "Op.from_dict", "operators.Op.from_dict"),
    ("spaces", "weighted_gram_schmidt", "spaces.weighted_gram_schmidt"),
    ("spaces", "WeightedSpace.from_dict", "spaces.WeightedSpace.from_dict"),
    ("spaces", "vec_from_pairs", "spaces.vec_from_pairs"),
    ("function_spaces", "dirichlet_perturbation_problem", "function_spaces.dirichlet_perturbation_problem"),
    ("function_spaces", "bidisc_example_problem", "function_spaces.bidisc_example_problem"),
    ("function_spaces", "dirichlet_shift", "function_spaces.dirichlet_shift"),
    ("function_spaces", "bidisc_shift", "function_spaces.bidisc_shift"),
    ("function_spaces", "perturbed_dirichlet", "function_spaces.perturbed_dirichlet"),
    ("function_spaces", "constant_perturbed_dirichlet", "function_spaces.constant_perturbed_dirichlet"),
    ("sampling", "random_unitary", "sampling.random_unitary"),
    ("sampling", "random_complex_vector", "sampling.random_complex_vector"),
    ("sampling", "isometric_correction_pair", "sampling.isometric_correction_pair"),
    ("sampling", "invariant_kernel_pair", "sampling.invariant_kernel_pair"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_analyze", "cli.cmd_analyze"),
    ("cli", "search_dirichlet_alpha", "cli.search_dirichlet_alpha"),
]

COUNT_TARGETS = [
    ("spaces", "WeightedSpace.check_vec", "spaces.check_vec"),
    ("operators", "Op.__post_init__", "operators.Op.__post_init__"),
    ("operators", "apply", "operators.apply"),
]

DQ = "operators.defect_quadratic"
PDF = "operators.polarized_defect_form"
DAW = "operators.defect_apply_in_window"
TV = "analysis.theorem_verdict"
DECODE = ("operators.Op.from_dict", "spaces.WeightedSpace.from_dict", "spaces.vec_from_pairs")
BUILD = tuple(name for _, _, name in SPAN_TARGETS if name.startswith("function_spaces."))
SURVIVOR_BUILDERS = ("function_spaces.perturbed_dirichlet", "function_spaces.constant_perturbed_dirichlet")
SAMPLING = tuple(name for _, _, name in SPAN_TARGETS if name.startswith("sampling."))
SEARCH = "cli.search_dirichlet_alpha"


class PassTotals:
    """Span and count totals of one pass.

    ``by_pair[(name, parent name)] = [calls, total ns, self ns]``; the parent
    name is None for a span without a traced parent.
    """

    def __init__(self, by_pair: dict, counts: dict, facts: dict):
        self.by_pair = by_pair
        self.counts = counts
        self.facts = facts

    def _sum(self, names, field: int, parents=None, exclude_parents=()) -> float:
        total = 0
        for (name, parent), row in self.by_pair.items():
            if name in names and (parents is None or parent in parents) and parent not in exclude_parents:
                total += row[field]
        return total

    def calls(self, *names, parents=None) -> int:
        return self._sum(names, 0, parents)

    def ms(self, *names, parents=None, outermost=False) -> float:
        return self._sum(names, 1, parents, names if outermost else ()) / 1e6

    def self_ms(self, *names) -> float:
        return self._sum(names, 2) / 1e6


@dataclass
class Metric:
    name: str
    unit: str
    needs: tuple[str, ...]
    value: Callable[[PassTotals], float]


def _search_points(t: PassTotals) -> int:
    return t.facts.get("search_points", 0)


def _survivors(t: PassTotals) -> int:
    return t.calls(*SURVIVOR_BUILDERS, parents=(SEARCH,))


def _matvecs(t: PassTotals) -> int:
    return 2 * t.calls(DQ) + t.counts["operators.apply"]


# Per-pass layer metrics; see README.md for which end-to-end metric each moves.
PASS_METRICS = [
    Metric("operators.defect_quadratic.calls", "count", (DQ,), lambda t: t.calls(DQ)),
    Metric("operators.defect_quadratic.ms", "ms", (DQ,), lambda t: t.ms(DQ)),
    Metric("operators.polarized_defect_form.calls", "count", (PDF,), lambda t: t.calls(PDF)),
    Metric("operators.polarized_defect_form.ms", "ms", (PDF,), lambda t: t.ms(PDF)),
    Metric("operators.defect_apply_in_window.calls", "count", (DAW,), lambda t: t.calls(DAW)),
    Metric("operators.defect_apply_in_window.ms", "ms", (DAW,), lambda t: t.ms(DAW)),
    Metric("operators.matvecs.computed", "count", (DQ, "operators.apply"), _matvecs),
    Metric("operators.safe_subspace.ms", "ms", ("operators.safe_subspace",),
           lambda t: t.ms("operators.safe_subspace")),
    Metric("operators.op_constructions.calls", "count", ("operators.Op.__post_init__",),
           lambda t: t.counts["operators.Op.__post_init__"]),
    Metric("analysis.problem_init.ms", "ms", ("analysis.problem_init",),
           lambda t: t.ms("analysis.problem_init")),
    Metric("analysis.condition_iia_residual.ms", "ms", ("analysis.condition_iia_residual",),
           lambda t: t.ms("analysis.condition_iia_residual")),
    Metric("analysis.oracle.ms", "ms", (PDF, TV), lambda t: t.ms(PDF, parents=(TV,))),
    Metric("analysis.kernel_condition_residual.ms", "ms", ("analysis.kernel_condition_residual",),
           lambda t: t.ms("analysis.kernel_condition_residual")),
    Metric("analysis.witness_vector.ms", "ms", ("analysis.witness_vector",),
           lambda t: t.ms("analysis.witness_vector")),
    Metric("analysis.gamma_iib.ms", "ms",
           ("analysis.gamma_coefficient", "analysis.condition_iib_residual"),
           lambda t: t.ms("analysis.gamma_coefficient", "analysis.condition_iib_residual")),
    Metric("analysis.theorem_verdict.self_ms", "ms", (TV,), lambda t: t.self_ms(TV)),
    Metric("spaces.check_vec.calls", "count", ("spaces.check_vec",),
           lambda t: t.counts["spaces.check_vec"]),
    Metric("spaces.weighted_gram_schmidt.calls", "count", ("spaces.weighted_gram_schmidt",),
           lambda t: t.calls("spaces.weighted_gram_schmidt")),
    Metric("spaces.weighted_gram_schmidt.ms", "ms", ("spaces.weighted_gram_schmidt",),
           lambda t: t.ms("spaces.weighted_gram_schmidt")),
    Metric("function_spaces.build.self_ms", "ms", BUILD, lambda t: t.self_ms(*BUILD)),
    Metric("cli.search.points", "count", (SEARCH,), _search_points),
    Metric("cli.search.survivors", "count", (SEARCH,) + SURVIVOR_BUILDERS, _survivors),
    Metric("cli.search.survivor_ratio", "ratio", (SEARCH,) + SURVIVOR_BUILDERS,
           lambda t: _survivors(t) / _search_points(t) if _search_points(t) else 0.0),
    Metric("cli.search.hits", "count", (SEARCH,), lambda t: t.facts.get("search_hits", 0)),
    Metric("cli.decode.ms", "ms", DECODE, lambda t: t.ms(*DECODE, outermost=True)),
    Metric("cli.analyze.self_ms", "ms", ("cli.cmd_analyze",), lambda t: t.self_ms("cli.cmd_analyze")),
    Metric("cli.main.ms", "ms", ("cli.main",), lambda t: t.ms("cli.main")),
]

# Measured on the traced set-up rather than per pass.
SETUP_METRIC = Metric("sampling.setup_ms", "ms", SAMPLING, lambda t: t.ms(*SAMPLING))


def _resolve(module, path: str):
    """(owner, attribute name, raw attribute) for "func" or "Class.method"."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Wraps the targets in the given ``twoiso`` modules and records spans.

    ``modules`` maps a short module name ("analysis", ...) to the module.
    Every ``twoiso`` module in ``sys.modules`` is searched for aliases.
    """

    def __init__(self, modules: dict):
        self.names: list[str] = []
        self.counts = defaultdict(int)
        self.present: set[str] = set()
        self.missing: list[str] = []
        self.active = False
        self.op_id = -1
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._pass_start = 0
        self._kept = 0
        self._count_base: dict = {}
        self.passes: list[PassTotals] = []
        self.setup: PassTotals | None = None

        aliases = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "twoiso" or name.startswith("twoiso."))]
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (COUNT_TARGETS, self._count_wrapper)):
            for mod, path, name in targets:
                try:
                    owner, attr, raw = _resolve(modules[mod], path)
                except (AttributeError, KeyError):
                    self.missing.append(f"{mod}.{path}")
                    continue
                self.present.add(name)
                self._install(owner, attr, raw, make(name, raw), aliases)

    @staticmethod
    def _install(owner, attr, raw, wrapped, aliases):
        if isinstance(owner, type):
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            return
        for module in aliases:
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)

    def _span_wrapper(self, name: str, raw):
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        name_id = len(self.names)
        self.names.append(name)
        now = time.perf_counter_ns
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, raw):
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- phases ------------------------------------------------------------

    def begin(self):
        self._pass_start = len(self.span_name)
        self._count_base = dict(self.counts)
        self.active = True

    def end(self, facts: dict | None = None) -> PassTotals:
        """Stop recording and total the spans since ``begin``."""
        self.active = False
        totals = self._totals(self._pass_start, facts or {})
        # Keep the spans of the set-up and of the first pass for the trace file.
        if self._kept < 2:
            self._kept += 1
        else:
            for arr in (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end):
                del arr[self._pass_start:]
        return totals

    def set_op(self, op_id: int):
        self.op_id = op_id

    def _totals(self, start: int, facts: dict) -> PassTotals:
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        n = len(names) - start
        child = [0] * n
        for i in range(start, start + n):
            p = parents[i]
            if p >= start:
                child[p - start] += ends[i] - starts[i]
        by_pair: dict = {}
        for k in range(n):
            i = start + k
            dur = ends[i] - starts[i]
            p = parents[i]
            key = (self.names[names[i]], self.names[names[p]] if p >= 0 else None)
            row = by_pair.get(key)
            if row is None:
                row = by_pair[key] = [0, 0, 0]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[k]
        counts = {k: v - self._count_base.get(k, 0) for k, v in self.counts.items()}
        counts = defaultdict(int, counts)
        return PassTotals(by_pair, counts, facts)

    # -- results -----------------------------------------------------------

    def is_present(self, metric: Metric) -> bool:
        return all(name in self.present for name in metric.needs)

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float | None, str, int]]:
        """name -> (lower median over passes, or None when absent; unit; sample count)."""
        out = {}
        for metric in PASS_METRICS:
            if not self.is_present(metric):
                out[metric.name] = (None, metric.unit, 0)
                continue
            values = [metric.value(t) for t in self.passes]
            out[metric.name] = (statistics.median_low(values), metric.unit, len(values))
        setup = SETUP_METRIC
        out[setup.name] = ((setup.value(self.setup), setup.unit, 1) if self.is_present(setup)
                           else (None, setup.unit, 0))
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio", 1)
        return out

    def calls_per_op(self, name: str, op_names: list[str]) -> dict[str, int]:
        """Calls of one span per op, over the kept spans of the first pass."""
        if name not in self.names:
            return {}
        name_id = self.names.index(name)
        per_op = defaultdict(int)
        for i in range(len(self.span_name)):
            if self.span_name[i] == name_id and self.span_op[i] >= 0:
                per_op[op_names[self.span_op[i]]] += 1
        return dict(per_op)

    def write(self, path: Path, header: dict, op_names: list[str]):
        """Write the kept spans as tab-separated lines, after a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if len(self.span_start) else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + json.dumps({**header, "missing_targets": self.missing}) + "\n")
            fh.write("# span\tname\tstart_us\tend_us\tparent\top\n")
            for i in range(len(self.span_name)):
                op = self.span_op[i]
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - t0) / 1e3:.1f}\t{(self.span_end[i] - t0) / 1e3:.1f}\t"
                    f"{self.span_parent[i]}\t{op_names[op] if op >= 0 else 'setup'}\n"
                )
