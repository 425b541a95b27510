"""Layer spans recorded from outside the program.

``install`` replaces each traced function with a wrapper at every module
attribute that binds it (``replay.propagate`` as well as ``graph.propagate``)
and each traced method on its class, so calls are caught whichever name the
caller uses. Spans stay in memory as ``(name, start, end, parent, run)``
tuples until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name)
FUNCTIONS = (
    ("replaygraph.datasets", "load_citation_dataset", "datasets.build"),
    ("replaygraph.datasets", "synthetic_image_dataset", "datasets.build"),
    ("replaygraph.datasets", "build_task_sequence", "datasets.tasks"),
    ("replaygraph.datasets", "make_permuted_tasks", "datasets.tasks"),
    ("replaygraph.graph", "normalize_adjacency", "graph.normalize"),
    ("replaygraph.graph", "propagate", "graph.propagate"),
    ("replaygraph.graph", "induced_subgraph", "graph.subgraph"),
    ("replaygraph.linear", "stack_samples", "linear.stack"),
    ("replaygraph.optim", "adam_minimize", "optim.adam_minimize"),
    ("replaygraph.selection", "cg_solve", "selection.cg"),
    ("replaygraph.selection", "influence_scores", "selection.influence"),
    ("replaygraph.selection", "coverage_counts", "selection.coverage"),
    ("replaygraph.selection", "select_random", "selection.select"),
    ("replaygraph.selection", "select_mf", "selection.select"),
    ("replaygraph.selection", "select_cm", "selection.select"),
    ("replaygraph.selection", "select_im", "selection.select"),
    ("replaygraph.replay", "prepare_sequence", "replay.prepare"),
    ("replaygraph.replay", "prepare_task_data", "replay.prepare"),
    ("replaygraph.replay", "prepare_image_task", "replay.prepare"),
    ("replaygraph.replay", "learn_task", "replay.learn_task"),
    ("replaygraph.replay", "run_sequence", "replay.run"),
    ("replaygraph.replay", "run_image_tasks", "replay.run"),
    ("replaygraph.metrics", "accuracy", "metrics"),
    ("replaygraph.metrics", "performance_mean", "metrics"),
    ("replaygraph.metrics", "forgetting_mean", "metrics"),
    ("replaygraph.experiment", "run_experiment", "experiment"),
    ("replaygraph.experiment", "run_single_seed", "experiment"),
)

# (module, class, method, span name)
METHODS = tuple(
    [("replaygraph.linear", "LinearModel", m, f"linear.{m}")
     for m in ("fit", "hvp", "gradient", "gradient_dots", "loss", "predict")]
    + [("replaygraph.mlp", "MlpModel", m, f"mlp.{m}")
       for m in ("fit", "hvp", "gradient", "gradient_dots", "loss", "predict")]
    + [("replaygraph.optim", "AdamState", "update", "optim.update")])


class Tracer:
    """Collects spans and counters while ``run`` is set; passes calls
    straight through when it is None."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.run)
            self.counts[self.run][name] += 1
            if after is not None:
                after(self.counts[self.run], args, kwargs, result)
            return result
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own, e.g. the root of a seed-run."""
        return self.wrap(name, fn)(*args, **kwargs)


def _count_spmm(counts, args, kwargs, result):
    adjacency = args[0] if args else kwargs["s"]
    k = args[2] if len(args) > 2 else kwargs["k"]
    counts["graph.spmm_flops"] += 2 * adjacency.matrix.nnz * result.values.shape[1] * k


def _count_cg(counts, args, kwargs, result):
    counts["selection.cg_iters"] += result.iterations
    counts["selection.cg_converged"] += int(result.converged)


def _count_buffer(counts, args, kwargs, result):
    # Overwritten after every task, so the run keeps its final buffer size.
    counts["replay.buffer_rows"] = len(result.buffer)


AFTER = {"graph.propagate": _count_spmm, "selection.cg": _count_cg,
         "replay.learn_task": _count_buffer}


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced name; returns what ``uninstall`` needs to undo it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "replaygraph" or name.startswith("replaygraph."))]
    patches = []
    for module_name, attr, span in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        traced = tracer.wrap(span, original, AFTER.get(span))
        for module in modules:
            for bound_name, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, bound_name, original))
                    setattr(module, bound_name, traced)
    for module_name, class_name, method, span in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[method]
        patches.append((cls, method, original))
        setattr(cls, method, tracer.wrap(span, original, AFTER.get(span)))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_times(spans, runs=None) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: inclusive time of its outermost spans (nested spans of
    the same name are not counted twice) and self time (duration minus the
    time covered by child spans). ``runs`` restricts to those run ids."""
    child_time = defaultdict(float)
    for name, start, end, parent, run in spans:
        if parent is not None:
            child_time[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, run) in enumerate(spans):
        if runs is not None and run not in runs:
            continue
        own[name] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            inclusive[name] += end - start
    return dict(inclusive), dict(own)
