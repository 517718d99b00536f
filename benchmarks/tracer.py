"""Span tracer for the benchmark's traced run.

``Tracer.install()`` wraps the public functions of each effham module in
spans and ``uninstall()`` restores them.  The wrapping rebinds module
attributes at run time; the library's source is not touched.  Every module
of the package that holds the same function object is rebound, so calls
the library makes internally (``closed_form_effective`` calling
``matrix_exponential``, say) nest inside the caller's span.  Calls through
private dispatch tables (``models._BUILDERS``) keep the original objects
and are covered by the span of the public caller.

A span records its layer metric, start, end, parent span and task id.  A
layer's self time is the span's duration minus the time its child spans
cover; the task span's self time is the part of the task no named span
covers (``bench.uncovered_s``).  Spans stay in memory until the run ends.

``rotations.filter_visits`` counts the calls of the ``keep`` predicate that
``filter_signatures`` receives, by wrapping it.  The wrapper adds a Python
call per entry the filter visits, time that would land in the filter's own
span, so it is installed only with ``install(count_visits=True)``; the
runner takes layer times from passes without it and counts from a pass
with it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

#: layer metric -> (module, public functions) it times
LAYERS = {
    "hilbert.basis_s": ("effham.hilbert", ("enumerate_basis",)),
    "hilbert.ops_s": ("effham.hilbert", ("annihilator", "creator", "number_operator",
                                         "collective_operator", "collective_inversion",
                                         "spin_operators")),
    "hilbert.commutator_s": ("effham.hilbert", ("commutator",)),
    "algebra.build_deformed_s": ("effham.algebra", ("build_deformed",)),
    "algebra.relations_s": ("effham.algebra", ("ladder_relation_report",
                                               "verify_su3_cross_relations")),
    "models.build_s": ("effham.models", ("build",)),
    "models.blocks_s": ("effham.models", ("conserved_blocks", "block_masks")),
    "rotations.closed_form_s": ("effham.rotations", ("closed_form_effective",
                                                     "cascade_first_stage")),
    "rotations.generator_s": ("effham.rotations", ("eliminating_generator", "measured_step")),
    "rotations.expm_s": ("effham.rotations", ("matrix_exponential",)),
    "rotations.conjugate_s": ("effham.rotations", ("conjugate", "conjugate_stages")),
    "rotations.filter_s": ("effham.rotations", ("filter_signatures",)),
    "dynamics.compare_s": ("effham.dynamics", ("compare_spectra",)),
    "dynamics.evolve_s": ("effham.dynamics", ("evolve",)),
    "dynamics.effective_evolution_s": ("effham.dynamics", ("effective_evolution",)),
    "dynamics.scaling_s": ("effham.dynamics", ("scaling_study",)),
    "cli.load_config_s": ("effham.cli", ("load_config",)),
    "cli.run_s": ("effham.cli", ("run",)),
}

TASK_SPAN = "bench.uncovered_s"

#: counts reported as they are; ``pass_counts`` adds two ratios
COUNTS = ("hilbert.commutator_calls", "models.built", "models.dim", "models.blocks",
          "models.max_block", "models.flops_dense", "models.flops_block",
          "models.resident_mb", "rotations.filter_visits")


class Tracer:
    """Records spans and per-pass counts while installed."""

    def __init__(self):
        self.spans: list[list] = []      # [metric, start, end, parent, task, child_time]
        self._stack: list[int] = []
        self._task = None
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []
        self.count_visits = False

    # -- spans ---------------------------------------------------------------
    def _open(self, metric: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([metric, time.perf_counter(), None, parent, self._task, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def run_task(self, task_id: str, fn, *args, **kwargs):
        """Run one task inside a task span."""
        self._task = task_id
        idx = self._open(TASK_SPAN)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            self._task = None

    def reset(self):
        """Forget spans and counts (between passes)."""
        self.spans.clear()
        self.counts = defaultdict(float)

    def pass_counts(self) -> dict[str, float]:
        """Counts and ratios of the current pass."""
        c = self.counts
        out = {key: c[key] for key in COUNTS}
        visits, dim = c["rotations.filter_visits"], c["dynamics.compare_dim"]
        out["rotations.filter_kept_frac"] = c["rotations.filter_kept"] / visits if visits else 0.0
        out["dynamics.compared_frac"] = c["dynamics.compared_states"] / dim if dim else 0.0
        return out

    def self_times(self, task: str) -> dict[str, float]:
        """Self time per layer metric of one task's spans."""
        out = {name: 0.0 for name in LAYERS}
        out[TASK_SPAN] = 0.0
        for metric, start, end, _, span_task, child in self.spans:
            if span_task == task:
                out[metric] += (end - start) - child
        return out

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, metric: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = tracer._open(metric)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        special = {"commutator": self._count_commutator, "build": self._count_model,
                   "filter_signatures": self._count_filter,
                   "compare_spectra": self._count_compare}.get(name)
        if special is None:
            return span

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            return special(span, *args, **kwargs)
        return counted

    def _count_commutator(self, span, *args, **kwargs):
        self.counts["hilbert.commutator_calls"] += 1
        return span(*args, **kwargs)

    def _count_filter(self, span, h, keep):
        if not self.count_visits:
            return span(h, keep)
        counts = self.counts

        def counting_keep(dph, docc):
            counts["rotations.filter_visits"] += 1
            kept = keep(dph, docc)
            if kept:
                counts["rotations.filter_kept"] += 1
            return kept
        return span(h, counting_keep)

    def _count_compare(self, span, h_exact, h_eff, blocks, *args, **kwargs):
        blocks = list(blocks)
        covered = np.zeros(h_exact.dim, dtype=bool)
        for blk in blocks:
            covered[np.asarray(blk)] = True
        self.counts["dynamics.compared_states"] += int(covered.sum())
        self.counts["dynamics.compare_dim"] += h_exact.dim
        return span(h_exact, h_eff, blocks, *args, **kwargs)

    def _count_model(self, span, *args, **kwargs):
        model = span(*args, **kwargs)
        dim = model.space.dim
        diags = [np.round(op.diagonal().real, 9) for op in model.conserved.values()]
        if diags:
            _, sizes = np.unique(np.stack(diags, axis=1), axis=0, return_counts=True)
        else:
            sizes = np.asarray([dim])
        held = {id(op) for op in (model.h_free, model.h_int, model.h_diag,
                                  *model.conserved.values(), *model.operators.values())}
        for term in model.interactions:
            alg = term.algebra
            held |= {id(alg.x3), id(alg.xplus), id(alg.xminus), id(alg.structure)}
        c = self.counts
        c["models.built"] += 1
        c["models.dim"] += dim
        c["models.blocks"] += len(sizes)
        c["models.max_block"] = max(c["models.max_block"], int(sizes.max()))
        c["models.flops_dense"] += float(dim) ** 3
        c["models.flops_block"] += float(np.sum(sizes.astype(float) ** 3))
        c["models.resident_mb"] = max(c["models.resident_mb"], len(held) * dim * dim * 16 / 1e6)
        return model

    # -- install -------------------------------------------------------------
    def install(self, count_visits: bool = False):
        """Rebind every traced function in every loaded effham module;
        with ``count_visits`` also wrap the predicate ``filter_signatures``
        receives."""
        self.count_visits = count_visits
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "effham" or name.startswith("effham."))]
        for metric, (modname, names) in LAYERS.items():
            home = sys.modules[modname]
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(metric, name, orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()
