"""Span recorder for the traced benchmark run.

The wrappers are installed from here, around the public functions of each
clustreg layer, only for the duration of a traced operation.  Nothing inside
the package is changed on disk.  A function is patched under every module
namespace that binds it (``run_em`` lives in both ``clustreg.em`` and
``clustreg.tuning``), so callers that imported the name see the wrapper too.

Spans are kept in memory as parallel integer columns (name id, start and end
in ns, parent span index, operation id) and written out once at the end.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute) for plain functions
FUNCTIONS = (
    ("model.log_density", "clustreg.model", "log_density_matrix"),
    ("model.log_likelihood", "clustreg.model", "log_likelihood"),
    ("em.run_em", "clustreg.em", "run_em"),
    ("em.m_step_betas", "clustreg.em", "m_step_betas"),
    ("em.variance_update", "clustreg.em", "m_step_variances"),
    ("em.variance_update", "clustreg.em", "homoscedastic_variance"),
    ("em.variance_update", "clustreg.em", "clamp_variances"),
    ("em.initialize", "clustreg.em", "initialize"),
    ("em.pool", "clustreg.em", "multi_start_fit"),
    ("tuning.cv", "clustreg.tuning", "cv_loglik"),
    ("tuning.make_split", "clustreg.tuning", "make_split"),
    ("tuning.target", "clustreg.tuning", "_estimate_target"),
    ("tuning.select_c", "clustreg.tuning", "select_c"),
    ("tuning.fit_conc", "clustreg.tuning", "fit_conc"),
    ("simulate.draw", "clustreg.simulate", "draw_scenario"),
    ("simulate.study", "clustreg.simulate", "run_study"),
    ("metrics.ari", "clustreg.metrics", "adjusted_rand"),
    ("metrics.param_mse", "clustreg.metrics", "param_mse"),
    ("io.load_benchmark", "clustreg.io", "load_benchmark"),
    ("io.write_fit", "clustreg.io", "write_fit"),
    ("cli.main", "clustreg.cli", "main"),
)

# (span name, module, class, method): dataclass validation and row subsets
METHODS = (
    ("model.validate", "clustreg.model", "ModelParams", "__post_init__"),
    ("model.validate", "clustreg.model", "Responsibilities", "__post_init__"),
    ("model.subset", "clustreg.model", "Dataset", "subset"),
)

# Starts within this distance of the pool winner's log-likelihood count as
# having reached the best optimum.
AT_BEST_TOL = 1e-6

# Spans whose self time is reported as <name>.self_s.
SELF_TIMES = (
    "model.log_density", "model.validate", "model.log_likelihood", "model.subset",
    "em.run_em", "em.m_step_betas", "em.variance_update", "em.initialize", "em.pool",
    "tuning.cv", "tuning.make_split", "simulate.draw", "simulate.study",
    "metrics.ari", "metrics.param_mse", "io.load_benchmark", "io.write_fit", "cli.main",
)
CALL_COUNTS = ("model.log_density", "model.validate", "model.log_likelihood",
               "model.subset", "em.run_em")
FAILURE_TYPES = ("SingularComponentError", "EmptyComponentError")


def count_at_best(winner, fits) -> int:
    """Fits of the winner's kind (degenerate or not) within AT_BEST_TOL of it.

    ``winner`` and each fit are (loglik, degenerate) pairs.
    """
    w_ll, w_deg = winner
    return sum(1 for ll, deg in fits if deg == w_deg and abs(ll - w_ll) <= AT_BEST_TOL)


class Tracer:
    """In-memory span log plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.info: dict[int, object] = {}   # span index -> return summary or exception type
        self._stack = [-1]
        self._patches = []
        self.missing: list[str] = []
        self.op_ranges: list[tuple[int, int]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, summarize=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(len(tracer.op_ranges))
            tracer.end.append(0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.info[idx] = type(exc).__name__
                raise
            finally:
                tracer.end[idx] = perf_counter_ns()
                tracer._stack.pop()
            if summarize is not None:
                tracer.info[idx] = summarize(result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        summaries = {
            "em.run_em": lambda r: (r.loglik, r.degenerate, r.iterations),
            "em.pool": _pool_winner,
            "tuning.select_c": lambda r: len(r.rows),
        }
        self.missing = []
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "clustreg" or k.startswith("clustreg."))]
        for span, mod_name, attr in FUNCTIONS:
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(span, orig, summaries.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))
        for span, mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            orig = cls.__dict__.get(meth) if cls is not None else None
            if orig is None:
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self._wrap(span, orig))
            self._patches.append((cls, meth, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def traced(self, op):
        """Run ``op()`` with the wrappers installed, as one traced operation."""
        lo = len(self.start)
        self.install()
        try:
            return op()
        finally:
            self.uninstall()
            self.op_ranges.append((lo, len(self.start)))

    # -- derived metrics ---------------------------------------------------

    def layer_metrics(self, op_index: int) -> dict:
        """Per-layer counts and self times (s) of one traced operation."""
        lo, hi = self.op_ranges[op_index]
        # copies, so the columns stay appendable
        name = np.array(self.name[lo:hi], dtype=np.int64)
        start = np.array(self.start[lo:hi], dtype=np.int64)
        end = np.array(self.end[lo:hi], dtype=np.int64)
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        dur = (end - start).astype(float) * 1e-9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=hi - lo)
        self_s = dur - covered
        ids = {n: i for i, n in enumerate(self.names)}
        no_id = -1

        def sel(span):
            return name == ids.get(span, no_id)

        def parent_is(span):
            out = np.zeros(hi - lo, dtype=bool)
            out[has_parent] = name[parent[has_parent]] == ids.get(span, no_id)
            return out

        m = {}
        for span in SELF_TIMES:
            m[f"{span}.self_s"] = float(self_s[sel(span)].sum())
        for prefix in CALL_COUNTS:
            m[f"{prefix}.calls"] = int(sel(prefix).sum())

        info = self.info
        run_em = np.flatnonzero(sel("em.run_em"))
        results = {i: info[i + lo] for i in run_em if isinstance(info.get(i + lo), tuple)}
        iterations = sum(r[2] for r in results.values())
        m["em.iterations"] = int(iterations)
        m["em.us_per_iter"] = float(dur[run_em].sum() / iterations * 1e6) if iterations else 0.0

        # multi-start pools: every start calls initialize once, then run_em
        in_pool = parent_is("em.pool")
        starts = np.flatnonzero(sel("em.initialize") & in_pool)
        failures = [info.get(i + lo) for i in np.flatnonzero(
            (sel("em.initialize") | sel("em.run_em")) & in_pool)]
        failures = [f for f in failures if isinstance(f, str)]
        m["em.pool.starts"] = int(starts.size)
        m["em.pool.failed"] = len(failures)
        for kind in FAILURE_TYPES:
            m[f"em.pool.failed.{kind}"] = failures.count(kind)
        by_pool: dict[int, list] = {}
        for i, (ll, deg, _) in results.items():
            if in_pool[i]:
                by_pool.setdefault(parent[i], []).append((ll, deg))
        m["em.pool.degenerate"] = sum(deg for fits in by_pool.values() for _, deg in fits)
        at_best = 0
        for p, fits in by_pool.items():
            winner = info.get(p + lo)
            if isinstance(winner, tuple):
                at_best += count_at_best(winner, fits)
        m["em.pool.at_best_ratio"] = at_best / starts.size if starts.size else 0.0

        # cross-validated grid over c
        in_cv = parent_is("tuning.cv")
        cv_fits = np.flatnonzero(sel("em.run_em") & in_cv)
        fallbacks = sum(1 for i in cv_fits if isinstance(info.get(i + lo), str))
        candidates = sum(info.get(i + lo, 0) for i in np.flatnonzero(sel("tuning.select_c")))
        m["tuning.cv.candidates"] = int(candidates)
        m["tuning.cv.infeasible"] = int(candidates - sel("tuning.cv").sum())
        m["tuning.cv.fits"] = int(cv_fits.size)
        m["tuning.cv.fallbacks"] = int(fallbacks)
        m["tuning.cv.ok_ratio"] = (cv_fits.size - fallbacks) / cv_fits.size if cv_fits.size else 0.0

        # fit_conc phases: target estimate and warm start run inside select_c,
        # the grid is the rest of select_c, the final refit follows it
        in_select = parent_is("tuning.select_c")
        target = float(dur[sel("tuning.target") & in_select].sum())
        warm = float(dur[sel("em.pool") & in_select].sum())
        m["tuning.phase.target_s"] = target
        m["tuning.phase.warm_s"] = warm
        m["tuning.phase.grid_s"] = float(dur[sel("tuning.select_c")].sum()) - target - warm
        m["tuning.phase.final_s"] = float(dur[sel("em.pool") & parent_is("tuning.fit_conc")].sum())
        return m

    def write(self, path):
        """Write every recorded span as compressed NumPy columns."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def _pool_winner(result):
    winner = result[0] if isinstance(result, tuple) else result
    return (winner.loglik, winner.degenerate)
