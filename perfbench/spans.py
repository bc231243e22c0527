"""Spans around the public functions of each softki module.

The traced run substitutes a timing wrapper for every function listed in
``TRACED``, in every ``softki`` module that holds a reference to it, so a
name bound by ``from .x import f`` is replaced in the importing module as
well. Nothing under ``src/`` changes, and untraced runs install nothing.

Each span records (name, start, end, parent, paused). Spans stay in memory
until the worker ends and writes them out. Self time is a span's duration
minus the durations of its child spans and minus ``paused``, the seconds the
benchmark's reference samples (refspeed.py) took while the span was the
innermost one; the program is single-threaded, so children never overlap.

A few counts are read from arguments and return values at the same
boundaries, so ratios are measured where the work happens.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "data": ("load_csv", "split_standardize", "ricker_dataset"),
    "interp": ("softmax_weights", "softmax_weights_backward"),
    "kernel": ("matern32", "matern32_param_grads"),
    "linalg": ("cholesky_upper", "tri_solve_upper", "block_cg"),
    "objective": ("stabilized_objective", "exact_mll", "hutchinson_pseudoloss"),
    "trainer": ("train", "train_sgpr", "kmeans"),
    "posterior": ("fit_qr", "stacked_qr_solve", "predict_mean", "predict_var"),
    "baselines": ("sgpr_elbo", "sgpr_fit", "sgpr_predict_mean", "sgpr_predict_var"),
    "checkpoint": ("save_checkpoint", "load_checkpoint", "restore"),
}

FUNCTIONS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

# counts and ratios read from return values, name -> (unit, better); a ratio
# is 0 when its base (the matching ``.calls`` metric) is 0
COUNTERS = {
    "linalg.cholesky_upper.jitter_retries": ("count", "lower"),
    "linalg.block_cg.iterations": ("count", "lower"),
    "linalg.block_cg.converged_ratio": ("ratio", "higher"),
    "objective.fallback_ratio": ("ratio", "lower"),
    "objective.exact_mll.useful_ratio": ("ratio", "higher"),
    "trainer.steps": ("count", "higher"),
    "posterior.stacked_qr_solve.blocks": ("count", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
}


def _cholesky_retries(counts, args, kwargs, out, err):
    from softki import linalg

    m = np.asarray(args[0])
    schedule = kwargs.get("jitter_schedule", args[1] if len(args) > 1 else None)
    if schedule is None:
        schedule = linalg.default_jitter_schedule(m)
    schedule = [float(eps) for eps in schedule]
    if err is None:
        retries = schedule.index(out[1])
    elif np.all(np.isfinite(m)):
        retries = len(schedule) - 1   # every rung was tried and failed
    else:
        retries = 0                   # rejected before the first rung
    counts["linalg.cholesky_upper.jitter_retries"] += retries


def _block_cg(counts, args, kwargs, out, err):
    if err is None:
        counts["linalg.block_cg.iterations"] += out.iterations
        counts["linalg.block_cg.converged"] += bool(out.converged)


def _stabilized(counts, args, kwargs, out, err):
    if err is None and "fallback_reason" in out.diagnostics:
        counts["objective.fallbacks"] += 1


def _exact_mll(counts, args, kwargs, out, err):
    if err is None and out.is_finite():
        counts["objective.exact_mll.useful"] += 1


def _train(counts, args, kwargs, out, err):
    if err is None:
        counts["trainer.steps"] += sum(out[1].mode_counts.values())


def _stacked_qr(counts, args, kwargs, out, err):
    if err is None:
        counts["posterior.stacked_qr_solve.blocks"] += out[3]["blocks"]


def _save(counts, args, kwargs, out, err):
    if err is None:
        counts["checkpoint.bytes"] += os.path.getsize(args[0])


OBSERVERS = {
    "linalg.cholesky_upper": _cholesky_retries,
    "linalg.block_cg": _block_cg,
    "objective.stabilized_objective": _stabilized,
    "objective.exact_mll": _exact_mll,
    "trainer.train": _train,
    "trainer.train_sgpr": _train,
    "posterior.stacked_qr_solve": _stacked_qr,
    "checkpoint.save_checkpoint": _save,
}


class Recorder:
    """In-memory spans and counts of one traced worker."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1, paused]
        self.stack = []
        self.counts = defaultdict(float)

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0]
            # the span exists before it is on the stack, where pause() finds it
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            err = out = None
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                err = exc
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if observe is not None:
                    observe(self.counts, args, kwargs, out, err)
            return out

        return traced

    def pause(self, seconds: float) -> None:
        """Charge ``seconds`` of benchmark work to the innermost open span,
        so they leave its self time."""
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    def install(self) -> None:
        """Substitute wrappers in every loaded softki module."""
        import softki

        modules = [mod for key, mod in sys.modules.items()
                   if key == "softki" or key.startswith("softki.")]
        for name in FUNCTIONS:
            mod_name, fn_name = name.split(".")
            original = getattr(getattr(softki, mod_name), fn_name)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps([index, *span]) + "\n")

    def layer_metrics(self) -> dict:
        """Calls and self seconds per traced function, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_s = dict.fromkeys(FUNCTIONS, 0.0)
        for (name, start, end, parent, paused), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += (end - start) - inner - paused

        def ratio(num, base):
            return num / base if base else 0.0

        c = self.counts
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update({
            "linalg.cholesky_upper.jitter_retries": int(c["linalg.cholesky_upper.jitter_retries"]),
            "linalg.block_cg.iterations": int(c["linalg.block_cg.iterations"]),
            "linalg.block_cg.converged_ratio": ratio(
                c["linalg.block_cg.converged"], calls["linalg.block_cg"]),
            "objective.fallback_ratio": ratio(
                c["objective.fallbacks"], calls["objective.stabilized_objective"]),
            "objective.exact_mll.useful_ratio": ratio(
                c["objective.exact_mll.useful"], calls["objective.exact_mll"]),
            "trainer.steps": int(c["trainer.steps"]),
            "posterior.stacked_qr_solve.blocks": int(c["posterior.stacked_qr_solve.blocks"]),
            "checkpoint.bytes": int(c["checkpoint.bytes"]),
        })
        return out
