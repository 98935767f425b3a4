"""Span tracing of cfrank's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function at every binding a caller
can look it up through: the defining module, each cfrank module that imported
the name, and the class for `RandomStream` methods. Pipeline stages are
wrapped by swapping `cli.PIPELINE_STAGES`, the tuple `run_pipeline` iterates.
`Tracer.uninstall()` puts every original object back.

Spans (name, start, end, parent) stay in memory until the run ends. A span's
self time is its duration minus the durations of its direct children; calls
are synchronous, so children never overlap. Wrappers only read clocks, file
sizes and return values: they draw from no RandomStream and change no output.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import statistics
import sys
import time
import warnings

# metric name -> the functions it covers, as (module, attribute). Alternatives
# that a workload picks between (pairwise or pointwise training, native or
# behaviors parsing) share one name, so every name gets calls on every workload.
LAYERS = {
    "corpus.load": [
        ("cfrank.corpus", "load_native_log"),
        ("cfrank.corpus", "load_mind_behaviors"),
    ],
    "corpus.split": [("cfrank.corpus", "leave_one_out_split")],
    "synthgen.emit_dataset": [("cfrank.synthgen", "emit_dataset")],
    "simulator.train_impression_model": [
        ("cfrank.simulator", "train_impression_model")
    ],
    "simulator.train_selection_model": [("cfrank.simulator", "train_selection_model")],
    "simulator.fit_posterior": [("cfrank.simulator", "fit_posterior")],
    "simulator.elbo_value_and_grads": [("cfrank.simulator", "elbo_value_and_grads")],
    "simulator.counterfactual_select": [("cfrank.simulator", "counterfactual_select")],
    "mathcore.adam_step": [("cfrank.mathcore", "adam_step")],
    "mathcore.RandomStream.normal": [("cfrank.mathcore", "RandomStream.normal")],
    "mathcore.RandomStream.integers": [("cfrank.mathcore", "RandomStream.integers")],
    "mathcore.RandomStream.choice": [("cfrank.mathcore", "RandomStream.choice")],
    "mathcore.RandomStream.permutation": [
        ("cfrank.mathcore", "RandomStream.permutation")
    ],
    "mathcore.RandomStream.substream": [("cfrank.mathcore", "RandomStream.substream")],
    "rankers.train": [
        ("cfrank.rankers", "train_pairwise"),
        ("cfrank.rankers", "train_pointwise"),
    ],
    "rankers.loss_grad": [
        ("cfrank.rankers", "pairwise_loss_grad"),
        ("cfrank.rankers", "pointwise_loss_grad"),
    ],
    "rankers.loss": [
        ("cfrank.rankers", "loss_pairwise"),
        ("cfrank.rankers", "loss_pointwise"),
    ],
    "rankers.recommend_topn": [("cfrank.rankers", "recommend_topn")],
    "intervention.pretrain_policy": [("cfrank.intervention", "pretrain_policy")],
    "intervention.run_intervention_round": [
        ("cfrank.intervention", "run_intervention_round")
    ],
    "intervention.realize_list": [("cfrank.intervention", "realize_list")],
    "intervention.reinforce_update": [("cfrank.intervention", "reinforce_update")],
    "evalkit.evaluate": [("cfrank.evalkit", "evaluate")],
    "evalkit.coldness_report": [("cfrank.evalkit", "coldness_report")],
    "textio.save_matrices": [("cfrank.textio", "save_matrices")],
    "textio.load_matrices": [("cfrank.textio", "load_matrices")],
}

# Counters fed from warnings the program emits: metric name -> message prefix.
WARNING_COUNTERS = {
    "simulator.sigma_floor_hits": "posterior sigma clamped at floor",
    "intervention.update_skips": "non-finite policy gradient",
}
# Only these functions emit the warnings above.
WARNING_SOURCES = ("simulator.fit_posterior", "intervention.reinforce_update")

COUNTERS = (
    "intervention.episodes",
    "intervention.samples",
    "evalkit.test_users",
    "textio.bytes_written",
) + tuple(WARNING_COUNTERS)


def _after_intervention_round(counts, args, kwargs, result):
    batch, episodes = result
    counts["intervention.episodes"] += len(episodes)
    counts["intervention.samples"] += len(batch)


def _after_evaluate(counts, args, kwargs, result):
    # Coldness buckets evaluate subsets of the test users; the largest
    # report is the whole test set.
    counts["evalkit.test_users"] = max(counts["evalkit.test_users"], result.n_users)


def _after_save_matrices(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["textio.bytes_written"] += os.path.getsize(path)


AFTER = {
    "intervention.run_intervention_round": _after_intervention_round,
    "evalkit.evaluate": _after_evaluate,
    "textio.save_matrices": _after_save_matrices,
}


class Tracer:
    """Records spans for the stages and, with `layers=True`, every layer."""

    def __init__(self, layers: bool = True):
        self.layers = layers
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts = {name: 0 for name in COUNTERS}
        self.failed_stages: list = []
        self._stack: list = []
        self._restore: list = []  # (owner, attribute, original value)

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        span = [name, time.monotonic(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            if name in WARNING_SOURCES:
                result = self._call_counting_warnings(fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
        except Exception:
            if name.startswith("cli.stage."):
                self.failed_stages.append(name[len("cli.stage."):])
            raise
        finally:
            span[2] = time.monotonic()
            self._stack.pop()
        after = AFTER.get(name)
        if after is not None:
            after(self.counts, args, kwargs, result)
        return result

    def _call_counting_warnings(self, fn, args, kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            text = str(w.message)
            for counter, prefix in WARNING_COUNTERS.items():
                if text.startswith(prefix):
                    self.counts[counter] += 1
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        cli = importlib.import_module("cfrank.cli")
        if self.layers:
            modules = [
                mod
                for key, mod in list(sys.modules.items())
                if mod is not None and (key == "cfrank" or key.startswith("cfrank."))
            ]
            for name, targets in LAYERS.items():
                for module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(module, cls_name)
                        self._patch(cls, meth, self._wrapper(name, cls.__dict__[meth]))
                        continue
                    original = getattr(module, attr)
                    wrapped = self._wrapper(name, original)
                    for mod in modules:
                        for binding, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, binding, wrapped)
        stages = tuple(
            (stage, self._wrapper(f"cli.stage.{stage}", fn))
            for stage, fn in cli.PIPELINE_STAGES
        )
        self._patch(cli, "PIPELINE_STAGES", stages)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def stage_spans(self) -> list:
        """(stage, start, end) of each stage that started."""
        out = []
        for name, start, end, _ in self.spans:
            if name.startswith("cli.stage."):
                out.append((name[len("cli.stage."):], start, end))
        return out

    def layer_metrics(self) -> dict:
        """Calls and self time per layer, stage times, and the counters."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        calls = {name: 0 for name in LAYERS}
        self_s = {name: 0.0 for name in LAYERS}
        stages = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            if name.startswith("cli.stage."):
                stages[name + "_s"] = end - start
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child_time[idx]
        metrics = dict(stages)
        for name in LAYERS:
            metrics[name + ".calls"] = calls[name]
            metrics[name + "_s"] = self_s[name]
        elbo_calls = calls["simulator.elbo_value_and_grads"]
        metrics["simulator.elbo_value_and_grads.ms_per_call"] = (
            1000.0 * self_s["simulator.elbo_value_and_grads"] / elbo_calls
            if elbo_calls
            else 0.0
        )
        metrics.update(self.counts)
        episodes = self.counts["intervention.episodes"]
        metrics["intervention.samples_per_episode"] = (
            self.counts["intervention.samples"] / episodes if episodes else 0.0
        )
        return metrics

    def wrapper_overhead_s(self, calls: int = 20000, repeats: int = 5) -> float:
        """Estimated seconds the layer wrappers added: layer spans recorded
        times the median extra cost of one wrapped call to a no-op."""

        def noop():
            return None

        wrapped = Tracer()._wrapper("trace.calibration", noop)
        costs = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - start - bare) / calls)
        spans = sum(1 for span in self.spans if not span[0].startswith("cli.stage."))
        return spans * statistics.median(costs)

    def write_spans(self, path) -> None:
        """Gzipped JSON lines, one per span: name, start, end, parent (-1 for roots)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

