"""Span tracing for the benchmark, installed from outside the package.

Each public function of a layer is replaced, in every namespace its callers
look it up in, by a wrapper that records a span: name, start, end, the span
that caused it and the benchmark step it belongs to. Spans stay in memory
until the run ends. Counts (rows, EM iterations, bytes, ...) are taken at
the same boundaries from the arguments and results, so nothing under src/
changes.

A layer's self time is the duration of its spans minus the part covered by
child spans; the autodiff ops a layer calls are not wrapped, so their cost
counts toward the layer that called them.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("cli", "storage", "synth", "trainer", "wcb", "fusion", "autodiff",
          "nfb", "evaluation")


class _TapeMark:
    """Whether a tape built by forward_batch was ever replayed by backward."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = False


class Tracer:
    """Records spans and counts while installed; restores everything on exit."""

    def __init__(self, modules: dict):
        self.m = modules
        self.spans: list = []        # [name, start, end, parent, step, mark]
        self.stack: list[int] = []
        self.step = ""
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._marks = weakref.WeakKeyDictionary()   # tape -> _TapeMark
        self._saved: list = []
        self._wrappers: dict = {}

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(namespace, attribute, span name, hook) for every wrapped call.

        A function imported by name into another module is wrapped there too,
        because that module's callers look it up in their own namespace.
        """
        m = self.m
        cli, trainer, storage, synth = m["cli"], m["trainer"], m["storage"], m["synth"]
        wcb, fusion, nfb, ev, ad = m["wcb"], m["fusion"], m["nfb"], m["evaluation"], m["autodiff"]
        return [
            (cli, "main", "cli.main", None),
            (cli, "generate_dataset", "synth.generate_dataset", self._on_generate),
            (synth, "generate_dataset", "synth.generate_dataset", self._on_generate),
            (cli, "write_dataset", "storage.write_dataset", self._on_write_dataset),
            (storage, "write_dataset", "storage.write_dataset", self._on_write_dataset),
            (cli, "read_dataset", "storage.read_dataset", self._on_read_dataset),
            (storage, "read_dataset", "storage.read_dataset", self._on_read_dataset),
            (cli, "write_weights", "storage.write_weights", self._on_write_weights),
            (storage, "write_weights", "storage.write_weights", self._on_write_weights),
            (cli, "run_training", "trainer.run_training", None),
            (trainer, "run_training", "trainer.run_training", None),
            (trainer, "train_epoch", "trainer.train_epoch", None),
            (cli, "forward_batch", "trainer.forward_batch", None),
            (trainer, "forward_batch", "trainer.forward_batch", None),
            (trainer, "evaluate_retrieval", "trainer.evaluate_retrieval", None),
            (trainer.Adam, "step", "trainer.adam_step", None),
            (trainer, "compensate_batch", "wcb.compensate_batch", None),
            (wcb, "compensate_batch", "wcb.compensate_batch", None),
            (fusion, "fuse_query", "fusion.fuse_query", None),
            (fusion, "nce_per_sample", "fusion.nce_per_sample", None),
            (ad.Tape, "backward", "autodiff.backward", self._on_backward),
            (ad, "grad_check", "autodiff.grad_check", self._on_grad_check),
            (nfb, "normalize_losses", "nfb.normalize_losses", None),
            (nfb, "em_fit", "nfb.em_fit", self._on_em_fit),
            (nfb, "posterior", "nfb.posterior", None),
            (nfb, "build_sets", "nfb.build_sets", None),
            (trainer, "cosine_similarity_matrix", "evaluation.similarity", None),
            (ev, "cosine_similarity_matrix", "evaluation.similarity", None),
            (trainer, "recall_from_similarity", "evaluation.recall", None),
            (ev, "recall_from_similarity", "evaluation.recall", None),
            (trainer, "evaluate_filter", "evaluation.evaluate_filter", None),
            (ev, "evaluate_filter", "evaluation.evaluate_filter", None),
        ]

    def span_names(self) -> set[str]:
        return {name for _ns, _attr, name, _hook in self._targets()}

    def __enter__(self) -> "Tracer":
        for ns, attr, name, hook in self._targets():
            fn = ns.__dict__[attr]
            if fn not in self._wrappers:
                self._wrappers[fn] = self._wrap(fn, name, hook)
            self._saved.append((ns, attr, fn))
            setattr(ns, attr, self._wrappers[fn])
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, hook):
        spans, stack, calls = self.spans, self.stack, self.calls
        forward = name == "trainer.forward_batch"
        epoch = name == "trainer.train_epoch"
        rows = name == "wcb.compensate_batch"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step, None]
            if forward:
                span[5] = self._mark(args[0])
            elif epoch:
                config, ep = args[5], args[6]
                filtering = config.enable_nfb and ep >= config.warmup_epochs
                span[0] = "trainer.filtered_epoch" if filtering else "trainer.warmup_epoch"
            elif rows:
                self.counts["wcb.rows"] += sum(b.tokens.shape[0] - 1 for b in args[2])
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            calls[name] += 1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _mark(self, tape) -> _TapeMark:
        mark = self._marks.get(tape)
        if mark is None:
            mark = self._marks[tape] = _TapeMark()
        return mark

    # -- counters taken at the boundaries ---------------------------------

    def _on_generate(self, args, result) -> None:
        self.counts["synth.triplets"] += len(result)

    def _on_write_dataset(self, args, result) -> None:
        self.counts["storage.bytes_written"] += os.path.getsize(args[2])

    def _on_write_weights(self, args, result) -> None:
        self.counts["storage.bytes_written"] += os.path.getsize(args[1])

    def _on_read_dataset(self, args, result) -> None:
        self.counts["storage.bytes_read"] += os.path.getsize(args[0])

    def _on_backward(self, args, result) -> None:
        tape = args[0]
        self._mark(tape).grad = True
        self.counts["autodiff.tape_nodes"] += len(tape._nodes)

    def _on_grad_check(self, args, result) -> None:
        self.counts["autodiff.grad_check_entries"] += result.n_entries

    def _on_em_fit(self, args, result) -> None:
        c = self.counts
        c["nfb.em_iters"] += result.n_iters
        if result.fallback:
            c["nfb.fallback_fits"] += 1
            return
        lls = result.log_likelihoods
        tol = self.m["nfb"].DEFAULT_TOL
        if len(lls) < 2 or lls[-1] - lls[-2] >= tol:
            c["nfb.em_unconverged_fits"] += 1

    # -- results ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, step, mark) in enumerate(self.spans):
                if mark is not None:
                    name += "" if mark.grad else ".nograd"
                fh.write(json.dumps({"id": i, "name": name, "step": step,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")

    def aggregate(self) -> dict[str, float]:
        """Per-layer metrics: busy and self time, call counts, work counts."""
        busy: dict[str, float] = defaultdict(float)
        n: Counter = Counter()
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _step, _mark in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _parent, _step, mark) in enumerate(self.spans):
            if mark is not None:
                name = "trainer.train_forward" if mark.grad else "trainer.nograd_forward"
            busy[name] += end - start
            n[name] += 1
            layer_self[name.split(".")[0]] += end - start - child[i]

        c = self.counts
        fits = n["nfb.em_fit"]
        gen_s = busy["synth.generate_dataset"]
        out = {
            "wcb.compensate_batch_s": busy["wcb.compensate_batch"],
            "wcb.compensate_batch_calls": n["wcb.compensate_batch"],
            "wcb.rows": c["wcb.rows"],
            "trainer.train_forward_s": busy["trainer.train_forward"],
            "trainer.train_forward_calls": n["trainer.train_forward"],
            "trainer.nograd_forward_s": busy["trainer.nograd_forward"],
            "trainer.nograd_forward_calls": n["trainer.nograd_forward"],
            "nfb.em_fit_s": busy["nfb.em_fit"],
            "nfb.em_fit_calls": fits,
            "nfb.em_iters": c["nfb.em_iters"],
            "nfb.em_unconverged_fits": c["nfb.em_unconverged_fits"],
            "nfb.fallback_fits": c["nfb.fallback_fits"],
            "nfb.useful_fit_ratio": (fits - c["nfb.fallback_fits"]) / fits if fits else 0.0,
            "nfb.normalize_losses_s": busy["nfb.normalize_losses"],
            "nfb.posterior_s": busy["nfb.posterior"],
            "nfb.build_sets_s": busy["nfb.build_sets"],
            "autodiff.backward_s": busy["autodiff.backward"],
            "autodiff.backward_calls": n["autodiff.backward"],
            "autodiff.tape_nodes": c["autodiff.tape_nodes"],
            "autodiff.grad_check_s": busy["autodiff.grad_check"],
            "autodiff.grad_check_entries": c["autodiff.grad_check_entries"],
            "trainer.adam_step_s": busy["trainer.adam_step"],
            "trainer.adam_steps": n["trainer.adam_step"],
            "trainer.evaluate_retrieval_s": busy["trainer.evaluate_retrieval"],
            "trainer.warmup_epoch_s": busy["trainer.warmup_epoch"],
            "trainer.filtered_epoch_s": busy["trainer.filtered_epoch"],
            "fusion.fuse_query_s": busy["fusion.fuse_query"],
            "fusion.nce_per_sample_s": busy["fusion.nce_per_sample"],
            "evaluation.similarity_s": busy["evaluation.similarity"],
            "evaluation.recall_s": busy["evaluation.recall"],
            "evaluation.evaluate_filter_s": busy["evaluation.evaluate_filter"],
            "synth.generate_dataset_s": gen_s,
            "synth.triplets_per_s": c["synth.triplets"] / gen_s if gen_s else 0.0,
            "storage.write_dataset_s": busy["storage.write_dataset"],
            "storage.read_dataset_s": busy["storage.read_dataset"],
            "storage.write_weights_s": busy["storage.write_weights"],
            "storage.bytes_written": c["storage.bytes_written"],
            "storage.bytes_read": c["storage.bytes_read"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out
