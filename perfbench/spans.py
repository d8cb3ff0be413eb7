"""Spans around radiotree's public functions, recorded from outside the package.

:class:`Tracer` replaces each traced function with a wrapper at every site
where the name is bound in a ``radiotree`` module (the defining module and each
``from .x import f`` site), so that calls between layers are seen without
editing the package.  Spans are ``(name, start, end, parent)`` tuples kept in
memory; :func:`layer_metrics` turns one pass's spans into per-layer numbers.
``TreeMetrics.distance`` is only counted, not spanned: it runs millions of
times per pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _pairs_before(p: int, i: int, j: int) -> int:
    """Pairs an all-pairs scan in lexicographic (i, j) order checks up to (i, j)."""
    return i * (p - 1) - i * (i - 1) // 2 + (j - i)


def _scan_pairs(p: int, result) -> int:
    ok, pair = result
    return p * (p - 1) // 2 if ok else _pairs_before(p, *pair)


def _count_condition_b(tracer, args, result):
    tracer.counts["orders.condition_b_pairs"] += _scan_pairs(len(args[1]), result)


def _count_verify(tracer, args, result):
    tracer.counts["labelling.verify_pairs"] += _scan_pairs(args[0].p, result)


def _count_exact(tracer, args, result):
    stats = result.stats
    tracer.counts["solver.trees"] += 1
    tracer.counts["solver.nodes"] += stats.nodes
    tracer.counts["solver.completed"] += int(stats.completed)
    tracer.kernel_s += stats.elapsed_s


def _count_proof_order(tracer, args, result):
    tracer.counts["families.proof_orders_returned"] += 1


# (defining module, function, hook run on each normal return)
TARGETS = (
    ("radiotree.tree", "metrics", None),
    ("radiotree.tree", "distance_matrix", None),
    ("radiotree.orders", "check_condition_a", None),
    ("radiotree.orders", "a_sequence", None),
    ("radiotree.orders", "check_condition_b", _count_condition_b),
    ("radiotree.labelling", "label_from_order", None),
    ("radiotree.labelling", "verify_labelling", _count_verify),
    ("radiotree.labelling", "greedy_label_from_order", None),
    ("radiotree.bounds", "certify_tightness", None),
    ("radiotree.families", "gen_path", None),
    ("radiotree.families", "gen_caterpillar", None),
    ("radiotree.families", "gen_levelwise", None),
    ("radiotree.families", "gen_lmh", None),
    ("radiotree.families", "gen_random_two_branch", None),
    ("radiotree.families", "proof_order_caterpillar", _count_proof_order),
    ("radiotree.families", "proof_order_levelwise", _count_proof_order),
    ("radiotree.families", "proof_order_lmh", _count_proof_order),
    ("radiotree.solver", "exact_rn", _count_exact),
)


class Tracer:
    """Records spans and counts while installed and not paused."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.kernel_s = 0.0
        self.recording = True

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.kernel_s = 0.0

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name at every radiotree binding site."""
        undo = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "radiotree" or k.startswith("radiotree."))]
        try:
            for mod_name, attr, hook in TARGETS:
                original = getattr(importlib.import_module(mod_name), attr)
                name = f"{mod_name.rsplit('.', 1)[1]}.{attr}"
                wrapper = self._wrap(name, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            tree_metrics = importlib.import_module("radiotree.tree").TreeMetrics
            distance = tree_metrics.distance
            tracer = self

            def counted_distance(m, u, v):
                if tracer.recording:
                    tracer.counts["tree.distance_calls"] += 1
                return distance(m, u, v)

            tree_metrics.distance = counted_distance
            undo.append((tree_metrics, "distance", distance))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    @contextmanager
    def paused(self):
        self.recording = False
        try:
            yield
        finally:
            self.recording = True


def write_spans(spans, path):
    """One JSON array [name, start, end, parent index] per line."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def span_times(spans):
    """Per-name inclusive time, self time and call count.

    Self time is a span's duration minus its children's; spans are appended
    in start order, so every parent precedes its children.  No traced function
    calls itself, so summing inclusive times never counts an interval twice.
    """
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for (name, start, end, _), covered in zip(spans, child):
        inclusive[name] += end - start
        self_time[name] += end - start - covered
        calls[name] += 1
    return inclusive, self_time, calls


def certify_calls_under_proof_order(spans) -> int:
    """certify_tightness spans that sit inside a proof_order_* span, at any depth."""
    under = [False] * len(spans)
    n = 0
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            under[i] = under[parent] or spans[parent][0].startswith("families.proof_order_")
        if under[i] and name == "bounds.certify_tightness":
            n += 1
    return n


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, cache_info=None):
    """Per-layer numbers for one traced pass (everything except gen and the
    whole-run figures, which the caller adds)."""
    spans = tracer.spans
    inc, own, calls = span_times(spans)
    counts = tracer.counts

    def total(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    hits = misses = size = 0
    if cache_info is not None:
        hits, misses, _, size = cache_info
    exact_s = inc["solver.exact_rn"]
    return {
        "tree.metrics_s": inc["tree.metrics"],
        "tree.metrics_calls": calls["tree.metrics"],
        "tree.distance_matrix_s": inc["tree.distance_matrix"],
        "tree.distance_matrix_hit_ratio": _ratio(hits, hits + misses),
        "tree.distance_matrix_cache_size": size,
        "tree.distance_calls": counts["tree.distance_calls"],
        "orders.check_condition_a_s": inc["orders.check_condition_a"],
        "orders.a_sequence_s": inc["orders.a_sequence"],
        "orders.check_condition_b_s": inc["orders.check_condition_b"],
        "orders.condition_b_pairs": counts["orders.condition_b_pairs"],
        "labelling.label_from_order_s": inc["labelling.label_from_order"],
        "labelling.verify_labelling_s": inc["labelling.verify_labelling"],
        "labelling.verify_pairs": counts["labelling.verify_pairs"],
        "labelling.greedy_label_from_order_s": inc["labelling.greedy_label_from_order"],
        "bounds.certify_tightness_s": inc["bounds.certify_tightness"],
        "bounds.certify_tightness_self_s": own["bounds.certify_tightness"],
        "bounds.certify_tightness_calls": calls["bounds.certify_tightness"],
        "families.proof_order_s": total("families.proof_order_", inc),
        "families.proof_order_self_s": total("families.proof_order_", own),
        "families.search_yield": _ratio(counts["families.proof_orders_returned"],
                                        certify_calls_under_proof_order(spans)),
        "solver.exact_rn_s": exact_s,
        "solver.kernel_s": tracer.kernel_s,
        "solver.overhead_s": exact_s - tracer.kernel_s,
        "solver.nodes": counts["solver.nodes"],
        "solver.nodes_per_s": _ratio(counts["solver.nodes"], tracer.kernel_s),
        "solver.completed_ratio": _ratio(counts["solver.completed"], counts["solver.trees"]),
    }


def gen_seconds(spans) -> float:
    inc, _, _ = span_times(spans)
    return sum(v for k, v in inc.items() if k.startswith("families.gen_"))
