"""radiotree's benchmark: certification, exact solving and order search.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload certify_families --seed 1 --seconds 20 --trace 0

The harness imports the package from ``src/`` and drives it as a closed loop
in this one process: one operation at a time, no threads.  It builds the
workload's instance list from ``--seed`` and then runs passes over the whole
list until ``--seconds`` have gone by, checking every answer.  The
distance-table cache is cleared before each pass, so every pass starts cold,
as a fresh process would.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (``wall_s``, ``op_s_p50``, ``peak_rss_mb``, ``setup_s``),
their times scaled by a reference run beside each operation (calibrate.py);
with ``--trace 1`` it carries the per-layer metrics instead, from passes run
with the tracer installed, alternating with untraced passes so that the
tracing overhead can be reported.  The line before it records the kernel, git
sha, Python version and core count, so that numbers from different builds are
not compared by mistake.  Spans of the last traced pass are written to
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
WORKLOADS = ("certify_families", "exact_small", "order_search")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MAX_REPORTED_FAILURES = 20

END_TO_END_UNITS = {"wall_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "tree.metrics_s": "s",
    "tree.metrics_calls": "count",
    "tree.distance_matrix_s": "s",
    "tree.distance_matrix_hit_ratio": "ratio",
    "tree.distance_matrix_cache_size": "count",
    "tree.distance_calls": "count",
    "orders.check_condition_a_s": "s",
    "orders.a_sequence_s": "s",
    "orders.check_condition_b_s": "s",
    "orders.condition_b_pairs": "pairs.computed",
    "labelling.label_from_order_s": "s",
    "labelling.verify_labelling_s": "s",
    "labelling.verify_pairs": "pairs.computed",
    "labelling.greedy_label_from_order_s": "s",
    "bounds.certify_tightness_s": "s",
    "bounds.certify_tightness_self_s": "s",
    "bounds.certify_tightness_calls": "count",
    "families.gen_s": "s",
    "families.proof_order_s": "s",
    "families.proof_order_self_s": "s",
    "families.search_yield": "ratio",
    "solver.exact_rn_s": "s",
    "solver.kernel_s": "s",
    "solver.overhead_s": "s",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.completed_ratio": "ratio",
    "solver.rn_at_bound_ratio": "ratio",
    "solver.seed_gap": "label",
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest instances, for the harness's own test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: build the inputs, print the monotonic clock, exit")
    return parser.parse_args(argv)


def load_workloads():
    """Import the package from this checkout's src/ and the harness modules."""
    if not (SRC / "radiotree" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no radiotree package under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def measure_setup(args):
    """Median time from starting a fresh interpreter to all inputs built,
    scaled by the reference (calibrate.py); also returns the unscaled median.

    Each probe is a child process that imports the package, builds the
    workload's inputs and prints ``time.monotonic()`` (one clock for every
    process on the machine).  The reference runs right before and after each
    probe, not inside it: inside, it would run beside the probe, on another
    core.
    """
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        ref = calibrate.edge()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=PROBE_TIMEOUT_S)
        t = float(out.stdout.split()[-1]) - t0
        raw.append(t)
        scaled.append(calibrate.scale(t, ref + calibrate.edge()))
    return statistics.median(scaled), statistics.median(raw)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(solver) -> dict:
    return {
        "kernel": solver.kernel_name(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class _Timer:
    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.own_s = time.perf_counter() - self._t0
        return False


class Harness:
    """Runs passes of one workload and collects times, results and failures."""

    def __init__(self, workload, cases, tree_module):
        self.workload = workload
        self.cases = cases
        # The cached function itself, not a tracer's wrapper around it.  The
        # cache is reached through getattr: the program may later drop it, and
        # the benchmark must still run on that program.
        self._distance_matrix = tree_module.distance_matrix
        self.attempted = 0
        self.failures = []

    def cache_info(self):
        info = getattr(self._distance_matrix, "cache_info", None)
        return tuple(info()) if info is not None else None

    def run_pass(self, tracer=None, scaled=None):
        """One pass over every case; returns (per-case seconds, results).

        With a list ``scaled``, each case runs interleaved with the
        reference (calibrate.py); the returned times leave the reference's
        out, and the case's time scaled by it is appended to ``scaled``.
        """
        clear = getattr(self._distance_matrix, "cache_clear", None)
        if clear is not None:
            clear()
        gc.collect()
        times, results = [], []
        for case in self.cases:
            self.attempted += 1
            timer = calibrate.Interleaved() if scaled is not None else _Timer()
            with timer:
                try:
                    result = self.workload.run(case)
                    error = None
                except Exception as exc:  # a failed operation is counted, not fatal
                    result, error = None, exc
            times.append(timer.own_s)
            results.append(result)
            if scaled is not None:
                scaled.append(timer.scaled_s)
            if error is not None:
                self._fail(case, f"raised {error!r}", error)
                continue
            try:
                with tracer.paused() if tracer is not None else nullcontext():
                    reason = self.workload.check(case, result)
            except Exception as exc:
                reason = f"check raised {exc!r}"
            if reason is not None:
                self._fail(case, reason)
        return times, results

    def _fail(self, case, reason, error=None):
        if len(self.failures) < MAX_REPORTED_FAILURES:
            print(f"perfbench: FAILED {case.label}: {reason}", file=sys.stderr)
            if error is not None:
                traceback.print_exception(error)
        self.failures.append((case.label, reason))


def end_to_end(harness, seconds, setup):
    """Untraced passes until ``seconds`` have gone by, with times scaled by the
    reference (calibrate.py).  ``wall_s`` is the median pass; ``op_s_p50`` the
    median of every operation timed, all instances and passes pooled, which
    for sub-millisecond instances is far steadier than a median of per-instance
    medians over a handful of passes.  The unscaled figures go to the info
    line."""
    walls, raw_walls, ops, raw_ops = [], [], [], []
    per_case = [[] for _ in harness.cases]
    start = time.perf_counter()
    while True:
        scaled = []
        times, _ = harness.run_pass(scaled=scaled)
        for samples, s in zip(per_case, scaled):
            samples.append(s)
        walls.append(sum(scaled))
        raw_walls.append(sum(times))
        ops += scaled
        raw_ops += times
        if time.perf_counter() - start >= seconds:
            break
    setup_s, raw_setup_s = setup
    metrics = {
        "wall_s": statistics.median(walls),
        "op_s_p50": statistics.median(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    info = {"samples": {"wall_s": len(walls), "op_s_p50": len(ops),
                        "peak_rss_mb": 1, "setup_s": SETUP_PROBES},
            "unscaled": {"wall_s": statistics.median(raw_walls),
                         "op_s_p50": statistics.median(raw_ops),
                         "setup_s": raw_setup_s},
            "case_s_p50": {c.label: statistics.median(s)
                           for c, s in zip(harness.cases, per_case)}}
    return metrics, info


def per_layer(harness, seconds, tracer, spans_mod, spans_path):
    """Untraced and traced passes in turn until ``seconds`` have gone by, at
    least one traced; per-layer medians over the traced passes.  Writes the
    last traced pass's spans to ``spans_path``."""
    walls = {False: [], True: []}
    layers, results, spans = [], None, []
    start = time.perf_counter()
    traced = False
    while True:
        if traced:
            with tracer.installed():
                tracer.reset()
                times, results = harness.run_pass(tracer)
                layers.append(spans_mod.layer_metrics(tracer, harness.cache_info()))
                spans = tracer.spans
        else:
            times, _ = harness.run_pass()
        walls[traced].append(sum(times))
        traced = not traced
        if time.perf_counter() - start >= seconds and walls[True]:
            break
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["fail_ratio"] = len(harness.failures) / harness.attempted
    metrics.update(harness.workload.extras(harness.cases, results))
    spans_path.parent.mkdir(exist_ok=True)
    spans_mod.write_spans(spans, spans_path)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        load_workloads().WORKLOADS[args.workload].build(args.seed, args.scale)
        print(time.monotonic())
        return 0

    workloads = load_workloads()
    import spans as spans_mod
    from radiotree import solver, tree

    workload = workloads.WORKLOADS[args.workload]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "scale": args.scale, **environment(solver)}
    if args.trace:
        tracer = spans_mod.Tracer()
        with tracer.installed():
            cases = workload.build(args.seed, args.scale)
        gen_s = spans_mod.gen_seconds(tracer.spans)
        harness = Harness(workload, cases, tree)
        metrics = per_layer(harness, args.seconds, tracer, spans_mod,
                            SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics["families.gen_s"] = gen_s
        units = PER_LAYER_UNITS
    else:
        setup = measure_setup(args)
        harness = Harness(workload, workload.build(args.seed, args.scale), tree)
        metrics, pass_info = end_to_end(harness, args.seconds, setup)
        info.update(pass_info)
        units = END_TO_END_UNITS

    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": not harness.failures,
        "attempted": harness.attempted,
        "failed": len(harness.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
