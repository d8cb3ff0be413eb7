"""Command-line interface.

Subcommands: analyze, bounds, certify, label, verify, exact, gen, demo.
Machine output is the JSON report (stable key order, no timestamps); text
output is a human-readable table.  Exit codes: 0 success / verified /
certified, 1 not verified / not certified, 2 usage error, 3 input error,
4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import families
from .bounds import (
    bound_report,
    certify_tightness,
    liu_bound_even,
    liu_bound_odd,
)
from .errors import (
    BadParams,
    BadVertex,
    CertificationFailure,
    ExhaustedAttempts,
    NegativeLabel,
    NotOmegaTree,
    OrderTooLarge,
    RadioTreeError,
    UnsupportedParams,
)
from .orders import _order_and_a_sequence
from .labelling import (
    RadioLabelling,
    _recurrence_labelling,
    format_labels_text,
    greedy_label_from_order,
    parse_labels_text,
    verify_labelling,
)
from .solver import DEFAULT_TIMEOUT_S, exact_rn
from .tree import (
    Tree,
    _quoted,
    _short_number,
    edge_pairs,
    format_tree_text,
    metrics,
    parse_tree_text,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4


def _read_tree(path: str) -> Tree:
    with open(path, encoding="utf-8") as fh:
        return parse_tree_text(fh.read())


def _read_order(path: str) -> tuple:
    """Order file: whitespace-separated vertex ids; '#' starts a comment."""
    ids = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            for tok in line.split():
                try:
                    ids.append(int(tok))
                except ValueError:
                    raise BadVertex(f"order token {_quoted(tok)} is not a vertex id") from None
    return tuple(ids)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k2, v2 in value.items():
                print(f"  {k2}: {v2}")
        else:
            print(f"{key}: {value}")


def _dot(tree: Tree, names: dict | None = None,
         labelling: RadioLabelling | None = None) -> str:
    id_to_name = {v: k for k, v in names.items()} if names else {}
    lines = ["graph tree {"]
    for v in range(tree.p):
        parts = [id_to_name.get(v, str(v))]
        if labelling is not None and v in labelling.labels:
            parts.append(f"f={labelling.labels[v]}")
        lines.append(f'  {v} [label="{" / ".join(parts)}"];')
    for u, v in edge_pairs(tree):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _certification(report: dict, certify) -> int:
    """Records under ``report["certification"]`` the verdict of ``certify``,
    which returns the certified span, and returns its exit code."""
    try:
        span = certify()
    except CertificationFailure as exc:
        report["certification"] = {"certified": False, "stage": exc.stage, "span": None}
        print(f"not certified at stage {exc.stage}: {exc.detail}", file=sys.stderr)
        return EXIT_FAIL
    report["certification"] = {"certified": True, "stage": None, "span": span}
    return EXIT_OK


# --- subcommands: each returns its verdict, and main maps its errors -------

def cmd_bounds(args) -> int:
    tree = _read_tree(args.tree)
    m = metrics(tree)
    report = bound_report(m)
    if args.compare:
        if args.center is not None:
            x = args.center
        else:
            cands = [v for v in sorted(m.weight_centers)
                     if len(tree.adjacency[v]) == 2]
            if not cands:
                raise NotOmegaTree("no degree-2 weight center for --compare")
            x = cands[0]
        if m.diameter % 2 == 0:
            value, line = liu_bound_even(m, x), "even"
        else:
            value, line = liu_bound_odd(m, x), "odd"
        report["comparison"] = {"x": x, "value": value, "line": line}
    _emit(report, args.json)
    return EXIT_OK


def cmd_certify(args) -> int:
    tree = _read_tree(args.tree)
    m = metrics(tree)
    order = _read_order(args.order)
    report = bound_report(m)
    code = _certification(report, lambda: certify_tightness(m, order).span)
    _emit(report, args.json)
    return code


def cmd_label(args) -> int:
    tree = _read_tree(args.tree)
    m = metrics(tree)
    order = _read_order(args.order)
    if args.greedy:
        lab = greedy_label_from_order(m, order)
    else:
        # the order is checked once, for the a-sequence and the labels both
        seq, aseq = _order_and_a_sequence(m, order)
        # the recurrence is valid only for an order meeting condition (b); a
        # well-formed order whose labels dip below zero is not an input error
        try:
            lab = _recurrence_labelling(m, seq, aseq.a)
        except NegativeLabel as exc:
            print(f"labelling from this order is invalid: {exc}", file=sys.stderr)
            return EXIT_FAIL
    # whatever is printed is checked first, the greedy completion included
    ok, pair = verify_labelling(tree, lab)
    if not ok:
        print(f"labelling from this order violates the radio condition at pair {pair}",
              file=sys.stderr)
        return EXIT_FAIL
    if args.dot:
        sys.stdout.write(_dot(tree, labelling=lab))
    else:
        sys.stdout.write(format_labels_text(lab))
    return EXIT_OK


def cmd_verify(args) -> int:
    tree = _read_tree(args.tree)
    with open(args.labels, encoding="utf-8") as fh:
        lab = parse_labels_text(fh.read())
    ok, pair = verify_labelling(tree, lab)
    if ok:
        print("valid")
        return EXIT_OK
    print(f"violation at pair {pair}")
    return EXIT_FAIL


def cmd_exact(args) -> int:
    tree = _read_tree(args.tree)
    m = metrics(tree)
    report = bound_report(m)
    res = exact_rn(tree, timeout_s=args.timeout_s, max_nodes=args.max_nodes)
    exact = {"rn": res.rn, "completed": res.stats.completed, "nodes": res.stats.nodes}
    if args.stats:
        exact["elapsed_s"] = res.stats.elapsed_s
        exact["pruned"] = res.stats.pruned
        # rn is proven to lie in [lower_bound, rn]; the two agree when completed
        exact["lower_bound"] = res.stats.lower_bound
        # (nodes, span) per incumbent, from the greedy seed at 0 nodes
        exact["incumbents"] = res.stats.incumbents
    report["exact"] = exact
    if args.labels:
        report["labels"] = {str(v): res.witness.labels[v]
                            for v in sorted(res.witness.labels)}
    _emit(report, args.json)
    return EXIT_OK if res.stats.completed else EXIT_RESOURCE


class _UsageError(Exception):
    """Arguments that parse but do not fit together."""


def _gen_instance(args) -> families.FamilyInstance:
    gen, params, _, _ = families.FAMILIES[args.family]
    values = [getattr(args, name) for name in params]
    # --z and --seed have defaults; the other parameters must be given
    missing = [name for name, value in zip(params, values) if value is None]
    if missing:
        raise _UsageError(f"family {args.family!r} needs "
                          + ", ".join(f"--{name}" for name in missing))
    return gen(*values)


def _proof_order(inst: families.FamilyInstance, m=None) -> tuple:
    build = families.FAMILIES[inst.family][3]
    if build is None:
        raise UnsupportedParams(f"no certifying-order constructor for family {inst.family!r}")
    return build(inst, m)


def cmd_gen(args) -> int:
    if args.with_order and not args.output:
        raise _UsageError("--with-order requires -o")
    inst = _gen_instance(args)
    if inst.tree.p < 2:
        raise BadParams(f"{inst.name} has no edge, and the edge-list format writes a "
                        "tree as its edges: it needs at least one")
    # the order first: a failure leaves no tree file behind
    order = _proof_order(inst) if args.with_order else None
    if args.dot:
        text = _dot(inst.tree, names=inst.vertex_names)
    else:
        text = format_tree_text(inst.tree)
        if args.names:
            text += "# vertex names\n" + "".join(
                f"# {name} {vid}\n" for name, vid in inst.vertex_names.items())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if order is not None:
        with open(args.output + ".order", "w", encoding="utf-8") as fh:
            fh.write(" ".join(str(v) for v in order) + "\n")
    return EXIT_OK


def cmd_demo(args) -> int:
    inst = _gen_instance(args)
    m = metrics(inst.tree)
    report = {"family": inst.name, **bound_report(m)}

    def certified_span():
        _proof_order(inst, m)  # certified at the improved bound, on m
        return report["bound_improved"]

    code = _certification(report, certified_span)
    _emit(report, args.json)
    return code


# --- argument parsing ------------------------------------------------------

# argparse quotes a value its type function refuses with ValueError in full;
# these refuse with ArgumentTypeError, whose message it prints as given

def integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {_quoted(text)}") from None


def degree_list(text: str) -> list:
    return [integer(tok) for tok in text.split(",")]


def positive_int(text: str) -> int:
    value = integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {_short_number(value)}")
    return value


def positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {_quoted(text)}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {_quoted(text)}")
    return value


def _add_family_arguments(sub) -> None:
    sub.add_argument("family", choices=families.FAMILIES)
    sub.add_argument("--n", type=integer, default=None)
    sub.add_argument("--k", type=integer, default=None)
    sub.add_argument("--z", type=integer, default=1)
    sub.add_argument("--m", type=integer, default=None)
    sub.add_argument("--h", type=integer, default=None)
    sub.add_argument("--degrees", type=degree_list, default=None,
                     help="comma-separated per-level degrees, e.g. 2,3,3")
    sub.add_argument("--seed", type=integer, default=0)


class _Parser(argparse.ArgumentParser):
    """argparse echoes a refused word in full (an unknown verb or option, a
    family outside the choices): this one quotes a word of over 100
    characters by its start, as _quoted does.  add_subparsers gives each
    verb a parser of this class."""

    def error(self, message):
        super().error(re.sub(r"\S{101,}", lambda word: _quoted(word.group()), message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radiotree",
        description="Radio-number bounds, certificates, and exact solving for trees.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("analyze", help="structural metrics and bounds")
    s.add_argument("tree")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_bounds, compare=False)

    s = subs.add_parser("bounds", help="lower bounds, optionally compared")
    s.add_argument("tree")
    s.add_argument("--compare", action="store_true")
    s.add_argument("--center", type=integer, default=None)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_bounds)

    s = subs.add_parser("certify", help="certify an order attains the improved bound")
    s.add_argument("tree")
    s.add_argument("--order", required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_certify)

    s = subs.add_parser("label", help="build a labelling from an order")
    s.add_argument("tree")
    s.add_argument("--order", required=True)
    s.add_argument("--greedy", action="store_true")
    s.add_argument("--dot", action="store_true")
    s.set_defaults(func=cmd_label)

    s = subs.add_parser("verify", help="check a labelling file")
    s.add_argument("tree")
    s.add_argument("--labels", required=True)
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("exact", help="exact radio number by exhaustive search")
    s.add_argument("tree")
    s.add_argument("--timeout-s", type=positive_float, default=DEFAULT_TIMEOUT_S)
    s.add_argument("--max-nodes", type=positive_int, default=None,
                   help="node budget; when it runs out, exit 4 as on a timeout")
    s.add_argument("--labels", action="store_true",
                   help="include a witness labelling in the report")
    s.add_argument("--stats", action="store_true")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_exact)

    s = subs.add_parser("gen", help="generate a family instance")
    _add_family_arguments(s)
    s.add_argument("-o", "--output", default=None)
    s.add_argument("--names", action="store_true")
    s.add_argument("--with-order", action="store_true")
    s.add_argument("--dot", action="store_true")
    s.set_defaults(func=cmd_gen)

    s = subs.add_parser("demo", help="generate, certify, and report in one shot")
    _add_family_arguments(s)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:
        print(f"input is not UTF-8 text: {exc.reason}", file=sys.stderr)
        return EXIT_INPUT
    except (OrderTooLarge, ExhaustedAttempts) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except RadioTreeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
