"""Command-line interface.

One verb per operation; diagnostics go to stderr, results to stdout (or a
file), and exit codes mirror the verdicts so scripts can gate on them:
bisimilarity checks exit 0 for Bisimilar, 1 for NotBisimilar and 2 for
Inconclusive; `upto` exits 0 for Accepted and 1 for Rejected.  Errors and
malformed input exit 3, never a verdict's code.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import documents, nets, rewriting, semantics
from .composition import glue_names, pushout
from .equivalence import (
    BISIMILAR,
    INCONCLUSIVE,
    NOT_BISIMILAR,
    check_bisim,
    check_upto,
    search_correspondence,
)
from .errors import OpenNetError
from .semantics import FIRING, STEP, build_lts, format_label, format_marking, to_dot

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

_VERDICT_EXITS = {BISIMILAR: EXIT_OK, NOT_BISIMILAR: EXIT_NEGATIVE,
                  INCONCLUSIVE: EXIT_INCONCLUSIVE}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise OpenNetError(f"cannot read {path}: {exc}")


def _write_out(doc: dict, out: str | None):
    text = documents.dumps(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _tau_set(arg: str | None) -> frozenset:
    if not arg:
        return frozenset()
    return frozenset(part for part in arg.split(",") if part)


def _verdict_json(verdict) -> dict:
    doc = {
        "verdict": verdict.result,
        "kind": verdict.kind,
        "mode": verdict.mode,
        "bound": verdict.bound,
        "touched_overflow": verdict.touched_overflow,
    }
    if verdict.eta is not None:
        doc["eta"] = documents.eta_to_json(verdict.eta)
    if verdict.witness is not None:
        doc["witness"] = verdict.witness
    if verdict.play is not None:
        doc["play"] = [
            {
                "side": move.side,
                "label": format_label(move.label),
                "from": list(move.source_pair),
                "challenger_to": move.challenger_target,
                "response_to": move.response_target,
            }
            for move in verdict.play
        ]
    return doc


def cmd_validate(args) -> int:
    # parse_net refuses every net that fails nets.validate_net, with exit 3
    name, _ = documents.parse_net(_read(args.net))
    print(f"net {name or args.net!r}: ok")
    return EXIT_OK


def cmd_compose(args) -> int:
    f1, f2 = documents.parse_span(_read(args.span))
    po = pushout(f1, f2)
    naming = glue_names(po)
    doc = {
        "net": documents.net_to_json(args.name, po.z3),
        "left_leg": documents.morphism_to_json(po.alpha1),
        "right_leg": documents.morphism_to_json(po.alpha2),
        "origins": {item: list(origin) for item, origin in naming.items()},
    }
    _write_out(doc, args.out)
    return EXIT_OK


def cmd_lts(args) -> int:
    name, z = documents.parse_net(_read(args.net))
    lts = build_lts(z, mode=args.mode, cap=args.cap, max_step=args.max_step)
    tau = _tau_set(args.tau)
    if tau:
        lts = semantics.weak_closure(lts, tau)
    if args.dot:
        Path(args.dot).write_text(to_dot(lts, name or "lts"), encoding="utf-8")
    doc = {
        "net": name,
        "mode": lts.mode,
        "cap": lts.cap,
        "states": [format_marking(lts.places, s) for s in lts.states],
        "initial": lts.initial,
        "edges": [[src, format_label(label), dst] for src, label, dst in lts.labelled_edges()],
        "overflow": lts.has_overflow(),
    }
    _write_out(doc, args.out)
    return EXIT_OK


def _load_eta(args):
    if args.eta and args.eta != "auto":
        return documents.parse_eta(_read(args.eta))
    return None


def cmd_bisim(args) -> int:
    _, z1 = documents.parse_net(_read(args.net1))
    _, z2 = documents.parse_net(_read(args.net2))
    tau = _tau_set(args.tau)
    eta = _load_eta(args)
    options = dict(kind=args.kind, mode=args.mode, tau_labels=tau,
                   cap=args.cap, max_step=args.max_step)
    verdict = (search_correspondence(z1, z2, **options) if eta is None
               else check_bisim(z1, z2, eta, **options))
    _write_out(_verdict_json(verdict), args.out)
    return _VERDICT_EXITS[verdict.result]


def cmd_upto(args) -> int:
    _, z1 = documents.parse_net(_read(args.net1))
    _, z2 = documents.parse_net(_read(args.net2))
    pairs = documents.parse_relation(_read(args.relation))
    tau = _tau_set(args.tau)
    eta = _load_eta(args)
    if eta is None:
        eta = nets.Correspondence(
            eta_in={s: s for s in sorted(z1.open_in)},
            eta_out={s: s for s in sorted(z1.open_out)},
        )
    result = check_upto(z1, z2, eta, pairs, tau_labels=tau, cap=args.cap)
    doc = {
        "verdict": "Accepted" if result.accepted else "Rejected",
        "bound": args.cap,
        "touched_overflow": result.touched_overflow,
    }
    if result.reason:
        doc["reason"] = result.reason
    _write_out(doc, args.out)
    return EXIT_OK if result.accepted else EXIT_NEGATIVE


def cmd_match(args) -> int:
    rule, _ = documents.parse_rule(_read(args.rule))
    _, z = documents.parse_net(_read(args.net))
    matches = rewriting.find_matches(rule.lhs, z)
    listing = []
    for i, m in enumerate(matches):
        report = rewriting.check_proper(rule, m)
        listing.append({
            "index": i,
            **documents.morphism_to_json(m),
            "proper": report.ok,
            "violations": [str(v) for v in report.violations],
        })
    _write_out({"matches": listing, "count": len(matches)}, args.out)
    return EXIT_OK


def cmd_apply(args) -> int:
    rule, meta = documents.parse_rule(_read(args.rule))
    _, z = documents.parse_net(_read(args.net))
    matches = rewriting.find_matches(rule.lhs, z)
    if not 0 <= args.match < len(matches):
        raise OpenNetError(
            f"match index {args.match} out of range; the rule has "
            f"{len(matches)} match(es) in this net"
        )
    if meta.get("result") == INCONCLUSIVE:
        print(
            "warning: the rule's stored behaviour-preservation verdict is "
            "Inconclusive; the transformation may not preserve behaviour",
            file=sys.stderr,
        )
    result = rewriting.apply_rule(rule, matches[args.match])
    doc = {
        "net": documents.net_to_json(args.name, result.result),
        "context": documents.net_to_json(args.name + "-context", result.context),
        "right_embedding": documents.morphism_to_json(result.right_embedding),
        "context_to_result": documents.morphism_to_json(result.context_to_result),
    }
    _write_out(doc, args.out)
    return EXIT_OK


def cmd_check_rule(args) -> int:
    rule, meta = documents.parse_rule(_read(args.rule))
    tau = _tau_set(args.tau)
    verdict = rewriting.check_behaviour_preserving(
        rule, kind=args.kind, mode=args.mode, tau_labels=tau,
        cap=args.cap, max_step=args.max_step,
    )
    _write_out(_verdict_json(verdict), args.out)
    if args.save:
        meta = {
            "kind": verdict.kind,
            "mode": verdict.mode,
            "cap": verdict.bound,
            "result": verdict.result,
        }
        Path(args.rule).write_text(documents.emit_rule(rule, meta), encoding="utf-8")
    return _VERDICT_EXITS[verdict.result]


def _add_check_flags(parser):
    parser.add_argument("--kind", choices=["strong", "weak"], default="strong")
    parser.add_argument("--mode", choices=[FIRING, STEP], default=FIRING)
    parser.add_argument("--cap", type=int, default=semantics.DEFAULT_CAP,
                        help="per-place bound on explored markings")
    parser.add_argument("--max-step", type=int, default=semantics.DEFAULT_MAX_STEP,
                        help="bound on the number of events in one step")
    parser.add_argument("--tau", default="",
                        help="comma-separated unobservable transition labels")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing never changes
    it.  Each verb's parser holds its `cmd_*` function as the `fn` default."""
    parser = argparse.ArgumentParser(
        prog="opennet",
        description="Composition, bisimilarity and reconfiguration of marked open Petri nets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a net document")
    p.add_argument("net")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("compose", help="glue a span of embeddings")
    p.add_argument("span")
    p.add_argument("--name", default="composed")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("lts", help="build the capped transition system")
    p.add_argument("net")
    p.add_argument("--mode", choices=[FIRING, STEP], default=FIRING)
    p.add_argument("--cap", type=int, default=semantics.DEFAULT_CAP)
    p.add_argument("--max-step", type=int, default=semantics.DEFAULT_MAX_STEP)
    p.add_argument("--tau", default="", help="weak-close over these labels")
    p.add_argument("--dot", default=None, help="also write a Graphviz file here")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_lts)

    p = sub.add_parser("bisim", help="check two nets for bisimilarity")
    p.add_argument("net1")
    p.add_argument("net2")
    p.add_argument("--eta", default=None,
                   help="correspondence file, or 'auto' to search (default)")
    _add_check_flags(p)
    p.set_defaults(fn=cmd_bisim)

    p = sub.add_parser("upto", help="check an up-to relation between two nets")
    p.add_argument("net1")
    p.add_argument("net2")
    p.add_argument("--relation", required=True)
    p.add_argument("--eta", default=None)
    p.add_argument("--cap", type=int, default=semantics.DEFAULT_CAP)
    p.add_argument("--tau", default="")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_upto)

    p = sub.add_parser("match", help="list matches of a rule's left-hand side")
    p.add_argument("rule")
    p.add_argument("net")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("apply", help="apply a rule at a chosen match")
    p.add_argument("rule")
    p.add_argument("net")
    p.add_argument("--match", type=int, default=0)
    p.add_argument("--name", default="transformed")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("check-rule", help="check a rule for behaviour preservation")
    p.add_argument("rule")
    p.add_argument("--save", action="store_true",
                   help="record the verdict in the rule file")
    _add_check_flags(p)
    p.set_defaults(fn=cmd_check_rule)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OpenNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
