"""Command-line front end.

Subcommands operate on a graph JSON file (schema: {"vertices": [...],
"edges": [{"name","src","dst"}...], "bundles": [...]}):

    validate         check invariants and report vertex kinds
    analyze          vertex kinds, cycles with exits, condition (L)
    hs-closure       hereditary saturated closure of a seed set
    quotient         quotient graph by an admissible pair
    normalize        canonical form of an expression
    classify         primitive-ideal classification of a pair
    enumerate-ideals all admissible pairs with their graded verdicts
    free-gens        free-subgroup certificates (with bounded verification)
    verify-free      exhaustive reduced-word check for a generator pair

Exit status: 0 on success, 1 on domain errors (e.g. a pair that is not
admissible), 2 on usage or parse errors, 141 (128 + SIGPIPE) when the
reader closes stdout early, as in ``| head -1``.  Errors print as
"error: ..." on stderr, or under --json as {"error": {"type", "message",
"transcript"}} on stdout (the transcript is the discovery scan for
NoWitnessFoundError, else null).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import LeavittError, UsageError
from .exprs import normalize
from .freeness import certificate_for, find_free_generators, verify_free_words
from .graph import graph_to_json, parse_graph, quotient_graph
from .ideals import (
    AdmissiblePair,
    IdealDescriptor,
    classify,
    enumerate_admissible,
)
from .scalars import LaurentPoly


def _load_graph(path: str):
    try:
        with open(path, "rb") as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _names(text: str | None) -> list[str]:
    if not text:
        return []
    return [part.strip() for part in text.split(",") if part.strip()]


def _emit(obj, as_json: bool, render):
    if as_json:
        print(json.dumps(obj, indent=2))
    else:
        render(obj)


def cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    kinds = g.kinds()
    payload = {
        "ok": True,
        "counts": {"vertices": len(g.vertices), "edges": len(g.edges), "bundles": len(g.bundles)},
        "kinds": {v: kinds[v] for v in sorted(kinds)},
    }

    def render(p):
        c = p["counts"]
        print(f"graph OK: {c['vertices']} vertices, {c['edges']} edges, {c['bundles']} bundles")
        for v, kind in p["kinds"].items():
            print(f"  {v}: {kind}")

    _emit(payload, args.json, render)
    return 0


def cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    report = g.cycle_report()
    payload = {
        "kinds": {v: k for v, k in sorted(g.kinds().items())},
        "cycles": [
            {
                "base": c.rep.source,
                "edges": list(c.rep.edges),
                "has_exit": c.has_exit,
                "exits": list(c.exits),
                "exclusive": c.exclusive,
            }
            for c in report.cycles
        ],
        "condition_L": report.condition_l,
    }

    def render(p):
        for v, kind in p["kinds"].items():
            print(f"{v}: {kind}")
        if not p["cycles"]:
            print("no cycles")
        for c in p["cycles"]:
            exits = ", ".join(c["exits"]) if c["exits"] else "none"
            flags = "exclusive" if c["exclusive"] else "not exclusive"
            print(f"cycle [{' '.join(c['edges'])}] at {c['base']}: exits {exits}; {flags}")
        print(f"condition (L): {'holds' if p['condition_L'] else 'fails'}")

    _emit(payload, args.json, render)
    return 0


def cmd_hs_closure(args) -> int:
    g = _load_graph(args.graph)
    closure = g.hereditary_saturated_closure(_names(args.seed))
    payload = {"closure": sorted(closure)}
    _emit(payload, args.json, lambda p: print(", ".join(p["closure"]) or "(empty)"))
    return 0


def cmd_quotient(args) -> int:
    g = _load_graph(args.graph)
    q = quotient_graph(g, _names(args.H), _names(args.S))
    # the quotient graph is the output; JSON is its canonical form
    print(json.dumps(graph_to_json(q), indent=2))
    return 0


def cmd_normalize(args) -> int:
    g = _load_graph(args.graph)
    element = normalize(g, args.expr)
    payload = {"input": args.expr, "normal_form": str(element)}
    _emit(payload, args.json, lambda p: print(p["normal_form"]))
    return 0


def cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    pair = AdmissiblePair(g, _names(args.H), _names(args.S))
    cycle = None
    poly = None
    if args.cycle or args.poly:
        if not (args.cycle and args.poly):
            raise UsageError("--cycle and --poly must be given together")
        cycle_edges = _names(args.cycle)
        if not cycle_edges:
            raise UsageError("--cycle names no edge")
        first = g.require_edge(cycle_edges[0])
        cycle = g.path(first.src, cycle_edges)
        poly = LaurentPoly.parse(args.poly)
    result = classify(IdealDescriptor(pair, cycle=cycle, poly=poly))
    payload = {"H": sorted(pair.H), "S": sorted(pair.S), **result.to_json()}

    def render(p):
        verdict = p["verdict"]
        if "witness" in p:
            verdict += f" (w = {p['witness']})"
        print(f"verdict: {verdict}")
        for entry in p["transcript"]:
            mark = "+" if entry["outcome"] else "-"
            note = f"  [{entry['note']}]" if "note" in entry else ""
            print(f"  {mark} {entry['condition']}{note}")

    _emit(payload, args.json, render)
    return 0


def cmd_enumerate(args) -> int:
    g = _load_graph(args.graph)
    rows = []
    for pair in enumerate_admissible(g):
        verdict = classify(IdealDescriptor(pair)).verdict
        rows.append({**pair.to_json(), "verdict": verdict})
    payload = {"pairs": rows}

    def render(p):
        for row in p["pairs"]:
            print(f"H={{{', '.join(row['H'])}}} S={{{', '.join(row['S'])}}}: {row['verdict']}")

    _emit(payload, args.json, render)
    return 0


def cmd_free_gens(args) -> int:
    if args.max_len < 1:
        raise UsageError("--max-len must be at least 1")
    g = _load_graph(args.graph)
    certs = find_free_generators(g)
    for cert in certs:
        verify_free_words(cert, max_len=args.max_len, mode=args.mode)
    payload = {"certificates": [cert.to_json() for cert in certs]}

    def render(p):
        for i, cert in enumerate(p["certificates"]):
            verified = cert["verification"]
            status = "ok" if verified["all_nontrivial"] else f"FAILED at {verified['first_violation']}"
            print(f"[{i}] a = {cert['a']}")
            print(f"    b = {cert['b']}")
            print(f"    witness: {cert['witness']}")
            print(
                f"    verified to length {cert['verified_to_length']} "
                f"({verified['word_count']} words, mode {cert['mode']}): {status}"
            )

    _emit(payload, args.json, render)
    return 0


def cmd_verify_free(args) -> int:
    if args.max_len < 1:
        raise UsageError("--max-len must be at least 1")
    g = _load_graph(args.graph)
    cert = certificate_for(g, args.a, args.b)
    transcript = verify_free_words(cert, max_len=args.max_len, mode=args.mode)
    payload = {
        "a": str(cert.a),
        "b": str(cert.b),
        "witness": cert.witness.to_json(),
        "pair": cert.pair.to_json(),
        **transcript,
    }

    def render(p):
        status = "all nontrivial" if p["all_nontrivial"] else f"violation: {p['first_violation']}"
        print(f"checked {p['word_count']} reduced words of length <= {p['max_len']} ({p['mode']}): {status}")
        print(p["note"])

    _emit(payload, args.json, render)
    return 0 if transcript["all_nontrivial"] else 1


class _Parser(argparse.ArgumentParser):
    """Reads a word with one leading dash that names no option, such as the
    expression "-2*e", as a value; argparse alone takes it for an option."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string[:2] not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="leavitt", description="exact computation in unital Leavitt path algebras"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("graph", help="graph JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, help="check the graph and report vertex kinds")
    add("analyze", cmd_analyze, help="vertex kinds, cycles, condition (L)")

    p = add("hs-closure", cmd_hs_closure, help="hereditary saturated closure of a seed")
    p.add_argument("--seed", default="", help="comma-separated vertex names")

    p = add("quotient", cmd_quotient, help="quotient graph by an admissible pair")
    p.add_argument("--H", default="", help="comma-separated vertices of H")
    p.add_argument("--S", default="", help="comma-separated vertices of S")

    p = add("normalize", cmd_normalize, help="canonical form of an expression")
    p.add_argument("expr", help="expression over the graph")

    p = add("classify", cmd_classify, help="primitive-ideal classification")
    p.add_argument("--H", default="", help="comma-separated vertices of H")
    p.add_argument("--S", default="", help="comma-separated vertices of S")
    p.add_argument("--cycle", default="", help="comma-separated edge names of a cycle (type III)")
    p.add_argument("--poly", default="", help="Laurent polynomial, e.g. \"1+x+x^2\" (type III)")

    add("enumerate-ideals", cmd_enumerate, help="all admissible pairs with verdicts")

    p = add("free-gens", cmd_free_gens, help="discover free-subgroup certificates")
    p.add_argument("--max-len", type=int, default=6, help="verification word-length bound")
    p.add_argument("--mode", choices=["algebra", "matrix", "both"], default="both")

    p = add("verify-free", cmd_verify_free, help="verify a generator pair by word enumeration")
    p.add_argument("--a", required=True, help="first generator expression")
    p.add_argument("--b", required=True, help="second generator expression")
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--mode", choices=["algebra", "matrix", "both"], default="both")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.fn(args)
        except UsageError as exc:
            return _fail(exc, args.json, 2)
        except LeavittError as exc:
            return _fail(exc, args.json, 1)
    except BrokenPipeError:
        # stdout's reader is gone, maybe mid error report: aim stdout at
        # devnull so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _fail(exc: Exception, as_json: bool, code: int) -> int:
    """Report an error as JSON on stdout under --json, else as one stderr line."""
    if as_json:
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "transcript": getattr(exc, "transcript", None),
        }
        print(json.dumps({"error": error}, indent=2))
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
