"""Command line surface: one verb per library operation.

Exit codes: 0 affirmative/success, 1 negative answer, 2 usage error,
3 input error, 4 budget exhausted (UNKNOWN).
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import catalog_map, move_catalog
from .diagram import (OrientedDiagram, SMGSemanticError, SMGSyntaxError, _first_orientation,
                      parse_smg, serialize)
from .fixtures import fixture
from .groups import (
    GroupTable,
    _table_rows,
    abelianization,
    hom_count,
    tietze_simplify,
    wirtinger_presentation,
)
from .moves import (
    FORWARD,
    REVERSE,
    SearchBudget,
    apply_move,
    find_sites,
    search_equivalence,
)
from .quandles import FOUR_QUANDLE, check_quandle, coloring_count, colorings, quandle_from_rows
from .resolution import (
    NEGATIVE,
    POSITIVE,
    UNKNOWN,
    YES,
    Budget,
    is_admissible,
    resolve,
)
from .transforms import export_exterior, profile, semi_transform

USAGE_ERROR = 2
INPUT_ERROR = 3
BUDGET_ERROR = 4


def _read(path: str) -> str:
    """The text of the file at ``path``.  Bytes the locale cannot decode
    reach the parsers as escapes, which they reject as malformed."""
    with open(path, errors="surrogateescape") as fh:
        return fh.read()


def _load_diagram(path: str, allow_invalid: bool = False):
    if path.startswith("fixture:"):
        return fixture(path.split(":", 1)[1])
    return parse_smg(_read(path), allow_invalid=allow_invalid)


def _base(d):
    return d.base if isinstance(d, OrientedDiagram) else d


def _quandle_rows(path: str) -> list[list[int]]:
    """The rows of the quandle file at ``path``, or of the built-in table
    ``fixture:four``."""
    if path == "fixture:four":
        return [list(r) for r in FOUR_QUANDLE.table]
    return _table_rows(_read(path), "quandle")


def _load_group(path: str) -> GroupTable:
    """The group file at ``path``, its elements renumbered from 0 with the
    identity first."""
    mult = [[v - 1 for v in row] for row in _table_rows(_read(path), "group")]
    n = len(mult)
    if not all(0 <= v < n for row in mult for v in row):
        raise SMGSemanticError(f"entries must lie in 1..{n}")
    ident = next((e for e in range(n)
                  if all(mult[e][x] == x and mult[x][e] == x for x in range(n))), None)
    if ident is None:
        raise SMGSemanticError("no identity")
    # named here, as the file numbers the elements
    lacking = next((x for x in range(n) if ident not in mult[x]), None)
    if lacking is not None:
        raise SMGSemanticError(f"element {lacking + 1} has no inverse")
    perm = [ident] + [x for x in range(n) if x != ident]
    inv = [perm.index(x) for x in range(n)]
    g = GroupTable(tuple(tuple(inv[mult[perm[a]][perm[b]]] for b in range(n))
                         for a in range(n)))
    g.check()
    return g


def _emit(args, text: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _orient_arg(d):
    if isinstance(d, OrientedDiagram):
        return d
    od = _first_orientation(d)
    if od is None:
        raise SMGSemanticError("diagram admits no orientation")
    return od


def main(argv=None) -> int:
    """Run one verb.  An input that cannot be read, or that is malformed
    or invalid, is reported here as one ``input error`` line."""
    try:
        return _main(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else USAGE_ERROR
    except (OSError, SMGSyntaxError, SMGSemanticError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return INPUT_ERROR


def _budget(text: str) -> int:
    """argparse type of a budget: an integer, zero or more."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return n


def _main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="smg",
                                description="singular marked graph diagrams")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="cmd")

    sp = sub.add_parser("validate", help="check diagram invariants")
    sp.add_argument("diagram")

    sp = sub.add_parser("resolve", help="positive or negative resolution")
    sp.add_argument("diagram")
    sp.add_argument("--sign", choices=["pos", "neg"], required=True)

    sp = sub.add_parser("admissible", help="are both resolutions trivial unlinks")
    sp.add_argument("diagram")
    sp.add_argument("--budget", type=_budget, default=100_000)

    sp = sub.add_parser("move", help="move catalog operations")
    sp.add_argument("action", choices=["list", "sites", "apply"])
    sp.add_argument("diagram", nargs="?")
    sp.add_argument("--move")
    sp.add_argument("--site", type=int, default=0)
    sp.add_argument("--reverse", action="store_true")
    sp.add_argument("--oriented", action="store_true")

    sp = sub.add_parser("search", help="bounded equivalence search")
    sp.add_argument("diagram")
    sp.add_argument("--target", required=True)
    sp.add_argument("--depth", type=_budget, default=8)
    sp.add_argument("--states", type=_budget, default=100_000)
    sp.add_argument("--allow", default=None, help="comma separated move ids")

    sp = sub.add_parser("group", help="complement group presentation")
    sp.add_argument("diagram")
    sp.add_argument("--simplify", action="store_true")

    sp = sub.add_parser("abelian", help="abelianization of the group")
    sp.add_argument("diagram")

    sp = sub.add_parser("homs", help="count homomorphisms to a finite group")
    sp.add_argument("diagram")
    sp.add_argument("--table", required=True)

    sp = sub.add_parser("quandle", help="quandle table checks")
    sp.add_argument("action", choices=["check", "involutory"])
    sp.add_argument("table")

    sp = sub.add_parser("color", help="quandle coloring count")
    sp.add_argument("diagram")
    sp.add_argument("quandle")
    sp.add_argument("--list", action="store_true", dest="list_colorings")

    sp = sub.add_parser("semiinv", help="semi-invariant transform")
    sp.add_argument("diagram")
    sp.add_argument("--kind", choices=["M5", "M6"], required=True)

    sp = sub.add_parser("profile", help="linking/coloring profile of a classical diagram")
    sp.add_argument("diagram")

    sp = sub.add_parser("export-kirby", help="handle diagram of the exterior")
    sp.add_argument("diagram")

    args = p.parse_args(argv)
    if args.cmd is None:
        p.print_usage()
        return USAGE_ERROR

    if args.cmd == "validate":
        rep = _load_diagram(args.diagram, allow_invalid=True).validate()
        _emit(args, str(rep), {"ok": rep.ok, "issues": [str(i) for i in rep.issues]})
        return 0 if rep.ok else 1

    if args.cmd == "resolve":
        d = _base(_load_diagram(args.diagram))
        sign = POSITIVE if args.sign == "pos" else NEGATIVE
        r = resolve(d, sign)
        _emit(args, serialize(r.diagram).rstrip(),
              {"diagram": serialize(r.diagram), "components": r.component_count()})
        return 0

    if args.cmd == "admissible":
        d = _base(_load_diagram(args.diagram))
        res = is_admissible(d, Budget(max_states=args.budget))
        verdict = res["verdict"]
        text = verdict.upper()
        if verdict == YES:
            text += (f" (components: L-={res[NEGATIVE].components},"
                     f" L+={res[POSITIVE].components})")
        payload = {"verdict": verdict,
                   "negative": res[NEGATIVE].serialize(),
                   "positive": res[POSITIVE].serialize()}
        _emit(args, text, payload)
        return {YES: 0, UNKNOWN: BUDGET_ERROR}.get(verdict, 1)

    if args.cmd == "move":
        mode = "oriented" if args.oriented else "unoriented"
        cat = catalog_map(mode)
        if args.action == "list":
            lines = [f"{m.id}\t{'derived' if m.derived else 'core'}\tdeltas={m.deltas}"
                     for m in move_catalog(mode)]
            _emit(args, "\n".join(lines),
                  {"moves": [{"id": m.id, "derived": m.derived, "deltas": m.deltas}
                             for m in move_catalog(mode)]})
            return 0
        if not args.diagram or args.move not in cat:
            why = (f"unknown move id {args.move!r}; the {mode} catalog has {', '.join(cat)}"
                   if args.diagram and args.move else "need DIAGRAM and --move ID")
            print(f"usage error: {why}", file=sys.stderr)
            return USAGE_ERROR
        d = _load_diagram(args.diagram)
        if args.oriented:
            d = _orient_arg(d)
        direction = REVERSE if args.reverse else FORWARD
        sites = find_sites(d, cat[args.move], direction)
        if args.action == "sites":
            _emit(args, f"{len(sites)} site(s)",
                  {"count": len(sites),
                   "sites": [{"variant": s.variant,
                              "nodes": list(s.node_image_map.values())} for s in sites]})
            return 0 if sites else 1
        if not 0 <= args.site < len(sites):
            raise SMGSemanticError(f"site {args.site} of {len(sites)}")
        out = apply_move(d, cat[args.move], sites[args.site])
        _emit(args, serialize(out).rstrip(), {"diagram": serialize(out)})
        return 0

    if args.cmd == "search":
        d1 = _base(_load_diagram(args.diagram))
        d2 = _base(_load_diagram(args.target))
        cat = catalog_map("unoriented")
        allowed = args.allow.split(",") if args.allow else None
        seq = search_equivalence(d1, d2, cat, allowed, SearchBudget(args.depth, args.states))
        if seq is None:
            _emit(args, "UNKNOWN", {"found": False})
            return BUDGET_ERROR
        _emit(args, f"FOUND length {len(seq)}\n" + seq.serialize(),
              {"found": True, "length": len(seq), "steps": seq.serialize()})
        return 0

    if args.cmd == "group":
        d = _base(_load_diagram(args.diagram))
        pres = wirtinger_presentation(d)
        if args.simplify:
            pres = tietze_simplify(pres)
        _emit(args, str(pres),
              {"generators": pres.ngens,
               "relators": [list(w) for w in pres.relators]})
        return 0

    if args.cmd == "abelian":
        d = _base(_load_diagram(args.diagram))
        ab = abelianization(wirtinger_presentation(d))
        _emit(args, str(ab), {"free_rank": ab.free_rank, "torsion": list(ab.torsion)})
        return 0

    if args.cmd == "homs":
        d = _base(_load_diagram(args.diagram))
        g = _load_group(args.table)
        n = hom_count(wirtinger_presentation(d), g)
        _emit(args, str(n), {"count": n})
        return 0

    if args.cmd == "quandle":
        if args.action == "involutory":
            inv = quandle_from_rows(_quandle_rows(args.table)).is_involutory()
            _emit(args, "involutory" if inv else "not involutory", {"involutory": inv})
            return 0 if inv else 1
        issues = check_quandle(_quandle_rows(args.table))
        _emit(args, "ok" if not issues else "; ".join(issues), {"issues": issues})
        return 0 if not issues else 1

    if args.cmd == "color":
        d = _load_diagram(args.diagram)
        q = quandle_from_rows(_quandle_rows(args.quandle))
        od = d if isinstance(d, OrientedDiagram) else None
        if od is None and not q.is_involutory():
            od = _orient_arg(_base(d))
        if not args.list_colorings:
            count = coloring_count(_base(d), q, od)
            _emit(args, str(count), {"count": count, "colorings": None})
            return 0
        cols = colorings(_base(d), q, od)
        text = str(len(cols)) + "\n" + "\n".join(
            " ".join(f"{k}={v}" for k, v in sorted(c.items())) for c in cols)
        _emit(args, text, {"count": len(cols), "colorings": [dict(c) for c in cols]})
        return 0

    if args.cmd == "semiinv":
        d = _base(_load_diagram(args.diagram))
        out = semi_transform(d, args.kind)
        _emit(args, serialize(out).rstrip(), {"diagram": serialize(out)})
        return 0

    if args.cmd == "profile":
        pr = profile(_base(_load_diagram(args.diagram)))
        text = f"linking {list(pr.linking)} trivial={pr.is_trivial()}"
        _emit(args, text, {"linking": list(pr.linking),
                           "rates": [list(r) for r in pr.rates],
                           "trivial": pr.is_trivial()})
        return 0

    if args.cmd == "export-kirby":
        d = _base(_load_diagram(args.diagram))
        k = export_exterior(d)
        _emit(args, k.serialize().rstrip(),
              {"diagram": k.serialize(),
               "dotted": len(k.dotted), "framed": len(k.framed)})
        return 0

    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
