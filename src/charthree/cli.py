"""Command-line interface: enumerate, classify, compute, verify, export.

Subcommands: places, semigroup, verify, polyfam, aut, each accepting the
global flags --t, --format, --seed, --out, --q-cap.  Exit codes: 0
success, 1 verification failure, 2 usage error.  JSON is the format of
record: top level {"q", "genus", "command", "results"}, field elements
as low-degree-first coefficient vectors with the moduli recorded in a
header; CSV is lossy (no field header).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys

from . import automorphisms, localseries, polyfamilies
from .curve import INFINITY, Curve, Place, row_places
from .weierstrass import (class_representatives, full_census, semigroup_at,
                          verify_gaps, verify_nongaps)

_CAP_DEFAULT = 27
_CAP_HARD = 81


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--t", type=int, required=False, default=2,
                   help="field exponent: q = 3^t (t >= 2)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--out", type=str, default=None, help="output path")
    p.add_argument("--q-cap", type=int, default=_CAP_DEFAULT,
                   help=f"largest allowed q (hard cap {_CAP_HARD})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="charthree",
        description="Weierstrass semigroups, gap certificates and "
                    "automorphisms of the char-3 maximal curve "
                    "x^q + x + p(y)^2 = 0")
    sub = ap.add_subparsers(dest="command", required=True)

    p_places = sub.add_parser("places", help="enumerate/classify places")
    p_places.add_argument("--class", dest="klass", default=None,
                          choices=("infinity", "beta-zero", "beta-one",
                                   "rational-general"),
                          help="restrict to one rational classification")
    p_places.add_argument("--beta-order", type=int, default=None,
                          help="sample non-rational places with this gamma order")
    p_places.add_argument("--max-degree", type=int, default=4,
                          help="relative degree bound for sampling")

    p_semi = sub.add_parser("semigroup", help="semigroup/gap set at a place")
    p_semi.add_argument("--place", default=None,
                        help='"infinity" or comma-separated F_3 coefficients '
                             '"a0,a1,..;b0,b1,.." at the F_q^2 level')
    p_semi.add_argument("--class", dest="klass", default=None,
                        choices=("beta-zero", "beta-one", "rational-general"))
    p_semi.add_argument("--index", type=int, default=0,
                        help="which enumerated place of the class")
    p_semi.add_argument("--beta-order", type=int, default=None,
                        help="sample a non-rational place with this gamma order")
    p_semi.add_argument("--max-degree", type=int, default=4)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--scope", default="all",
                          choices=("polyfam", "valuations", "semigroups",
                                   "autgroup", "all"))

    p_poly = sub.add_parser("polyfam", help="polynomial family checks/values")
    p_poly.add_argument("--max-i", type=int, default=12)
    p_poly.add_argument("--samples", type=int, default=25)

    p_aut = sub.add_parser("aut", help="automorphism group facts")

    for p in (p_places, p_semi, p_verify, p_poly, p_aut, ap):
        if p is not ap:
            _common_flags(p)
    return ap


# ---------------------------------------------------------------------------
# serialization


def _field_header(curve: Curve, levels) -> dict:
    return {
        "characteristic": 3,
        "levels": {str(n): list(curve.tower.level(n).modulus) for n in sorted(levels)},
    }


def _elem(e) -> list[int]:
    return list(e.coeffs)


def _place_row(p: Place) -> dict:
    if p.is_infinity():
        return {"place": "infinity", "beta": "infinity", "degree": 1,
                "class": "infinity", "i": None, "K": None}
    return {
        "a": _elem(p.a), "b": _elem(p.b), "level": p.a.level.n,
        "beta": _elem(p.beta), "degree": p.degree,
        "class": p.place_class.kind, "i": p.place_class.i, "K": p.place_class.K,
    }


def _emit(doc: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        rows = doc.get("results", [])
        if rows:
            keys = sorted({k for r in rows if isinstance(r, dict) for k in r})
            writer = csv.DictWriter(buf, fieldnames=keys)
            writer.writeheader()
            for r in rows:
                if isinstance(r, dict):
                    writer.writerow({k: json.dumps(v) if isinstance(v, (list, dict))
                                     else v for k, v in r.items()})
        text = buf.getvalue()
    else:
        lines = [f"q = {doc.get('q')}  genus = {doc.get('genus')}  "
                 f"command = {doc.get('command')}"]
        for r in doc.get("results", []):
            lines.append("  " + json.dumps(r))
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _document(curve: Curve, command: str, results, extra: dict | None = None) -> dict:
    doc = {"q": curve.q, "genus": curve.genus, "command": command,
           "results": results}
    if extra:
        doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# subcommands


def _make_curve(args) -> Curve:
    if args.t < 2:
        raise SystemExit2("t must be >= 2: for t = 1 the curve is elliptic "
                          "and has an infinite automorphism group")
    q = 3 ** args.t
    cap = min(args.q_cap, _CAP_HARD)
    if q > cap:
        raise SystemExit2(f"q = {q} exceeds the cap {cap}")
    return Curve(args.t)


class SystemExit2(Exception):
    """Usage error: exits with code 2."""


def cmd_places(args) -> int:
    curve = _make_curve(args)
    if args.beta_order is not None:
        places = curve.sample_nonrational(args.beta_order, count=3,
                                          max_rel_degree=args.max_degree)
    else:
        want = None if args.klass is None else args.klass.replace("-", "_")
        if want is None:
            places = curve.enumerate_rational()
        elif want == INFINITY:
            places = [curve.infinity()]
        else:
            places = list(row_places(_class_rows(curve, want)))
    rows = [_place_row(p) for p in places]
    levels = {2 * curve.t} | {r["level"] for r in rows if "level" in r}
    _emit(_document(curve, "places", rows,
                    {"field": _field_header(curve, levels)}),
          args.format, args.out)
    return 0


def _class_rows(curve: Curve, kind: str) -> list[tuple]:
    """The rows of `curve.rational_rows()` whose class has the given kind."""
    return [row for row in curve.rational_rows() if row[3].kind == kind]


def _resolve_place(curve: Curve, args) -> Place:
    if args.place == "infinity":
        return curve.infinity()
    if args.place is not None:
        try:
            a_str, b_str = args.place.split(";")
            a = curve.base.element([int(c) for c in a_str.split(",")])
            b = curve.base.element([int(c) for c in b_str.split(",")])
        except (ValueError, IndexError) as exc:
            raise SystemExit2(f"cannot parse place selector: {exc}")
        return curve.place_from_coords(a, b)
    if args.beta_order is not None:
        places = curve.sample_nonrational(args.beta_order, count=1,
                                          max_rel_degree=args.max_degree)
        if not places:
            raise SystemExit2(f"no non-rational place with gamma order "
                              f"{args.beta_order} at degree <= {args.max_degree}")
        return places[0]
    if args.klass is not None:
        if args.index < 0:
            raise SystemExit2(f"--index must be >= 0, got {args.index}")
        matches = list(row_places(_class_rows(curve, args.klass.replace("-", "_"))))
        if args.index >= len(matches):
            raise SystemExit2(f"class {args.klass} has only {len(matches)} places")
        return matches[args.index]
    raise SystemExit2("no place selector given (--place/--class/--beta-order)")


def cmd_semigroup(args) -> int:
    curve = _make_curve(args)
    place = _resolve_place(curve, args)
    try:
        assignment = semigroup_at(curve, place)
    except (ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "place": _place_row(place),
        "theorem_tag": assignment.theorem_tag,
        "generators": list(assignment.semigroup.generators)
        if assignment.semigroup else None,
        "gaps": list(assignment.gap_set.gaps),
        "genus": assignment.gap_set.genus,
        "conductor": assignment.gap_set.conductor,
    }
    levels = {2 * curve.t}
    if not place.is_infinity():
        levels.add(place.a.level.n)
    _emit(_document(curve, "semigroup", [result],
                    {"field": _field_header(curve, levels)}),
          args.format, args.out)
    return 0


def cmd_polyfam(args) -> int:
    if not 0 <= args.max_i <= polyfamilies.SYMBOLIC_MAX_I:
        raise SystemExit2(f"--max-i must be in [0, {polyfamilies.SYMBOLIC_MAX_I}], "
                          f"got {args.max_i}")
    curve = _make_curve(args)
    rng = random.Random(args.seed)
    lvl = curve.base
    results = []
    failures = 0
    for _ in range(args.samples):
        beta = lvl.random_element(rng)
        if beta.is_zero() or beta == 1:
            continue
        chain = polyfamilies.eval_chain(args.max_i, beta)
        closed_ok = all(
            polyfamilies.eval_closed(i, beta) == chain[i]
            for i in range(args.max_i + 1))
        ident_ok = polyfamilies.identity_check(2, 3, 1, beta)
        coroll_ok = all(polyfamilies.corollary_check(i, beta)
                        for i in range(1, args.max_i + 1))
        if not (closed_ok and ident_ok and coroll_ok):
            failures += 1
        results.append({"beta": _elem(beta), "closed_matches": closed_ok,
                        "identities": ident_ok, "corollary": coroll_ok})
    sym_ok = polyfamilies.corollary_check_symbolic(args.max_i)
    results.append({"symbolic_corollary_max_i": args.max_i, "ok": sym_ok})
    if not sym_ok:
        failures += 1
    _emit(_document(curve, "polyfam", results), args.format, args.out)
    return 1 if failures else 0


def _guard(rows: list, name: str, fn, *fn_args, ok=bool, detail=lambda value: ""):
    """Run fn(*fn_args) and append the row `name` to `rows`: its ok is
    ok(result) and its detail is detail(result), or, when fn raises an
    ArithmeticError or ValueError, ok is false and the detail is the error.
    Returns the result, or None after an error."""
    try:
        value = fn(*fn_args)
    except (ArithmeticError, ValueError) as exc:
        rows.append({"check": name, "ok": False, "detail": str(exc)})
        return None
    rows.append({"check": name, "ok": bool(ok(value)), "detail": detail(value)})
    return value


def _group_census(curve: Curve, census_rows, rows: list):
    """The automorphism group and the census of the rational places
    (`census_rows`, or enumerated by `full_census`) under it, with the autgroup
    rows appended to `rows`.  Returns (elements, report), with None for
    the step that failed and each one after it."""
    order = 2 * curve.q * curve.q // 3
    elements = _guard(rows, "autgroup.order", automorphisms.group_elements, curve,
                      ok=lambda els: len(els) == order,
                      detail=lambda els: f"|G| = {len(els)}")
    if elements is None:
        return None, None
    report = _guard(rows, "autgroup.orbits_partition", full_census, curve,
                    census_rows, elements,
                    ok=lambda r: sum(r.orbit_sizes) == r.total_places,
                    detail=lambda r: f"sizes {r.orbit_sizes}")
    if report is not None:
        rows.append({"check": "autgroup.orbit_class_constant",
                     "ok": report.orbits_class_constant, "detail": ""})
    return elements, report


def cmd_aut(args) -> int:
    curve = _make_curve(args)
    rows: list[dict] = []
    elements, report = _group_census(curve, None, rows)
    if report is None:
        print(f"error: {rows[-1]['detail']}", file=sys.stderr)
        return 1
    ident = automorphisms.identity(curve)
    axioms_ok = all(
        automorphisms.compose(sig, automorphisms.inverse(sig)) == ident
        for sig in elements)
    result = {
        "order": len(elements),
        "expected_order": 2 * curve.q * curve.q // 3,
        "inverses_ok": axioms_ok,
        "orbit_sizes": report.orbit_sizes,
        "orbits_class_constant": report.orbits_class_constant,
    }
    _emit(_document(curve, "aut", [result]), args.format, args.out)
    return 0 if axioms_ok and all(r["ok"] for r in rows) else 1


def cmd_verify(args) -> int:
    curve = _make_curve(args)
    q = curve.q
    rows: list[dict] = []
    scope = args.scope
    if scope in ("polyfam", "all"):
        def closed_vs_recursive():
            rng = random.Random(args.seed)
            ok = True
            for _ in range(50):
                beta = curve.base.random_element(rng)
                if beta.is_zero() or beta == 1:
                    continue
                chain = polyfamilies.eval_chain(12, beta)
                if any(polyfamilies.eval_closed(i, beta) != chain[i]
                       for i in (0, 1, 5, 12)):
                    ok = False
                if not polyfamilies.identity_check(2, 1, 3, beta):
                    ok = False
            return ok

        _guard(rows, "polyfam.closed_vs_recursive", closed_vs_recursive)
        _guard(rows, "polyfam.symbolic_corollary",
               polyfamilies.corollary_check_symbolic, 12)

    reps: dict[str, Place] = {}     # one rational place per class
    samples: list[Place] = []       # one sampled place per non-rational class
    census_rows = None  # the rational rows, passed on to the autgroup scope
    if scope in ("semigroups", "valuations", "all"):
        expected = q * q + 1 + 2 * q * curve.genus

        def count(found):
            return 1 + sum(len(a_values) for _, _, a_values, _ in found)

        census_rows = _guard(rows, "census.count", curve.rational_rows,
                             ok=lambda found: count(found) == expected,
                             detail=lambda found: f"{count(found)} places "
                                                  f"(want {expected})")
        if census_rows is not None:
            # the first place of a class is the first a of its first row
            reps = class_representatives(
                [curve.infinity()] + [Place(a_values[0], b, beta, 1, cls)
                                      for b, beta, a_values, cls in census_rows])
        by_class = _guard(rows, "nonrational.sampled", curve.sample_classes, 1,
                          detail=lambda found: f"{len(found)} places, classes "
                                               f"{sorted(found)}")
        samples = [pls[0] for pls in (by_class or {}).values()]

    if scope in ("valuations", "all"):
        rational = [p for _, p in sorted(reps.items())
                    if not (p.is_infinity() or p.beta.is_zero())]
        for p in rational + samples:
            _guard(rows, f"valuations[{p.place_class}]",
                   lambda p: localseries.LocalData(curve, p).chain, p)

    if scope in ("semigroups", "all"):
        def verified(certs):
            return all(c.verified for c in certs)

        def certificates(certs):
            return [{"value": c.value, "witness": c.witness, "v_at_P": c.v_at_P,
                     "method": c.method, "ok": c.verified} for c in certs]

        for tag, p in sorted(reps.items()):
            assignment = _guard(rows, f"semigroup.genus[{tag}]", semigroup_at, curve, p,
                                ok=lambda a: a.gap_set.genus == curve.genus)
            if assignment is None:
                continue
            certs = _guard(rows, f"nongap_certificates[{tag}]", verify_nongaps, curve,
                           assignment, ok=verified,
                           detail=lambda found: f"{len(found)} witnesses")
            if certs is not None:
                rows[-1]["certificates"] = certificates(certs)
        for p in samples:
            certs = _guard(rows, f"gap_certificates[{p.place_class}]",
                           lambda p: verify_gaps(curve, semigroup_at(curve, p)), p,
                           ok=verified,
                           detail=lambda found: f"{len(found)} gaps witnessed")
            if certs is not None:
                rows[-1]["certificates"] = certificates(certs)

    if scope in ("autgroup", "all"):
        _group_census(curve, census_rows, rows)
    _emit(_document(curve, "verify", rows), args.format, args.out)
    return 0 if all(r["ok"] for r in rows) else 1


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "places": cmd_places,
        "semigroup": cmd_semigroup,
        "verify": cmd_verify,
        "polyfam": cmd_polyfam,
        "aut": cmd_aut,
    }
    try:
        return handlers[args.command](args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
