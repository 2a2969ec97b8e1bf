"""Command-line surface: chow, principal, order-info, find-trivial, conductor-test.

Field sources: ``--disc D`` selects the quadratic backend (with ``--conductor f``,
default 1), ``--data FILE`` a declared-data file (with ``--order SELECTION``, a
comma-separated list of conductor-prime labels, or ``all``/``none``).

Divisor and ideal literals are comma-separated ``place:coefficient`` pairs.
Place tokens are ``p`` or ``p.branch`` for quadratic places (the branch may be
omitted when there is only one place over p) or declared labels.  Tokens over
the conductor resolve to the unique non-invertible prime below them.

Exit codes: 0 success or affirmative, 1 valid negative verdict, 2 usage or
invalid input, 3 declared-data problem, 4 search budget exhausted.

Output is deterministic; ``--json`` prints one JSON object per invocation
carrying the same numbers as the text mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .chow import (
    chow_group,
    exact_sequence_data,
    find_trivial_chow_conductor,
    pic_cardinality,
    pic_chow_report,
    principal_divisor_test,
)
from .declared import declared_order, load_declared
from .errors import (
    BackendError,
    ChowkitError,
    DeclaredDataError,
    FieldInputError,
    PlaceResolutionError,
    SearchBoundExceeded,
)
from .orders import (
    LEVEL_ORDER,
    Divisor,
    conductor_test,
    declared_conductor_test,
    local_chow,
    order_from_conductor,
    prop_fix_report,
    resolve_place,
)
from .quadfield import make_field

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_BOUND = 4


class _UsageError(ChowkitError):
    pass


def _parse_support(text):
    """'tok:coeff,tok:coeff' -> ordered {token: coefficient}."""
    out = {}
    text = (text or "").strip()
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise _UsageError(f"empty entry in literal {text!r}")
        tok, sep, val = chunk.rpartition(":")
        tok = tok.strip()
        if not sep or not tok:
            raise _UsageError(f"malformed entry {chunk!r}; expected place:coefficient")
        try:
            coeff = int(val)
        except ValueError:
            raise _UsageError(f"bad coefficient in {chunk!r}")
        if tok in out:
            raise _UsageError(f"place {tok} given twice")
        out[tok] = coeff
    return out


def _resolve_order_label(order, token):
    for prime in order.primes:
        if token == prime.label:
            return prime.label
    if not order.is_quadratic:
        raise PlaceResolutionError(
            f"{token!r} is not a conductor prime of the selection")
    place = resolve_place(order.field, token)
    hit = order.prime_for_place(place.label)
    if hit is not None:
        return hit[0].label
    return place.label


def _divisor_from_literal(order, text):
    support = {}
    for tok, coeff in _parse_support(text).items():
        label = _resolve_order_label(order, tok)
        support[label] = support.get(label, 0) + coeff
    return Divisor(LEVEL_ORDER, support)


def _parse_selection(text, decl):
    if text is None or text.strip() == "all":
        return decl.prime_labels
    text = text.strip()
    if text in ("", "none"):
        return ()
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _build_order(args):
    has_disc = getattr(args, "disc", None) is not None
    has_data = getattr(args, "data", None) is not None
    if has_disc == has_data:
        raise _UsageError("exactly one field source: --disc or --data")
    if has_disc:
        if getattr(args, "order", None) is not None:
            raise _UsageError("--order requires --data")
        field = make_field(args.disc)
        f = args.conductor if args.conductor is not None else 1
        if f < 1:
            raise _UsageError("--conductor must be >= 1")
        return order_from_conductor(field, f)
    if getattr(args, "conductor", None) is not None:
        raise _UsageError("--conductor requires --disc")
    try:
        decl = load_declared(args.data)
    except OSError as exc:
        raise DeclaredDataError(f"cannot read {args.data}: {exc.strerror}")
    return declared_order(decl, _parse_selection(args.order, decl))


def _emit(args, doc, lines):
    if args.json:
        print(json.dumps(doc))
    else:
        for line in lines:
            print(line)


def _group_str(invariants):
    if not invariants:
        return "trivial"
    return " x ".join("Z" if d == 0 else f"Z/{d}" for d in invariants)


def _order_context(order):
    if order.is_quadratic:
        return {"disc": order.field.d, "conductor": order.conductor}
    return {"data": order.declared.description, "order": list(order.selection)}


def cmd_chow(args):
    order = _build_order(args)
    es = exact_sequence_data(order)
    chow_inv = list(es.chow.invariant_factors)
    image_inv = list(es.image_part.invariant_factors)
    local_inv = list(es.local_invariants)
    doc = {
        "command": "chow",
        "field": _order_context(order),
        "chow": chow_inv,
        "image": image_inv,
        "local": local_inv,
        "nonsplit": es.nonsplit,
        "consistent": es.consistent,
    }
    lines = [
        f"Chow: {_group_str(chow_inv)}",
        f"image: {_group_str(image_inv)}",
        f"local: {_group_str(local_inv)}",
        f"extension: {'non-split' if es.nonsplit else 'split'}",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_principal(args):
    if args.bound is not None and args.bound < 0:
        raise _UsageError("--bound must be >= 0")
    order = _build_order(args)
    divisor = _divisor_from_literal(order, args.divisor)
    result = principal_divisor_test(order, divisor, max_steps=args.bound)
    gen_doc = None
    if result.generator is not None:
        g = result.generator
        gen_doc = {"x": g.x, "y": g.y, "den": g.den, "str": str(g)}
    doc = {
        "command": "principal",
        "field": _order_context(order),
        "divisor": {k: v for k, v in sorted(divisor.support.items())},
        "status": result.status,
        "failing_step": result.failing_step,
        "generator": gen_doc,
    }
    if result.status == "principal":
        lines = [f"principal: {result.generator}"]
        code = EXIT_OK
    elif result.status == "principal-no-generator":
        lines = ["principal (no generator: declared backend)"]
        code = EXIT_OK
    else:
        lines = [f"not principal (step {result.failing_step}: {result.detail})"]
        code = EXIT_NEGATIVE
    _emit(args, doc, lines)
    return code


def cmd_order_info(args):
    order = _build_order(args)
    pres = chow_group(order)
    chow_inv = list(pres.invariant_factors)
    doc = {
        "command": "order-info",
        "field": _order_context(order),
        "maximal": order.is_maximal,
        "primes": [],
        "chow": chow_inv,
    }
    if order.is_quadratic:
        field_line = f"field: {order.field} (discriminant {order.field.d})"
    else:
        cl = _group_str(order.class_group().invariant_factors)
        field_line = f"field: declared data (class group {cl})"
    lines = [field_line]
    if order.is_maximal:
        lines.append("order: maximal (conductor 1)" if order.is_quadratic
                     else "order: maximal (empty selection)")
        lines.append(f"Chow = Cl: {_group_str(chow_inv)}")
        doc["conductor_ideal"] = True
        _emit(args, doc, lines)
        return EXIT_OK

    if order.is_quadratic:
        lines.append(f"order: Z + {order.conductor}*O~ (conductor {order.conductor})")
    else:
        lines.append(f"order: selection {','.join(order.selection)}")
    lines.append("non-invertible primes:")
    for i, prime in enumerate(order.primes):
        places = ", ".join(
            f"{pl.label} (d={pl.degree}, e={pl.e})" for pl in prime.places)
        lc = local_chow(order, i).invariant_factors
        lines.append(
            f"  {prime.label}: residue F_{prime.residue_size}; places {places}; "
            f"g = {prime.g}; local Chow: {_group_str(lc)}")
        doc["primes"].append({
            "label": prime.label,
            "p": prime.p,
            "residue": prime.residue_size,
            "places": [
                {"label": pl.label, "d": pl.degree, "e": pl.e}
                for pl in prime.places
            ],
            "g": prime.g,
            "local_chow": list(lc),
        })

    if order.is_quadratic:
        exps = {}
        f = order.conductor
        for prime in order.primes:
            v = 0
            ff = f
            while ff % prime.p == 0:
                v += 1
                ff //= prime.p
            for pl in prime.places:
                exps[pl.label] = v * pl.e
        ok, viol = conductor_test(order.field, exps)
    else:
        ok, viol = declared_conductor_test(order)
    doc["conductor_ideal"] = ok
    lines.append("conductor ideal (Furtwangler): " + ("yes" if ok else f"no (violator: {viol})"))

    fix = prop_fix_report(order)
    doc["fix"] = {
        "squarefree": fix.cond_squarefree,
        "residue_f2": fix.all_residue_f2,
        "r_geq_2": fix.all_r_geq_2,
        "hold": fix.equivalent_conditions_hold,
        "residue_unit_order": fix.residue_unit_order,
    }
    yn = lambda b: "yes" if b else "no"
    lines.append(
        f"maximality: squarefree {yn(fix.cond_squarefree)}; residue fields F_2 "
        f"{yn(fix.all_residue_f2)}; r_i >= 2 {yn(fix.all_r_geq_2)} => conditions "
        + ("hold" if fix.equivalent_conditions_hold else "fail"))
    if fix.residue_unit_order is not None:
        lines.append(f"residue units |(O~/F)*|: {fix.residue_unit_order}")

    if order.is_quadratic:
        pic = pic_cardinality(order)
        doc["pic"] = {
            "cl": pic.cl_cardinality,
            "unit_index": pic.unit_index,
            "relative_units": pic.relative_unit_quotient,
            "pic": pic.pic_cardinality,
        }
        lines.append(
            f"Pic: |Pic| = {pic.pic_cardinality} (|Cl| = {pic.cl_cardinality}, "
            f"unit index {pic.unit_index}, relative units {pic.relative_unit_quotient})")
    else:
        doc["pic"] = None
        lines.append("Pic: unavailable (declared backend)")

    pc = pic_chow_report(order)
    doc["pic_chow"] = {"surjective": pc.surjective, "injective": pc.injective}
    inj = "unknown" if pc.injective is None else yn(pc.injective)
    lines.append(f"Pic -> Chow: surjective {yn(pc.surjective)}; injective {inj}")
    lines.append(f"Chow: {_group_str(chow_inv)}")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_find_trivial(args):
    if args.disc is None:
        raise _UsageError("find-trivial needs --disc")
    budget = args.prime_budget
    if budget < 0:
        raise _UsageError("--prime-budget must be >= 0")
    field = make_field(args.disc)
    f = find_trivial_chow_conductor(field, budget)
    if f is None:
        doc = {"command": "find-trivial", "disc": field.d, "found": False,
               "prime_budget": budget}
        _emit(args, doc, [f"none found within prime budget {budget}"])
        return EXIT_NEGATIVE
    pres = chow_group(order_from_conductor(field, f))
    doc = {
        "command": "find-trivial",
        "disc": field.d,
        "found": True,
        "conductor": f,
        "chow": list(pres.invariant_factors),
    }
    lines = [
        f"conductor: {f}",
        f"Chow(Z + {f}*O~): {_group_str(pres.invariant_factors)} (verified)",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_conductor_test(args):
    if args.disc is None:
        raise _UsageError("conductor-test needs --disc")
    field = make_field(args.disc)
    exps = _parse_support(args.ideal)
    for tok, k in exps.items():
        if k < 0:
            raise _UsageError("ideal exponents must be >= 0")
    ok, viol = conductor_test(field, exps)
    doc = {"command": "conductor-test", "disc": field.d,
           "exponents": {k: v for k, v in sorted(exps.items())},
           "conductor_ideal": ok, "violator": viol}
    if ok:
        _emit(args, doc, ["yes"])
        return EXIT_OK
    _emit(args, doc, [f"no (violator: {viol})"])
    return EXIT_NEGATIVE


def _add_field_flags(sub, conductor=True, data=True):
    sub.add_argument("--disc", type=int, help="fundamental discriminant")
    if conductor:
        sub.add_argument("--conductor", type=int, help="conductor f of Z + f*O~")
    if data:
        sub.add_argument("--data", help="declared data file")
        sub.add_argument("--order", help="comma-separated conductor-prime labels, or all/none")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chowkit",
        description="Divisors, Picard and Chow groups of one-dimensional orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chow", help="Chow group with its exact-sequence parts")
    _add_field_flags(p)

    p = sub.add_parser("principal", help="principal divisor test")
    _add_field_flags(p)
    p.add_argument("--divisor", default="", help="divisor literal place:coeff,...")
    p.add_argument("--bound", type=int, help="generator search ceiling")

    p = sub.add_parser("order-info", help="splitting fabric, Furtwangler, Pic, Chow")
    _add_field_flags(p)

    p = sub.add_parser("find-trivial", help="search a conductor with trivial Chow group")
    p.add_argument("--disc", type=int, help="fundamental discriminant")
    p.add_argument("--prime-budget", type=int, default=100,
                   help="largest prime considered (default 100)")

    p = sub.add_parser("conductor-test", help="Furtwangler conductor-ideal criterion")
    p.add_argument("--disc", type=int, help="fundamental discriminant")
    p.add_argument("--ideal", default="", help="exponent literal place:k,...")

    for s in sub.choices.values():
        s.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


@cache
def _parser():
    """The parser of main, built on first use and shared by later calls."""
    return build_parser()


_HANDLERS = {
    "chow": cmd_chow,
    "principal": cmd_principal,
    "order-info": cmd_order_info,
    "find-trivial": cmd_find_trivial,
    "conductor-test": cmd_conductor_test,
}


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (_UsageError, FieldInputError, PlaceResolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DeclaredDataError, BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SearchBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
