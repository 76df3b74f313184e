"""Command-line interface: enumeration, multiplication, centers, the odd
Springer quotient, associator tables, quantum binomials, and a verification
suite.  Exit codes: 0 success, 1 verification failure, 2 bad input."""

import argparse
import sys
from itertools import product
from math import comb

from . import matchings as _m
from .arc_rings import (BUILTIN_RULES, BasisMonomial, FlippedRule,
                        block_map, multiply, multiply_diagrammatic,
                        parse_element, format_element)


def _rule(name):
    if name in BUILTIN_RULES:
        return BUILTIN_RULES[name]
    if name.startswith("flip-") and name[5:] in BUILTIN_RULES:
        return FlippedRule(BUILTIN_RULES[name[5:]])
    raise argparse.ArgumentTypeError(
        f"unknown rule {name!r} (default, ord, flip-default, flip-ord)")


def _cmd_bn(args):
    mats = _m.enumerate_matchings(args.n)
    for a in mats:
        print(f"{a.word}  t={_m.lower_arc_count(a)}")
    print(f"count: {len(mats)}")
    return 0


def _cmd_mul(args):
    if args.oracle and args.even:
        raise ValueError("--oracle needs the odd theory: the diagrammatic "
                         "oracle is odd-only")
    x = parse_element(args.x, args.n)
    y = parse_element(args.y, args.n)
    theory = "even" if args.even else "odd"
    prod = multiply(args.rule, x, y, theory)
    print(format_element(prod))
    if args.oracle:
        alt = multiply_diagrammatic(args.rule, x, y)
        print(f"oracle: {format_element(alt)}")
        if alt != prod:
            print("oracle mismatch", file=sys.stderr)
            return 1
    return 0


def _cmd_center(args):
    from .centers import odd_center, ring_center, even_center
    if args.flavor == "even":
        basis = even_center(args.n)
    elif args.flavor == "odd":
        basis = odd_center(args.n, args.rule)
    else:
        basis = ring_center(args.n, args.rule)
    print(basis.serialize())
    return 0


def _cmd_springer(args):
    from .springer import quotient_presentation, verify_springer_iso
    if args.check_iso:
        cert = verify_springer_iso(args.n, args.rule)
        for stage, ok in cert["stages"].items():
            print(f"{stage}: {'pass' if ok else 'FAIL'}")
        if not cert["passed"]:
            print(f"failed: {cert['failed_stage']}", file=sys.stderr)
            return 1
        return 0
    q = quotient_presentation(args.n)
    if args.basis:
        for d in range(args.n + 1):
            for mono in q.basis[d]:
                print("".join(f"x{i}" for i in mono) if mono else "1")
    else:
        print("graded_rank: " + " ".join(
            f"{d}:{q.graded_rank[d]}" for d in sorted(q.graded_rank)))
    return 0


def _cmd_assoc(args):
    from .associator import (phi0_table, cocycle_defect, solve_coboundary,
                             compare_rules)
    if args.compare is not None:
        diff, eps = compare_rules(args.rule, args.compare, args.n)
        if diff is not None:
            print("associators differ; first difference: " + "|".join(diff))
            return 1
        if eps is None:
            print("associators equal; no sign isomorphism")
            return 1
        print("associators equal; verified isomorphism with eps:")
        for (top, bottom), bit in sorted(eps.items()):
            print(f"{top}|{bottom} -> {'-1' if bit else '+1'}")
        return 0
    table = phi0_table(args.rule, args.n)
    if args.cocycle:
        defects = cocycle_defect(table, args.n)
        if defects:
            for quint in sorted(defects):
                print("defect: " + "|".join(quint))
            return 1
        lam = solve_coboundary(table, args.n)
        print("cocycle: pass")
        print("coboundary: " + ("found" if lam is not None else "none"))
        return 0
    for quad in sorted(table):
        v = table[quad]
        val = "undefined" if v is None else ("-1" if v else "+1")
        print("|".join(quad) + " -> " + val)
    return 0


def _cmd_qbinom(args):
    from .springer import qbinom, format_laurent
    print(format_laurent(qbinom(args.m, args.k)))
    return 0


def _verify_catalan(n):
    for k in range(1, n + 1):
        if len(_m.enumerate_matchings(k)) != comb(2 * k, k) // (k + 1):
            return f"catalan count wrong at n={k}"
        total = sum(2 ** _m.lower_arc_count(a) for a in _m.enumerate_matchings(k))
        if total != comb(2 * k, k):
            return f"lower-arc identity wrong at n={k}"
    return None


def _verify_mod2(n, rule):
    for c, b, a in product(_m.enumerate_matchings(n), repeat=3):
        odd, even = (block_map(rule, t, c, b, a) for t in ("odd", "even"))
        for pair in sorted(odd.keys() | even):
            x, y = odd.get(pair, {}), even.get(pair, {})
            if any((x.get(k, 0) - y.get(k, 0)) % 2 for k in x.keys() | y):
                mx = tuple.__new__(BasisMonomial, (c.word, b.word, pair[0]))
                my = tuple.__new__(BasisMonomial, (b.word, a.word, pair[1]))
                return f"mod-2 mismatch at {mx} * {my}"
    return None


def _verify_centers(n, rule):
    from .centers import odd_center
    # one rule's center is every rule's: see the `centers` docstring
    oz = odd_center(n, rule)
    if oz.total_rank() != comb(2 * n, n):
        return f"odd center rank {oz.total_rank()} != C(2n,n)"
    return None


def _verify_iso(n, rule):
    from .springer import verify_springer_iso
    cert = verify_springer_iso(n, rule)
    if not cert["passed"]:
        return f"springer isomorphism failed at {cert['failed_stage']}"
    return None


def _verify_cocycle(n, rule):
    from .associator import phi0_table, cocycle_defect
    table = phi0_table(rule, n)
    defects = cocycle_defect(table, n)
    if defects:
        quint = "|".join(sorted(defects)[0])
        return f"chronology cocycle defect at {quint}"
    return None


def _verify_relations(n, rule):
    from .functors import verify_relations
    # a product at size n passes through at most 2n circles
    circles = min(2 * n, _m.SIZE_LIMITS["relations"])
    for theory in ("even", "odd"):
        for name, ok in verify_relations(circles, theory).items():
            if not ok:
                return f"{theory} relation failed: {name}"
    return None


# Each verify suite: its entry in matchings.SIZE_LIMITS and its check,
# which returns None or a failure message.
_SUITES = {
    "catalan": ("basis", lambda args: _verify_catalan(args.n)),
    "mod2": ("basis", lambda args: _verify_mod2(args.n, args.rule)),
    "centers": ("center", lambda args: _verify_centers(args.n, args.rule)),
    "iso": ("springer", lambda args: _verify_iso(args.n, args.rule)),
    "cocycle": ("assoc", lambda args: _verify_cocycle(args.n, args.rule)),
    "relations": ("basis", lambda args: _verify_relations(args.n, args.rule)),
}
_COMMAND_SIZES = {"bn": "basis", "mul": "basis", "center": "center",
                  "springer": "springer", "assoc": "assoc"}


def _suites(args):
    return list(_SUITES) if args.suite == "all" else [args.suite]


def _check_sizes(args):
    """Reject an --n above the limit of the command, or of any selected
    verify suite, before any work."""
    if args.command == "verify":
        for name in _suites(args):
            _m.check_size(_SUITES[name][0], args.n)
    elif args.command in _COMMAND_SIZES:
        _m.check_size(_COMMAND_SIZES[args.command], args.n)


def _cmd_verify(args):
    for name in _suites(args):
        failure = _SUITES[name][1](args)
        if failure is not None:
            print(f"{name}: FAIL ({failure})")
            return 1
        print(f"{name}: pass")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arcring",
        description="Exact computations in arc rings, their odd variants, "
                    "centers, and the odd Springer cohomology.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bn", help="list crossingless matchings")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_bn)

    p = sub.add_parser("mul", help="multiply two elements")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rule", type=_rule, default="default")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--even", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("center", help="print a center basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rule", type=_rule, default="default")
    p.add_argument("--flavor", choices=("even", "odd", "odd-ring"),
                   default="odd")
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("springer", help="odd Springer quotient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rule", type=_rule, default="default")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ranks", action="store_true")
    group.add_argument("--basis", action="store_true")
    group.add_argument("--check-iso", action="store_true")
    p.set_defaults(func=_cmd_springer)

    p = sub.add_parser("assoc", help="associator tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rule", type=_rule, default="default")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--phi0", action="store_true")
    group.add_argument("--cocycle", action="store_true")
    group.add_argument("--compare", type=_rule, default=None)
    p.set_defaults(func=_cmd_assoc)

    p = sub.add_parser("qbinom", help="quantum binomial coefficient")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_qbinom)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rule", type=_rule, default="default")
    p.add_argument("--suite", default="all",
                   choices=("all", *_SUITES))
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_sizes(args)
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
