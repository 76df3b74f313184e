"""Acceptance suite: the headline claims, one test and one printed pass/fail
line per criterion.  Each test is self-contained up to the shared center
cache in conftest."""

from itertools import combinations, product
from math import comb

import pytest

from arcring import matchings as m
from arcring.arc_rings import (BasisMonomial, RingElement, ring_basis,
                               multiply, multiply_diagrammatic,
                               BUILTIN_RULES, FlippedRule, _plan_of_words)
from arcring.associator import phi0_table
from conftest import odd_center_cached, same_lattice

DEFAULT = BUILTIN_RULES["default"]
ORD = BUILTIN_RULES["ord"]


def _report(num, label, ok):
    print(f"[{num:2d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_01_catalan_counts():
    ok = all(len(m.enumerate_matchings(n)) == c
             for n, c in zip(range(1, 6), [1, 2, 5, 14, 42]))
    _report(1, "Catalan counts n=1..5", ok)


def test_02_lower_arc_identity():
    ok = all(sum(2 ** m.lower_arc_count(a) for a in m.enumerate_matchings(n))
             == comb(2 * n, n) for n in range(1, 7))
    _report(2, "sum of 2^t(a) = C(2n,n) for n=1..6", ok)


def test_03_functor_relations():
    from arcring.functors import verify_relations
    ok = True
    for theory in ("even", "odd"):
        results = verify_relations(4, theory)
        ok = ok and all(results.values()) and "degree law" in results
    _report(3, "cobordism relations + degree law, both theories", ok)


def test_04_worked_products():
    x = RingElement.monomial(BasisMonomial("(())", "()()", frozenset()))
    y1 = RingElement.monomial(BasisMonomial("()()", "(())", frozenset({1})))
    y0 = RingElement.monomial(BasisMonomial("()()", "(())", frozenset()))
    aa = lambda s: RingElement.monomial(
        BasisMonomial("(())", "(())", frozenset(s)))
    ok = (multiply(DEFAULT, x, y1) == -aa({1, 2})
          and multiply(DEFAULT, x, y0) == aa({2}) - aa({1})
          and multiply(DEFAULT, x, y1, "even") == aa({1, 2}))
    _report(4, "worked multiplication vectors under the default rule", ok)


def test_05_oracle_equivalence():
    ok = True
    for n in (1, 2, 3):
        basis = [bm for bm, _ in ring_basis(n)]
        for rule in (DEFAULT, ORD):
            for mx in basis:
                x = RingElement.monomial(mx)
                for my in basis:
                    if mx.bottom != my.top:
                        continue
                    y = RingElement.monomial(my)
                    if multiply(rule, x, y) != multiply_diagrammatic(rule, x, y):
                        ok = False
    _report(5, "functor simulation = diagrammatic oracle, all pairs n<=3", ok)


def test_06_non_associativity():
    g = RingElement.monomial(BasisMonomial("(())", "(())", frozenset({1})))
    u = RingElement.monomial(BasisMonomial("(())", "()()", frozenset()))
    v = RingElement.monomial(BasisMonomial("()()", "(())", frozenset()))
    ok = True
    for rule in (DEFAULT, ORD):
        left = multiply(rule, multiply(rule, g, u), v)
        right = multiply(rule, g, multiply(rule, u, v))
        ok = ok and not left.is_zero() and left == -right
    table = phi0_table(DEFAULT, 3)
    ok = ok and any(v == 1 for v in table.values())
    _report(6, "non-associativity witness n=2 + phi0=-1 cell n=3", ok)


def test_07_mod2_equivalence():
    ok = True
    for n in (1, 2, 3):
        basis = [bm for bm, _ in ring_basis(n)]
        for mx in basis:
            x = RingElement.monomial(mx)
            for my in basis:
                if mx.bottom != my.top:
                    continue
                y = RingElement.monomial(my)
                odd = multiply(DEFAULT, x, y)
                even = multiply(DEFAULT, x, y, "even")
                keys = set(odd.terms) | set(even.terms)
                if any((odd.terms.get(k, 0) - even.terms.get(k, 0)) % 2
                       for k in keys):
                    ok = False
    _report(7, "odd = even structure constants mod 2, n<=3", ok)


def test_08_centers():
    from arcring.centers import ring_center, even_center
    ok = (even_center(2).graded_rank == {0: 1, 1: 3, 2: 2}
          and ring_center(2, DEFAULT).graded_rank == {0: 1, 1: 0, 2: 2}
          and odd_center_cached("default", 2).graded_rank == {0: 1, 1: 3, 2: 2})
    for n in (1, 2, 3):
        a = odd_center_cached("default", n)
        b = odd_center_cached("ord", n)
        ok = ok and a.total_rank() == comb(2 * n, n) and same_lattice(a, b)
    _report(8, "center graded ranks + rule-independent OZ lattice", ok)


def test_09_springer_quotient():
    from arcring.springer import quotient_presentation
    q1 = quotient_presentation(1)
    q2 = quotient_presentation(2)
    ok = (q1.graded_rank == {0: 1, 1: 1, 2: 0}
          and q2.graded_rank == {0: 1, 1: 3, 2: 2, 3: 0}
          and q2.basis[1] == [(1,), (2,), (3,)]
          and q2.basis[2] == [(1, 2), (1, 3)])
    for n in (1, 2, 3):
        q = quotient_presentation(n)  # constructor asserts torsion-freeness,
        ok = ok and sum(q.graded_rank.values()) == comb(2 * n, n)
        # degree-(n+1) vanishing and x_i^2 reduction
        ok = ok and q.graded_rank[n + 1] == 0
    _report(9, "odd Springer quotient ranks, basis, x_i^2, torsion-free", ok)


@pytest.mark.parametrize("rule_name", ["default", "ord"])
def test_10_springer_isomorphism(rule_name):
    from arcring.springer import verify_springer_iso
    ok = all(verify_springer_iso(n, BUILTIN_RULES[rule_name])["passed"]
             for n in (1, 2, 3))
    _report(10, f"odd center = odd Springer cohomology, rule {rule_name}", ok)


def test_11_even_presentation():
    from arcring.springer import even_presentation_check
    ok = all(even_presentation_check(n)["passed"] for n in (1, 2, 3))
    _report(11, "even center presentation (X_i^2, symmetric sums, span)", ok)


def test_12_associator():
    from arcring.associator import (scission_count, cocycle_defect,
                                    solve_coboundary, compare_rules)
    ok = True
    # scission formula vs the splits of the resolution plan
    for n in (1, 2, 3):
        mats = m.enumerate_matchings(n)
        for c, b, a in product(mats, repeat=3):
            events, _, _ = _plan_of_words(DEFAULT, c.word, b.word, a.word)
            if sum(event[0] == "split" for event in events) != \
                    scission_count(c, b, a):
                ok = False
    # chronology cocycle identity (twisted by the cup square of S), n <= 3
    for rule_name in ("default", "ord"):
        for n in (1, 2, 3):
            table = phi0_table(BUILTIN_RULES[rule_name], n)
            if cocycle_defect(table, n):
                ok = False
    # coboundary solution where the twist vanishes (n = 2)
    lam = solve_coboundary(phi0_table(DEFAULT, 2), 2)
    ok = ok and lam is not None
    # verified isomorphism for a nontrivial same-associator pair
    eps = compare_rules(DEFAULT, FlippedRule(DEFAULT), 2)[1]
    ok = ok and eps is not None and any(v == 1 for v in eps.values())
    _report(12, "scission formula, chronology cocycle, lambda0, rule iso", ok)


def test_13_quantum_binomials():
    from arcring.springer import qbinom
    ok = qbinom(4, 2) == {4: 1, 2: 1, 0: 2, -2: 1, -4: 1}
    ok = ok and all(sum(qbinom(2 * n, n).values()) == comb(2 * n, n)
                    for n in range(1, 7))
    _report(13, "quantum binomial expansions", ok)
