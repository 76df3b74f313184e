import hashlib
import random
import re
from math import comb

import pytest

from arcring import centers, functors, matchings as m
from arcring.arc_rings import (BasisMonomial, RingElement, ring_basis,
                               multiply, block_monomials, block_map,
                               BUILTIN_RULES, CustomRule, FlippedRule,
                               _plan_of_words)
from arcring.associator import scission_count
from arcring.centers import (CenterBasis, odd_center, ring_center,
                             even_center, center_structure_constants)
from conftest import (clear_plans, odd_center_cached, per_merge,
                      same_lattice)

DEFAULT = BUILTIN_RULES["default"]
ORD = BUILTIN_RULES["ord"]


def test_graded_ranks_n2():
    assert odd_center_cached("default", 2).graded_rank == {0: 1, 1: 3, 2: 2}
    assert ring_center(2, DEFAULT).graded_rank == {0: 1, 1: 0, 2: 2}
    assert even_center(2).graded_rank == {0: 1, 1: 3, 2: 2}


def test_odd_center_total_ranks():
    for n in (1, 2, 3):
        assert odd_center_cached("default", n).total_rank() == comb(2 * n, n)


def test_degree_zero_generator_is_unit_sum():
    oz = odd_center_cached("default", 2)
    gen = next(g for g in oz.generators
               if all(not mono.colored for mono in g.terms))
    words = [a.word for a in m.enumerate_matchings(2)]
    assert gen.terms == {BasisMonomial(w, w, frozenset()): 1 for w in words}


def test_ring_center_generators_n2():
    z = ring_center(2, DEFAULT)
    expected = [
        RingElement(2, {BasisMonomial("(())", "(())", frozenset()): 1,
                        BasisMonomial("()()", "()()", frozenset()): 1}),
        RingElement(2, {BasisMonomial("(())", "(())", frozenset({1, 2})): 1}),
        RingElement(2, {BasisMonomial("()()", "()()", frozenset({1, 2})): 1}),
    ]
    assert z.generators == expected


def test_degree1_lattice_matches_presentation():
    # span{a1+b1, a2+b1, a2+b2} in the degree-1 slice
    oz = odd_center_cached("default", 2)

    def gen(pairs):
        return RingElement(2, {BasisMonomial(w, w, frozenset({i})): 1
                               for w, i in pairs})

    expected = CenterBasis(2, "odd-center", [
        gen([("(())", 1), ("()()", 1)]),
        gen([("(())", 2), ("()()", 1)]),
        gen([("(())", 2), ("()()", 2)])])
    degree1 = CenterBasis(2, "odd-center", [
        g for g in oz.generators
        if all(len(mono.colored) == 1 for mono in g.terms)])
    assert len(degree1.generators) == 3
    assert same_lattice(expected, degree1)


def test_rule_independence_of_lattice():
    for n in (1, 2, 3):
        assert same_lattice(odd_center_cached("default", n),
                            odd_center_cached("ord", n))


def test_coordinates_round_trip():
    rng = random.Random(7)
    for basis in (odd_center_cached("default", 3), even_center(2),
                  ring_center(2, DEFAULT)):
        for _ in range(20):
            coeffs = tuple(rng.randint(-3, 3) for _ in basis.generators)
            elem = RingElement.zero(basis.n)
            for c, g in zip(coeffs, basis.generators):
                elem = elem + g.scale(c)
            assert basis.coordinates(elem) == coeffs
            assert basis.contains(elem)
    oz = odd_center_cached("default", 2)
    # a lone degree-1 diagonal monomial is not central, an off-diagonal one
    # is off every block of the center
    for mono in (BasisMonomial("(())", "(())", frozenset({1})),
                 BasisMonomial("(())", "()()", frozenset())):
        assert oz.coordinates(RingElement.monomial(mono)) is None
        assert not oz.contains(RingElement.monomial(mono))


def test_ring_center_inside_odd_center():
    for n in (1, 2, 3):
        oz = odd_center_cached("default", n)
        z = ring_center(n, DEFAULT)
        for g in z.generators:
            assert oz.contains(g)


def test_membership_supercommutation():
    # every odd-center generator supercommutes with every basis monomial
    for n in (1, 2):
        oz = odd_center_cached("default", n)
        basis = [bm for bm, _ in ring_basis(n)]
        for g in oz.generators:
            pg = {len(mono.colored) for mono in g.terms}
            assert len(pg) == 1
            p = pg.pop()
            for bm in basis:
                x = RingElement.monomial(bm)
                q = len(bm.colored)
                lhs = multiply(DEFAULT, g, x)
                rhs = multiply(DEFAULT, x, g).scale((-1) ** (p * q))
                assert lhs == rhs


def test_structure_constants_closure_and_supercommutativity():
    oz = odd_center_cached("default", 2)
    table = center_structure_constants(oz, DEFAULT)
    gens = oz.generators
    # unit acts as identity
    unit_idx = 0
    for j in range(len(gens)):
        ej = [1 if i == j else 0 for i in range(len(gens))]
        assert list(table[unit_idx, j]) == ej
        assert list(table[j, unit_idx]) == ej
    # supercommutativity on generator pairs
    for i, gi in enumerate(gens):
        pi = len(next(iter(gi.terms)).colored)
        for j, gj in enumerate(gens):
            pj = len(next(iter(gj.terms)).colored)
            lhs = multiply(DEFAULT, gi, gj)
            rhs = multiply(DEFAULT, gj, gi).scale((-1) ** (pi * pj))
            assert lhs == rhs


@pytest.mark.parametrize("theory", ["odd", "even"])
def test_structure_constants_check_the_diagonal_product(monkeypatch, theory):
    """One wrong product on the diagonal block (()): x1 . x2 with its sign
    flipped (odd), or x1 . x1 nonzero (even).  The structure constants
    raise before they rely on associativity there, and name the block and
    the pair."""
    import arcring.centers as ce
    basis = (odd_center_cached("default", 2) if theory == "odd"
             else even_center(2))
    x1, x2 = (BasisMonomial("(())", "(())", {i}) for i in (1, 2))
    bad = (x1, x2) if theory == "odd" else (x1, x1)
    real = ce.multiply

    def corrupt(rule, x, y, kind="odd", **kwargs):
        out = real(rule, x, y, kind, **kwargs)
        if (set(x.terms), set(y.terms)) != ({bad[0]}, {bad[1]}):
            return out
        return out.scale(-1) if kind == "odd" else RingElement.monomial(x1)
    monkeypatch.setattr(ce, "multiply", corrupt)
    want = (f"{theory} product on the diagonal block (()) is wrong at "
            f"{bad[0]!r} * {bad[1]!r}")
    with pytest.raises(AssertionError, match=re.escape(want)):
        center_structure_constants(basis, DEFAULT)
    assert ce.diagonal_product_witness(2, DEFAULT, theory) == {
        "block": "(())", "pair": [repr(bad[0]), repr(bad[1])]}


def test_structure_constants_make_no_triple_products(monkeypatch):
    # N^2 generator products plus the diagonal check's C_n * 4^n monomial
    # products: 20^2 + 5 * 64 at n = 3, with no N^3 associativity loop
    import arcring.centers as ce
    oz = odd_center_cached("default", 3)
    calls = []
    real = ce.multiply

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(ce, "multiply", counting)
    center_structure_constants(oz, DEFAULT)
    assert oz.total_rank() == 20
    assert len(calls) == 20 ** 2 + 5 * 4 ** 3


def test_even_center_ranks():
    assert even_center(1).total_rank() == 2
    assert even_center(3).total_rank() == 20


def test_serialization():
    text = ring_center(2, DEFAULT).serialize()
    lines = text.splitlines()
    assert lines[0] == "graded_rank: 0:1 1:0 2:2"
    assert lines[1] == "1*[(())|(())|{}] + 1*[()()|()()|{}]"
    assert len(lines) == 4


# sha256 prefixes of serialize(), pinned on the code before the center
# systems were built block by block (n <= 4) and before they were sparse
# (n = 5)
CENTER_DIGESTS = {
    (1, "odd-default"): "e031be839ce0b6ef", (1, "odd-ord"): "e031be839ce0b6ef",
    (1, "even"): "e031be839ce0b6ef", (1, "odd-ring"): "e031be839ce0b6ef",
    (2, "odd-default"): "c280004c53e60c5f", (2, "odd-ord"): "c280004c53e60c5f",
    (2, "even"): "c280004c53e60c5f", (2, "odd-ring"): "6d035a89612245c0",
    (3, "odd-default"): "3917ceb2eba655c7", (3, "odd-ord"): "3917ceb2eba655c7",
    (3, "even"): "388330c0593ae617", (3, "odd-ring"): "2ae051b2b432a8d0",
    (4, "odd-default"): "29dd89f3b2c8bd18", (4, "odd-ord"): "29dd89f3b2c8bd18",
    (4, "even"): "834160b2b1b5b9f2", (4, "odd-ring"): "718bc116a5566d64",
    (5, "odd-default"): "7233a310c946c29d", (5, "odd-ord"): "7233a310c946c29d",
    (5, "even"): "86d8b8de23eabe11", (5, "odd-ring"): "6eb00412eb395c2b",
}


@pytest.mark.parametrize("n, flavor", sorted(CENTER_DIGESTS))
def test_golden_center_digests(n, flavor):
    basis = {"odd-default": lambda: odd_center_cached("default", n),
             "odd-ord": lambda: odd_center_cached("ord", n),
             "even": lambda: even_center(n),
             "odd-ring": lambda: ring_center(n, DEFAULT)}[flavor]()
    digest = hashlib.sha256(basis.serialize().encode()).hexdigest()[:16]
    assert digest == CENTER_DIGESTS[n, flavor]


def test_center_systems_multiply_once_per_pair_and_unknown(monkeypatch):
    # one product per unordered pair a < b and unknown of block a or b:
    # 14 * 13 / 2 pairs times 2 * C(4, p) unknowns over p = 0..4, for each
    # of the odd and the even center; the call sequence is that of the
    # ordered-pair systems with every group of a pair a > b left out
    import arcring.centers as ce
    calls = []
    real = ce.multiply

    def counting(rule, x, y, theory="odd", **kwargs):
        calls.append(f"{theory} {x!r} {y!r}")
        return real(rule, x, y, theory, **kwargs)

    monkeypatch.setattr(ce, "multiply", counting)
    odd_center(4, DEFAULT)
    even_center(4)
    assert len(calls) == 5824
    assert sum(call.startswith("even") for call in calls) == 2912
    assert hashlib.sha256("\n".join(calls).encode()).hexdigest()[:16] == \
        "fb157495d1786ac8"


def test_center_systems_digest(monkeypatch):
    # sha256 over repr(columns) of every system the odd, even and ring
    # center solves for n <= 4 pass to kernel_basis_Z, in that order: the
    # rows, their numbering and each column's entry order; pinned on the
    # code that first wrote rows for unordered pairs alone
    digest = hashlib.sha256()
    real = centers.kernel_basis_Z

    def recording(columns):
        digest.update(repr(columns).encode())
        return real(columns)

    monkeypatch.setattr(centers, "kernel_basis_Z", recording)
    for n in (1, 2, 3, 4):
        odd_center(n, DEFAULT)
        even_center(n)
        ring_center(n, DEFAULT)
    assert digest.hexdigest() == ("4cc5321c83363a4ed7e01471a84a8ef1"
                                  "7e84ffbbe82b8fc6f3c7be4ba6b0f6e6")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("rule_name", ["default", "ord"])
def test_diagonal_blocks_associative(n, rule_name):
    # (xy)z = x(yz) for all basis monomials x, y, z of one diagonal block
    # a(.)a: stage (iv) of verify_springer_iso rests on it
    rule = BUILTIN_RULES[rule_name]
    memo = {}
    for a in m.enumerate_matchings(n):
        elems = [RingElement.monomial(x) for x in block_monomials(a, a)]
        prods = {(i, j): multiply(rule, x, y, memo=memo)
                 for i, x in enumerate(elems) for j, y in enumerate(elems)}
        for i, x in enumerate(elems):
            for j in range(len(elems)):
                for k, z in enumerate(elems):
                    assert (multiply(rule, prods[i, j], z, memo=memo)
                            == multiply(rule, x, prods[j, k], memo=memo)), \
                        (a.word, i, j, k)


def _five_rules(n, triples):
    """default, ord, both flipped, and a CustomRule that scans each of the
    (c, b, a) `triples` of size n in the reversed order 2n, ..., 1, which
    is always admissible."""
    reverse = tuple(range(2 * n, 0, -1))
    return [DEFAULT, ORD, FlippedRule(DEFAULT), FlippedRule(ORD),
            CustomRule(n, orders={(c.word, b.word, a.word): reverse
                                  for c, b, a in triples})]


def _split_free_disagreements(n):
    """(number of split-free triples of size n, those among them where the
    odd block maps of the five rules of `_five_rules` are not all equal).
    AssertionError if any of their plans has an event other than a
    merge."""
    mats = m.enumerate_matchings(n)
    triples = [(c, b, a) for c in mats for b in mats for a in mats
               if scission_count(c, b, a) == 0]
    rules = _five_rules(n, triples)
    differ = []
    for c, b, a in triples:
        maps = []
        for rule in rules:
            events = _plan_of_words(rule, c.word, b.word, a.word)[0]
            assert all(event[0] == "merge" for event in events)
            maps.append(block_map(rule, "odd", c, b, a))
        if any(other != maps[0] for other in maps[1:]):
            differ.append((c.word, b.word, a.word))
    return len(triples), differ


def test_split_free_products_carry_no_choice():
    # every product of the center systems, the diagonal products and the
    # Springer certificate lies on a split-free triple, so they are the
    # same under every rule (the `centers` docstring)
    assert [_split_free_disagreements(n) for n in (1, 2, 3, 4)] == [
        (1, []), (6, []), (63, []), (870, [])]


def _unit_transpose_disagreements(n, rules):
    """Each (rule name, theory, z, b word) where z.1_ab and 1_ba.z, for a
    diagonal monomial z of a(.)a and a matching b != a, differ as {mask:
    coeff}: odd under each of `rules`, even once (it ignores the rule).
    Their equality lets the center systems write rows for unordered pairs
    alone (the `centers` docstring)."""
    mats = m.enumerate_matchings(n)
    cases = [(rule, "odd") for rule in rules] + [(DEFAULT, "even")]
    differ = []
    for a in mats:
        zs = [RingElement.monomial(z) for z in block_monomials(a, a)]
        for b in mats:
            if b is a:
                continue
            one_ab, one_ba = (RingElement.monomial(BasisMonomial(*words, ()))
                              for words in ((a.word, b.word),
                                            (b.word, a.word)))
            for rule, theory in cases:
                for z in zs:
                    left, right = (
                        {mono.mask: c for mono, c in prod.terms.items()}
                        for prod in (multiply(rule, z, one_ab, theory),
                                     multiply(rule, one_ba, z, theory)))
                    if left != right:
                        differ.append((rule.name, theory, repr(z), b.word))
    return differ


def _unit_triples(n):
    """The triples (a, a, b) and (b, a, a) of z.1_ab and 1_ba.z, a != b."""
    mats = m.enumerate_matchings(n)
    return [t for a in mats for b in mats if b is not a
            for t in ((a, a, b), (b, a, a))]


def test_unit_products_agree_on_both_sides():
    # z.1_ab (triple (a, a, b)) and 1_ba.z (triple (b, a, a)) are one map
    # on the shared circles of W(a)b and W(b)a: n <= 3 under five rules,
    # n = 4 under default
    for n in (1, 2, 3):
        assert _unit_transpose_disagreements(
            n, _five_rules(n, _unit_triples(n))) == []
    assert _unit_transpose_disagreements(4, [DEFAULT]) == []


def _negated_high_merges_into_1(out, odd, merge):
    """A `per_merge` mutation: negate every merge into circle 1 from circle
    3 or above, which makes a merge sequence's map depend on its order."""
    lo_bit, hi_bit = merge[:2]
    if lo_bit == 1 and hi_bit >= 1 << 2:
        return {k: -c for k, c in out.items()}
    return out


def test_unit_product_pin_sees_an_order_dependent_merge(monkeypatch):
    # the order-dependent merge mutation makes z.1_ab and 1_ba.z differ,
    # so the unit product pin would catch a merge kernel whose map depends
    # on the order of the merges
    clear_plans()
    monkeypatch.setattr(functors, "_merge", per_merge(
        functors._merge, _negated_high_merges_into_1))
    try:
        differ = [_unit_transpose_disagreements(
            n, _five_rules(n, _unit_triples(n))) for n in (1, 2, 3)]
    finally:
        monkeypatch.undo()
        clear_plans()
    assert sum(map(len, differ)) > 0


def test_a_center_solve_builds_each_pair_unit_once(monkeypatch):
    # 1_ab for each unordered pair a < b is built once per solve, not once
    # per degree: 14 * 13 / 2 = 91 at n = 4, over its 5 degrees; the
    # diagonal monomials are grouped once, also for the ring center's
    # commutation rows in its odd degrees
    real, built = centers.BasisMonomial, []
    real_diagonal, grouped = centers.diagonal_monomials, []

    def counted(top, bottom, colored):
        built.append((top, bottom))
        return real(top, bottom, colored)

    def counted_diagonal(n):
        grouped.append(n)
        return real_diagonal(n)

    monkeypatch.setattr(centers, "BasisMonomial", counted)
    monkeypatch.setattr(centers, "diagonal_monomials", counted_diagonal)
    ring_center(4, DEFAULT)
    assert len(built) == len(set(built)) == 91
    assert grouped == [4]


def test_split_free_pin_sees_an_order_dependent_merge(monkeypatch):
    # negating every merge into circle 1 from circle 3 or above makes the
    # merge sequence's map depend on its order (on 23 of the 70 split-free
    # triples at n <= 3); a split-free plan is one merge run, so the
    # mutation must reach each merge inside it, and compiled plans and their
    # shared ops keep the kernels they were built with, so clear them around
    # the patch
    clear_plans()
    monkeypatch.setattr(functors, "_merge", per_merge(
        functors._merge, _negated_high_merges_into_1))
    try:
        differ = [_split_free_disagreements(n)[1] for n in (1, 2, 3)]
    finally:
        monkeypatch.undo()
        clear_plans()
    assert sum(map(len, differ)) > 0
