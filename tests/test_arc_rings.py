import hashlib
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from arcring import arc_rings, functors, matchings as m
from arcring.exterior import ExteriorElement
from arcring.arc_rings import (BasisMonomial, RingElement, ring_basis,
                               basis_pairs, unit, multiply,
                               multiply_diagrammatic, BUILTIN_RULES,
                               DefaultRule, FlippedRule, CustomRule,
                               MultiplicationRule, format_element,
                               parse_element, block_monomials,
                               block_map, transpose_witness,
                               _plan_of_words, _resolve_monomials)
from conftest import clear_plans, per_merge

DEFAULT = BUILTIN_RULES["default"]
ORD = BUILTIN_RULES["ord"]


def mono(top, bottom, colored=()):
    return RingElement.monomial(BasisMonomial(top, bottom,
                                              frozenset(colored)))


def test_basis_size():
    # total rank of the ring is sum over pairs of 2^circles
    for n in (1, 2, 3):
        expect = sum(2 ** m.closed_diagram(b, a)[1]
                     for b in m.enumerate_matchings(n)
                     for a in m.enumerate_matchings(n))
        assert len(ring_basis(n)) == expect


def test_basis_pairs_is_the_ordered_compatible_scan():
    for n in (1, 2, 3):
        basis = [bm for bm, _ in ring_basis(n)]
        assert list(basis_pairs(n)) == [(x, y) for x in basis for y in basis
                                        if x.bottom == y.top]


def test_degrees():
    x = BasisMonomial("(())", "()()", frozenset())
    assert x.degree() == 1  # one circle, nothing colored, n=2
    y = BasisMonomial("(())", "(())", frozenset({1, 2}))
    assert y.degree() == 4
    assert len(y.colored) == 2  # the exterior degree


def test_worked_product_colored():
    x = mono("(())", "()()")
    y = mono("()()", "(())", {1})
    assert multiply(DEFAULT, x, y) == -mono("(())", "(())", {1, 2})
    assert multiply(DEFAULT, x, y, "even") == mono("(())", "(())", {1, 2})


def test_worked_product_split():
    x = mono("(())", "()()")
    y = mono("()()", "(())")
    out = multiply(DEFAULT, x, y)
    assert out == mono("(())", "(())", {2}) - mono("(())", "(())", {1})


def test_unit_law():
    for n in (1, 2):
        e = unit(n)
        for bm, _ in ring_basis(n):
            x = RingElement.monomial(bm)
            assert multiply(DEFAULT, e, x) == x
            assert multiply(DEFAULT, x, e) == x


def test_non_associativity_witness():
    g = mono("(())", "(())", {1})
    u = mono("(())", "()()")
    v = mono("()()", "(())")
    for rule in (DEFAULT, ORD):
        left = multiply(rule, multiply(rule, g, u), v)
        right = multiply(rule, g, multiply(rule, u, v))
        assert not left.is_zero()
        assert left == -right


def test_block_mismatch_is_zero():
    x = mono("(())", "(())")
    y = mono("()()", "()()")
    assert multiply(DEFAULT, x, y).is_zero()


@pytest.mark.parametrize("rule", [DEFAULT, ORD], ids=["default", "ord"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagrammatic_oracle_agrees(rule, n):
    # every composable basis pair (85,608 at n = 4), but a seeded sample of
    # 2000 at n = 4 under ord
    pairs = list(basis_pairs(n))
    if n == 4 and rule is ORD:
        pairs = random.Random(16).sample(pairs, 2000)
    for mx, my in pairs:
        x, y = RingElement.monomial(mx), RingElement.monomial(my)
        assert multiply(rule, x, y) == multiply_diagrammatic(rule, x, y)


@pytest.fixture
def fresh_plans():
    # compiled plans, their shared ops and the oracle steps keep the kernels
    # they were built with
    clear_plans()
    yield
    clear_plans()


@pytest.mark.parametrize("side", ["kernel", "oracle"])
def test_a_merge_sign_flip_on_one_side_breaks_the_agreement(
        monkeypatch, fresh_plans, side):
    # the oracle shares the plan's events, never the kernels' signs: negating
    # every merge of one side, each merge of a kernel run included, must show
    # on some n = 3 pair
    def negated(out, *_):
        return {k: -c for k, c in out.items()}

    if side == "kernel":
        monkeypatch.setattr(functors, "_merge",
                            per_merge(functors._merge, negated))
    else:
        real = arc_rings._diagram_merge
        monkeypatch.setattr(arc_rings, "_diagram_merge",
                            lambda terms, consts: negated(real(terms, consts)))
    pairs = [(RingElement.monomial(x), RingElement.monomial(y))
             for x, y in basis_pairs(3)]
    assert any(multiply(DEFAULT, x, y) != multiply_diagrammatic(DEFAULT, x, y)
               for x, y in pairs)


def test_degree_additivity():
    for n in (1, 2):
        for mx, dx in ring_basis(n):
            x = RingElement.monomial(mx)
            for my, dy in ring_basis(n):
                if mx.bottom != my.top:
                    continue
                out = multiply(DEFAULT, x, RingElement.monomial(my))
                for mz in out.terms:
                    assert mz.degree() == dx + dy


def composable_triples(n):
    """All basis triples (x, y, z) with x.bottom == y.top, y.bottom == z.top."""
    by_top = {}
    for bm, _ in ring_basis(n):
        by_top.setdefault(bm.top, []).append(bm)
    return [(x, y, z) for monos in by_top.values() for x in monos
            for y in by_top[x.bottom] for z in by_top[y.bottom]]


@pytest.mark.parametrize("n, count, sample", [(2, 432, None),
                                              (3, 45200, 5000)])
def test_even_product_associative(n, count, sample):
    # H^n is associative; a seeded sample keeps n = 3 at about a second
    triples = composable_triples(n)
    assert len(triples) == count
    if sample is not None:
        triples = random.Random(2015).sample(triples, sample)
    for x, y, z in triples:
        ex, ey, ez = (RingElement.monomial(m) for m in (x, y, z))
        left = multiply(DEFAULT, multiply(DEFAULT, ex, ey, "even"), ez, "even")
        right = multiply(DEFAULT, ex, multiply(DEFAULT, ey, ez, "even"), "even")
        assert left == right, (x, y, z)


# sha256 prefixes of every product line, per variant in VARIANTS order
GOLDEN_DIGESTS = {
    1: ("4c1bf6348d844b45",) * 4,
    2: ("6cf67f19fb3413ee", "0ae6b447483ed2f1", "bebe19ffd4ee951c",
        "804d9c15851089aa"),
    3: ("3334f9432983d30c", "9db3d1d09eec85b4", "20c94b7037d0daff",
        "9f683f77522e7c52"),
    4: ("df4e28e13411693e", "7c027fc3d8bfb233", "d28e1b05f1a5c70b",
        "88a98474843e5682"),
}
VARIANTS = [(DEFAULT, "odd"), (ORD, "odd"), (FlippedRule(DEFAULT), "odd"),
            (DEFAULT, "even")]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_golden_product_digests(n):
    # every composable basis pair for n <= 3, a seeded sample of 3000 at n = 4
    basis = [bm for bm, _ in ring_basis(n)]
    pairs = [(x, y) for x in basis for y in basis if x.bottom == y.top]
    if n == 4:
        pairs = random.Random(0).sample(pairs, 3000)
    digests = []
    for rule, theory in VARIANTS:
        lines = [f"{x!r} {y!r} " + format_element(multiply(
            rule, RingElement.monomial(x), RingElement.monomial(y), theory))
            for x, y in pairs]
        digests.append(
            hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16])
    assert tuple(digests) == GOLDEN_DIGESTS[n]


# sha256 prefixes of the events of every (c, b, a) triple, per rule in
# PLAN_RULES order, pinned on the dict-walk plan builder this one replaced
PLAN_DIGESTS = {
    1: ("8f454a7309de12c7",) * 3,
    2: ("350ebf1f8d3bdcb9", "c375c5ed7b750ba1", "14db75ff6601b791"),
    3: ("c51e5ef8788550dc", "6a94b15a26374a7c", "6970f029ef0eccf8"),
    4: ("3efbedd52b125f1d", "67a59731fde96a79", "bcc6e895b7389d6d"),
}
PLAN_RULES = [DEFAULT, ORD, FlippedRule(DEFAULT)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_golden_plan_digests(n):
    words = [a.word for a in m.enumerate_matchings(n)]
    digests = []
    for rule in PLAN_RULES:
        lines = [f"{c}|{b}|{a} {_plan_of_words(rule, c, b, a)[0]!r}"
                 for c in words for b in words for a in words]
        digests.append(
            hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16])
    assert tuple(digests) == PLAN_DIGESTS[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_golden_oracle_digests(n):
    # the oracle's own lines over every composable pair, per rule in
    # PLAN_RULES order, pinned on the frozenset oracle the mask steps
    # replaced; they equal the odd product's lines, so the digests are the
    # first three of GOLDEN_DIGESTS
    digests = []
    for rule in PLAN_RULES:
        lines = [f"{x!r} {y!r} " + format_element(multiply_diagrammatic(
            rule, RingElement.monomial(x), RingElement.monomial(y)))
            for x, y in basis_pairs(n)]
        digests.append(
            hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16])
    assert tuple(digests) == GOLDEN_DIGESTS[n][:3]


def test_shared_memo_matches_memo_less_products():
    # one memo across three odd rules and the even theory: every product
    # equals the memo-less one, on a cold memo and again on a warm one
    flip = FlippedRule(DEFAULT)
    cases = [(DEFAULT, "odd"), (ORD, "odd"), (flip, "odd"), (ORD, "even")]
    memo = {}
    for n in (1, 2, 3):
        basis = [bm for bm, _ in ring_basis(n)]
        pairs = [(RingElement.monomial(x), RingElement.monomial(y))
                 for x in basis for y in basis if x.bottom == y.top]
        rng = random.Random(n)
        size = min(6, len(basis))
        for _ in range(5):
            x, y = (RingElement(n, {bm: rng.randint(-3, 3)
                                    for bm in rng.sample(basis, size)})
                    for _ in range(2))
            pairs.append((x, y))
        for _ in range(2):
            for rule, theory in cases:
                for x, y in pairs:
                    assert multiply(rule, x, y, theory, memo=memo) == \
                        multiply(rule, x, y, theory)
    # the even products are kept under the rule they actually use
    assert set(memo) == {(DEFAULT, "odd"), (ORD, "odd"), (flip, "odd"),
                         (DEFAULT, "even")}


def test_memo_hit_is_unchanged_by_mutating_a_result():
    # the memo keeps built monomials; every result owns its term dict
    x = mono("(())", "()()")
    y = mono("()()", "(())")
    want = multiply(DEFAULT, x, y)
    memo = {}
    for _ in range(3):
        out = multiply(DEFAULT, x, y, memo=memo)
        assert out == want
        for key in out.terms:
            out.terms[key] = -out.terms[key]
        out.terms[BasisMonomial("(())", "(())", frozenset())] = 5
    assert multiply(DEFAULT, x.scale(2), y, memo=memo) == want.scale(2)


def triples(n):
    mats = m.enumerate_matchings(n)
    return [(c, b, a) for c in mats for b in mats for a in mats]


def block_maps_agree(rule, theory, n):
    """Does block_map equal one _resolve_monomials per monomial pair, on
    every triple of size n?  The even product runs under the default rule,
    as multiply runs it."""
    per_pair = rule if theory == "odd" else DEFAULT
    for c, b, a in triples(n):
        top = m.closed_diagram(c, b)[1]
        bottom = m.closed_diagram(b, a)[1]
        want = {(x, y): prod for x in range(2 ** top)
                for y in range(2 ** bottom)
                for prod in [_resolve_monomials(per_pair, c, b, a, x, y,
                                                theory)] if prod}
        if block_map(rule, theory, c, b, a) != want:
            return False
    return True


@pytest.mark.parametrize("theory", ["odd", "even"])
@pytest.mark.parametrize("rule, n", [
    (rule, n) for rule in (DEFAULT, ORD, FlippedRule(DEFAULT))
    for n in (1, 2, 3)] + [(DEFAULT, 4)],
    ids=lambda v: getattr(v, "name", v))
def test_block_map_equals_the_per_pair_products(rule, n, theory):
    assert block_maps_agree(rule, theory, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_map_equals_the_diagrammatic_oracle(n):
    for rule in (DEFAULT, ORD):
        for c, b, a in triples(n):
            got = block_map(rule, "odd", c, b, a)
            for x in block_monomials(c, b):
                for y in block_monomials(b, a):
                    want = multiply_diagrammatic(
                        rule, RingElement.monomial(x), RingElement.monomial(y))
                    assert {mono.mask: coeff for mono, coeff in
                            want.terms.items()} == got.get((x.mask, y.mask), {})


def test_block_map_with_the_tag_one_bit_too_low_disagrees(monkeypatch):
    # the tag must sit above every circle: one bit lower, it overlaps the
    # last start circle and the decoded pairs go wrong
    monkeypatch.setattr(functors, "_tagged_basis", lambda k: {
        mask | mask << k - 1: 1 for mask in range(2 ** k)})
    assert not block_maps_agree(DEFAULT, "odd", 2)
    assert not block_maps_agree(DEFAULT, "even", 2)


def test_consecutive_merges_compile_to_one_run():
    # under default, n = 3 plans hold 229 ops (382 with one op per merge)
    # and n = 4 plans 6,913 (11,442); each split-free plan is one run
    for n, ops_total in ((3, 229), (4, 6913)):
        mats = m.enumerate_matchings(n)
        plans = [_plan_of_words(DEFAULT, c.word, b.word, a.word)
                 for c in mats for b in mats for a in mats]
        assert sum(len(ops) for _, ops, _ in plans) == ops_total
        assert all(len(ops) == 1 for events, ops, _ in plans
                   if all(event[0] == "merge" for event in events))


@pytest.mark.parametrize("rule", [DEFAULT, ORD, FlippedRule(DEFAULT)],
                         ids=["default", "ord", "flip-default"])
def test_plan_ops_are_a_fresh_compile_of_their_events(rule):
    # the shared ops of every plan equal its events compiled anew, one
    # functors builder per event, from the starting circle count
    for n in (1, 2, 3, 4):
        for c, b, a in triples(n):
            events, ops, top = _plan_of_words(rule, c.word, b.word, a.word)
            count = top + m.closed_diagram(b, a)[1]
            want = []
            for event in events:
                if event[0] == "merge":
                    functors.append_op(want, functors.merge_op(
                        count, event[1], event[2]))
                    count -= 1
                    continue
                _, p, i, j, scan_is_source = event
                want.append(functors.split_op(count, p,
                                              scan_is_source == (i == p)))
                count += 1
                want += [functors.permute_op(count, k, k + 1)
                         for k in range(p + 1, max(i, j))]
            assert ops == tuple(want)
            assert count == m.closed_diagram(c, a)[1]


def test_triples_with_equal_events_share_one_op_tuple():
    # under default, 45 distinct event sequences at n = 3 and 555 at n = 4,
    # each compiled once and kept as one events tuple
    for n, distinct in ((3, 45), (4, 555)):
        plans = [_plan_of_words(DEFAULT, c.word, b.word, a.word)
                 for c, b, a in triples(n)]
        assert len({events for events, _, _ in plans}) == distinct
        assert len({id(events) for events, _, _ in plans}) == distinct
        assert len({id(ops) for _, ops, _ in plans}) == distinct


@pytest.mark.parametrize("rule", [DEFAULT, ORD, FlippedRule(DEFAULT)],
                         ids=["default", "ord", "flip-default"])
def test_no_plan_holds_two_adjacent_merge_ops(rule):
    for n in (1, 2, 3, 4):
        mats = m.enumerate_matchings(n)
        for c in mats:
            for b in mats:
                for a in mats:
                    kernels = [kernel for kernel, _ in _plan_of_words(
                        rule, c.word, b.word, a.word)[1]]
                    assert not any(
                        first is second is functors._merge
                        for first, second in zip(kernels, kernels[1:]))


def test_products_reject_a_rule_that_is_no_rule():
    # ValueError, not AttributeError, from the plan; the error is not
    # cached, and a rule still multiplies the same words afterwards
    x, y = mono("(())", "()()", [1]), mono("()()", "(())")
    a2, b2 = m.Matching("(())"), m.Matching("()()")
    for call in (lambda: multiply("default", x, y),
                 lambda: multiply_diagrammatic("default", x, y),
                 lambda: block_map("default", "odd", a2, b2, a2)):
        for _ in range(2):
            with pytest.raises(ValueError, match="not a multiplication rule"):
                call()
    assert multiply(DEFAULT, x, y) == multiply_diagrammatic(DEFAULT, x, y)


class ScanOrder(DefaultRule):
    """The default rule with one fixed scan order for every triple."""

    def __init__(self, points):
        self.points = points

    def order(self, c, b, a):
        return self.points


@pytest.mark.parametrize("points, match", [
    ((1,), "leaves an arc of \\(\\)\\(\\) unresolved"),
    ((1, 2, 3, 4, 9), "scan point 9 is not in 1..4"),
    ((0, 1, 2, 3, 4), "scan point 0 is not in 1..4"),
    ((-1, 1, 2, 3, 4), "scan point -1 is not in 1..4"),
], ids=["arc-unresolved", "point-9", "point-0", "point-minus-1"])
def test_plans_reject_an_order_off_the_points_or_the_arcs(points, match):
    # (1,) left the arc (3, 4) unresolved and gave 1*[(())|(())|{}], 9 an
    # IndexError; the error is not cached, and every arc resolved once is
    # enough: (1, 3) names one endpoint of each
    x, y = mono("(())", "()()"), mono("()()", "(())")
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            multiply(ScanOrder(points), x, y)
    want = parse_element("-1*[(())|(())|{1}] + 1*[(())|(())|{2}]")
    assert multiply(DEFAULT, x, y) == want
    assert multiply(ScanOrder((1, 3)), x, y) == want


def test_even_products_reject_a_rule_that_is_no_rule():
    # the even theory plans under `default` whatever the rule, but a rule
    # that is no MultiplicationRule is still an error, as in the odd theory
    x, y = mono("(())", "()()", [1]), mono("()()", "(())")
    a2, b2 = m.Matching("(())"), m.Matching("()()")
    for call in (lambda: multiply("default", x, y, "even"),
                 lambda: block_map(None, "even", a2, b2, a2)):
        with pytest.raises(ValueError, match="not a multiplication rule"):
            call()
    assert multiply(ORD, x, y, "even") == multiply(DEFAULT, x, y, "even")


def test_products_check_rule_and_theory_before_any_work():
    # a zero operand or blocks that do not meet give no pair to resolve,
    # yet a bad rule or theory still raises, and the memo stays untouched
    x, y = mono("(())", "()()", [1]), mono("()()", "(())")
    zero, apart = RingElement.zero(2), mono("(())", "(())")
    for left, right in ((zero, y), (x, zero), (x, apart)):
        for theory in ("odd", "even"):
            with pytest.raises(ValueError, match="not a multiplication rule"):
                multiply("default", left, right, theory)
        with pytest.raises(ValueError, match="not a multiplication rule"):
            multiply_diagrammatic("default", left, right)
        memo = {}
        with pytest.raises(ValueError, match="unknown theory"):
            multiply(DEFAULT, left, right, "bogus", memo=memo)
        assert memo == {}
        assert multiply(DEFAULT, left, right, memo=memo).is_zero()
        assert multiply_diagrammatic(DEFAULT, left, right).is_zero()


def test_products_reject_operands_that_are_no_ring_elements():
    # ValueError before any work, on either side, in both theories and the
    # oracle; not an AttributeError from .space, or from .n while the size
    # mismatch message is built
    x = mono("(())", "()()", [1])
    plans = _plan_of_words.cache_info().currsize
    memo = {}
    for other in (0, "[(())|()()|{1}]", ExteriorElement.generator((1, 2), 1)):
        for left, right in ((other, x), (x, other)):
            for call in (lambda: multiply(DEFAULT, left, right, memo=memo),
                         lambda: multiply(DEFAULT, left, right, "even"),
                         lambda: multiply_diagrammatic(DEFAULT, left, right)):
                with pytest.raises(ValueError, match="need two RingElements"):
                    call()
    assert _plan_of_words.cache_info().currsize == plans
    assert all(not table for table in memo.values())


def test_block_map_rejects_bad_input_before_planning():
    a2, b2, a1 = m.Matching("(())"), m.Matching("()()"), m.Matching("()")
    plans = _plan_of_words.cache_info().currsize
    for c, b, a in ((a2, b2, a1), (a1, a2, a2), (a2, a1, b2)):
        with pytest.raises(ValueError, match="one size"):
            block_map(DEFAULT, "odd", c, b, a)
    with pytest.raises(ValueError, match="unknown theory"):
        block_map(FlippedRule(DEFAULT), "mixed", a2, b2, a2)
    assert _plan_of_words.cache_info().currsize == plans


@pytest.mark.parametrize("rule, n", [
    (rule, n) for rule in (DEFAULT, ORD, FlippedRule(DEFAULT),
                           FlippedRule(ORD))
    for n in (1, 2, 3)] + [(DEFAULT, 4)],
    ids=lambda v: getattr(v, "name", v))
def test_transpose_is_a_super_anti_involution(rule, n):
    assert transpose_witness(rule, n) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_even_transpose_is_an_anti_involution(n):
    # tau(x.y) = tau(y).tau(x), no sign in the even theory: the block map
    # of (a, b, c) is that of (c, b, a) with each pair swapped, both absent
    # together
    mats = m.enumerate_matchings(n)
    for c in mats:
        for b in mats:
            for a in mats:
                forward = block_map(DEFAULT, "even", c, b, a)
                back = block_map(DEFAULT, "even", a, b, c)
                assert back == {(sy, sx): out
                                for (sx, sy), out in forward.items()}


def transposed(elem):
    return RingElement(elem.n, {BasisMonomial(mono.bottom, mono.top,
                                              mono.colored): coeff
                                for mono, coeff in elem.terms.items()})


def test_transpose_witness_names_a_flipped_triple_and_pair():
    # one flipped triple breaks the symmetry between it and its mirror; the
    # named pair fails tau(x.y) = (-1)^(|x||y|) tau(y).tau(x) by multiply
    triple = ("((()))", "(()())", "()()()")
    rule = FlippedRule(DEFAULT, [triple])
    witness = transpose_witness(rule, 3)
    assert witness["triple"] in (list(triple), list(triple[::-1]))
    x, y = (parse_element(text, 3) for text in witness["pair"])
    (mx,), (my,) = x.terms, y.terms
    assert (mx.top, mx.bottom, my.bottom) == tuple(witness["triple"])
    sign = (-1) ** (len(mx.colored) * len(my.colored))
    assert transposed(multiply(rule, x, y)) != multiply(
        rule, transposed(y), transposed(x)).scale(sign)
    assert transposed(multiply(DEFAULT, x, y)) == multiply(
        DEFAULT, transposed(y), transposed(x)).scale(sign)


def test_flipped_rule_rejects_malformed_triples():
    for triples in (["abc"], [("(())", "()()")],
                    [("(())", "()()", "()")], [("(())", "()()", "(()")],
                    [["(())", "()()", "(())"]], [("(())", "()()", 5)]):
        with pytest.raises(ValueError):
            FlippedRule(DEFAULT, triples)
    rule = FlippedRule(DEFAULT, [("(())", "()()", "(())")])
    assert rule.triples == {("(())", "()()", "(())")}


def test_rule_constructors_reject_malformed_containers():
    # each fails at construction, not at the first product, and with
    # ValueError, not a TypeError or AttributeError from inside
    triple = ("(())", "()()", "(())")
    for make in (lambda: FlippedRule(DEFAULT, 5),
                 lambda: FlippedRule(5),
                 lambda: FlippedRule("default", [triple]),
                 lambda: CustomRule(2, orders=[1]),
                 lambda: CustomRule(2, sources=[triple]),
                 lambda: CustomRule(2, sources={triple: 5}),
                 lambda: CustomRule(2, sources={("()()", "(())", "()()"): {
                     frozenset((1, 4)): [1], frozenset((2, 3)): 2}}),
                 lambda: CustomRule(2, orders={triple: 5}),
                 lambda: CustomRule(2, orders={triple: (1, "2", 3, 4)}),
                 lambda: CustomRule(0),
                 lambda: CustomRule(13),
                 lambda: CustomRule("2"),
                 lambda: CustomRule(2, base="default")):
        with pytest.raises(ValueError):
            make()
    assert CustomRule(2, base=ORD).base is ORD


def test_basis_monomial_is_an_immutable_tuple():
    x = BasisMonomial("(())", "()()", frozenset({1}))
    assert isinstance(x, tuple)
    assert (x.top, x.bottom, x.colored) == ("(())", "()()", frozenset({1}))
    with pytest.raises(AttributeError):
        x.top = "()()"
    with pytest.raises(AttributeError):
        x.colored = frozenset()
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(ValueError, match="differ in length"):
        BasisMonomial("()", "(())", frozenset())


def test_basis_monomial_hash_repr_and_sort_key():
    x = BasisMonomial("(())", "(())", frozenset({2, 1}))
    y = BasisMonomial("(())", "(())", frozenset([1, 2]))
    assert x == y and hash(x) == hash(y)
    assert x != BasisMonomial("(())", "(())", frozenset({1}))
    assert len({x, y}) == 1
    assert repr(x) == "[(())|(())|{1,2}]"
    assert repr(BasisMonomial("()", "()", frozenset())) == "[()|()|{}]"
    assert x.sort_key() == ("(())", "(())", 2, (1, 2))
    assert x.n == 2 and x.degree() == 4


def test_basis_monomial_rejects_missing_circles():
    # W(b)a for b = a = (()) has two circles, so 3 and 0 name none
    for colored in ({3}, {0}, {1, 3}, {-1}):
        with pytest.raises(ValueError, match="circle index out of range"):
            BasisMonomial("(())", "(())", frozenset(colored))
    with pytest.raises(ValueError, match=r"out of range in \[\(\)\(\)\|"):
        BasisMonomial("()()", "(())", frozenset({2}))
    assert BasisMonomial("(())", "(())", frozenset({2})).degree() == 2


def test_basis_monomial_rejects_repeated_and_non_int_circles():
    # x_1 ^ x_1 = 0 names no basis monomial; a circle is an int, not a str
    # or a bool
    for colored in ([1, 1], (2, 1, 2)):
        with pytest.raises(ValueError, match="repeated circle index"):
            BasisMonomial("(())", "(())", colored)
    for colored in (["1"], [1.0], [True]):
        with pytest.raises(ValueError, match="is not an int"):
            BasisMonomial("(())", "(())", colored)
    assert BasisMonomial("(())", "(())", [2, 1]).mask == 0b11


def test_basis_monomial_rejects_non_str_words_and_non_iterable_circles():
    # bad input is a ValueError, never a TypeError from len() or iter()
    for top, bottom, colored in ((5, "(())", []), ("(())", 5, []),
                                 ("()", ["(", ")"], []), ("(())", "(())", 1)):
        with pytest.raises(ValueError, match="need two words and an iterable"):
            BasisMonomial(top, bottom, colored)
    assert BasisMonomial("(())", "(())", iter([2])).mask == 0b10


def test_basis_monomial_orders_by_circles_not_by_mask():
    # {1, 4} is mask 0b1001 and {2, 3} is 0b0110; the sorted circles decide
    w = "()()()()"
    x, y = (BasisMonomial(w, w, frozenset(s)) for s in ({2, 3}, {1, 4}))
    assert x.mask < y.mask
    assert sorted([x, y], key=BasisMonomial.sort_key) == [y, x]
    assert format_element(RingElement.monomial(x) + RingElement.monomial(y)) \
        == f"1*[{w}|{w}|{{1,4}}] + 1*[{w}|{w}|{{2,3}}]"
    assert [m.colored for m in block_monomials(m.Matching(w), m.Matching(w))
            ][5:11] == [frozenset(s) for s in ((1, 2), (1, 3), (1, 4), (2, 3),
                                               (2, 4), (3, 4))]


def test_flipped_rule_flips_split_sign():
    x = mono("(())", "()()")
    y = mono("()()", "(())")
    flip = FlippedRule(DEFAULT)
    assert multiply(flip, x, y) == -multiply(DEFAULT, x, y)


def test_custom_rule_validation():
    with pytest.raises(ValueError):
        CustomRule(2, orders={("(())", "(())", "(())"): (2, 1, 3, 4)})
    rule = CustomRule(2, orders={("(())", "(())", "(())"): (1, 4, 2, 3)})
    # a CustomRule checks every order it holds: hand it all of rule's
    mats = m.enumerate_matchings(2)
    CustomRule(2, orders={(c.word, b.word, a.word): rule.order(c, b, a)
                          for c in mats for b in mats for a in mats})


def test_rule_with_only_split_source_multiplies_like_default():
    class SplitOnly(MultiplicationRule):
        name = "split-only"

        def split_source(self, c, b, a, scan, partner, key_scan,
                         key_partner):
            return min(scan, partner)

    rule = SplitOnly()
    basis = [mx for mx, _ in ring_basis(2)]
    for mx in basis:
        for my in basis:
            x, y = RingElement.monomial(mx), RingElement.monomial(my)
            assert multiply(rule, x, y) == multiply(DEFAULT, x, y)


# (orders, sources) that CustomRule(2, ...) refuses at construction
MALFORMED_CUSTOM = [
    ({}, {("()()", "(())", "()()"): {}}),  # lacks the arcs of b
    ({}, {("()()", "(())", "()()"): {frozenset((1, 4)): 1}}),
    ({}, {("()()", "(())", "()()"): {frozenset((1, 4)): 1,
                                     frozenset((2, 3)): 1}}),  # off its arc
    ({}, {("()()", "(())", "()()"): {(1, 4): 1, (2, 3): 2}}),
    ({}, {("()()", "(())", "()()"): {frozenset((1, 4)): 1,
                                     frozenset((2, 3)): 2,
                                     frozenset((1, 2)): 1}}),  # not an arc
    ({}, {("()()", "(())"): {frozenset((1, 4)): 1, frozenset((2, 3)): 2}}),
    ({}, {("()()", "(())", "()"): {frozenset((1, 4)): 1,
                                   frozenset((2, 3)): 2}}),
    ({("()()", "(())"): (1, 2, 3, 4)}, {}),
    ({("()()", "(())", "()()()"): (1, 2, 3, 4)}, {}),
    ({("()()", "(()", "()()"): (1, 2, 3, 4)}, {}),
]


def test_custom_rule_sources():
    # explicit sources on every n = 3 triple reproduce the built-in rules
    mats = m.enumerate_matchings(3)
    words = [(c.word, b.word, a.word) for c in mats for b in mats
             for a in mats]

    def custom(pick):
        return CustomRule(3, sources={
            t: {frozenset(arc): pick(arc) for arc in m.Matching(t[1]).arcs()}
            for t in words})

    basis = [bm for bm, _ in ring_basis(3)]
    for rule, builtin in ((custom(min), DEFAULT),
                          (custom(max), FlippedRule(DEFAULT))):
        for mx in basis:
            x = RingElement.monomial(mx)
            for my in basis:
                if mx.bottom != my.top:
                    continue
                y = RingElement.monomial(my)
                assert multiply(rule, x, y) == multiply(builtin, x, y)
                assert multiply_diagrammatic(rule, x, y) == \
                    multiply_diagrammatic(builtin, x, y)
    with pytest.raises(ValueError):
        custom(lambda arc: next(p for p in range(1, 7) if p not in arc))
    for orders, sources in MALFORMED_CUSTOM:
        with pytest.raises(ValueError):
            CustomRule(2, orders=orders, sources=sources)
    CustomRule(2, sources={("()()", "(())", "()()"): {
        frozenset((1, 4)): 1, frozenset((2, 3)): 3}})

    class OffArc(DefaultRule):
        def split_source(self, c, b, a, scan, partner, *keys):
            return next(p for p in range(1, 7) if p not in (scan, partner))

    # a rule outside CustomRule is checked when the split is planned
    x = mono("((()))", "()()()")
    y = mono("()()()", "((()))")  # one split
    with pytest.raises(ValueError):
        multiply(OffArc(), x, y)
    with pytest.raises(ValueError):
        multiply_diagrammatic(OffArc(), x, y)


def test_even_ignores_rule():
    basis = [bm for bm, _ in ring_basis(2)]
    for mx in basis:
        x = RingElement.monomial(mx)
        for my in basis:
            if mx.bottom != my.top:
                continue
            y = RingElement.monomial(my)
            assert multiply(DEFAULT, x, y, "even") == \
                multiply(ORD, x, y, "even")


def test_format_parse_golden():
    x = mono("(())", "(())", {1, 2}) - mono("(())", "(())", {1}).scale(2)
    s = format_element(x)
    assert s == "-2*[(())|(())|{1}] + 1*[(())|(())|{1,2}]"
    assert parse_element(s) == x
    assert format_element(RingElement.zero(2)) == "0"
    assert parse_element("0", 2) == RingElement.zero(2)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_element("[(())|()|{}]")  # size mismatch
    with pytest.raises(ValueError):
        parse_element("[(())|(())|{7}]")  # circle index out of range
    with pytest.raises(ValueError):
        parse_element("junk")
    with pytest.raises(ValueError):
        parse_element("")
    with pytest.raises(ValueError):
        parse_element("  ", 2)
    with pytest.raises(ValueError, match="repeated circle index"):
        parse_element("[()()|()()|{1,1}]")  # x1 ^ x1 = 0
    with pytest.raises(ValueError, match="repeated circle index"):
        parse_element("[(())|(())|{2, 1, 2}]")
    with pytest.raises(ValueError, match="repeated circle index"):
        parse_element("[(())|(())|{1,1}]")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_format_parse_roundtrip(data):
    n = data.draw(st.sampled_from([1, 2]))
    basis = [bm for bm, _ in ring_basis(n)]
    picks = data.draw(st.lists(
        st.tuples(st.sampled_from(basis), st.integers(-9, 9)), max_size=4))
    elem = RingElement(n, {bm: c for bm, c in picks})
    assert parse_element(format_element(elem), n) == elem
