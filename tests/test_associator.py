import hashlib
import random
import time
from functools import lru_cache
from itertools import product

import pytest

from arcring import arc_rings, matchings as m
from arcring.arc_rings import (RingElement, ring_basis, multiply,
                               BUILTIN_RULES, FlippedRule, _plan_of_words,
                               transpose_witness)
from arcring import associator
from arcring.associator import (scission_count, phi0, phi0_table,
                                cocycle_defect, solve_coboundary,
                                rule_sign_ratio, eta_table,
                                compare_rules, _coboundary, _primitive)
from arcring.cli import main
from arcring.centers import (odd_center, ring_center, even_center,
                             center_structure_constants)

DEFAULT = BUILTIN_RULES["default"]
ORD = BUILTIN_RULES["ord"]
A2 = m.Matching("(())")
B2 = m.Matching("()()")
FLIP = FlippedRule(DEFAULT)
RULES = {"default": DEFAULT, "ord": ORD, "flip": FLIP}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def table_digest(table):
    return _digest("\n".join(f"{'|'.join(q)} {v}"
                              for q, v in sorted(table.items())))


def test_scission_formula_values():
    assert scission_count(A2, A2, A2) == 0
    assert scission_count(A2, B2, A2) == 1
    assert scission_count(B2, A2, B2) == 1


def test_scission_matches_instrumented_splits():
    for n in (1, 2, 3):
        mats = m.enumerate_matchings(n)
        for c, b, a in product(mats, repeat=3):
            events, _, _ = _plan_of_words(DEFAULT, c.word, b.word, a.word)
            splits = sum(event[0] == "split" for event in events)
            assert splits == scission_count(c, b, a)


def test_phi0_diagonal_trivial():
    assert phi0(DEFAULT, A2, A2, A2, A2) == 1
    assert phi0(ORD, B2, B2, B2, B2) == 1


def test_phi0_undefined_cells_n2():
    assert phi0(DEFAULT, A2, B2, A2, B2) is None
    table = phi0_table(DEFAULT, 2)
    undefined = [q for q, v in table.items() if v is None]
    assert len(undefined) == 2


def test_phi0_nontrivial_cell_exists_n3():
    table = phi0_table(DEFAULT, 3)
    assert any(v == 1 for v in table.values())


def test_full_associator_identity_n2():
    # (xy)z = (-1)^(p(x) S) phi0 x(yz) on every homogeneous basis triple
    table = phi0_table(DEFAULT, 2)
    basis = [bm for bm, _ in ring_basis(2)]
    for mx in basis:
        x = RingElement.monomial(mx)
        for my in basis:
            if mx.bottom != my.top:
                continue
            y = RingElement.monomial(my)
            xy = multiply(DEFAULT, x, y)
            for mz in basis:
                if my.bottom != mz.top:
                    continue
                z = RingElement.monomial(mz)
                left = multiply(DEFAULT, xy, z)
                right = multiply(DEFAULT, x, multiply(DEFAULT, y, z))
                if left.is_zero() and right.is_zero():
                    continue
                S = scission_count(m.Matching(mx.bottom),
                                   m.Matching(my.bottom),
                                   m.Matching(mz.bottom))
                bit = table[mx.top, mx.bottom, my.bottom, mz.bottom]
                assert bit is not None
                sign = (-1) ** (len(mx.colored) * S + bit)
                assert left == right.scale(sign)


@pytest.mark.parametrize("rule_name", ["default", "ord"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_twisted_cocycle(rule_name, n):
    table = phi0_table(BUILTIN_RULES[rule_name], n)
    assert not cocycle_defect(table, n)


def _plain_defects_and_odd_twists(rule_name, n):
    """The 5-cells where d(phi0) is 1, and the defined 5-cells (e,d,c,b,a)
    where S(e,d,c) * S(c,b,a) is odd."""
    table = phi0_table(BUILTIN_RULES[rule_name], n)
    d5 = _coboundary(table, [x.word for x in m.enumerate_matchings(n)], 5)
    odd = {cell for cell in d5
           if scission_count(*map(m.Matching, cell[:3]))
           * scission_count(*map(m.Matching, cell[2:])) & 1}
    return {cell for cell, v in d5.items() if v}, odd


def test_plain_cocycle_holds_at_n2():
    # the cup-square twist vanishes on all defined cells for n <= 2
    for rule_name in ("default", "ord"):
        assert _plain_defects_and_odd_twists(rule_name, 2) == (set(), set())


@pytest.mark.parametrize("rule_name", ["default", "ord"])
def test_plain_cocycle_fails_on_18_quintuples_at_n3(rule_name):
    # exactly where the twist is odd, so the twisted identity holds
    plain, odd = _plain_defects_and_odd_twists(rule_name, 3)
    assert plain == odd and len(plain) == 18


def test_cocycle_defect_computes_each_scission_count_once(monkeypatch):
    # S depends on the triple alone: one call per triple, 125 at n = 3,
    # where two per quintuple made 2,415 on a phi0 table; on the zero
    # table every 5-cell is defined and the defects are the odd twists
    words = [x.word for x in m.enumerate_matchings(3)]
    twisted = {cell for cell in product(words, repeat=5)
               if scission_count(*map(m.Matching, cell[:3]))
               * scission_count(*map(m.Matching, cell[2:])) & 1}
    calls = []

    def counting(*triple):
        calls.append(triple)
        return scission_count(*triple)

    monkeypatch.setattr(associator, "scission_count", counting)
    defects = cocycle_defect(dict.fromkeys(product(words, repeat=4), 0), 3)
    assert len(calls) == len(set(calls)) == 125
    assert defects == dict.fromkeys(twisted, 1)


def test_cochain_checks_reject_a_table_of_another_size(monkeypatch):
    # ValueError before any work unless the keys are exactly the 4-cells
    # of size n; an n = 2 table at n = 3 raised KeyError
    table = phi0_table(DEFAULT, 2)
    missing = dict(table)
    del missing[next(iter(table))]
    swapped = {**missing, ("()",) * 4: 0}

    def no_work(*args):
        raise AssertionError("work done before the table was checked")

    monkeypatch.setattr(associator, "_coboundary", no_work)
    monkeypatch.setattr(associator, "_primitive", no_work)
    for bad, n in ((table, 3), (table, 1), (missing, 2), (swapped, 2),
                   ({}, 1)):
        for call in (cocycle_defect, solve_coboundary):
            with pytest.raises(ValueError, match="4-cells of size"):
                call(bad, n)


def test_coboundary_solution_n2():
    table = phi0_table(DEFAULT, 2)
    lam = solve_coboundary(table, 2)
    assert lam is not None
    # re-check d^2(lam) = table entrywise on defined cells
    for (d, c, b, a), v in table.items():
        if v is not None:
            assert (lam[c, b, a] ^ lam[d, b, a] ^ lam[d, c, a]
                    ^ lam[d, c, b]) == v


def test_zero_table_zero_solution():
    words = [x.word for x in m.enumerate_matchings(1)]
    table = {(d, c, b, a): 0 for d in words for c in words
             for b in words for a in words}
    lam = solve_coboundary(table, 1)
    assert lam is not None and all(v == 0 for v in lam.values())


def test_rule_sign_ratio():
    assert rule_sign_ratio(DEFAULT, DEFAULT, A2, B2, A2) == 1
    one_flip = FlippedRule(DEFAULT, [("(())", "()()", "(())")])
    assert rule_sign_ratio(DEFAULT, one_flip, A2, B2, A2) == -1
    # merge-only triple: orientation choices cannot matter
    assert rule_sign_ratio(DEFAULT, FlippedRule(DEFAULT), A2, A2, B2) == 1


def test_eta_table_size_limit():
    with pytest.raises(ValueError, match="out of range"):
        eta_table(DEFAULT, DEFAULT, 5)


def test_eta_table_self_is_zero():
    eta = eta_table(DEFAULT, DEFAULT, 2)
    assert all(v == 0 for v in eta.values())


def test_isomorphism_for_global_flip():
    flip = FlippedRule(DEFAULT)
    diff, eps = compare_rules(DEFAULT, flip, 2)
    assert diff is None
    assert eps is not None
    assert any(v == 1 for v in eps.values())  # a genuinely nontrivial pair


def test_no_sign_isomorphism_default_ord_n2():
    # equal associators, and d(eta) vanishes wherever phi0 is defined, but
    # eta is no coboundary, so no x -> +-x relates the two rules
    diff, eps = compare_rules(DEFAULT, ORD, 2)
    assert diff is None
    eta = eta_table(DEFAULT, ORD, 2)
    table = phi0_table(DEFAULT, 2)
    defect = {q for q, v in _coboundary(eta, words_of(2), 4).items() if v}
    assert defect == {q for q, v in table.items() if v is None}
    assert len(defect) == 2
    assert _primitive(eta, words_of(2), 3) is None
    assert eps is None


def test_identity_isomorphism():
    eps = compare_rules(DEFAULT, DEFAULT, 2)[1]
    assert eps is not None and all(v == 0 for v in eps.values())


# sha256 prefixes of the sorted tables, pinned on the code before the
# caller-scoped product memo
PHI0_DIGESTS = {
    (2, "default"): "5d6a754e7fca39f0",
    (2, "ord"): "5d6a754e7fca39f0",
    (2, "flip"): "5d6a754e7fca39f0",
    (3, "default"): "737006c75ea077fa",
    (3, "ord"): "8cfa6e19b2840b21",
    (3, "flip"): "737006c75ea077fa",
}


@pytest.mark.parametrize("n, rule_name", sorted(PHI0_DIGESTS))
def test_golden_phi0_digests(n, rule_name):
    table = phi0_table(RULES[rule_name], n)
    assert table_digest(table) == PHI0_DIGESTS[n, rule_name]


def test_golden_eta_digest():
    assert table_digest(eta_table(DEFAULT, FLIP, 2)) == "c5b364003ffca527"


# pinned on the code that built eta from one product per monomial pair
@pytest.mark.parametrize("rule2, want", [(ORD, "98804e7a9e3eb9a9"),
                                         (FLIP, "64d871efc12b8174")],
                         ids=["ord", "flip"])
def test_golden_eta_digests_n3(rule2, want):
    assert table_digest(eta_table(DEFAULT, rule2, 3)) == want


def test_compare_rules_default_flip_n3():
    diff, eps = compare_rules(DEFAULT, FLIP, 3)
    assert diff is None
    assert len(eps) == 25 and sum(eps.values()) == 12


@pytest.mark.parametrize("n, flavor, want", [
    (2, "odd", "a884adb6a903c909"), (2, "even", "4d3ee29717adbf5e"),
    (3, "odd", "0906e26c9eebd9b5"), (3, "even", "08552cf0329d05aa"),
    (4, "odd", "9578314b487c3bd2"), (4, "even", "0a761bc8668c14d8"),
    (4, "odd-ring", "0e33ade9236d9ff3")])
def test_golden_structure_constant_digests(n, flavor, want):
    basis = {"odd": lambda: odd_center(n, DEFAULT),
             "odd-ring": lambda: ring_center(n, DEFAULT),
             "even": lambda: even_center(n)}[flavor]()
    table = center_structure_constants(basis, DEFAULT)
    assert _digest(repr(sorted(table.items()))) == want


def test_phi0_table_resolves_each_pair_once_per_call(monkeypatch):
    # counted as perfbench's tracer counts resolutions: the memo lives for
    # one phi0_table call, so a second call resolves every pair again
    from arcring import arc_rings
    calls = []
    real = arc_rings._resolve_monomials

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(arc_rings, "_resolve_monomials", counting)
    for _ in range(2):
        calls.clear()
        phi0_table(DEFAULT, 3)
        # the pairs of the 325 cells phi0 runs on (see the test below)
        assert len(calls) == 2144
        assert len(set(calls)) == 2144


def test_phi0_table_multiply_calls_n3(monkeypatch):
    # y.z is multiplied once per cell, not once per x, and phi0 runs on the
    # 325 cells whose words are <= their reverse: 61,224 products (112,080
    # on all 625 cells, 146,440 with y.z inside the x loop) for the 2,144
    # resolutions of the test above; a change in how many products phi0
    # makes shows up here
    calls = []
    real = associator.multiply

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(associator, "multiply", counting)
    phi0_table(DEFAULT, 3)
    assert len(calls) == 61224


def test_tables_build_each_block_once(monkeypatch):
    # the 25 blocks of n = 3 are built once per phi0 table, not once per
    # cell (1,875 builds for its 625 cells); eta reads block maps and
    # builds no block elements
    calls = []
    real = associator.block_monomials

    def counting(top, bottom):
        calls.append((top.word, bottom.word))
        return real(top, bottom)

    monkeypatch.setattr(associator, "block_monomials", counting)
    phi0_table(DEFAULT, 3)
    assert len(calls) == len(set(calls)) == 25
    calls.clear()
    eta_table(DEFAULT, ORD, 3)
    assert calls == []


def per_cell_table(rule, n):
    """phi0 on every cell, without the transpose."""
    memo, blocks = {}, {}
    table = {}
    for cell in product(m.enumerate_matchings(n), repeat=4):
        s = phi0(rule, *cell, memo=memo, blocks=blocks)
        words = tuple(x.word for x in cell)
        table[words] = None if s is None else (1 - s) // 2
    return table


# one flipped triple, not its mirror: the transpose check fails
ONE_FLIP = FlippedRule(DEFAULT, [("((()))", "(()())", "()()()")])


def random_flip(n, seed):
    rng = random.Random(seed)
    words = words_of(n)
    return FlippedRule(DEFAULT, [t for t in product(words, repeat=3)
                                 if rng.random() < 0.5])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("rule_name", ["default", "ord", "random-flip"])
def test_phi0_table_equals_the_per_cell_table(rule_name, n):
    # default and ord take the halved table, and so does every flip set at
    # n = 2, where a triple with a split has c = a and is its own mirror; the
    # random flip set at n = 3 takes the fallback
    rule = BUILTIN_RULES.get(rule_name) or random_flip(n, seed=n)
    halved = rule_name != "random-flip" or n == 2
    assert (transpose_witness(rule, n) is None) == halved
    assert phi0_table(rule, n) == per_cell_table(rule, n)


def test_phi0_table_falls_back_where_the_transpose_fails(monkeypatch):
    # without its check the halved table is wrong under ONE_FLIP, so the
    # transpose witness is load-bearing
    want = per_cell_table(ONE_FLIP, 3)
    assert phi0_table(ONE_FLIP, 3) == want
    monkeypatch.setattr(associator, "transpose_witness", lambda rule, n: None)
    forced = phi0_table(ONE_FLIP, 3)
    assert sum(forced[cell] != want[cell] for cell in want) == 5


def test_tables_reject_a_rule_that_is_no_rule(monkeypatch):
    # ValueError before any product or block map, not an AttributeError
    def no_work(*args, **kwargs):
        raise AssertionError("work done before the rule was checked")

    for module in (arc_rings, associator):
        monkeypatch.setattr(module, "block_map", no_work)
    monkeypatch.setattr(associator, "phi0", no_work)
    for call in (lambda: phi0_table("default", 2),
                 lambda: eta_table(DEFAULT, "ord", 2),
                 lambda: eta_table(None, DEFAULT, 2),
                 lambda: compare_rules("default", DEFAULT, 2),
                 lambda: compare_rules(DEFAULT, "ord", 2),
                 lambda: transpose_witness("default", 2)):
        with pytest.raises(ValueError, match="not a multiplication rule"):
            call()


def test_cells_reject_a_rule_that_is_no_rule():
    # ValueError, not AttributeError, from the plan of the first product
    for call in (lambda: phi0("default", A2, B2, A2, B2),
                 lambda: rule_sign_ratio("default", DEFAULT, A2, B2, A2),
                 lambda: rule_sign_ratio(DEFAULT, "ord", A2, B2, A2)):
        with pytest.raises(ValueError, match="not a multiplication rule"):
            call()


def test_proportionality_raises_on_an_inconsistent_sign():
    x, y = [RingElement.monomial(mono) for mono, _ in ring_basis(1)]

    def proportionality(triples):
        # the maps go in as term dicts, as phi0 and rule_sign_ratio pass them
        return associator._proportionality(
            (left.terms, right.terms, f) for left, right, f in triples)

    assert proportionality([(x, x, 1), (y, y, 1)]) == 1
    assert proportionality([(x, -x, 1), (-y, y, 1)]) == -1
    assert proportionality([(x, -x, -1), (y, y, 1)]) == 1
    assert proportionality([(x.scale(0), y.scale(0), 1)]) is None
    for triples, message in (
            ([(x, x, 1), (y, -y, 1)], "inconsistent proportionality sign"),
            ([(x, x, 1), (y, y, -1)], "inconsistent proportionality sign"),
            ([(x, x.scale(2), 1)], "not proportional by a sign"),
            ([(x, y, 1)], "not proportional by a sign"),
            ([(x + y, x - y, 1)], "not proportional by a sign"),
            ([(x, x.scale(0), 1)], "zero pattern mismatch")):
        with pytest.raises(AssertionError, match=message):
            proportionality(triples)


def test_eta_undefined_where_block_maps_vanish_n3():
    # six odd block maps vanish identically at n = 3; their eta cells are
    # None and the rule isomorphism is still built and verified
    eta = eta_table(DEFAULT, FLIP, 3)
    undefined = sorted(t for t, v in eta.items() if v is None)
    assert len(undefined) == 6
    assert ("((()))", "(())()", "()(())") in undefined
    assert rule_sign_ratio(DEFAULT, FLIP, *map(m.Matching, undefined[0])) \
        is None
    # (the flip-default isomorphism at n = 3 is checked through the CLI)
    eps = compare_rules(DEFAULT, DEFAULT, 3)[1]
    assert eps is not None and not any(eps.values())


def words_of(n):
    return [x.word for x in m.enumerate_matchings(n)]


@pytest.mark.parametrize("n", [2, 3])
def test_coboundary_squares_to_zero(n):
    # d(d(lambda)) = 0 for a random fully defined 3-cochain
    rng = random.Random(n)
    words = words_of(n)
    lam = {t: rng.randint(0, 1) for t in product(words, repeat=3)}
    dlam = _coboundary(lam, words, 4)
    assert len(dlam) == len(words) ** 4 and any(dlam.values())
    ddlam = _coboundary(dlam, words, 5)
    assert len(ddlam) == len(words) ** 5 and not any(ddlam.values())


@pytest.mark.parametrize("n, k", [(2, 3), (2, 4), (3, 4)])
def test_primitive_of_a_coboundary(n, k):
    # _primitive(d(lambda)) is a canonical primitive: its coboundary is
    # d(lambda), and with some cells undefined it still matches the rest
    rng = random.Random(10 * n + k)
    words = words_of(n)
    lam = {t: rng.randint(0, 1) for t in product(words, repeat=k - 1)}
    dlam = _coboundary(lam, words, k)
    prim = _primitive(dlam, words, k)
    assert _coboundary(prim, words, k) == dlam
    holes = dict(dlam)
    for cell in rng.sample(sorted(holes), len(holes) // 10):
        holes[cell] = None
    dprim = _coboundary(_primitive(holes, words, k), words, k)
    assert all(v is None or v == dprim[cell] for cell, v in holes.items())
    # a single flipped bit on a fully defined cochain is no coboundary
    flipped = dict(dlam)
    flipped[(words[0],) * k] ^= 1
    assert _primitive(flipped, words, k) is None


def test_primitive_solves_the_n4_nerve_system():
    # 14 matchings: 38,416 rows in 2,744 unknowns
    rng = random.Random(4)
    words = words_of(4)
    lam = {t: rng.randint(0, 1) for t in product(words, repeat=3)}
    dlam = _coboundary(lam, words, 4)
    start = time.perf_counter()
    prim = _primitive(dlam, words, 4)
    assert time.perf_counter() - start < 20
    assert prim is not None and len(prim) == 2744
    assert _coboundary(prim, words, 4) == dlam


def _two_table_compare(rule1, rule2, n):
    """compare_rules as it was built on both phi0 tables: the first cell
    where they differ, else eps from eta, which must be a 2-cocycle
    wherever the shared table is defined."""
    t1, t2 = _phi0_tables(rule1, n), _phi0_tables(rule2, n)
    diff = next((quad for quad in sorted(t1) if t1[quad] != t2[quad]), None)
    if diff is not None:
        return diff, None
    eta, words = eta_table(rule1, rule2, n), words_of(n)
    assert not any(v and t1[quad] is not None
                   for quad, v in _coboundary(eta, words, 4).items())
    return None, _primitive(eta, words, 3)


def _half_flip(base, seed):
    """base with split orientations reversed on a seeded half of the
    triples of sizes 1..3."""
    triples = [t for n in (1, 2, 3) for t in product(words_of(n), repeat=3)]
    rng = random.Random(seed)
    return FlippedRule(base, rng.sample(triples, len(triples) // 2))


SIX_RULES = {"default": DEFAULT, "ord": ORD, "flip-default": FLIP,
             "flip-ord": FlippedRule(ORD),
             "half-default": _half_flip(DEFAULT, 1),
             "half-ord": _half_flip(ORD, 2)}
_phi0_tables = lru_cache(maxsize=None)(phi0_table)


@pytest.mark.parametrize("n, rule1, rule2", [
    (n, r1, r2) for n in (1, 2) for r1 in SIX_RULES for r2 in SIX_RULES] + [
    (3, "default", "ord"), (3, "default", "flip-default"),
    (3, "default", "half-default"), (3, "ord", "flip-ord"),
    (3, "half-ord", "ord"), (3, "half-default", "half-ord"),
    (3, "flip-ord", "default")])
def test_compare_rules_matches_the_two_table_oracle(n, rule1, rule2):
    rules = SIX_RULES[rule1], SIX_RULES[rule2]
    assert compare_rules(*rules, n) == _two_table_compare(*rules, n)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rule_name", sorted(SIX_RULES))
def test_phi0_differs_between_rules_by_d_eta(n, rule_name):
    # phi0 under a rule is phi0 under the default times (-1)^d(eta), and
    # undefined on the same cells, d(eta) being defined wherever phi0 is
    eta = eta_table(DEFAULT, SIX_RULES[rule_name], n)
    d = _coboundary(eta, words_of(n), 4)
    want = {cell: None if v is None else v ^ d[cell]
            for cell, v in _phi0_tables(DEFAULT, n).items()}
    assert _phi0_tables(SIX_RULES[rule_name], n) == want


@pytest.mark.parametrize("n", [2, 3])
def test_compare_rules_catches_a_negated_eta_bit(monkeypatch, n):
    # default and flip-default are isomorphic, so eta is a 2-cocycle; with
    # one bit negated, the first cell where d(eta) = 1 and phi0 is defined
    # must be named, as phi0 there keeps its sign under the flipped rule;
    # where there is none, no difference is found
    words, table = words_of(n), _phi0_tables(DEFAULT, n)
    real = eta_table(DEFAULT, FLIP, n)
    caught = 0
    for triple in sorted(t for t, v in real.items() if v is not None):
        eta = dict(real)
        eta[triple] ^= 1
        monkeypatch.setattr(associator, "eta_table", lambda *args: eta)
        want = next((cell for cell, v in _coboundary(eta, words, 4).items()
                     if v and table[cell] is not None), None)
        if want is None:
            assert compare_rules(DEFAULT, FLIP, n)[0] is None
            continue
        with pytest.raises(AssertionError) as info:
            compare_rules(DEFAULT, FLIP, n)
        assert str(info.value) == (f"phi0 keeps its sign at "
                                   f"{'|'.join(want)}, where d(eta) = 1")
        caught += 1
    assert caught >= len(real) // 2


@pytest.mark.parametrize("other", ["flip-default", "default", "ord"])
def test_compare_builds_no_phi0_table(monkeypatch, capsys, other):
    def no_table(rule, n):
        raise AssertionError("compare built a phi0 table")

    monkeypatch.setattr(associator, "phi0_table", no_table)
    want = 1 if other == "ord" else 0
    assert main(["assoc", "--n", "3", "--compare", other]) == want
    assert "associators " in capsys.readouterr().out


def test_compare_runs_phi0_on_the_first_difference_only(monkeypatch):
    # between default and ord at n = 3, phi0 under default runs on the
    # cells where d(eta) is 1 until it is defined, on the third, and under
    # ord on that one only; isomorphic rules need no phi0 at all
    calls = []
    real = associator.phi0

    def counting(rule, *cell, **kwargs):
        calls.append(rule)
        return real(rule, *cell, **kwargs)

    monkeypatch.setattr(associator, "phi0", counting)
    assert compare_rules(DEFAULT, FLIP, 3)[0] is None and calls == []
    assert compare_rules(DEFAULT, ORD, 3)[0] == (
        "((()))", "(()())", "(())()", "((()))")
    assert calls == [DEFAULT] * 3 + [ORD]
