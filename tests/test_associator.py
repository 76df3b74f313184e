import hashlib
import random
import time
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
    assert not cocycle_defect(BUILTIN_RULES[rule_name], n, table)


def test_plain_cocycle_holds_at_n2():
    # the cup-square twist vanishes on all defined cells for n <= 2
    for rule_name in ("default", "ord"):
        table = phi0_table(BUILTIN_RULES[rule_name], 2)
        assert not cocycle_defect(BUILTIN_RULES[rule_name], 2, table,
                                  twisted=False)


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


@pytest.mark.parametrize("other, tables", [("flip-default", 2),
                                           ("default", 1)])
def test_compare_builds_each_phi0_table_once(monkeypatch, capsys, other,
                                             tables):
    calls = []
    real = associator.phi0_table

    def counting(rule, n):
        calls.append(rule)
        return real(rule, n)

    monkeypatch.setattr(associator, "phi0_table", counting)
    assert main(["assoc", "--n", "2", "--compare", other]) == 0
    assert "verified isomorphism" in capsys.readouterr().out
    assert len(calls) == tables
