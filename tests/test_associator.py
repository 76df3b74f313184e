from itertools import product

import pytest

from arcring import matchings as m
from arcring.arc_rings import (RingElement, ring_basis, multiply,
                               BUILTIN_RULES, FlippedRule, _plan)
from arcring.associator import (scission_count, phi0, UndefinedSign,
                                cocycle_defect, solve_coboundary,
                                rule_sign_ratio, eta_table,
                                first_phi0_difference, build_rule_isomorphism)
from conftest import phi0_table_cached

DEFAULT = BUILTIN_RULES["default"]
ORD = BUILTIN_RULES["ord"]
A2 = m.Matching("(())")
B2 = m.Matching("()()")


def test_scission_formula_values():
    assert scission_count(A2, A2, A2) == 0
    assert scission_count(A2, B2, A2) == 1
    assert scission_count(B2, A2, B2) == 1


def test_scission_matches_instrumented_splits():
    for n in (1, 2, 3):
        mats = m.enumerate_matchings(n)
        for c, b, a in product(mats, repeat=3):
            plan = _plan(DEFAULT, c, b, a)
            splits = sum(event[0] == "split" for event in plan)
            assert splits == scission_count(c, b, a)


def test_phi0_diagonal_trivial():
    assert phi0(DEFAULT, A2, A2, A2, A2) == 1
    assert phi0(ORD, B2, B2, B2, B2) == 1


def test_phi0_undefined_cells_n2():
    with pytest.raises(UndefinedSign):
        phi0(DEFAULT, A2, B2, A2, B2)
    table = phi0_table_cached("default", 2)
    undefined = [q for q, v in table.items() if v is None]
    assert len(undefined) == 2


def test_phi0_nontrivial_cell_exists_n3():
    table = phi0_table_cached("default", 3)
    assert any(v == 1 for v in table.values())


def test_full_associator_identity_n2():
    # (xy)z = (-1)^(p(x) S) phi0 x(yz) on every homogeneous basis triple
    table = phi0_table_cached("default", 2)
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
    table = phi0_table_cached(rule_name, n)
    assert not cocycle_defect(BUILTIN_RULES[rule_name], n, table)


def test_plain_cocycle_holds_at_n2():
    # the cup-square twist vanishes on all defined cells for n <= 2
    for rule_name in ("default", "ord"):
        table = phi0_table_cached(rule_name, 2)
        assert not cocycle_defect(BUILTIN_RULES[rule_name], 2, table,
                                  twisted=False)


def test_coboundary_solution_n2():
    table = phi0_table_cached("default", 2)
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


def test_eta_table_self_is_zero():
    eta = eta_table(DEFAULT, DEFAULT, 2)
    assert all(v == 0 for v in eta.values())


def test_isomorphism_for_global_flip():
    flip = FlippedRule(DEFAULT)
    assert first_phi0_difference(DEFAULT, flip, 2) is None
    eps = build_rule_isomorphism(DEFAULT, flip, 2)
    assert eps is not None
    assert any(v == 1 for v in eps.values())  # a genuinely nontrivial pair


def test_identity_isomorphism():
    eps = build_rule_isomorphism(DEFAULT, DEFAULT, 2)
    assert eps is not None and all(v == 0 for v in eps.values())
