from math import comb

import pytest

from arcring import arc_rings, associator, centers, functors, springer
from arcring import matchings as m

DEFAULT = arc_rings.BUILTIN_RULES["default"]


def test_enumeration_counts():
    catalan = [1, 2, 5, 14, 42]
    for n, c in zip(range(1, 6), catalan):
        assert len(m.enumerate_matchings(n)) == c


def test_enumeration_order_n2():
    assert [a.word for a in m.enumerate_matchings(2)] == ["(())", "()()"]


def test_partner_involution():
    for a in m.enumerate_matchings(3):
        for p in range(1, 7):
            assert a.partner[a.partner[p]] == p


def test_closed_diagram_circles():
    a = m.Matching("(())")
    b = m.Matching("()()")
    diag = m.closed_diagram(a, a)
    assert diag.circles == (frozenset({1, 4}), frozenset({2, 3}))
    mixed = m.closed_diagram(b, a)
    assert len(mixed.circles) == 1


def test_circle_count_vs_distance():
    # |circles of W(b)a| = n - d(a,b)
    for n in (1, 2, 3):
        for a in m.enumerate_matchings(n):
            for b in m.enumerate_matchings(n):
                k = len(m.closed_diagram(b, a).circles)
                assert k == n - m.distance(a, b)


def test_distance_symmetry_and_triangle():
    mats = m.enumerate_matchings(3)
    for a in mats:
        assert m.distance(a, a) == 0
        for b in mats:
            assert m.distance(a, b) == m.distance(b, a)
            for c in mats:
                assert m.distance(a, c) <= m.distance(a, b) + m.distance(b, c)


def test_arrows_n2():
    a = m.Matching("(())")
    b = m.Matching("()()")
    assert m.is_arrow(b, a)
    assert not m.is_arrow(a, b)
    assert not m.is_arrow(a, a)


def test_lower_arc_identity():
    for n in range(1, 7):
        total = sum(2 ** m.lower_arc_count(a) for a in m.enumerate_matchings(n))
        assert total == comb(2 * n, n)


def test_bad_word_rejected():
    with pytest.raises(ValueError):
        m.Matching("(()")
    with pytest.raises(ValueError):
        m.Matching("))((")


@pytest.mark.parametrize("what, call", [
    ("matching", m.enumerate_matchings),
    ("matching", lambda n: m.Matching("()" * n)),
    ("basis", arc_rings.ring_basis),
    ("center", lambda n: centers.odd_center(n, DEFAULT)),
    ("center", lambda n: centers.ring_center(n, DEFAULT)),
    ("center", centers.even_center),
    ("structure_constants", lambda n: centers.center_structure_constants(
        centers.CenterBasis(n, "odd-center"), DEFAULT)),
    ("springer", springer.quotient_presentation),
    ("springer", lambda n: springer.verify_springer_iso(n, DEFAULT)),
    ("springer", springer.even_presentation_check),
    ("assoc", lambda n: associator.phi0_table(DEFAULT, n)),
    ("assoc", lambda n: associator.cocycle_defect(DEFAULT, n)),
    ("assoc", lambda n: associator.solve_coboundary({}, n)),
    ("relations", lambda n: functors.verify_relations(n, "odd")),
])
def test_size_limits_raise(what, call):
    # n = limit + 1 would run for minutes or more if it were not rejected
    for n in (0, m.SIZE_LIMITS[what] + 1):
        with pytest.raises(ValueError, match="out of range"):
            call(n)
