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


def _components(a, b):
    """Root of each point 1..2n under a union-find of the arcs of a and b."""
    root = list(range(2 * a.n + 1))

    def find(p):
        while root[p] != p:
            p = root[p]
        return p

    for p in range(1, 2 * a.n + 1):
        for q in (a.partner[p], b.partner[p]):
            root[find(p)] = find(q)
    return [find(p) for p in range(2 * a.n + 1)]


def test_closed_diagram_circles():
    # checked against a union-find of the arcs, not against the walk
    for n in range(1, 5):
        for a in m.enumerate_matchings(n):
            for b in m.enumerate_matchings(n):
                pos, count = m.closed_diagram(b, a)
                assert isinstance(pos, tuple)
                points = range(1, 2 * n + 1)
                for p in points:
                    assert pos[p] == pos[a.partner[p]] == pos[b.partner[p]]
                # numbered by least point: first seen in point order
                first_seen = list(dict.fromkeys(pos[1:]))
                assert first_seen == list(range(1, count + 1))
                roots = _components(a, b)
                assert count == len({roots[p] for p in points})
                assert count == len({(roots[p], pos[p]) for p in points})


def test_closed_diagram_and_distance_reject_size_mismatch():
    a, b = m.Matching("()"), m.Matching("(())")
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="size mismatch"):
            m.closed_diagram(x, y)
        with pytest.raises(ValueError, match="size mismatch"):
            m.distance(x, y)


def test_circle_count_vs_distance():
    # |circles of W(b)a| = n - d(a,b)
    for n in (1, 2, 3):
        for a in m.enumerate_matchings(n):
            for b in m.enumerate_matchings(n):
                k = m.closed_diagram(b, a)[1]
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


def test_one_matching_per_word():
    # Matching(w) is the registry's object, the one enumeration holds, so
    # matchings compare by identity
    for n in range(1, 5):
        for a in m.enumerate_matchings(n):
            assert m.Matching(a.word) is m.Matching(a.word) is a
            assert m.MATCHINGS[a.word] is a
    assert "__eq__" not in vars(m.Matching)
    assert "__hash__" not in vars(m.Matching)


def test_refused_words_are_not_registered():
    bad = ("(()", "))((", "(x)", "()" * 13, "")
    for word in bad + (5, ["()"], None):
        for _ in range(2):
            with pytest.raises(ValueError):
                m.Matching(word)
    assert not set(bad) & set(m.MATCHINGS)


def test_closed_diagram_cache_meets_constructed_matchings():
    mats = [a for n in range(1, 5) for a in m.enumerate_matchings(n)]
    for b in mats:
        for a in mats:
            if a.n == b.n:
                m.closed_diagram(b, a)
    size = m.closed_diagram.cache_info().currsize
    for b in mats:
        for a in mats:
            if a.n == b.n:
                m.closed_diagram(m.Matching(b.word), m.Matching(a.word))
    assert m.closed_diagram.cache_info().currsize == size


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
    ("center", lambda n: centers.center_structure_constants(
        centers.CenterBasis(n, "odd-center"), DEFAULT)),
    ("springer", springer.quotient_presentation),
    ("springer", lambda n: springer.verify_springer_iso(n, DEFAULT)),
    ("springer", springer.even_presentation_check),
    ("assoc", lambda n: associator.phi0_table(DEFAULT, n)),
    ("assoc", lambda n: associator.cocycle_defect({}, n)),
    ("assoc", lambda n: associator.solve_coboundary({}, n)),
    ("relations", lambda n: functors.verify_relations(n, "odd")),
])
def test_size_limits_raise(what, call):
    # n = limit + 1 would run for minutes or more if it were not rejected
    for n in (0, m.SIZE_LIMITS[what] + 1):
        with pytest.raises(ValueError, match="out of range"):
            call(n)
