import random
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix

from arcring import matchings
from arcring.arc_rings import (BUILTIN_RULES, BasisMonomial, RingElement,
                               multiply)
from arcring.springer import (OddPolynomial, format_poly, parse_poly,
                              epsilon_generator, quotient_presentation,
                              ideal_slice, map_s, verify_springer_iso,
                              even_presentation_check, qint, qbinom,
                              format_laurent, _degree_monomials,
                              _eps_indices, _generator_action_holds,
                              _slice_columns)
from arcring.zlinalg import column_hnf, hnf_columns
from conftest import odd_center_cached

DEFAULT = BUILTIN_RULES["default"]

quotient_cached = lru_cache(maxsize=None)(quotient_presentation)

# The basis the greedy rank loop (greedy_basis below) chose at n = 4,
# recorded from one run of that loop (193 Smith normal forms, 70 s); one
# string of variable indices per monomial.
GREEDY_BASIS_4 = {
    0: [""],
    1: "1 2 3 4 5 6 7".split(),
    2: ("12 13 14 15 16 17 23 24 25 26 27 34 35 36 37 45 46 47 56 "
        "57").split(),
    3: ("123 124 125 126 127 134 135 136 137 145 146 147 156 157 234 235 "
        "236 237 245 246 247 256 257 345 346 347 356 357").split(),
    4: ("1234 1235 1236 1237 1245 1246 1247 1256 1257 1345 1346 1347 1356 "
        "1357").split(),
    5: [],
}


def greedy_basis(n, d):
    """The basis loop the echelon pass replaced, as an oracle: keep each
    monomial, in order, that raises the Z-rank of the ideal slice together
    with the monomials kept so far (one sympy rank per candidate)."""
    monos = _degree_monomials(2 * n, d)
    gens = ideal_slice(n, d)
    work = (column_hnf([[p.terms.get(m, 0) for p in gens] for m in monos])
            if gens else [[] for _ in monos])
    rank = len(work[0])
    chosen = []
    for mono in monos:
        if rank == len(monos):
            break
        cand = [row + [int(m == mono)] for row, m in zip(work, monos)]
        if Matrix(cand).rank() > rank:
            chosen.append(mono)
            work, rank = cand, rank + 1
    return chosen


def test_anticommutation_normal_form():
    p = OddPolynomial(4, {(2, 1): 1})
    assert p.terms == {(1, 2): -1}
    # squares are kept literally
    q = OddPolynomial(4, {(3, 3): 2})
    assert q.terms == {(3, 3): 2}
    assert (OddPolynomial.generator(4, 1) * OddPolynomial.generator(4, 2)
            + OddPolynomial.generator(4, 2) * OddPolynomial.generator(4, 1)
            ).is_zero()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=5))
def test_normal_form_sign_consistency(word):
    # multiplying generators one by one agrees with direct normalization
    p = OddPolynomial.one(4)
    for i in word:
        p = p * OddPolynomial.generator(4, i)
    assert p == OddPolynomial(4, {tuple(word): 1})


def inversion_sign(word):
    """(-1)^(pairs i < j with word[i] > word[j]): the plain O(r^2) count
    that every odd-polynomial sign is checked against."""
    sign = 1
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                sign = -sign
    return sign


def random_polys(seed, count, nvars, max_len=10, terms=3):
    """Seeded polynomials of up to `terms` words of up to `max_len` indices
    in 1..nvars, repeats allowed, each sorted with coefficient 1..3."""
    rng = random.Random(seed)
    for _ in range(count):
        yield OddPolynomial(nvars, {
            tuple(sorted(rng.randint(1, nvars)
                         for _ in range(rng.randint(0, max_len)))):
            rng.randint(1, 3) for _ in range(rng.randint(1, terms))})


def reference_product(p, q):
    terms = Counter()
    for mx, cx in p.terms.items():
        for my, cy in q.terms.items():
            terms[tuple(sorted(mx + my))] += inversion_sign(mx + my) * cx * cy
    return {m: c for m, c in terms.items() if c}


def test_product_signs_match_inversion_count():
    polys = list(random_polys(1, 200, 6))
    for p, q in zip(polys, polys[1:]):
        assert (p * q).terms == reference_product(p, q)


def test_slice_column_signs_match_inversion_count():
    # degree 11 has no eps^I_r at n = 3, so every column is some x_i * col
    previous = [p.terms for p in random_polys(2, 40, 6)]
    assert _slice_columns(3, 11, previous) == [
        {tuple(sorted((i,) + m)): inversion_sign((i,) + m) * c
         for m, c in col.items()}
        for col in previous for i in range(1, 7)]


def test_epsilon_signs_match_inversion_count():
    # eps^I_r is the degree-r part of prod_{i in I, increasing} (1 + y_i),
    # y_i = (-1)^(pos_I(i) - 1) x_i, multiplied out by the reference product;
    # I is passed unsorted
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        I = rng.sample(range(1, 2 * n + 1), n + k)
        r = rng.randint(n - k + 1, n + k)
        full = {(): 1}
        for pos, i in enumerate(sorted(I)):
            full = reference_product(
                OddPolynomial(2 * n, full),
                OddPolynomial(2 * n, {(): 1, (i,): (-1) ** pos}))
        assert epsilon_generator(n, I, r).terms == {
            m: c for m, c in full.items() if len(m) == r}, (n, I, r)


def test_map_s_signs_match_inversion_count():
    for n in (2, 3, 4, 5):
        for p in random_polys(4 + n, 30, 2 * n, n + 1, 4):
            want = Counter()
            for a in matchings.enumerate_matchings(n):
                pos = matchings.closed_diagram(a, a)[0]
                for mono, coeff in p.terms.items():
                    labels = [pos[i] for i in mono]
                    if len(set(labels)) == len(labels):
                        want[BasisMonomial(a.word, a.word, labels)] += (
                            inversion_sign(labels) * coeff)
            assert map_s(p, n) == RingElement(n, want), p


def test_poly_parse_format_roundtrip():
    s = "x1x3 - 2*x2x2"
    p = parse_poly(s, 4)
    assert p.terms == {(1, 3): 1, (2, 2): -2}
    assert format_poly(p) == s
    assert format_poly(parse_poly("0", 4)) == "0"
    assert parse_poly("x1 + x2 - x1", 4) == parse_poly("x2", 4)
    assert parse_poly("x2x1 + x1x2", 4).is_zero()
    for bad in ("x9", "", "   ", "2*"):
        with pytest.raises(ValueError):
            parse_poly(bad, 4)


def test_epsilon_golden():
    assert epsilon_generator(2, (1, 2, 3, 4), 1) == parse_poly(
        "x1 - x2 + x3 - x4", 4)
    assert epsilon_generator(2, (1, 2, 3, 4), 2) == parse_poly(
        "-x1x2 + x1x3 - x1x4 - x2x3 + x2x4 - x3x4", 4)
    assert epsilon_generator(2, (1, 2, 3), 2) == parse_poly(
        "-x1x2 + x1x3 - x2x3", 4)


def test_epsilon_parameter_ranges():
    with pytest.raises(ValueError):
        epsilon_generator(2, (1, 2), 1)  # |I| = n+k needs k >= 1
    with pytest.raises(ValueError):
        epsilon_generator(2, (1, 2, 3), 4)  # r > n+k


def test_quotient_n1():
    q = quotient_presentation(1)
    assert q.graded_rank == {0: 1, 1: 1, 2: 0}
    assert q.basis[1] == [(1,)]
    # relations: x1 = x2 and x1x2 = 0
    assert q.reduces_to_zero(parse_poly("x1 - x2", 2))
    assert q.reduces_to_zero(parse_poly("x1x2", 2))


def test_quotient_n2():
    q = quotient_presentation(2)
    assert q.graded_rank == {0: 1, 1: 3, 2: 2, 3: 0}
    assert q.basis[1] == [(1,), (2,), (3,)]
    assert q.basis[2] == [(1, 2), (1, 3)]
    assert q.reduces_to_zero(parse_poly("x3x4 + x1x2", 4))


def test_quotient_total_rank_and_squares():
    for n in (1, 2, 3):
        q = quotient_presentation(n)
        assert sum(q.graded_rank.values()) == comb(2 * n, n)
        assert q.graded_rank[n + 1] == 0
        for i in range(1, 2 * n + 1):
            assert q.reduces_to_zero(OddPolynomial(2 * n, {(i, i): 1}))


def test_quotient_n4():
    q = quotient_cached(4)
    assert q.graded_rank == {0: 1, 1: 7, 2: 20, 3: 28, 4: 14, 5: 0}
    assert {d: ["".join(map(str, m)) for m in q.basis[d]]
            for d in q.basis} == GREEDY_BASIS_4
    assert q.reduces_to_zero(OddPolynomial(8, {(1, 2, 3, 4, 5): 1}))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_standard_monomials_are_the_greedy_basis(n):
    q = quotient_cached(n)
    for d in range(n + 2):
        assert q.basis[d] == greedy_basis(n, d), d


def ballot_monomials(n, d):
    """x_{i_1}...x_{i_d} with i_1 < ... < i_d and i_{d-k} <= 2n - 2k - 1
    for k = 0..d-1, in combinations order."""
    return [m for m in combinations(range(1, 2 * n + 1), d)
            if all(m[d - 1 - k] <= 2 * n - 2 * k - 1 for k in range(d))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_standard_monomials_are_the_ballot_monomials(n):
    q = quotient_cached(n)
    for d in range(n + 2):
        assert q.basis[d] == ballot_monomials(n, d), d


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slice_pivots_are_units(n):
    # unit pivots make every slice saturated, so the quotient has no torsion
    q = quotient_cached(n)
    for d, echelon in q.ideal_hnf.items():
        assert all(col[r] == 1 for r, col in echelon.items()), d


def test_basis_coordinates_reduce_mod_ideal():
    q = quotient_cached(2)
    # x4 = x1 - x2 + x3 and x3x4 = -x1x2 in the quotient; basis x1 x2 x3,
    # then x1x2 x1x3
    assert q.basis_coordinates(parse_poly("x4", 4)) == (0, 1, -1, 1, 0, 0)
    assert q.basis_coordinates(parse_poly("x3x4", 4)) == (0, 0, 0, 0, -1, 0)
    assert q.basis_coordinates(parse_poly("x1x2x3", 4)) == (0,) * 6


def test_non_unit_pivots(monkeypatch):
    """A degree-1 slice whose HNF pivot is 2 (the real slices have unit
    pivots) is refused with its degree named: a saturated one, where the
    standard monomial x1 would leave x2 without coordinates, and a torsion
    one.  The other degrees come from the `ideal_slice` oracle."""
    import arcring.springer as sp

    for text in ("x1 + 2*x2", "2*x1 - 2*x2"):
        monkeypatch.setattr(sp, "_slice_columns",
                            lambda n, d, previous, text=text: (
                                [parse_poly(text, 2).terms] if d == 1
                                else [p.terms for p in ideal_slice(n, d)]))
        with pytest.raises(AssertionError, match="degree 1 has a pivot"):
            sp.QuotientPresentation(1)


def test_quotient_rejects_polynomials_of_another_size():
    # x1 of OPol_2 is no element of OPol_4 (it was read as x1 of OPol_4),
    # and x5 of OPol_6 and x1x1x2 of OPol_2 raised KeyError
    q = quotient_cached(2)
    for p in (parse_poly("x1", 2), parse_poly("x5", 6),
              parse_poly("x1x1x2", 2)):
        for call in (q.basis_coordinates, q.reduces_to_zero):
            with pytest.raises(ValueError, match="variables, need 4"):
                call(p)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_incremental_slices_match_ideal_slice(n):
    # the echelon built from the previous degree's echelon is the HNF of
    # the full ideal_slice in every degree
    q = quotient_cached(n)
    for d in range(n + 2):
        row = q._row[d]
        assert q.ideal_hnf[d] == hnf_columns(
            {row[m]: c for m, c in p.terms.items()}
            for p in ideal_slice(n, d)), d


def test_left_ideal_equals_right_ideal():
    # ideal_slice spans the left ideal by the m * eps; the eps * m span the
    # same lattice
    for n in (1, 2):
        nvars = 2 * n
        for d in range(n + 2):
            monos = _degree_monomials(nvars, d)
            row_of = {mo: i for i, mo in enumerate(monos)}

            def mat(polys):
                cols = []
                for p in polys:
                    col = [0] * len(monos)
                    for mo, c in p.terms.items():
                        col[row_of[mo]] = c
                    cols.append(col)
                return ([[c[i] for c in cols] for i in range(len(monos))]
                        if cols else [[] for _ in monos])

            right = [epsilon_generator(n, I, r) * OddPolynomial(nvars,
                                                                 {mo: 1})
                     for I, r in _eps_indices(n) if r <= d
                     for mo in _degree_monomials(nvars, d - r)]
            assert column_hnf(mat(ideal_slice(n, d))) == column_hnf(
                mat(right))


def test_mod2_basis_stability():
    # the chosen monomial basis stays a basis after reduction mod 2
    for n in (1, 2):
        q = quotient_presentation(n)
        for d in range(n + 1):
            monos = _degree_monomials(2 * n, d)
            # row i of the echelon is the monomial monos[-1 - i]
            cols = [[col.get(len(monos) - 1 - i, 0) for i in range(len(monos))]
                    for col in q.ideal_hnf[d].values()]
            for bm in q.basis[d]:
                cols.append([1 if mo == bm else 0 for mo in monos])
            # mod-2 rank of [ideal | basis] columns must be full in each slice
            A = [[c[i] & 1 for c in cols] for i in range(len(monos))]
            rank = 0
            rows = [row[:] for row in A]
            ncols = len(cols)
            for c in range(ncols):
                piv = next((i for i in range(rank, len(rows)) if rows[i][c]),
                           None)
                if piv is None:
                    continue
                rows[rank], rows[piv] = rows[piv], rows[rank]
                for i in range(len(rows)):
                    if i != rank and rows[i][c]:
                        rows[i] = [x ^ y for x, y in zip(rows[i], rows[rank])]
                rank += 1
            assert rank == len(monos), (n, d)


def test_map_s_golden():
    x1 = map_s(OddPolynomial.generator(4, 1), 2)
    assert format_poly is not None
    assert str(x1) == "1*[(())|(())|{1}] + 1*[()()|()()|{1}]"
    assert map_s(parse_poly("x1 - x2 + x3 - x4", 4), 2).is_zero()


def test_map_s_epsilons_vanish():
    for n in (1, 2, 3):
        nvars = 2 * n
        from itertools import combinations
        for k in range(1, n + 1):
            for I in combinations(range(1, nvars + 1), n + k):
                for r in range(max(1, n - k + 1), n + k + 1):
                    assert map_s(epsilon_generator(n, I, r), n).is_zero()


def test_map_s_center_membership():
    oz = odd_center_cached("default", 2)
    img = map_s(parse_poly("x1x2", 4), 2)
    assert not img.is_zero()
    assert oz.contains(img)


@pytest.mark.parametrize("n, rule_name", [
    (1, "default"), (1, "ord"), (2, "default"), (2, "ord"), (3, "default"),
    (3, "ord"), (4, "default"), (5, "default")])
def test_springer_isomorphism(n, rule_name):
    cert = verify_springer_iso(n, BUILTIN_RULES[rule_name])
    assert cert["passed"], cert.get("failed_stage")
    assert list(cert["stages"]) == ["generators_vanish", "injective",
                                    "betti_numbers", "graded_ranks",
                                    "spans_center", "diagonal_wedge",
                                    "structure_constants"]
    assert "witness" not in cert
    assert list(cert["seconds"]) == ["quotient_presentation", "odd_center",
                                     *cert["stages"]]
    # slice d eliminates x_i times each column of the degree-(d-1) echelon,
    # for the 2n variables x_i, plus the eps^I_r with r = d
    q = quotient_cached(n)
    eps_of_degree = Counter(r for _, r in _eps_indices(n))
    assert cert["slice_shape"] == {
        d: (comb(2 * n + d - 1, d),
            2 * n * len(q.ideal_hnf.get(d - 1, {})) + eps_of_degree[d])
        for d in range(n + 2)}
    assert cert["quotient_rank"] == cert["center_rank"] | {n + 1: 0}
    if n == 5:
        assert cert["center_rank"] == {0: 1, 1: 9, 2: 35, 3: 75, 4: 90,
                                       5: 42}


def _all_products_hold(q, images, rule):
    """The check stage (iv) made before the generator action: phi(b b') =
    phi(b) phi(b') for every pair of standard monomials, N^2 products."""
    nvars = 2 * q.n
    basis = [OddPolynomial(nvars, {m: 1})
             for d in range(q.n + 1) for m in q.basis[d]]
    for bi, xi in zip(basis, images):
        for bj, xj in zip(basis, images):
            coords = q.basis_coordinates(bi * bj)
            if coords is None:
                return False
            expect = RingElement.zero(q.n)
            for c, img in zip(coords, images):
                expect = expect + img.scale(c)
            if multiply(rule, xi, xj) != expect:
                return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rule_name", ["default", "ord"])
def test_generator_action_agrees_with_all_products(n, rule_name):
    rule = BUILTIN_RULES[rule_name]
    q = quotient_cached(n)
    images = [map_s(OddPolynomial(2 * n, {m: 1}), n)
              for d in range(n + 1) for m in q.basis[d]]
    assert _generator_action_holds(q, images, rule)
    assert _all_products_hold(q, images, rule)
    # one basis image scaled by -1 (here x1 = images[1]) fails both; at
    # n = 1 the quotient is Z[x1]/(x1^2), where x1 -> -x1 is a ring map
    flipped = list(images)
    flipped[1] = images[1].scale(-1)
    assert _generator_action_holds(q, flipped, rule) == (n == 1)
    assert _all_products_hold(q, flipped, rule) == (n == 1)
    # phi(1) = 1 + (a top-degree image): every x_i * b check still holds,
    # since phi(x_i) kills the top degree, so only phi(1) = unit sees it
    shifted = [images[0] + images[-1]] + images[1:]
    assert not _generator_action_holds(q, shifted, rule)
    assert not _all_products_hold(q, shifted, rule)


def test_springer_iso_fails_on_a_flipped_basis_image(monkeypatch):
    """x1 -> -phi(x1) keeps stages (i)-(iii) and the spanned lattice, and
    only the structure constants see it."""
    import arcring.springer as sp
    real = sp.map_s
    x1 = OddPolynomial.generator(4, 1)
    monkeypatch.setattr(sp, "map_s", lambda p, n: (
        real(p, n).scale(-1) if p == x1 else real(p, n)))
    cert = verify_springer_iso(2, DEFAULT)
    assert cert["failed_stage"] == "structure_constants"
    assert not cert["passed"]


@pytest.mark.parametrize("change", ["drop", "double"])
def test_springer_iso_image_must_span_the_center(monkeypatch, change):
    """Dropping the basis monomial x1 from the quotient, or doubling its
    image, leaves an injective image with the center's graded ranks (the
    quotient's own ranks are untouched) that is not the whole center."""
    import arcring.springer as sp
    x1 = OddPolynomial.generator(4, 1)
    if change == "drop":
        real = sp.quotient_presentation

        def fewer(n):
            q = real(n)
            q.basis[1] = q.basis[1][1:]
            return q
        monkeypatch.setattr(sp, "quotient_presentation", fewer)
    else:
        real = sp.map_s
        monkeypatch.setattr(sp, "map_s", lambda p, n: (
            real(p, n).scale(2) if p == x1 else real(p, n)))
    cert = verify_springer_iso(2, DEFAULT)
    assert cert["stages"] == {"generators_vanish": True, "injective": True,
                              "betti_numbers": True, "graded_ranks": True,
                              "spans_center": False}
    assert cert["failed_stage"] == "spans_center"


def test_springer_iso_checks_the_diagonal_wedge(monkeypatch):
    """One diagonal product with its sign flipped, x1 . x2 on the block
    (()), fails the wedge stage, before the structure constants rely on
    associativity there, and names the block and the pair."""
    import arcring.centers as ce
    from arcring.arc_rings import BasisMonomial
    x1, x2 = (BasisMonomial("(())", "(())", {i}) for i in (1, 2))
    real = ce.multiply

    def flipped(rule, x, y, *args, **kwargs):
        out = real(rule, x, y, *args, **kwargs)
        return out.scale(-1) if (set(x.terms), set(y.terms)) == (
            {x1}, {x2}) else out
    monkeypatch.setattr(ce, "multiply", flipped)
    cert = verify_springer_iso(2, DEFAULT)
    assert cert["stages"] == {"generators_vanish": True, "injective": True,
                              "betti_numbers": True, "graded_ranks": True,
                              "spans_center": True, "diagonal_wedge": False}
    assert cert["failed_stage"] == "diagonal_wedge"
    assert cert["witness"] == {"block": "(())",
                               "pair": ["[(())|(())|{1}]", "[(())|(())|{2}]"]}


@pytest.mark.parametrize("n", [2, 3])
def test_springer_iso_checks_ranks_against_betti_numbers(monkeypatch, n):
    """One quotient rank off by one, in degree 2, fails the Betti stage
    before the two computed sides are compared, and names the degree."""
    import arcring.springer as sp
    real = sp.quotient_presentation

    def off_by_one(n):
        q = real(n)
        q.graded_rank = {**q.graded_rank, 2: q.graded_rank[2] + 1}
        return q
    monkeypatch.setattr(sp, "quotient_presentation", off_by_one)
    cert = verify_springer_iso(n, DEFAULT)
    assert cert["stages"] == {"generators_vanish": True, "injective": True,
                              "betti_numbers": False}
    assert cert["failed_stage"] == "betti_numbers"
    betti = comb(2 * n, 2) - comb(2 * n, 1)
    assert cert["witness"] == {"degree": 2, "rank": betti + 1,
                               "betti": betti}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_even_presentation(n):
    cert = even_presentation_check(n)
    assert cert["passed"], cert.get("failed_stage")
    assert cert["span_rank"] == comb(2 * n, n)


def test_even_presentation_span_is_the_center_lattice(monkeypatch):
    """Dropping the empty product X_() = 1 from the span, or doubling it,
    fails the span stage; the doubled span has the full rank C(2n, n), which
    a rank comparison alone would accept."""
    import arcring.arc_rings as ar
    real = ar.unit
    for scale, rank in ((0, comb(4, 2) - 1), (2, comb(4, 2))):
        monkeypatch.setattr(ar, "unit", lambda n: real(n).scale(scale))
        cert = even_presentation_check(2)
        assert cert["failed_stage"] == "spans_center"
        assert cert["span_rank"] == rank
        assert not cert["passed"]


def test_qbinom_size_limit():
    assert qbinom(0, 0) == {0: 1}
    assert sum(qbinom(256, 1).values()) == 256
    assert sum(qbinom(256, 128).values()) == comb(256, 128)
    with pytest.raises(ValueError, match="out of range"):
        qbinom(257, 1)


def test_qint_qbinom():
    assert qint(2) == {1: 1, -1: 1}
    assert format_laurent(qint(2)) == "q + q^-1"
    assert qbinom(4, 2) == {4: 1, 2: 1, 0: 2, -2: 1, -4: 1}
    for n in range(1, 7):
        assert sum(qbinom(2 * n, n).values()) == comb(2 * n, n)
    with pytest.raises(ValueError):
        qbinom(2, 3)
