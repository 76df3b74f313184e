"""Odd polynomials in anticommuting variables, the signed elementary
symmetric generators, the quotient presentation of the odd (n,n) Springer
cohomology, the evaluation map into the odd arc ring, and quantum binomials.

Monomials are weakly increasing index tuples; transposing two *distinct*
variables flips the sign, while squares x_i^2 are kept literally (they die
only in the quotient).  Degrees below count variables per monomial.
"""

from itertools import combinations, combinations_with_replacement
from operator import attrgetter
import re

from . import matchings as _m
from .arc_rings import BasisMonomial, RingElement, multiply
from .zlinalg import SparseZ, column_hnf, smith_normal_form, rank_Z, solve_Z


def _normalize(indices):
    """Sort an index word; sign = parity of inversions between distinct
    indices (equal indices commute freely here: they anticommute only
    formally with each other, and x_i x_i is kept as a single symbol)."""
    arr = list(indices)
    sign = 1
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            if arr[i] > arr[j]:
                sign = -sign
    return tuple(sorted(arr)), sign


class OddPolynomial(SparseZ):
    """Element of the free Z-algebra on x_1..x_{2n} mod x_i x_j = -x_j x_i
    for i != j."""

    __slots__ = ()
    nvars = property(attrgetter("space"))

    def _normal(self, mono):
        if not all(1 <= i <= self.space for i in mono):
            raise ValueError(f"variable index out of range in {mono!r}")
        return _normalize(mono)

    @staticmethod
    def one(nvars):
        return OddPolynomial(nvars, {(): 1})

    @staticmethod
    def generator(nvars, i):
        return OddPolynomial(nvars, {(i,): 1})

    def __mul__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        out = OddPolynomial(self.nvars)
        for mx, cx in self.terms.items():
            for my, cy in other.terms.items():
                norm, sign = _normalize(mx + my)
                c = out.terms.get(norm, 0) + sign * cx * cy
                if c:
                    out.terms[norm] = c
                else:
                    out.terms.pop(norm, None)
        return out

    def __repr__(self):
        return format_poly(self)


def format_poly(p):
    if not p.terms:
        return "0"
    bits = []
    for idx, mono in enumerate(sorted(p.terms, key=lambda m: (len(m), m))):
        coeff = p.terms[mono]
        name = "".join(f"x{i}" for i in mono) if mono else "1"
        body = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
        if idx == 0:
            bits.append(body if coeff > 0 else "-" + body)
        else:
            bits.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(bits)


_TERM_RE = re.compile(r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\*?)?"
                      r"(?P<mono>(?:x\d+)+|1)?")


def parse_poly(text, nvars):
    """Parse `x1x3 - 2*x2x2`; `1` stands for the empty monomial."""
    s = text.strip()
    if s == "0":
        return OddPolynomial.zero(nvars)
    pos = 0
    terms = {}
    first = True
    while pos < len(s):
        match = _TERM_RE.match(s, pos)
        if not match or match.end() == pos:
            raise ValueError(f"parse error at {s[pos:]!r}")
        sign, coeff, mono = match.group("sign", "coeff", "mono")
        if coeff is None and mono is None:
            raise ValueError(f"parse error at {s[pos:]!r}")
        if not first and sign is None:
            raise ValueError(f"missing +/- before {s[pos:]!r}")
        c = int(coeff or 1) * (-1 if sign == "-" else 1)
        indices = () if mono in (None, "1") else tuple(
            int(u) for u in mono[1:].split("x"))
        if any(not 1 <= i <= nvars for i in indices):
            raise ValueError(f"variable index out of range in {match.group(0)}")
        terms[indices] = terms.get(indices, 0) + c
        pos = match.end()
        first = False
    return OddPolynomial(nvars, terms)


def epsilon_generator(n, I, r):
    """The signed elementary symmetric sum over an ordered index subset I,
    Sum_{i_1<...<i_r in I} prod_j (-1)^(pos_I(i_j)-1) x_{i_j}."""
    I = tuple(I)
    nvars = 2 * n
    if not all(1 <= i <= nvars for i in I) or len(set(I)) != len(I):
        raise ValueError(f"I = {I} must be distinct indices in 1..{nvars}")
    k = len(I) - n
    if not 1 <= k <= n:
        raise ValueError(f"|I| = {len(I)} must be n+k with 1 <= k <= n")
    if not n - k + 1 <= r <= n + k:
        raise ValueError(f"r = {r} out of range [{n-k+1}, {n+k}]")
    pos = {i: j for j, i in enumerate(sorted(I))}
    return OddPolynomial(nvars, {
        combo: (-1) ** sum(pos[i] for i in combo)
        for combo in combinations(sorted(I), r)})


def _degree_monomials(nvars, d):
    return list(combinations_with_replacement(range(1, nvars + 1), d))


def ideal_slice(n, d, side="left"):
    """Spanning set of the degree-d slice of the defining ideal:
    all m * eps^I_r (or eps^I_r * m) with deg m + r = d."""
    nvars = 2 * n
    out = []
    for k in range(1, n + 1):
        for I in combinations(range(1, nvars + 1), n + k):
            for r in range(max(1, n - k + 1), n + k + 1):
                if r > d:
                    continue
                eps = epsilon_generator(n, I, r)
                for mono in _degree_monomials(nvars, d - r):
                    m = OddPolynomial(nvars, {mono: 1})
                    out.append(m * eps if side == "left" else eps * m)
    return out


class QuotientPresentation:
    """Per-degree data of OPol_{2n} / (the eps-generated ideal)."""

    def __init__(self, n):
        _m.check_size("springer", n)
        self.n = n
        nvars = 2 * n
        self.ambient = {}      # degree -> list of monomial tuples
        self.ideal_hnf = {}    # degree -> column HNF of the ideal slice
        self.graded_rank = {}
        self.basis = {}        # degree -> chosen monomial tuples
        for d in range(n + 2):
            monos = _degree_monomials(nvars, d)
            self.ambient[d] = monos
            row_of = {m: i for i, m in enumerate(monos)}
            cols = []
            for p in ideal_slice(n, d):
                col = [0] * len(monos)
                for mono, coeff in p.terms.items():
                    col[row_of[mono]] = coeff
                cols.append(col)
            M = ([[c[i] for c in cols] for i in range(len(monos))]
                 if cols else [[] for _ in monos])
            H = column_hnf(M) if cols else M
            self.ideal_hnf[d] = H
            ideal_rank = len(H[0]) if H and H[0] else 0
            # torsion-free quotient: every invariant factor of the slice is 1
            if ideal_rank:
                _, D, _ = smith_normal_form(H)
                diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
                if any(v not in (0, 1) for v in diag):
                    raise AssertionError("torsion in quotient")
            self.graded_rank[d] = len(monos) - ideal_rank
            # greedy lex basis: keep a monomial if it is independent mod the
            # ideal and the monomials already kept
            chosen = []
            work = [list(row) for row in H] if ideal_rank else \
                [[] for _ in monos]
            rank = ideal_rank
            for mono in monos:
                if len(chosen) == self.graded_rank[d]:
                    break
                cand = [row + [1 if m == mono else 0]
                        for row, m in zip(work, monos)]
                r2 = rank_Z(cand)
                if r2 > rank:
                    chosen.append(mono)
                    work, rank = cand, r2
            assert len(chosen) == self.graded_rank[d]
            self.basis[d] = chosen
        if self.graded_rank[n + 1]:
            raise AssertionError("degree-(n+1) slice of the quotient is "
                                 "not zero")
        for i in range(1, nvars + 1):
            assert self.reduces_to_zero(
                OddPolynomial(nvars, {(i, i): 1})), "x_i^2 not in the ideal"

    def reduces_to_zero(self, p):
        """Ideal membership, degree slice by degree slice (homogeneous)."""
        by_deg = {}
        for mono, coeff in p.terms.items():
            by_deg.setdefault(len(mono), {})[mono] = coeff
        for d, terms in by_deg.items():
            if d > self.n:
                # the degree-(n+1) slice is zero (checked above) and the
                # ideal is closed under multiplication, so everything of
                # higher degree is in the ideal too
                continue
            monos = self.ambient[d]
            v = [terms.get(m, 0) for m in monos]
            H = self.ideal_hnf[d]
            if not (H and H[0]):
                return False
            if solve_Z(H, v) is None:
                return False
        return True

    def basis_coordinates(self, p):
        """Coordinates of a homogeneous p in the full concatenated monomial
        basis (all degrees) mod the ideal, or None if outside the span."""
        degs = {len(m) for m in p.terms} or {0}
        assert len(degs) == 1
        d = degs.pop()
        if d > self.n:
            if self.reduces_to_zero(p):
                d = 0  # zero in the quotient: all-zero coordinates
                p = OddPolynomial.zero(p.nvars)
            else:
                return None
        monos = self.ambient[d]
        row_of = {m: i for i, m in enumerate(monos)}
        v = [0] * len(monos)
        for mono, coeff in p.terms.items():
            v[row_of[mono]] = coeff
        H = self.ideal_hnf[d]
        ideal_cols = len(H[0]) if H and H[0] else 0
        cols = []
        for bm in self.basis[d]:
            col = [0] * len(monos)
            col[row_of[bm]] = 1
            cols.append(col)
        A = [[(H[i][j] if j < ideal_cols else cols[j - ideal_cols][i])
              for j in range(ideal_cols + len(cols))] for i in range(len(monos))]
        x = solve_Z(A, v)
        if x is None:
            return None
        slice_coords = x[ideal_cols:]
        before = sum(len(self.basis[e]) for e in range(d))
        after = sum(len(self.basis[e]) for e in range(d + 1, self.n + 1))
        return tuple([0] * before + slice_coords + [0] * after)


def quotient_presentation(n):
    return QuotientPresentation(n)


def map_s(p, n, rule=None, center=None):
    """x_{i_1}...x_{i_r} -> Sum_a a_{i_1} ^ ... ^ a_{i_r}, where a_i is the
    circle of W(a)a through basepoint i.  If a center lattice is supplied the
    image is verified to lie in it."""
    assert p.nvars == 2 * n
    terms = {}
    for a in _m.enumerate_matchings(n):
        circle_of = _m.closed_diagram(a, a).circle_of
        for mono, coeff in p.terms.items():
            labels = [circle_of[i] for i in mono]
            norm, sign = _normalize(labels)
            if len(set(norm)) != len(norm):
                continue
            key = BasisMonomial(a.word, a.word, frozenset(norm))
            terms[key] = terms.get(key, 0) + sign * coeff
    out = RingElement(n, terms)
    if center is not None:
        assert center.contains(out), "image outside the center lattice"
    return out


def verify_springer_iso(n, rule):
    """Certificate that the quotient presentation and the odd center are
    isomorphic as graded rings, via the evaluation map."""
    from .centers import odd_center, diagonal_monomials

    _m.check_size("springer", n)
    cert = {"n": n, "rule": rule.name, "stages": {}, "passed": False}
    nvars = 2 * n
    q = quotient_presentation(n)
    oz = odd_center(n, rule)

    # (i) every defining generator maps to 0
    ok = True
    for k in range(1, n + 1):
        for I in combinations(range(1, nvars + 1), n + k):
            for r in range(max(1, n - k + 1), n + k + 1):
                if not map_s(epsilon_generator(n, I, r), n).is_zero():
                    ok = False
    cert["stages"]["generators_vanish"] = ok
    if not ok:
        cert["failed_stage"] = "generators_vanish"
        return cert

    # (ii) images of the monomial basis are Z-linearly independent
    basis_polys = [OddPolynomial(nvars, {m: 1})
                   for d in range(n + 1) for m in q.basis[d]]
    images = [map_s(b, n) for b in basis_polys]
    monos = [m for d in range(n + 1) for m in diagonal_monomials(n, d)]
    row_of = {m: i for i, m in enumerate(monos)}
    M = [[0] * len(images) for _ in monos]
    for j, img in enumerate(images):
        for mono, coeff in img.terms.items():
            M[row_of[mono]][j] = coeff
    ok = rank_Z(M) == len(images)
    cert["stages"]["injective"] = ok
    if not ok:
        cert["failed_stage"] = "injective"
        return cert

    # (iii) graded ranks agree
    ok = all(q.graded_rank.get(d, 0) == oz.graded_rank.get(d, 0)
             for d in range(n + 2))
    cert["stages"]["graded_ranks"] = ok
    cert["quotient_rank"] = dict(q.graded_rank)
    cert["center_rank"] = dict(oz.graded_rank)
    if not ok:
        cert["failed_stage"] = "graded_ranks"
        return cert

    # (iv) structure constants match on the basis
    ok = True
    for i, bi in enumerate(basis_polys):
        for j, bj in enumerate(basis_polys):
            coords = q.basis_coordinates(bi * bj)
            if coords is None:
                ok = False
                break
            prod = multiply(rule, images[i], images[j])
            expect = {}
            for c, img in zip(coords, images):
                for mono, coeff in img.terms.items():
                    expect[mono] = expect.get(mono, 0) + c * coeff
            if prod != RingElement(n, expect):
                ok = False
                break
        if not ok:
            break
    cert["stages"]["structure_constants"] = ok
    if not ok:
        cert["failed_stage"] = "structure_constants"
        return cert
    cert["passed"] = True
    return cert


def even_presentation_check(n):
    """Certificate for the presentation of the even center: images
    X_i = Sum_a (-1)^i [a|a|{circle through i}] are central, square to zero,
    satisfy Sum_{|I|=k} X_I = 0, and their monomials span the whole center."""
    from .centers import even_center, diagonal_monomials
    from .arc_rings import BUILTIN_RULES

    _m.check_size("springer", n)
    rule = BUILTIN_RULES["default"]
    cert = {"n": n, "stages": {}, "passed": False}
    nvars = 2 * n
    ec = even_center(n)

    X = {}
    for i in range(1, nvars + 1):
        terms = {}
        for a in _m.enumerate_matchings(n):
            circ = _m.closed_diagram(a, a).circle_of[i]
            terms[BasisMonomial(a.word, a.word, frozenset({circ}))] = (-1) ** i
        X[i] = RingElement(n, terms)

    cert["stages"]["central"] = all(ec.contains(X[i]) for i in X)
    cert["stages"]["squares_vanish"] = all(
        multiply(rule, X[i], X[i], "even").is_zero() for i in X)

    def x_product(I):
        out = None
        for i in I:
            out = X[i] if out is None else multiply(rule, out, X[i], "even")
        return out

    ok = True
    for k in range(1, nvars + 1):
        total = {}
        for I in combinations(range(1, nvars + 1), k):
            for mono, coeff in x_product(I).terms.items():
                total[mono] = total.get(mono, 0) + coeff
        if any(total.values()):
            ok = False
    cert["stages"]["symmetric_sums_vanish"] = ok

    from .arc_rings import unit
    monos = [m for d in range(n + 1) for m in diagonal_monomials(n, d)]
    row_of = {m: i for i, m in enumerate(monos)}
    cols = []
    for k in range(0, nvars + 1):
        for I in combinations(range(1, nvars + 1), k):
            elem = unit(n) if not I else x_product(I)
            col = [0] * len(monos)
            for mono, coeff in elem.terms.items():
                col[row_of[mono]] = coeff
            cols.append(col)
    M = [[c[i] for c in cols] for i in range(len(monos))]
    from math import comb
    cert["span_rank"] = rank_Z(M)
    cert["stages"]["span_rank"] = cert["span_rank"] == comb(2 * n, n)

    cert["passed"] = all(cert["stages"].values())
    if not cert["passed"]:
        cert["failed_stage"] = next(s for s, v in cert["stages"].items()
                                    if not v)
    return cert


# ---------------------------------------------------------------------------
# quantum integers and binomials (exact Laurent polynomials, dict exp->coeff)

def qint(m):
    assert m >= 0
    return {e: 1 for e in range(m - 1, -m, -2)}


def _laurent_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _laurent_divexact(p, q):
    """Exact division of Laurent polynomials; asserts zero remainder."""
    p = dict(p)
    assert q
    qtop = max(q)
    out = {}
    while p:
        ptop = max(p)
        assert p[ptop] % q[qtop] == 0, "inexact division"
        c = p[ptop] // q[qtop]
        e = ptop - qtop
        out[e] = c
        for qe, qc in q.items():
            pe = qe + e
            v = p.get(pe, 0) - c * qc
            if v:
                p[pe] = v
            else:
                p.pop(pe, None)
    return out


def qbinom(m, k):
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    out = {0: 1}
    for j in range(1, k + 1):
        out = _laurent_divexact(_laurent_mul(out, qint(m - k + j)), qint(j))
    return out


def format_laurent(p):
    if not p:
        return "0"
    bits = []
    for e in sorted(p, reverse=True):
        c = p[e]
        if e == 0:
            body = str(abs(c))
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        if not bits:
            bits.append(body if c > 0 else "-" + body)
        else:
            bits.append(("+ " if c > 0 else "- ") + body)
    return " ".join(bits)
