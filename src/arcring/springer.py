"""Odd polynomials in anticommuting variables, the signed elementary
symmetric generators, the quotient presentation of the odd (n,n) Springer
cohomology, the evaluation map into the odd arc ring, and quantum binomials.

Monomials are weakly increasing index tuples; transposing two *distinct*
variables flips the sign, while squares x_i^2 are kept literally (they die
only in the quotient).  Degrees below count variables per monomial.
"""

from bisect import bisect_left, bisect_right
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import attrgetter
import re
from time import perf_counter

from . import matchings as _m
from .arc_rings import (BasisMonomial, RingElement, _check_rule, multiply,
                        unit)
from .zlinalg import SparseZ, hnf_columns, hnf_reduce, signed_sum, signed_terms


def _normalize(indices):
    """Sort an index word; sign = parity of inversions between distinct
    indices (equal indices commute freely here: they anticommute only
    formally with each other, and x_i x_i is kept as a single symbol)."""
    if all(a <= b for a, b in zip(indices, indices[1:])):
        return tuple(indices), 1
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
        """Both monomials are sorted, so the sign is the parity of the pairs
        x > y across them, counted per y by bisection."""
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        out = OddPolynomial(self.nvars)
        for mx, cx in self.terms.items():
            for my, cy in other.terms.items():
                norm = tuple(sorted(mx + my))
                swaps = len(mx) * len(my) - sum(bisect_right(mx, y)
                                                for y in my)
                c = out.terms.get(norm, 0) + (-cx if swaps & 1 else cx) * cy
                if c:
                    out.terms[norm] = c
                else:
                    out.terms.pop(norm, None)
        return out

    def __repr__(self):
        return format_poly(self)


def format_poly(p):
    def term(mono):
        coeff = p.terms[mono]
        name = "".join(f"x{i}" for i in mono) or "1"
        return coeff, name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
    return signed_sum(map(term, sorted(p.terms, key=lambda m: (len(m), m))))


# a term is a coefficient, a monomial or both, with a '*' between them
# only if both: the lookahead rejects a lone sign and a dangling '*'
_TERM_RE = re.compile(r"\s*(?P<sign>[+-])?\s*"
                      r"(?=\d+(?![\d*])|\d+\*(?:x\d|1)|x\d)"
                      r"(?:(?P<coeff>\d+)\*?)?(?P<mono>(?:x\d+)+|1)?")


def parse_poly(text, nvars):
    """Parse `x1x3 - 2*x2x2`; `1` stands for the empty monomial."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    if s == "0":
        return OddPolynomial.zero(nvars)
    terms = {}
    for c, match in signed_terms(s, _TERM_RE):
        mono = match.group("mono")
        indices = () if mono in (None, "1") else tuple(
            int(u) for u in mono[1:].split("x"))
        if any(not 1 <= i <= nvars for i in indices):
            raise ValueError(f"variable index out of range in {match.group(0)}")
        terms[indices] = terms.get(indices, 0) + c
    return OddPolynomial(nvars, terms)


def epsilon_generator(n, I, r):
    """The signed elementary symmetric sum over an ordered index subset I,
    Sum_{i_1<...<i_r in I} prod_j (-1)^(pos_I(i_j)-1) x_{i_j}.  ValueError
    unless `check_size("springer", n)` passes, I is an iterable of ints and
    r an int, in the ranges below."""
    _m.check_size("springer", n)
    if not (hasattr(I, "__iter__") and type(r) is int):
        raise ValueError(f"need an iterable of indices and an int r, not "
                         f"{I!r}, {r!r}")
    I = tuple(I)
    nvars = 2 * n
    if not all(type(i) is int and 1 <= i <= nvars for i in I) \
            or len(set(I)) != len(I):
        raise ValueError(f"I = {I} must be distinct indices in 1..{nvars}")
    k = len(I) - n
    if not 1 <= k <= n:
        raise ValueError(f"|I| = {len(I)} must be n+k with 1 <= k <= n")
    if not n - k + 1 <= r <= n + k:
        raise ValueError(f"r = {r} out of range [{n-k+1}, {n+k}]")
    # the terms are sorted, distinct and in range: no normal form needed
    I = sorted(I)
    out = OddPolynomial(nvars)
    out.terms = {tuple(I[j] for j in combo): (-1) ** sum(combo)
                 for combo in combinations(range(len(I)), r)}
    return out


def _degree_monomials(nvars, d):
    return list(combinations_with_replacement(range(1, nvars + 1), d))


def _eps_indices(n):
    """Every (I, r) of a defining generator eps^I_r, in one fixed order."""
    for k in range(1, n + 1):
        for I in combinations(range(1, 2 * n + 1), n + k):
            for r in range(max(1, n - k + 1), n + k + 1):
                yield I, r


def ideal_slice(n, d):
    """Spanning set of the degree-d slice of the defining ideal:
    all m * eps^I_r with deg m + r = d.  ValueError unless
    `check_size("springer", n)` passes and d is an int in 0..n + 1, the
    degrees of the quotient."""
    _m.check_size("springer", n)
    if type(d) is not int or not 0 <= d <= n + 1:
        raise ValueError(f"degree {d!r} out of range: need 0 <= d <= {n + 1}")
    nvars = 2 * n
    out = []
    for I, r in _eps_indices(n):
        if r <= d:
            eps = epsilon_generator(n, I, r)
            out.extend(OddPolynomial(nvars, {mono: 1}) * eps
                       for mono in _degree_monomials(nvars, d - r))
    return out


def _slice_columns(n, d, previous):
    """Columns {monomial: int} spanning the degree-d slice of the ideal,
    given columns `previous` that span its degree-(d-1) slice: x_i * col for
    every such column and every variable x_i, then every eps^I_r with r = d.
    Every generator m * eps of `ideal_slice` with deg m >= 1 is
    +-x_i * (m' * eps), and x_i times a monomial is +- a monomial, so these
    span the same lattice."""
    cols = []
    for col in previous:
        for i in range(1, 2 * n + 1):
            out = {}
            for mono, c in col.items():
                k = bisect_left(mono, i)
                out[mono[:k] + (i,) + mono[k:]] = -c if k & 1 else c
            cols.append(out)
    cols.extend(epsilon_generator(n, I, r).terms
                for I, r in _eps_indices(n) if r == d)
    return cols


class QuotientPresentation:
    """Per-degree data of OPol_{2n} / (the eps-generated ideal).

    Each ideal slice is brought to column Hermite normal form in one pass,
    with row i of degree d the i-th monomial of degree d counted from the
    last (reverse monomial order); its columns are x_i times the columns of
    the degree-(d-1) echelon, plus the eps of degree d (`_slice_columns`).
    Every pivot is 1 (AssertionError names a degree where one is not; none
    does for n <= 6), so reduction clears the pivot rows and the standard
    monomials, the non-pivot rows, form a Z-basis of the quotient; a pivot
    of 2 can leave a monomial without coordinates (x2 modulo x1 + 2*x2).  A
    monomial is a pivot row exactly when some ideal element has it as its
    last monomial, so they are the greedy basis that keeps each monomial, in
    order, that is independent of the ideal and of the monomials kept
    before it."""

    def __init__(self, n):
        _m.check_size("springer", n)
        self.n = n
        nvars = 2 * n
        self.ideal_hnf = {}    # degree -> hnf_columns echelon of the slice
        self.slice_shape = {}  # degree -> (monomials, columns eliminated)
        self.graded_rank = {}
        self.basis = {}        # degree -> standard monomial tuples
        self._row = {}         # degree -> {monomial: HNF row}
        previous = []
        for d in range(n + 2):
            monos = _degree_monomials(nvars, d)
            last = len(monos) - 1
            row = {m: last - k for k, m in enumerate(monos)}
            cols = _slice_columns(n, d, previous)
            H = hnf_columns({row[m]: c for m, c in col.items()}
                            for col in cols)
            if any(col[r] != 1 for r, col in H.items()):
                raise AssertionError(f"the ideal slice of degree {d} has a "
                                     f"pivot other than 1")
            self.ideal_hnf[d] = H
            self.slice_shape[d] = (len(monos), len(cols))
            self.graded_rank[d] = len(monos) - len(H)
            self.basis[d] = [m for m in monos if row[m] not in H]
            self._row[d] = row
            previous = [{monos[last - r]: c for r, c in col.items()}
                        for col in H.values()]
        if self.graded_rank[n + 1]:
            raise AssertionError("degree-(n+1) slice of the quotient is "
                                 "not zero")
        for i in range(1, nvars + 1):
            if not self.reduces_to_zero(OddPolynomial(nvars, {(i, i): 1})):
                raise AssertionError(f"x_{i}^2 not in the ideal")

    def _remainder(self, d, terms):
        """Remainder {HNF row: int} of the degree-d combination
        {monomial: int} modulo the ideal slice; {} iff it is in the ideal."""
        row = self._row[d]
        return hnf_reduce(self.ideal_hnf[d],
                          {row[m]: c for m, c in terms.items()})

    def reduces_to_zero(self, p):
        """Ideal membership, degree slice by degree slice (homogeneous)."""
        _check_nvars(p, self.n)
        by_deg = {}
        for mono, coeff in p.terms.items():
            by_deg.setdefault(len(mono), {})[mono] = coeff
        # the degree-(n+1) slice is zero (checked above) and the ideal is
        # closed under multiplication, so everything of higher degree is in
        # the ideal too
        return all(d > self.n or not self._remainder(d, terms)
                   for d, terms in by_deg.items())

    def basis_coordinates(self, p):
        """Coordinates of a homogeneous p in the full concatenated monomial
        basis (all degrees) mod the ideal: its remainder, which the unit
        pivots leave on the standard monomials; zero above degree n."""
        _check_nvars(p, self.n)
        degs = {len(m) for m in p.terms} or {0}
        if len(degs) != 1:
            raise ValueError(f"{p!r} is not homogeneous")
        d = degs.pop()
        sizes = [len(self.basis[e]) for e in range(self.n + 1)]
        if d > self.n:
            return (0,) * sum(sizes)
        rem = self._remainder(d, p.terms)
        row = self._row[d]
        return tuple([0] * sum(sizes[:d])
                     + [rem.get(row[m], 0) for m in self.basis[d]]
                     + [0] * sum(sizes[d + 1:]))


def quotient_presentation(n):
    return QuotientPresentation(n)


def _check_nvars(p, n):
    if not isinstance(p, OddPolynomial):
        raise ValueError(f"{p!r} is not an OddPolynomial")
    if p.nvars != 2 * n:
        raise ValueError(f"polynomial in {p.nvars} variables, need {2 * n} "
                         f"for n = {n}")


def map_s(p, n):
    """x_{i_1}...x_{i_r} -> Sum_a a_{i_1} ^ ... ^ a_{i_r}, where a_i is the
    circle of W(a)a through basepoint i.  Each term builds its circle mask
    in order: a circle already set kills it, and each circle set above the
    new one is a transposition, a sign."""
    _check_nvars(p, n)
    terms = {}
    for a in _m.enumerate_matchings(n):
        pos = _m._closed_diagram(a, a)[0]
        for mono, coeff in p.terms.items():
            mask = 0
            for i in mono:
                c = pos[i]
                if mask >> c - 1 & 1:
                    break
                if (mask >> c).bit_count() & 1:
                    coeff = -coeff
                mask |= 1 << c - 1
            else:
                key = tuple.__new__(BasisMonomial, (a.word, a.word, mask))
                terms[key] = terms.get(key, 0) + coeff
    return RingElement(n, terms)


def _diagonal_lattice(n, elems):
    """hnf_columns echelon of the lattice spanned by elements on the
    diagonal blocks, one row per diagonal monomial of any degree."""
    from .centers import diagonal_rows

    row_of = diagonal_rows(n)
    return hnf_columns({row_of[m]: c for m, c in e.terms.items()}
                       for e in elems)


def _generator_action_holds(q, images, rule):
    """Is the linear map phi of the quotient `q` that sends its standard
    monomials, in order, to `images` a ring map?  Checks phi(1) = unit(n)
    and phi(x_i * b) = phi(x_i) * phi(b) for every variable x_i and every
    standard monomial b: 2n * N products, which share one product memo.

    That is enough: the quotient is generated by the x_i, and both products
    are associative here (the images lie on the diagonal blocks, where the
    odd product is the wedge product, `diagonal_product_witness`), so by
    induction on the degree of a monomial m = x_i * m', for every y
        phi(m * y) = phi(x_i) * phi(m' * y) = phi(x_i) * (phi(m') * phi(y))
                   = (phi(x_i) * phi(m')) * phi(y) = phi(m) * phi(y)."""
    n = q.n
    nvars = 2 * n

    def phi(p):
        terms = {}
        for c, img in zip(q.basis_coordinates(p), images):
            if c:
                for mono, coeff in img.terms.items():
                    terms[mono] = terms.get(mono, 0) + c * coeff
        return RingElement(n, terms)

    if phi(OddPolynomial.one(nvars)) != unit(n):
        return False
    basis_polys = [OddPolynomial(nvars, {m: 1})
                   for d in range(n + 1) for m in q.basis[d]]
    memo = {}
    for i in range(1, nvars + 1):
        x = OddPolynomial.generator(nvars, i)
        phi_x = phi(x)
        for b, img in zip(basis_polys, images):
            if phi(x * b) != multiply(rule, phi_x, img, memo=memo):
                return False
    return True


def verify_springer_iso(n, rule):
    """Certificate that the quotient presentation and the odd center are
    isomorphic as graded rings, via the evaluation map.  Besides the stage
    verdicts it holds the wall seconds of every step ("seconds"), the
    (monomials, columns eliminated) shape of every ideal slice
    ("slice_shape") and, on a failure of the Betti or the wedge stage, its
    "witness": the first degree where the quotient's ranks are not the
    Betti numbers, or the first diagonal block and pair whose product is
    not the wedge product."""
    from .centers import diagonal_product_witness, odd_center

    _check_rule(rule)
    _m.check_size("springer", n)
    cert = {"n": n, "rule": rule.name, "stages": {}, "seconds": {},
            "passed": False}
    marks = [perf_counter()]

    def timed(step):
        marks.append(perf_counter())
        cert["seconds"][step] = marks[-1] - marks[-2]

    def check(stage, ok):
        timed(stage)
        cert["stages"][stage] = ok
        if not ok:
            cert["failed_stage"] = stage
        return ok

    nvars = 2 * n
    q = quotient_presentation(n)
    timed("quotient_presentation")
    cert["slice_shape"] = dict(q.slice_shape)
    oz = odd_center(n, rule)
    timed("odd_center")

    # (i) every defining generator maps to 0
    ok = all(map_s(epsilon_generator(n, I, r), n).is_zero()
             for I, r in _eps_indices(n))
    if not check("generators_vanish", ok):
        return cert

    # (ii) images of the monomial basis are Z-linearly independent
    images = [map_s(OddPolynomial(nvars, {m: 1}), n)
              for d in range(n + 1) for m in q.basis[d]]
    echelon = _diagonal_lattice(n, images)
    if not check("injective", len(echelon) == len(images)):
        return cert

    # (iii) the quotient's graded ranks are the Betti numbers of the (n, n)
    # Springer fiber, an oracle independent of both computed sides: the
    # first degree where they differ is the witness
    cert["quotient_rank"] = dict(q.graded_rank)
    betti = [comb(nvars, k) - comb(nvars, k - 1) if k else 1
             for k in range(n + 1)] + [0]
    bad = next((k for k, b in enumerate(betti)
                if q.graded_rank.get(k, 0) != b), None)
    if bad is not None:
        cert["witness"] = {"degree": bad, "rank": q.graded_rank.get(bad, 0),
                           "betti": betti[bad]}
    if not check("betti_numbers", bad is None):
        return cert

    # (iv) the graded ranks agree with the center's
    cert["center_rank"] = dict(oz.graded_rank)
    if not check("graded_ranks",
                 all(q.graded_rank.get(d, 0) == oz.graded_rank.get(d, 0)
                     for d in range(n + 2))):
        return cert

    # (ii) and (iv) leave the image a finite-index sublattice of the
    # center; equal echelons make it the whole center
    if not check("spans_center",
                 echelon == _diagonal_lattice(n, oz.generators)):
        return cert

    # (v) the product on the diagonal blocks, where the center lives, is
    # the wedge product in the circle labels, so it is associative, which
    # the next stage needs
    wedge_witness = diagonal_product_witness(n, rule, "odd")
    if wedge_witness is not None:
        cert["witness"] = wedge_witness
    if not check("diagonal_wedge", wedge_witness is None):
        return cert

    # (vi) the map is multiplicative
    if not check("structure_constants",
                 _generator_action_holds(q, images, rule)):
        return cert
    cert["passed"] = True
    return cert


def even_presentation_check(n):
    """Certificate for the presentation of the even center: images
    X_i = Sum_a (-1)^i [a|a|{circle through i}] are central, square to zero,
    satisfy Sum_{|I|=k} X_I = 0, and their monomials span the center lattice
    (the same `hnf_columns` echelon); "span_rank" is the rank of that span."""
    from .centers import even_center
    from .arc_rings import BUILTIN_RULES, unit

    _m.check_size("springer", n)
    rule = BUILTIN_RULES["default"]
    cert = {"n": n, "stages": {}, "passed": False}
    nvars = 2 * n
    ec = even_center(n)

    X = {i: map_s(OddPolynomial.generator(nvars, i), n).scale((-1) ** i)
         for i in range(1, nvars + 1)}

    cert["stages"]["central"] = all(ec.contains(X[i]) for i in X)
    cert["stages"]["squares_vanish"] = all(
        multiply(rule, X[i], X[i], "even").is_zero() for i in X)

    # X_I for every subset I, each from the one without its largest index:
    # the same left-to-right product chain for every I, computed once
    subsets = [I for k in range(nvars + 1)
               for I in combinations(range(1, nvars + 1), k)]
    x_product = {(): unit(n)}
    for I in subsets[1:]:
        x_product[I] = X[I[0]] if len(I) == 1 else multiply(
            rule, x_product[I[:-1]], X[I[-1]], "even")

    ok = True
    for k in range(1, nvars + 1):
        total = {}
        for I in combinations(range(1, nvars + 1), k):
            for mono, coeff in x_product[I].terms.items():
                total[mono] = total.get(mono, 0) + coeff
        if any(total.values()):
            ok = False
    cert["stages"]["symmetric_sums_vanish"] = ok

    span = _diagonal_lattice(n, (x_product[I] for I in subsets))
    cert["span_rank"] = len(span)
    cert["stages"]["spans_center"] = span == _diagonal_lattice(
        n, ec.generators)

    cert["passed"] = all(cert["stages"].values())
    if not cert["passed"]:
        cert["failed_stage"] = next(s for s, v in cert["stages"].items()
                                    if not v)
    return cert


# ---------------------------------------------------------------------------
# quantum integers and binomials (exact Laurent polynomials, dict exp->coeff)

def qint(m):
    if m < 0:
        raise AssertionError(f"quantum integer of negative m = {m}")
    return {e: 1 for e in range(m - 1, -m, -2)}


def _times_one_minus(c, e):
    """The coefficient list c (c[i] of q^i) times 1 - q^e."""
    out = c + [0] * e
    for i, v in enumerate(c):
        out[i + e] -= v
    return out


def _div_one_minus(c, j):
    """Exact quotient of the coefficient list c by 1 - q^j, by the prefix
    recurrence d[i] = c[i] + d[i - j]; raises AssertionError on a zero
    divisor or a nonzero remainder."""
    if j < 1:
        raise AssertionError(f"division by 1 - q^{j}")
    d = list(c)
    for i in range(j, len(d)):
        d[i] += d[i - j]
    cut = max(len(d) - j, 0)
    if any(d[cut:]):
        raise AssertionError(f"inexact division by 1 - q^{j}")
    return d[:cut]


def qbinom(m, k):
    """[m choose k] = q^(-k(m-k)) G(q^2) for the Gaussian binomial
    G(q) = prod_{j=1..k} (1 - q^(m-k+j)) / (1 - q^j), built one exact factor
    at a time on coefficient lists."""
    if not (type(m) is int and type(k) is int and 0 <= k <= m):
        raise ValueError(f"need ints 0 <= k <= m, not m={m!r}, k={k!r}")
    if m:  # check_size starts at 1; [0 choose 0] = 1 needs no limit
        _m.check_size("qbinom", m)
    c = [1]
    for j in range(1, k + 1):
        c = _div_one_minus(_times_one_minus(c, m - k + j), j)
    shift = k * (m - k)
    return {2 * i - shift: v for i, v in enumerate(c) if v}


def format_laurent(p):
    def term(e):
        c = p[e]
        if e == 0:
            return c, str(abs(c))
        var = "q" if e == 1 else f"q^{e}"
        return c, var if abs(c) == 1 else f"{abs(c)}*{var}"
    return signed_sum(map(term, sorted(p, reverse=True)))
