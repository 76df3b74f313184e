"""Scission counts, the chronology part of the associator, its F2
cocycle/coboundary structure, and sign isomorphisms between rules.

Degrees of homogeneous elements live in the groupoid with one arrow per
ordered pair of matchings, so the associator data are tables indexed by
quadruples of matchings (triples of composable arrows), and the comparison
data between two rules by triples (pairs of arrows).
"""

from itertools import product as _product

from . import matchings as _m
from .arc_rings import RingElement, block_monomials, multiply, ring_basis
from .zlinalg import solve_f2


def scission_count(c, b, a):
    """S(c,b,a) = (d(c,b) + d(b,a) - d(c,a)) / 2, the number of splits in
    the (c,b,a) multiplication."""
    total = (_m.distance(c, b) + _m.distance(b, a) - _m.distance(c, a))
    if total % 2:
        raise AssertionError("scission count must be integral")
    return total // 2


def _proportionality(pairs):
    """Sign s with left = s * right over all (left, right) element pairs, or
    None if every pair is zero; raises on any inconsistency."""
    sign = None
    for left, right in pairs:
        if left.is_zero() and right.is_zero():
            continue
        if left.is_zero() or right.is_zero():
            raise AssertionError("zero pattern mismatch between the maps")
        if sign is None:
            if left == right:
                sign = 1
            elif left == -right:
                sign = -1
            else:
                raise AssertionError("maps are not proportional by a sign")
        else:
            if left != right.scale(sign):
                raise AssertionError("inconsistent proportionality sign")
    return sign


def _block_elements(top, bottom):
    """(monomial, element) for every basis monomial of one block."""
    return [(mono, RingElement.monomial(mono))
            for mono in block_monomials(top, bottom)]


class UndefinedSign(Exception):
    """Both composite maps of a quadruple vanish identically, so no sign can
    be read off.  This does happen (e.g. twice at n=2); tables mark such
    cells with None and downstream checks skip them."""


def phi0(rule, d, c, b, a, *, memo=None):
    """Chronology sign: (xy)z = (-1)^(p(x)*S(c,b,a)) * phi0 * x(yz) on the
    whole block, as a proportionality of linear maps.  Raises UndefinedSign
    if both maps are identically zero.  `memo` is the product memo of
    `multiply`."""
    S = scission_count(c, b, a)
    xs, ys, zs = _block_elements(d, c), _block_elements(c, b), \
        _block_elements(b, a)

    def pairs():
        for mx, x in xs:
            phi1 = (-1) ** (len(mx.colored) * S)
            for _, y in ys:
                xy = multiply(rule, x, y, memo=memo)
                for _, z in zs:
                    left = multiply(rule, xy, z, memo=memo)
                    right = multiply(rule, x, multiply(rule, y, z, memo=memo),
                                     memo=memo)
                    yield left, right.scale(phi1)

    sign = _proportionality(pairs())
    if sign is None:
        raise UndefinedSign(f"both composite maps vanish on "
                            f"{d.word}|{c.word}|{b.word}|{a.word}")
    return sign


def phi0_table(rule, n):
    """{(d,c,b,a) words: bit or None}, bit = 1 iff phi0 = -1; None marks
    the cells where the sign is undefined.  The cells share one product
    memo, dropped on return."""
    _m.check_size("assoc", n)
    mats = _m.enumerate_matchings(n)
    table = {}
    memo = {}
    for d, c, b, a in _product(mats, repeat=4):
        try:
            table[d.word, c.word, b.word, a.word] = \
                (1 - phi0(rule, d, c, b, a, memo=memo)) // 2
        except UndefinedSign:
            table[d.word, c.word, b.word, a.word] = None
    return table


def cocycle_defect(rule, n, table=None, twisted=True):
    """Defect of the chronology cocycle identity on all quintuples whose
    five faces are defined; empty dict iff the identity holds there.

    The pentagon relates the five reassociations of 1.1.1.1, but the face
    through the composed pair carries x = 1.1 whose wedge length is the
    scission count of that pair, so its phi1 factor does not drop out.  The
    identity that actually holds is therefore the twisted one
        d^3(phi0)(g,h,k,l) = S(g,h) * S(k,l)  (mod 2),
    which reduces to the plain cocycle condition exactly where the cup
    square of S vanishes (e.g. everywhere it is testable at n <= 2).  Pass
    twisted=False to check the plain condition instead."""
    _m.check_size("assoc", n)
    if table is None:
        table = phi0_table(rule, n)
    mats = _m.enumerate_matchings(n)
    words = [m.word for m in mats]
    of = {m.word: m for m in mats}
    defects = {}
    for e, d, c, b, a in _product(words, repeat=5):
        faces = (table[d, c, b, a], table[e, c, b, a], table[e, d, b, a],
                 table[e, d, c, a], table[e, d, c, b])
        if None in faces:
            continue
        v = faces[0] ^ faces[1] ^ faces[2] ^ faces[3] ^ faces[4]
        if twisted:
            v ^= (scission_count(of[e], of[d], of[c])
                  * scission_count(of[c], of[b], of[a])) & 1
        if v:
            defects[e, d, c, b, a] = v
    return defects


def solve_coboundary(table, n):
    """lambda0 over matching triples with d^2(lambda0) = table over F2 on
    every defined cell, or None.  Canonical solution: free variables zero."""
    _m.check_size("assoc", n)
    words = [m.word for m in _m.enumerate_matchings(n)]
    triples = list(_product(words, repeat=3))
    col_of = {t: j for j, t in enumerate(triples)}
    rows, rhs = [], []
    for d, c, b, a in _product(words, repeat=4):
        if table[d, c, b, a] is None:
            continue
        row = [0] * len(triples)
        for t in ((c, b, a), (d, b, a), (d, c, a), (d, c, b)):
            row[col_of[t]] ^= 1
        rows.append(row)
        rhs.append(table[d, c, b, a])
    x = solve_f2(rows, rhs)
    if x is None:
        return None
    sol = {t: x[j] for t, j in col_of.items()}
    for (d, c, b, a), v in table.items():
        if v is not None and (sol[c, b, a] ^ sol[d, b, a] ^ sol[d, c, a]
                              ^ sol[d, c, b]) != v:
            raise AssertionError(f"d(lambda0) differs from the table at "
                                 f"{(d, c, b, a)}")
    return sol


def rule_sign_ratio(rule1, rule2, c, b, a, *, memo=None):
    """Proportionality sign between the block multiplication maps of the two
    rules on (c,b,a), or None if both maps vanish identically (this happens
    in the odd theory, e.g. on ((()))|(())()|()(()) at n = 3).  `memo` is
    the product memo of `multiply`."""
    ys, zs = _block_elements(c, b), _block_elements(b, a)

    def pairs():
        for _, y in ys:
            for _, z in zs:
                yield (multiply(rule1, y, z, memo=memo),
                       multiply(rule2, y, z, memo=memo))

    return _proportionality(pairs())


def eta_table(rule1, rule2, n, *, memo=None):
    """{(c,b,a) words: bit or None}, bit = 1 iff the two rules' block maps
    differ by -1; None where both maps vanish, so any sign relates them.
    The cells share `memo`, or one product memo of their own."""
    _m.check_size("assoc", n)
    if memo is None:
        memo = {}
    mats = _m.enumerate_matchings(n)
    out = {}
    for c, b, a in _product(mats, repeat=3):
        sign = rule_sign_ratio(rule1, rule2, c, b, a, memo=memo)
        out[c.word, b.word, a.word] = None if sign is None else (1 - sign) // 2
    return out


def first_phi0_difference(rule1, rule2, n):
    """First quadruple (in enumeration order) where the phi0 tables differ,
    or None."""
    t1 = phi0_table(rule1, n)
    t2 = phi0_table(rule2, n)
    for quad in sorted(t1):
        if t1[quad] != t2[quad]:
            return quad
    return None


def build_rule_isomorphism(rule1, rule2, n):
    """If the two rules have the same chronology associator: a per-pair sign
    table eps such that x -> (-1)^eps(block of x) * x is a ring isomorphism,
    verified on every structure constant; None if the associators differ.
    Triples where eta is undefined (None) impose nothing on eps: both block
    maps vanish there.  The eta table and the verification share one
    product memo."""
    if first_phi0_difference(rule1, rule2, n) is not None:
        return None
    memo = {}
    eta = eta_table(rule1, rule2, n, memo=memo)
    words = [m.word for m in _m.enumerate_matchings(n)]
    # eta must be a 2-cocycle: its defect vanishes on every quadruple whose
    # four faces are defined
    for d, c, b, a in _product(words, repeat=4):
        faces = (eta[c, b, a], eta[d, b, a], eta[d, c, a], eta[d, c, b])
        if None in faces:
            continue
        if faces[0] ^ faces[1] ^ faces[2] ^ faces[3]:
            raise AssertionError("eta is not a 2-cocycle despite equal "
                                 "associators")
    pairs = list(_product(words, repeat=2))
    col_of = {p: j for j, p in enumerate(pairs)}
    rows, rhs = [], []
    for c, b, a in _product(words, repeat=3):
        if eta[c, b, a] is None:
            continue
        row = [0] * len(pairs)
        for p in ((c, b), (b, a), (c, a)):
            row[col_of[p]] ^= 1
        rows.append(row)
        rhs.append(eta[c, b, a])
    x = solve_f2(rows, rhs)
    if x is None:
        raise AssertionError("delta eps = eta unsolvable despite 2-cocycle "
                             "eta")
    eps = {p: x[j] for p, j in col_of.items()}

    # full structure-constant verification of x -> (-1)^eps * x
    def theta(elem):
        return RingElement(elem.n, {
            mono: -coeff if eps[mono.top, mono.bottom] else coeff
            for mono, coeff in elem.terms.items()})

    basis = [mono for mono, _ in ring_basis(n)]
    for mx in basis:
        x1 = RingElement.monomial(mx)
        for my in basis:
            if mx.bottom != my.top:
                continue
            y1 = RingElement.monomial(my)
            lhs = theta(multiply(rule1, x1, y1, memo=memo))
            rhs1 = multiply(rule2, theta(x1), theta(y1), memo=memo)
            if lhs != rhs1:
                raise AssertionError("sign map is not a ring homomorphism")
    return eps
