"""Scission counts, the chronology part of the associator, its F2
cocycle/coboundary structure, and sign isomorphisms between rules.

Degrees of homogeneous elements live in the groupoid with one arrow per
ordered pair of matchings, so the associator data are tables indexed by
quadruples of matchings (triples of composable arrows), and the comparison
data between two rules by triples (pairs of arrows).  These tables are F2
cochains on the nerve of the groupoid, {k-tuple of words: bit or None} with
None on an undefined cell; the faces of a cell leave out one matching each.
"""

from functools import partial
from itertools import product as _product

from . import matchings as _m
from .arc_rings import (RingElement, _check_rule, block_map, block_monomials,
                        multiply, transpose_witness)
from .zlinalg import solve_f2


def scission_count(c, b, a):
    """S(c,b,a) = (d(c,b) + d(b,a) - d(c,a)) / 2, the number of splits in
    the (c,b,a) multiplication."""
    total = (_m.distance(c, b) + _m.distance(b, a) - _m.distance(c, a))
    if total % 2:
        raise AssertionError("scission count must be integral")
    return total // 2


def _proportionality(triples):
    """Sign s with left = s * f * right over all (left, right, f), left and
    right term dicts, compared directly, and f = +-1, or None if every pair
    is zero; raises on any inconsistency."""
    sign = None
    for lt, rt, f in triples:
        if not lt and not rt:
            continue
        if not lt or not rt:
            raise AssertionError("zero pattern mismatch between the maps")
        if lt == rt:
            s = f
        elif len(lt) == len(rt) and all(rt.get(mono) == -coeff
                                        for mono, coeff in lt.items()):
            s = -f
        else:
            raise AssertionError("maps are not proportional by a sign")
        if sign is None:
            sign = s
        elif s != sign:
            raise AssertionError("inconsistent proportionality sign")
    return sign


def _block_elements(top, bottom, blocks):
    """(monomial, element) for every basis monomial of one block, built once
    per `blocks`, a dict owned by the caller."""
    out = blocks.get((top, bottom))
    if out is None:
        out = blocks[top, bottom] = [(mono, RingElement.monomial(mono))
                                     for mono in block_monomials(top, bottom)]
    return out


def phi0(rule, d, c, b, a, *, memo=None, blocks=None):
    """Chronology sign: (xy)z = (-1)^(p(x)*S(c,b,a)) * phi0 * x(yz) on the
    whole block, as a proportionality of linear maps, or None if both maps
    vanish identically (twice at n = 2).  `memo` is the product memo of
    `multiply`, `blocks` that of `_block_elements`."""
    S = scission_count(c, b, a)
    blocks = {} if blocks is None else blocks
    xs, ys, zs = (_block_elements(top, bottom, blocks)
                  for top, bottom in ((d, c), (c, b), (b, a)))
    # y.z does not depend on x: one row of products per y, once per cell
    yzs = [[multiply(rule, y, z, memo=memo) for _, z in zs] for _, y in ys]

    def triples():
        for mx, x in xs:
            phi1 = (-1) ** (mx.mask.bit_count() * S)
            for (_, y), yz_row in zip(ys, yzs):
                xy = multiply(rule, x, y, memo=memo)
                for (_, z), yz in zip(zs, yz_row):
                    yield (multiply(rule, xy, z, memo=memo).terms,
                           multiply(rule, x, yz, memo=memo).terms, phi1)

    return _proportionality(triples())


def _sign_table(sign, n, k, mirrored=False):
    """{k-cell of words: bit or None} over all k-tuples of matchings, bit = 1
    iff sign(*cell) = -1, None where it is undefined.  If `mirrored`, sign
    is known to take one value on a cell and its reverse, so it runs only on
    the first cell of each reversed pair, the one whose words are <= their
    reverse (matchings enumerate in word order), and the other is a copy."""
    _m.check_size("assoc", n)
    table = {}
    for cell in _product(_m.enumerate_matchings(n), repeat=k):
        words = tuple(m.word for m in cell)
        if mirrored and words[::-1] in table:
            table[words] = table[words[::-1]]
        else:
            s = sign(*cell)
            table[words] = None if s is None else (1 - s) // 2
    return table


def phi0_table(rule, n):
    """{(d,c,b,a) words: bit or None}, bit = 1 iff phi0 = -1; None marks
    the cells where the sign is undefined.  The cells share one product
    memo and one list of basis elements per block, dropped on return.

    Where `transpose_witness(rule, n)` certifies the transpose tau as a
    super anti-involution, phi0(a,b,c,d) = phi0(d,c,b,a), so phi0 runs on
    one cell of each reversed pair.  Proof: let x in d(.)c, y in c(.)b and
    z in b(.)a be basis monomials.  Every term of xy has |xy| = |x| + |y| +
    S(d,c,b), as a merge keeps the wedge length of a nonzero term and a
    split adds one; likewise |yz| = |y| + |z| + S(c,b,a).  Apply tau to
    (xy)z = (-1)^(|x|S(c,b,a)) phi0(d,c,b,a) x(yz), and reassociate the
    right side by the cell (a,b,c,d) of tau(z), tau(y), tau(x):
        (-1)^(|xy||z| + |x||y|) tau(z)(tau(y)tau(x))
          = (-1)^(|x|S(c,b,a) + |x||yz| + |y||z| + |z|S(b,c,d))
            phi0(d,c,b,a) phi0(a,b,c,d) tau(z)(tau(y)tau(x)).
    Expanding |xy| and |yz|, the exponents differ by |z|(S(d,c,b) +
    S(b,c,d)), which is even, so phi0(a,b,c,d) = phi0(d,c,b,a) wherever the
    maps are nonzero.  tau is a bijection on basis monomials up to sign that
    carries the (xy)z map of one cell onto the x(yz) map of its reverse and
    back, so both maps vanish on a cell exactly when they vanish on its
    reverse, and a proportionality failure on one cell would show on its
    reverse too.  Without the certificate every cell is computed."""
    _check_rule(rule)
    _m.check_size("assoc", n)
    return _sign_table(partial(phi0, rule, memo={}, blocks={}), n, 4,
                       mirrored=transpose_witness(rule, n) is None)


def _faces(cell):
    return [cell[:i] + cell[i + 1:] for i in range(len(cell))]


def _coboundary(cochain, words, k):
    """{k-cell: XOR of the cochain on its faces} on every k-cell whose faces
    are all defined."""
    out = {}
    for cell in _product(words, repeat=k):
        v = 0
        for face in _faces(cell):
            bit = cochain[face]
            if bit is None:
                break
            v ^= bit
        else:
            out[cell] = v
    return out


def _primitive(cochain, words, k):
    """Canonical lambda on the (k-1)-cells (free variables zero) with
    d(lambda) = cochain on every defined k-cell, or None.  A row XORs its
    faces' bits, as faces repeat where a cell repeats a matching."""
    col_of = {face: j for j, face in enumerate(_product(words, repeat=k - 1))}
    rows, rhs = [], []
    for cell in _product(words, repeat=k):
        if cochain[cell] is None:
            continue
        row = 0
        for face in _faces(cell):
            row ^= 1 << col_of[face]
        rows.append(row)
        rhs.append(cochain[cell])
    x = solve_f2(rows, rhs, len(col_of))
    if x is None:
        return None
    lam = dict(zip(col_of, x))
    for cell, v in _coboundary(lam, words, k).items():
        if cochain[cell] is not None and cochain[cell] != v:
            raise AssertionError(f"d(lambda) != cochain at {cell}")
    return lam


def _table_words(table, n):
    """The words of size n; ValueError unless the keys are their 4-cells."""
    _m.check_size("assoc", n)
    words = [m.word for m in _m.enumerate_matchings(n)]
    if len(table) != len(words) ** 4 or not all(
            cell in table for cell in _product(words, repeat=4)):
        raise ValueError(f"table keys are not the 4-cells of size {n}")
    return words


def cocycle_defect(table, n):
    """Defect of the chronology cocycle identity of a phi0 table on all
    quintuples whose five faces are defined; empty dict iff it holds there.

    The pentagon relates the five reassociations of 1.1.1.1, but the face
    through the composed pair carries x = 1.1 whose wedge length is the
    scission count of that pair, so its phi1 factor does not drop out.  The
    identity that actually holds is therefore the twisted one
        d^3(phi0)(g,h,k,l) = S(g,h) * S(k,l)  (mod 2),
    which reduces to the plain cocycle condition exactly where the cup
    square of S vanishes (e.g. everywhere it is testable at n <= 2)."""
    defects = {}
    for cell, v in _coboundary(table, _table_words(table, n), 5).items():
        e, d, c, b, a = (_m.MATCHINGS[w] for w in cell)
        if v != (scission_count(e, d, c) * scission_count(c, b, a)) & 1:
            defects[cell] = 1
    return defects


def solve_coboundary(table, n):
    """lambda0 over matching triples with d^2(lambda0) = table over F2 on
    every defined cell, or None.  Canonical solution: free variables zero."""
    return _primitive(table, _table_words(table, n), 4)


def rule_sign_ratio(rule1, rule2, c, b, a):
    """Proportionality sign between the odd block maps of the two rules on
    (c,b,a), or None if both maps vanish identically (this happens, e.g.,
    on ((()))|(())()|()(()) at n = 3)."""
    map1, map2 = (block_map(rule, "odd", c, b, a) for rule in (rule1, rule2))
    return _proportionality((map1.get(pair, {}), map2.get(pair, {}), 1)
                            for pair in sorted(map1.keys() | map2))


def eta_table(rule1, rule2, n):
    """{(c,b,a) words: bit or None}, bit = 1 iff the two rules' block maps
    differ by -1; None where both maps vanish, so any sign relates them."""
    _check_rule(rule1, rule2)
    return _sign_table(partial(rule_sign_ratio, rule1, rule2), n, 3)


def compare_rules(rule1, rule2, n):
    """(first quadruple, in enumeration order, where the phi0 tables differ,
    or None; a per-pair sign table eps, or None).  If the two rules have the
    same chronology associator, eps makes x -> (-1)^eps(block of x) * x a
    ring isomorphism (`_rule_isomorphism`); eps is None if the associators
    differ or no such eps exists.  Equal rules share one phi0 table."""
    _check_rule(rule1, rule2)
    t1 = phi0_table(rule1, n)
    t2 = t1 if rule2 is rule1 else phi0_table(rule2, n)
    diff = next((quad for quad in sorted(t1) if t1[quad] != t2[quad]), None)
    if diff is not None:
        return diff, None
    return None, _rule_isomorphism(rule1, rule2, n, t1)


def _rule_isomorphism(rule1, rule2, n, table):
    """The eps of compare_rules for rules with equal associators, `table` the
    phi0 table of both, or None if no eps solves d(eps) = eta.  The two
    associators differ by d(eta) wherever phi0 is defined, so eta must be a
    2-cocycle there; where phi0 is undefined both reassociations vanish and
    d(eta) is free.  No product needs checking: x -> (-1)^eps(block of x) * x
    is a ring map iff the block maps of each triple satisfy B1 =
    (-1)^d(eps) * B2 on every pair; eta_table certifies B1 = (-1)^eta * B2
    on every pair, both maps vanishing where eta is undefined, and
    _primitive certifies d(eps) = eta on every defined triple."""
    eta = eta_table(rule1, rule2, n)
    words = [m.word for m in _m.enumerate_matchings(n)]
    if any(v and table[quad] is not None
           for quad, v in _coboundary(eta, words, 4).items()):
        raise AssertionError("eta is not a 2-cocycle despite equal "
                             "associators")
    return _primitive(eta, words, 3)
