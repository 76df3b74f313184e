"""Centers of the even and odd arc rings as graded lattices.

Every central element is supported on the diagonal blocks a(.)a, so the
unknowns are the coefficients of diagonal basis monomials.  The defining
system for the (odd or even) center is z_a . 1_ab = 1_ab . z_b over all
ordered pairs (a, b), and its rows are written for the unordered pairs
a < b alone (below); the ordinary ring center of the odd theory adds strict
commutation with the degree-1 diagonal generators.  Each exterior-degree
slice is solved separately (the constraints are homogeneous) and the kernel
is returned in canonical column-HNF form, so bases are deterministic.
Membership and coordinates in a center come from one `hnf_columns` echelon
of its generators.

Every product here lies on a split-free triple, (a, a, b), (a, b, b) or
(a, a, a), so its plan is merges only.  Each merge kernel is the algebra map
that identifies two circles, so merges in any order compose to the map of
the circle map: OZ, Z(OH^n), the diagonal products and the Springer
certificate are the same under every rule (pinned for n <= 4 in the tests).

The same argument shows that the pair (b, a) adds no equation to (a, b).
z_a . 1_ab lies on the triple (a, a, b) and 1_ba . z_a on (b, a, a), both
split-free, so each is the image of z_a under the algebra map of a circle
map: the circle of W(a)a through basepoint i goes to the circle through i
of W(a)b, or of W(b)a.  W(a)b and W(b)a have the same circles, numbered by
least point, so the two circle maps are one map, and the two products have
the same masks, coefficients and signs.  Likewise 1_ab . z_b and
z_b . 1_ba.  Read mask by mask, the (b, a) equation z_b . 1_ba = 1_ba . z_a
is therefore the (a, b) equation with its sides swapped, and the kernel is
the same (pinned for n <= 4 in the tests; Khovanov, arXiv:math/0202110,
describes the center of H^n as compatible tuples over pairs of
components, which is this equalizer).
"""

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

from . import matchings as _m
from .arc_rings import (BUILTIN_RULES, BasisMonomial, RingElement,
                        block_monomials, multiply, format_element)
from .exterior import ExteriorElement, wedge
from .zlinalg import hnf_columns, hnf_reduce, kernel_basis_Z


def diagonal_monomials(n):
    """The diagonal monomials [a|a|s] by degree: entry p lists those with
    |s| = p in canonical order, for p = 0..n, from one pass over the
    diagonal blocks."""
    by_degree = [[] for _ in range(n + 1)]
    for a in _m.enumerate_matchings(n):
        for mono in block_monomials(a, a):
            by_degree[mono.mask.bit_count()].append(mono)
    return by_degree


def diagonal_rows(n):
    """{diagonal monomial: row}, over the diagonal monomials of every
    degree in order: the rows of a lattice of central elements."""
    return {m: i for i, m in enumerate(
        m for monos in diagonal_monomials(n) for m in monos)}


@dataclass
class CenterBasis:
    n: int
    flavor: str  # even-center | odd-ring-center | odd-center
    generators: list = field(default_factory=list)
    graded_rank: dict = field(default_factory=dict)

    def total_rank(self):
        return sum(self.graded_rank.values())

    def serialize(self):
        header = "graded_rank: " + " ".join(
            f"{p}:{r}" for p, r in sorted(self.graded_rank.items()))
        return "\n".join([header] + [format_element(g) for g in self.generators])

    @cached_property
    def _echelon(self):
        """({diagonal monomial: row}, echelon of the generators): generator
        k is a column over the diagonal monomials of all degrees with a tag
        1 in row len(row_of) + k.  Built on first use, so the generators
        must be complete by then."""
        row_of = diagonal_rows(self.n)
        tag = len(row_of)
        echelon = hnf_columns(
            {**{row_of[m]: c for m, c in g.terms.items()}, tag + k: 1}
            for k, g in enumerate(self.generators))
        if any(r >= tag for r in echelon):
            raise AssertionError("center generators are linearly dependent")
        return row_of, echelon

    def coordinates(self, elem):
        """Coefficients of elem in the generators, as a tuple, or None if
        elem is off the lattice.  Reducing elem by the tagged echelon leaves
        the monomial rows empty exactly on the lattice, and -coordinates in
        the tag rows; the tuple is written from the remainder's nonzero
        rows alone."""
        row_of, echelon = self._echelon
        vec = {}
        for mono, coeff in elem.terms.items():
            if mono not in row_of:
                return None
            vec[row_of[mono]] = coeff
        tag = len(row_of)
        coords = [0] * len(self.generators)
        for r, coeff in hnf_reduce(echelon, vec).items():
            if r < tag:
                return None
            coords[r - tag] = -coeff
        return tuple(coords)

    def contains(self, elem):
        """Lattice membership."""
        return self.coordinates(elem) is not None


def _pair_constraints(ones, rule, theory, blocks, columns, rows):
    """Rows of {z_a.1_ab - 1_ab.z_b = 0}, one group per (word a, word b,
    1_ab) in `ones`: a row per monomial of a(.)b in order of first
    appearance, numbered by `rows`; each unknown of a, then of b, in fresh
    rows."""
    for a, b, one_ab in ones:
        row_of = defaultdict(rows.__next__)
        for j, z in blocks.get(a, ()):
            col = columns[j]
            for out_mono, coeff in multiply(rule, z, one_ab,
                                            theory).terms.items():
                col[row_of[out_mono]] = coeff
        for j, z in blocks.get(b, ()):
            col = columns[j]
            for out_mono, coeff in multiply(rule, one_ab, z,
                                            theory).terms.items():
                col[row_of[out_mono]] = -coeff


def _commutation_constraints(gens, rule, blocks, columns, rows):
    """Rows of {z_a ^ g - g ^ z_a = 0}, one group per degree-1 diagonal
    generator g in `gens`, numbered as in `_pair_constraints`: g's block
    alone."""
    for gen in gens:
        g = RingElement.monomial(gen)
        row_of = defaultdict(rows.__next__)
        for j, z in blocks.get(gen.top, ()):
            col = columns[j]
            zg, gz = multiply(rule, z, g), multiply(rule, g, z)
            for sign, image in ((1, zg), (-1, gz)):
                for out_mono, coeff in image.terms.items():
                    row = row_of[out_mono]
                    col[row] = col.get(row, 0) + sign * coeff


def _solve(n, rule, theory, flavor):
    _m.check_size("center", n)
    basis = CenterBasis(n=n, flavor=flavor)
    mats = _m.enumerate_matchings(n)
    # 1_ab per unordered pair, a before b in enumeration order, built once
    # for every degree
    ones = [(a.word, b.word, RingElement.monomial(
                BasisMonomial(a.word, b.word, ())))
            for ia, a in enumerate(mats) for b in mats[ia + 1:]]
    by_degree = diagonal_monomials(n)
    for p, unknowns in enumerate(by_degree):
        # {block word: [(j, unknown j as a RingElement, built once)]}
        blocks = {}
        for j, mono in enumerate(unknowns):
            blocks.setdefault(mono.top, []).append(
                (j, RingElement.monomial(mono)))
        columns = [{} for _ in unknowns]
        rows = count()
        _pair_constraints(ones, rule, theory, blocks, columns, rows)
        # a diagonal block multiplies by merges alone, so z.g = z ^ g =
        # (-1)^p g ^ z for z of degree p: only odd p adds nonzero rows
        if flavor == "odd-ring-center" and p % 2:
            _commutation_constraints(by_degree[1], rule, blocks, columns,
                                     rows)
        kernel = kernel_basis_Z(columns)
        basis.graded_rank[p] = len(kernel)
        basis.generators.extend(
            RingElement(n, {unknowns[j]: vec[j] for j in sorted(vec)})
            for vec in kernel)
    return basis


def odd_center(n, rule):
    """OZ(OH^n): elements with z_a.1_ab = 1_ab.z_b, solved over Z."""
    return _solve(n, rule, "odd", "odd-center")


def ring_center(n, rule):
    """Z(OH^n): the odd-center system plus strict commutation with the
    degree-1 diagonal generators."""
    return _solve(n, rule, "odd", "odd-ring-center")


def even_center(n):
    return _solve(n, BUILTIN_RULES["default"], "even", "even-center")


def diagonal_product_witness(n, rule, theory):
    """None if every product [a|a|s] . [a|a|t] in `theory` is s ^ t on the
    circles of W(a)a in their order (odd), or s | t for disjoint s, t and 0
    otherwise (even, x^2 = 0); else {"block": a.word, "pair": [repr(x),
    repr(y)]} for the first block a and pair that is not."""
    for a in _m.enumerate_matchings(n):
        labels = range(_m.closed_diagram(a, a)[1])
        monos = block_monomials(a, a)
        wedges = [ExteriorElement(labels, {x.mask: 1}) for x in monos]
        for x, wx in zip(monos, wedges):
            for y, wy in zip(monos, wedges):
                xy = multiply(rule, RingElement.monomial(x),
                              RingElement.monomial(y), theory)
                want = (wedge(wx, wy).terms if theory == "odd" else
                        {} if x.mask & y.mask else {x.mask | y.mask: 1})
                if {m.mask: c for m, c in xy.terms.items()} != want:
                    return {"block": a.word, "pair": [repr(x), repr(y)]}
    return None


def center_structure_constants(basis, rule):
    """Products of all generator pairs re-expressed in the basis, sharing
    one product memo; AssertionError (a bug) unless the diagonal product
    check passes and the center is closed.  Associativity needs no check of
    its own: every generator lies on the diagonal blocks, distinct diagonal
    blocks multiply to 0, and within one block a(.)a the product is the
    wedge (odd) or tensor (even) product on the circles of W(a)a, which
    `diagonal_product_witness` checks first; both are associative."""
    if not isinstance(basis, CenterBasis):
        raise ValueError(f"{basis!r} is not a CenterBasis")
    _m.check_size("center", basis.n)
    theory = "even" if basis.flavor == "even-center" else "odd"
    witness = diagonal_product_witness(basis.n, rule, theory)
    if witness is not None:
        raise AssertionError(
            f"{theory} product on the diagonal block {witness['block']} is "
            f"wrong at {' * '.join(witness['pair'])}")
    gens, memo = basis.generators, {}
    table = {(i, j): basis.coordinates(multiply(rule, gi, gj, theory,
                                                memo=memo))
             for i, gi in enumerate(gens) for j, gj in enumerate(gens)}
    if None in table.values():
        raise AssertionError("center not closed under multiplication")
    return table
