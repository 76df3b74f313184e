"""Centers of the even and odd arc rings as graded lattices.

Every central element is supported on the diagonal blocks a(.)a, so the
unknowns are the coefficients of diagonal basis monomials.  The defining
system for the (odd or even) center is z_a . 1_ab = 1_ab . z_b over all
ordered pairs (a, b); the ordinary ring center of the odd theory adds strict
commutation with the degree-1 diagonal generators.  Each exterior-degree
slice is solved separately (the constraints are homogeneous) and the kernel
is returned in canonical column-HNF form, so bases are deterministic.
"""

from dataclasses import dataclass, field

from . import matchings as _m
from .arc_rings import (BasisMonomial, RingElement, block_monomials, multiply,
                        format_element)
from .zlinalg import kernel_basis_Z, column_hnf, solve_Z


def diagonal_monomials(n, p):
    """All [a|a|s] with |s| = p, in canonical order."""
    return [mono for a in _m.enumerate_matchings(n)
            for mono in block_monomials(a, a) if len(mono.colored) == p]


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

    def coordinate_matrix(self, p):
        """Degree-p generators as columns over diagonal_monomials(n, p)."""
        monos = diagonal_monomials(self.n, p)
        gens = [g for g in self.generators
                if any(len(m.colored) == p for m in g.terms)]
        return [[g.terms.get(m, 0) for g in gens] for m in monos], gens

    def contains(self, elem):
        """Lattice membership, degree slice by degree slice."""
        by_p = {}
        for mono, coeff in elem.terms.items():
            if mono.top != mono.bottom:
                return False
            by_p.setdefault(len(mono.colored), {})[mono] = coeff
        for p, terms in by_p.items():
            M, gens = self.coordinate_matrix(p)
            if not gens:
                return False
            monos = diagonal_monomials(self.n, p)
            v = [terms.get(m, 0) for m in monos]
            if solve_Z(M, v) is None:
                return False
        return True


def _pair_constraints(n, rule, p, theory):
    """Rows of the system {z_a.1_ab - 1_ab.z_b = 0} on the degree-p slice."""
    mats = _m.enumerate_matchings(n)
    unknowns = diagonal_monomials(n, p)
    col_of = {m: j for j, m in enumerate(unknowns)}
    rows = []
    for a in mats:
        for b in mats:
            if a is b:
                continue
            one_ab = RingElement.monomial(
                BasisMonomial(a.word, b.word, frozenset()))
            # image coordinates live in block a(.)b
            row_of = {}
            block_rows = []
            for mono in unknowns:
                z = RingElement.monomial(mono)
                if mono.bottom == a.word:
                    diff = multiply(rule, z, one_ab, theory)
                elif mono.top == b.word:
                    diff = -multiply(rule, one_ab, z, theory)
                else:
                    continue
                for out_mono, coeff in diff.terms.items():
                    if out_mono not in row_of:
                        row_of[out_mono] = len(block_rows)
                        block_rows.append([0] * len(unknowns))
                    block_rows[row_of[out_mono]][col_of[mono]] += coeff
            rows.extend(block_rows)
    return unknowns, rows


def _commutation_constraints(n, rule, p):
    """Rows of {z_a ^ g - g ^ z_a = 0} for degree-1 diagonal generators g."""
    unknowns = diagonal_monomials(n, p)
    col_of = {m: j for j, m in enumerate(unknowns)}
    rows = []
    for gen in diagonal_monomials(n, 1):
        g = RingElement.monomial(gen)
        row_of = {}
        block_rows = []
        for mono in unknowns:
            if mono.bottom != gen.top:
                continue
            z = RingElement.monomial(mono)
            diff = multiply(rule, z, g) - multiply(rule, g, z)
            for out_mono, coeff in diff.terms.items():
                if out_mono not in row_of:
                    row_of[out_mono] = len(block_rows)
                    block_rows.append([0] * len(unknowns))
                block_rows[row_of[out_mono]][col_of[mono]] += coeff
        rows.extend(block_rows)
    return rows


def _solve(n, rule, theory, flavor, extra_rows=None):
    basis = CenterBasis(n=n, flavor=flavor)
    for p in range(n + 1):
        unknowns, rows = _pair_constraints(n, rule, p, theory)
        if extra_rows is not None:
            rows = rows + extra_rows(p)
        if not unknowns:
            basis.graded_rank[p] = 0
            continue
        if not rows:
            K = column_hnf([[1 if i == j else 0 for j in range(len(unknowns))]
                            for i in range(len(unknowns))])
        else:
            K = kernel_basis_Z(rows)
        dim = len(K[0]) if K and K[0] else 0
        basis.graded_rank[p] = dim
        for j in range(dim):
            g = RingElement(n, {m: K[i][j] for i, m in enumerate(unknowns)})
            basis.generators.append(g)
    return basis


def odd_center(n, rule):
    """OZ(OH^n): elements with z_a.1_ab = 1_ab.z_b, solved over Z."""
    _m.check_size("center", n)
    return _solve(n, rule, "odd", "odd-center")


def ring_center(n, rule):
    """Z(OH^n): the odd-center system plus strict commutation with the
    degree-1 diagonal generators."""
    _m.check_size("center", n)
    return _solve(n, rule, "odd", "odd-ring-center",
                  extra_rows=lambda p: _commutation_constraints(n, rule, p))


def even_center(n):
    _m.check_size("center", n)
    from .arc_rings import BUILTIN_RULES
    return _solve(n, BUILTIN_RULES["default"], "even", "even-center")


def center_structure_constants(basis, rule):
    """Products of all generator pairs re-expressed in the basis; closure and
    associativity are mandatory (their failure signals a bug)."""
    theory = "even" if basis.flavor == "even-center" else "odd"
    n = basis.n
    monos = [m for p in range(n + 1) for m in diagonal_monomials(n, p)]
    row_of = {m: i for i, m in enumerate(monos)}
    G = [[g.terms.get(m, 0) for g in basis.generators] for m in monos]

    def coords(elem):
        v = [0] * len(monos)
        for mono, coeff in elem.terms.items():
            if mono not in row_of:
                raise AssertionError("product left the diagonal blocks")
            v[row_of[mono]] = coeff
        x = solve_Z(G, v)
        if x is None:
            raise AssertionError("center not closed under multiplication")
        return tuple(x)

    table = {}
    prods = {}
    for i, gi in enumerate(basis.generators):
        for j, gj in enumerate(basis.generators):
            prods[i, j] = multiply(rule, gi, gj, theory)
            table[i, j] = coords(prods[i, j])
    # associativity defect must vanish
    for i, gi in enumerate(basis.generators):
        for j in range(len(basis.generators)):
            for k, gk in enumerate(basis.generators):
                left = multiply(rule, prods[i, j], gk, theory)
                right = multiply(rule, gi, prods[j, k], theory)
                if left != right:
                    raise AssertionError("center product not associative")
    return table
