"""The graded rings H^n (even) and OH^n_C (odd): basis monomials, degrees,
and the bridge-resolution multiplication.

Multiplication of x in c(.)b by y in b(.)a stacks the closed diagram W(c)b on
top of W(b)a and resolves one bridge per arc of b, scanning basepoints in the
order prescribed by the multiplication rule.  Two independent implementations
are provided:

  multiply              simulates the odd/even functor on the elementary
                        merge/split moves (normative);
  multiply_diagrammatic reimplements the same product through the colored
                        diagram sign tables (independent oracle, odd only).

Circle components are ordered throughout by scanning the top boundary row
left to right, then the bottom row; that order is what every sign depends on.
"""

from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter

from . import matchings as _m
from .exterior import ExteriorElement, EvenTensorElement, wedge, rename
from .zlinalg import SparseZ


# ---------------------------------------------------------------------------
# basis monomials and ring elements

@dataclass(frozen=True)
class BasisMonomial:
    top: str      # word of b, for an element of b(.)a
    bottom: str   # word of a
    colored: frozenset

    def __post_init__(self):
        assert len(self.top) == len(self.bottom)

    @property
    def n(self):
        return len(self.top) // 2

    def circles(self):
        return _m.closed_diagram(_m.Matching(self.top),
                                 _m.Matching(self.bottom)).circles

    def degree(self):
        return 2 * len(self.colored) - len(self.circles()) + self.n

    def sort_key(self):
        return (self.top, self.bottom,
                len(self.colored), tuple(sorted(self.colored)))

    def __repr__(self):
        inner = ",".join(str(i) for i in sorted(self.colored))
        return f"[{self.top}|{self.bottom}|{{{inner}}}]"


def exterior_degree(mono):
    """p(z) = number of wedge factors = (deg - n + |circles|) / 2."""
    return len(mono.colored)


class RingElement(SparseZ):
    """Exact integer combination of basis monomials of H^n or OH^n."""

    __slots__ = ()
    n = property(attrgetter("space"))

    def _normal(self, mono):
        if mono.n != self.space:
            raise ValueError(f"{mono!r} is not a basis monomial for "
                             f"n={self.space}")
        return mono, 1

    @staticmethod
    def monomial(mono, coeff=1):
        return RingElement(mono.n, {mono: coeff})

    def __repr__(self):
        return format_element(self)


def block_monomials(top, bottom):
    """The basis monomials [top|bottom|s] of one block, ordered by |s| and
    then by the sorted circle indices of s."""
    k = len(_m.closed_diagram(top, bottom).circles)
    return [BasisMonomial(top.word, bottom.word, frozenset(s))
            for p in range(k + 1) for s in combinations(range(1, k + 1), p)]


def ring_basis(n, theory="odd"):
    """All (BasisMonomial, degree) over all blocks, in canonical order.
    The basis set does not depend on the theory; the argument is kept for
    symmetry of the API."""
    if theory not in ("odd", "even"):
        raise ValueError(f"unknown theory {theory!r}")
    _m.check_size("basis", n)
    mats = _m.enumerate_matchings(n)
    return [(mono, mono.degree())
            for b in mats for a in mats for mono in block_monomials(b, a)]


def unit(n):
    return RingElement(n, {BasisMonomial(a.word, a.word, frozenset()): 1
                           for a in _m.enumerate_matchings(n)})


# ---------------------------------------------------------------------------
# multiplication rules

class MultiplicationRule:
    """Per-triple scan order on basepoints plus split orientations."""

    name = "abstract"

    def order(self, c, b, a):
        raise NotImplementedError

    def split_source(self, c, b, a, scan, partner, key_scan, key_partner):
        """Which endpoint of the arc {scan, partner} of b is the orientation
        source of the split.  key_* are the post-split component order keys of
        the components through the two columns."""
        raise NotImplementedError


class DefaultRule(MultiplicationRule):
    """Usual basepoint order; arc (i, j) oriented i ~> j for i < j."""

    name = "default"

    def order(self, c, b, a):
        return tuple(range(1, 2 * c.n + 1))

    def split_source(self, c, b, a, scan, partner, key_scan, key_partner):
        return min(scan, partner)


class OrderRule(MultiplicationRule):
    """Usual basepoint order; a split is oriented out of the component that
    comes first in the component order of the post-split diagram."""

    name = "ord"

    def order(self, c, b, a):
        return tuple(range(1, 2 * c.n + 1))

    def split_source(self, c, b, a, scan, partner, key_scan, key_partner):
        return scan if key_scan < key_partner else partner


class FlippedRule(MultiplicationRule):
    """A base rule with split orientations reversed, either everywhere or on
    a given set of (c, b, a) word triples."""

    def __init__(self, base, triples=None):
        self.base = base
        self.triples = None if triples is None else {tuple(t) for t in triples}
        which = "all" if triples is None else ",".join(
            "|".join(t) for t in sorted(self.triples))
        self.name = f"flip({base.name};{which})"

    def order(self, c, b, a):
        return self.base.order(c, b, a)

    def split_source(self, c, b, a, scan, partner, key_scan, key_partner):
        src = self.base.split_source(c, b, a, scan, partner,
                                     key_scan, key_partner)
        if self.triples is None or (c.word, b.word, a.word) in self.triples:
            return partner if src == scan else scan
        return src


class CustomRule(MultiplicationRule):
    """Explicit per-triple data: orders[(c,b,a) words] -> tuple of basepoints,
    sources[(c,b,a) words] -> {frozenset(arc): source basepoint}.  Missing
    triples fall back to the given base rule."""

    name = "custom"

    def __init__(self, n, orders=None, sources=None, base=None):
        self.n = n
        self.orders = orders or {}
        self.sources = sources or {}
        self.base = base or DefaultRule()
        for key, order in self.orders.items():
            b = _m.Matching(key[1])
            _check_admissible(order, b)

    def order(self, c, b, a):
        key = (c.word, b.word, a.word)
        return self.orders.get(key) or self.base.order(c, b, a)

    def split_source(self, c, b, a, scan, partner, key_scan, key_partner):
        key = (c.word, b.word, a.word)
        if key in self.sources:
            return self.sources[key][frozenset((scan, partner))]
        return self.base.split_source(c, b, a, scan, partner,
                                      key_scan, key_partner)


def _check_admissible(order, b):
    """An order is admissible if for every arc (i, j) of b and every point k
    strictly between them, i or j comes strictly before k."""
    if sorted(order) != list(range(1, 2 * b.n + 1)):
        raise ValueError("order is not a permutation of the basepoints")
    pos = {p: idx for idx, p in enumerate(order)}
    for (i, j) in b.arcs():
        for k in range(i + 1, j):
            if not (pos[i] < pos[k] or pos[j] < pos[k]):
                raise ValueError(
                    f"inadmissible order: arc ({i},{j}) vs point {k}")


def validate_rule(rule, n):
    """Eagerly check admissibility of the rule's orders on every triple."""
    mats = _m.enumerate_matchings(n)
    for c in mats:
        for b in mats:
            for a in mats:
                _check_admissible(list(rule.order(c, b, a)), b)


BUILTIN_RULES = {"default": DefaultRule(), "ord": OrderRule()}


# ---------------------------------------------------------------------------
# the two-row bridge diagram

class _Bridge:
    """Geometric state of the bridge resolution: ports ('T', col)/('B', col)
    with the arcs of c, b (twice) and a as edges; components tracked as
    id -> point set.  Components are ordered by (row, min column), top row
    first — the scan order of the equivalence proof."""

    def __init__(self, c, b, a):
        self.n = c.n
        self.b = b
        cols = range(1, 2 * self.n + 1)
        # edge lists per point; edges are ('kind', i, j) with i < j
        self.edges = set()
        for (i, j) in c.arcs():
            self.edges.add(("c", i, j))
        for (i, j) in b.arcs():
            self.edges.add(("bt", i, j))
            self.edges.add(("bb", i, j))
        for (i, j) in a.arcs():
            self.edges.add(("a", i, j))
        self.vertical = set()  # columns already resolved
        self.comp_points = {}
        self.next_id = 0
        top = _m.closed_diagram(c, b).circles
        bot = _m.closed_diagram(b, a).circles
        self.top_count = len(top)
        for circ in top:
            self.comp_points[self.next_id] = frozenset(("T", p) for p in circ)
            self.next_id += 1
        for circ in bot:
            self.comp_points[self.next_id] = frozenset(("B", p) for p in circ)
            self.next_id += 1

    def key(self, cid):
        pts = self.comp_points[cid]
        tcols = [p for (row, p) in pts if row == "T"]
        if tcols:
            return (0, min(tcols))
        return (1, min(p for (_, p) in pts))

    def labels(self):
        return tuple(sorted(self.comp_points, key=self.key))

    def comp_of(self, point):
        for cid, pts in self.comp_points.items():
            if point in pts:
                return cid
        raise AssertionError(f"point {point} unaccounted for")

    def _adjacency(self):
        adj = {}
        for (kind, i, j) in self.edges:
            row = "T" if kind in ("c", "bt") else "B"
            p, q = (row, i), (row, j)
            adj.setdefault(p, []).append(q)
            adj.setdefault(q, []).append(p)
        for col in self.vertical:
            adj.setdefault(("T", col), []).append(("B", col))
            adj.setdefault(("B", col), []).append(("T", col))
        return adj

    def _component_from(self, start, adj):
        seen = {start}
        stack = [start]
        while stack:
            for q in adj.get(stack.pop(), ()):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        return frozenset(seen)

    def surgery(self, col):
        """Resolve the bridge on the arc of b through `col`.  Returns
        ('merge', target, loser) or ('split', parent, child_scan, child_partner)
        where the children are the post-surgery components through `col` and
        its partner column."""
        j = self.b.partner[col]
        i, jj = min(col, j), max(col, j)
        assert ("bt", i, jj) in self.edges, "arc already resolved"
        ct = self.comp_of(("T", col))
        cb = self.comp_of(("B", col))
        self.edges.remove(("bt", i, jj))
        self.edges.remove(("bb", i, jj))
        self.vertical.add(i)
        self.vertical.add(jj)
        adj = self._adjacency()
        if ct != cb:
            # merge: smaller-key component keeps its id
            target, loser = (ct, cb) if self.key(ct) < self.key(cb) else (cb, ct)
            self.comp_points[target] = (self.comp_points[target]
                                        | self.comp_points[loser])
            del self.comp_points[loser]
            return ("merge", target, loser)
        # split
        parent = ct
        pts_scan = self._component_from(("T", col), adj)
        pts_partner = self._component_from(("T", j), adj)
        assert pts_scan != pts_partner, "planar surgery must split"
        assert pts_scan | pts_partner == self.comp_points[parent]
        child_scan = parent
        child_partner = self.next_id
        self.next_id += 1
        self.comp_points[child_scan] = pts_scan
        self.comp_points[child_partner] = pts_partner
        return ("split", parent, child_scan, child_partner)


def _final_terms(state, c, a, terms):
    """Re-key terms over sets of component ids of the fully resolved diagram
    by sets of 1-based circle indices of W(c)a."""
    final = _m.closed_diagram(c, a)
    labels = state.labels()
    assert len(labels) == len(final.circles)
    index = {}
    for cid in labels:
        tcols = sorted(p for (row, p) in state.comp_points[cid] if row == "T")
        idx = final.circle_of[tcols[0]]
        assert frozenset(tcols) == final.circles[idx - 1]
        index[cid] = idx
    out = {}
    for ids, coeff in terms.items():
        colored = frozenset(index[cid] for cid in ids)
        out[colored] = out.get(colored, 0) + coeff
    return {s: v for s, v in out.items() if v}


# ---------------------------------------------------------------------------
# normative multiplication (functor simulation)

def _resolve_monomials(rule, c, b, a, colored_x, colored_y, theory,
                       stats=None):
    """Product of [c|b|colored_x] . [b|a|colored_y]; returns {frozenset: int}
    over colored sets of W(c)a circle indices."""
    state = _Bridge(c, b, a)
    labels = state.labels()
    ids_x = tuple(sorted((i - 1 for i in colored_x)))
    ids_y = tuple(sorted((state.top_count + i - 1 for i in colored_y)))
    if theory == "odd":
        elem = ExteriorElement(labels, {ids_x + ids_y: 1})
    else:
        elem = EvenTensorElement(labels, {frozenset(ids_x + ids_y): 1})

    for col in rule.order(c, b, a):
        if col in state.vertical:
            continue
        partner = state.b.partner[col]
        result = state.surgery(col)
        new_labels = state.labels()
        if result[0] == "merge":
            _, target, loser = result
            if theory == "odd":
                elem = rename(elem, {loser: target}, new_labels)
            else:
                elem = elem.rename({loser: target}, new_labels)
        else:
            _, parent, ch_scan, ch_partner = result
            if stats is not None:
                stats["splits"] = stats.get("splits", 0) + 1
            key_scan = state.key(ch_scan)
            key_partner = state.key(ch_partner)
            src = rule.split_source(c, b, a, col, partner,
                                    key_scan, key_partner)
            assert src in (col, partner)
            if src == col:
                a1, a2 = ch_scan, ch_partner
            else:
                a1, a2 = ch_partner, ch_scan
            if theory == "odd":
                xbar = rename(elem, {parent: a1}, new_labels)
                factor = ExteriorElement(new_labels, {(a1,): 1, (a2,): -1})
                elem = wedge(factor, xbar)
            else:
                elem = _even_split(elem, parent, ch_scan, ch_partner,
                                   new_labels)
    return _final_terms(state, c, a, elem.terms)


def _even_split(elem, parent, c1, c2, new_labels):
    out = EvenTensorElement(new_labels)
    terms = {}
    for mono, coeff in elem.terms.items():
        if parent in mono:
            images = [frozenset(x for x in mono if x != parent) | {c1, c2}]
        else:
            images = [mono | {c1}, mono | {c2}]
        for mono2 in images:
            cc = terms.get(mono2, 0) + coeff
            if cc:
                terms[mono2] = cc
            else:
                terms.pop(mono2, None)
    out.terms = terms
    return out


def _block_product(resolve, x, y):
    """Bilinear extension of resolve(c, b, a, colored_x, colored_y), the
    product of two basis monomials as {colored set: coeff}; each distinct
    monomial pair is resolved once.  Zero across non-matching blocks."""
    if x.n != y.n:
        raise ValueError(f"cannot multiply elements for n={x.n} and n={y.n}")
    out = RingElement(x.n)
    terms = out.terms
    cache = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            if mx.bottom != my.top:
                continue
            key = (mx.top, mx.bottom, my.bottom, mx.colored, my.colored)
            if key not in cache:
                cache[key] = resolve(
                    _m.Matching(mx.top), _m.Matching(mx.bottom),
                    _m.Matching(my.bottom), mx.colored, my.colored)
            for colored, coeff in cache[key].items():
                mono = BasisMonomial(mx.top, my.bottom, colored)
                cc = terms.get(mono, 0) + cx * cy * coeff
                if cc:
                    terms[mono] = cc
                else:
                    terms.pop(mono, None)
    return out


def multiply(rule, x, y, theory="odd", stats=None):
    """Bilinear product; zero across non-matching blocks.  For the even
    theory the rule is ignored (the product is order-independent and carries
    no orientations); the usual left-to-right scan is used."""
    if theory == "even":
        rule = BUILTIN_RULES["default"]
    return _block_product(
        lambda c, b, a, colored_x, colored_y: _resolve_monomials(
            rule, c, b, a, colored_x, colored_y, theory, stats), x, y)


# ---------------------------------------------------------------------------
# diagrammatic multiplication (colored diagrams with sign tables; odd only)

def _resolve_diagrammatic(rule, c, b, a, colored_x, colored_y):
    state = _Bridge(c, b, a)
    # terms: {frozenset(component ids colored): coeff}
    ids_x = frozenset(i - 1 for i in colored_x)
    ids_y = frozenset(state.top_count + i - 1 for i in colored_y)
    terms = {ids_x | ids_y: 1}

    for col in rule.order(c, b, a):
        if col in state.vertical:
            continue
        partner = state.b.partner[col]
        # component order before the surgery
        ct = state.comp_of(("T", col))
        cb = state.comp_of(("B", col))
        keys_before = {cid: state.key(cid) for cid in state.comp_points}
        result = state.surgery(col)
        if result[0] == "merge":
            _, target, loser = result
            x_comp, y_comp = ct, cb  # top-side and bottom-side components
            new_terms = {}
            for colored, coeff in terms.items():
                cx, cy = x_comp in colored, y_comp in colored
                if cx and cy:
                    continue
                if not cx and not cy:
                    new_colored = colored
                    sign = 1
                else:
                    if cx:
                        lo, hi = keys_before[y_comp], keys_before[x_comp]
                    else:
                        lo, hi = keys_before[x_comp], keys_before[y_comp]
                    m = sum(1 for cid in colored
                            if cid not in (x_comp, y_comp)
                            and lo < keys_before[cid] < hi)
                    sign = (-1) ** m
                    new_colored = (colored - {x_comp, y_comp}) | {target}
                cc = new_terms.get(new_colored, 0) + sign * coeff
                if cc:
                    new_terms[new_colored] = cc
                else:
                    new_terms.pop(new_colored, None)
            terms = new_terms
        else:
            _, parent, ch_scan, ch_partner = result
            keys_now = {cid: state.key(cid) for cid in state.comp_points}
            src = rule.split_source(c, b, a, col, partner,
                                    keys_now[ch_scan], keys_now[ch_partner])
            alpha = 1 if src == col else -1
            ki, kj = keys_now[ch_scan], keys_now[ch_partner]
            new_terms = {}

            def put(colored, coeff):
                cc = new_terms.get(colored, 0) + coeff
                if cc:
                    new_terms[colored] = cc
                else:
                    new_terms.pop(colored, None)

            for colored, coeff in terms.items():
                others = colored - {parent}
                if parent not in colored:
                    # uncolored circle splits: alpha (b_i D_i - b_j D_j)
                    m_i = sum(1 for cid in others if keys_now[cid] < ki)
                    m_j = sum(1 for cid in others if keys_now[cid] < kj)
                    put(others | {ch_scan}, alpha * (-1) ** m_i * coeff)
                    put(others | {ch_partner}, -alpha * (-1) ** m_j * coeff)
                else:
                    # colored circle splits: both children colored, sign beta
                    new_colored = others | {ch_scan, ch_partner}
                    m = sum(1 for cid in new_colored
                            if keys_now[cid] <= kj or keys_now[cid] < ki)
                    put(new_colored, alpha * (-1) ** m * coeff)
            terms = new_terms
    return _final_terms(state, c, a, terms)


def multiply_diagrammatic(rule, x, y):
    """Same contract as multiply (odd theory), via the colored-diagram sign
    tables."""
    return _block_product(
        lambda c, b, a, colored_x, colored_y: _resolve_diagrammatic(
            rule, c, b, a, colored_x, colored_y), x, y)


# ---------------------------------------------------------------------------
# element grammar

def format_element(elem):
    if not elem.terms:
        return "0"
    monos = sorted(elem.terms, key=BasisMonomial.sort_key)
    bits = []
    for idx, mono in enumerate(monos):
        coeff = elem.terms[mono]
        body = f"{abs(coeff)}*{mono!r}"
        if idx == 0:
            bits.append(body if coeff > 0 else "-" + body)
        else:
            bits.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(bits)


def parse_element(text, n=None):
    """Parse the element grammar:
    element := term (('+'|'-') term)*
    term    := [uint '*'] '[' matching '|' matching '|' '{' uints '}' ']'
    """
    import re

    s = text.strip()
    if not s:
        raise ValueError("empty element")
    if s == "0":
        if n is None:
            raise ValueError("cannot infer n from '0'")
        return RingElement.zero(n)
    term_re = re.compile(
        r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\*)?"
        r"\[(?P<top>[()]+)\|(?P<bottom>[()]+)\|\{(?P<cols>[\d,\s]*)\}\]")
    pos = 0
    terms = {}
    first = True
    while pos < len(s):
        match = term_re.match(s, pos)
        if not match:
            raise ValueError(f"parse error at {s[pos:]!r}")
        sign = match.group("sign")
        if not first and sign is None:
            raise ValueError(f"missing +/- before {s[pos:]!r}")
        coeff = int(match.group("coeff") or 1)
        if sign == "-":
            coeff = -coeff
        top, bottom = match.group("top"), match.group("bottom")
        tm, bm = _m.Matching(top), _m.Matching(bottom)
        if tm.n != bm.n or (n is not None and tm.n != n):
            raise ValueError("matching sizes disagree")
        k = len(_m.closed_diagram(tm, bm).circles)
        cols = frozenset(int(u) for u in match.group("cols").split(",") if u.strip())
        if any(not 1 <= i <= k for i in cols):
            raise ValueError(f"circle index out of range in {match.group(0)}")
        mono = BasisMonomial(top, bottom, cols)
        terms[mono] = terms.get(mono, 0) + coeff
        pos = match.end()
        first = False
    if n is None:
        n = next(iter(terms)).n
    return RingElement(n, terms)
