"""The graded rings H^n (even) and OH^n_C (odd): basis monomials, degrees,
and the bridge-resolution multiplication.

Multiplication of x in c(.)b by y in b(.)a stacks the closed diagram W(c)b on
top of W(b)a and resolves one bridge per arc of b, scanning basepoints in the
order prescribed by the multiplication rule.  The geometry of that resolution
is computed once per (rule, c, b, a) by `_plan_of_words`, as merge and split
events on circle positions, and compiled into the bit-constant kernels of
`functors` once per event sequence, which many triples share.  Two
independent interpretations of the plan are provided:

  multiply              runs the odd/even surface functor on the plan's
                        compiled merge/split/permute ops (normative);
  multiply_diagrammatic reimplements the same product through the colored
                        diagram sign tables (independent oracle, odd only);
                        it shares the plan's geometry, not its algebra: it
                        compiles each plan event once into its own position
                        masks and counts the signs of its tables on them.

Both stop at the first zero state.

Circles are numbered throughout by least point (`matchings.circle_positions`);
on a stacked diagram that is (row, min column) order: the top boundary row
left to right, then the bottom row.  Every sign depends on that order.
Colored circles are int masks, bit k - 1 for circle k, from basis monomial
to kernel and back.
"""

from functools import lru_cache
from itertools import combinations
from operator import attrgetter, itemgetter
import re

from . import functors as _f
from . import matchings as _m
from .zlinalg import SparseZ, signed_sum, signed_terms


# ---------------------------------------------------------------------------
# basis monomials and ring elements

class BasisMonomial(tuple):
    """[top|bottom|colored], an element of b(.)a with top = b.word, bottom =
    a.word and colored the 1-based circles of W(b)a that carry a wedge
    factor.  An immutable (top, bottom, mask) tuple, so that it hashes and
    compares in C; `colored` is a frozenset view of the mask."""

    __slots__ = ()

    def __new__(cls, top, bottom, colored):
        if not (isinstance(top, str) and isinstance(bottom, str)
                and hasattr(colored, "__iter__")):
            raise ValueError(f"need two words and an iterable of circles, "
                             f"not {top!r}, {bottom!r}, {colored!r}")
        if len(top) != len(bottom):
            raise ValueError(f"matching words {top!r} and "
                             f"{bottom!r} differ in length")
        count = _m.closed_diagram(_m.MATCHINGS[top], _m.MATCHINGS[bottom])[1]
        mask = 0
        for i in colored:
            if type(i) is not int:
                raise ValueError(f"circle index {i!r} is not an int")
            if not 1 <= i <= count:
                why = "circle index out of range"
            elif mask >> i - 1 & 1:
                # x_i ^ x_i = 0: a repeated circle is no basis monomial
                why = "repeated circle index"
            else:
                mask |= 1 << i - 1
                continue
            inner = ",".join(map(str, sorted(colored)))
            raise ValueError(f"{why} in [{top}|{bottom}|{{{inner}}}]")
        return tuple.__new__(cls, (top, bottom, mask))

    top = property(itemgetter(0))
    bottom = property(itemgetter(1))
    mask = property(itemgetter(2))
    colored = property(lambda self: frozenset(_circles(self.mask)))

    @property
    def n(self):
        return len(self.top) // 2

    def degree(self):
        count = _m.closed_diagram(_m.MATCHINGS[self.top],
                                  _m.MATCHINGS[self.bottom])[1]
        return 2 * self.mask.bit_count() - count + self.n

    def sort_key(self):
        top, bottom, mask = self
        return top, bottom, mask.bit_count(), tuple(_circles(mask))

    def __repr__(self):
        inner = ",".join(map(str, _circles(self.mask)))
        return f"[{self.top}|{self.bottom}|{{{inner}}}]"


def _circles(mask):
    """The circles of a mask, increasing."""
    return [i for i in range(1, mask.bit_length() + 1) if mask >> i - 1 & 1]


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
        out = object.__new__(RingElement)
        out.space = mono.n
        out.terms = {mono: coeff} if coeff else {}
        return out

    def __repr__(self):
        return format_element(self)


def block_monomials(top, bottom):
    """The basis monomials [top|bottom|s] of one block, ordered by |s| and
    then by the sorted circle indices of s."""
    k = _m.closed_diagram(top, bottom)[1]
    return [tuple.__new__(BasisMonomial, (top.word, bottom.word,
                                          sum(1 << i for i in s)))
            for p in range(k + 1) for s in combinations(range(k), p)]


def ring_basis(n):
    """All (BasisMonomial, degree) over all blocks, in canonical order; the
    even and odd rings share it."""
    _m.check_size("basis", n)
    mats = _m.enumerate_matchings(n)
    return [(mono, mono.degree())
            for b in mats for a in mats for mono in block_monomials(b, a)]


def basis_pairs(n):
    """Each pair (mx, my) of basis monomials with mx.bottom == my.top, the
    pairs whose product can be nonzero, in ring_basis order of mx and then
    of my."""
    basis = [mono for mono, _ in ring_basis(n)]
    by_top = {}
    for mono in basis:
        by_top.setdefault(mono.top, []).append(mono)
    return ((mx, my) for mx in basis for my in by_top[mx.bottom])


def unit(n):
    return RingElement(n, {BasisMonomial(a.word, a.word, frozenset()): 1
                           for a in _m.enumerate_matchings(n)})


# ---------------------------------------------------------------------------
# multiplication rules

class MultiplicationRule:
    """Per-triple scan order on basepoints plus split orientations.  Products
    cache the resolution plan per rule and triple, so a rule must not change
    its answers after its first product."""

    name = "abstract"

    def order(self, c, b, a):
        """The basepoints in scan order: the usual left-to-right order unless
        a rule overrides it."""
        return tuple(range(1, 2 * c.n + 1))

    def split_source(self, c, b, a, scan, partner, key_scan, key_partner):
        """Which endpoint of the arc {scan, partner} of b is the orientation
        source of the split.  key_scan and key_partner order the two children
        through the two columns: they are the children's 1-based positions
        in the (row, min column) order of the post-split circles."""
        raise NotImplementedError


class DefaultRule(MultiplicationRule):
    """Usual basepoint order; arc (i, j) oriented i ~> j for i < j."""

    name = "default"

    def split_source(self, c, b, a, scan, partner, key_scan, key_partner):
        return min(scan, partner)


class OrderRule(MultiplicationRule):
    """Usual basepoint order; a split is oriented out of the component that
    comes first in the component order of the post-split diagram."""

    name = "ord"

    def split_source(self, c, b, a, scan, partner, key_scan, key_partner):
        return scan if key_scan < key_partner else partner


class FlippedRule(MultiplicationRule):
    """A base rule with split orientations reversed, everywhere or on a set
    of (c, b, a) triples, each a tuple of three words of one size; ValueError
    for any other base or triples."""

    def __init__(self, base, triples=None):
        if not (isinstance(base, MultiplicationRule) and (
                triples is None or hasattr(triples, "__iter__"))):
            raise ValueError(f"need a rule and an iterable of triples, not "
                             f"{base!r}, {triples!r}")
        self.base = base
        self.triples = None if triples is None else set(
            map(_word_triple, triples))
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
    triples fall back to the given base rule.  A matching size n that
    `check_size` refuses, a base that is no rule, keys that are no triples
    of words of size n, and malformed orders and sources raise ValueError."""

    name = "custom"

    def __init__(self, n, orders=None, sources=None, base=None):
        _m.check_size("matching", n)
        self.n = n
        self.orders = {} if orders is None else orders
        self.sources = {} if sources is None else sources
        self.base = DefaultRule() if base is None else base
        if not (isinstance(self.base, MultiplicationRule)
                and isinstance(self.orders, dict)
                and isinstance(self.sources, dict)):
            raise ValueError(f"need a rule and dicts of orders and sources, "
                             f"not {base!r}, {orders!r}, {sources!r}")
        for key, order in self.orders.items():
            _check_admissible(order, self._middle(key))
        for key, srcs in self.sources.items():
            arcs = {frozenset(arc) for arc in self._middle(key).arcs()}
            if not isinstance(srcs, dict) or set(srcs) != arcs or any(
                    srcs[a] not in tuple(a) for a in arcs):
                raise ValueError(f"sources of {key!r} do not map each arc of "
                                 f"{key[1]} to one of its endpoints")

    def _middle(self, key):
        """The matching b of a (c, b, a) key of words of size n."""
        return _m.MATCHINGS[_word_triple(key, self.n)[1]]

    def order(self, c, b, a):
        key = (c.word, b.word, a.word)
        return self.orders.get(key) or self.base.order(c, b, a)

    def split_source(self, c, b, a, scan, partner, key_scan, key_partner):
        key = (c.word, b.word, a.word)
        if key in self.sources:
            return self.sources[key][frozenset((scan, partner))]
        return self.base.split_source(c, b, a, scan, partner,
                                      key_scan, key_partner)


def _word_triple(key, n=None):
    """The key if it is a tuple (c, b, a) of three words of one size, n if
    given; ValueError otherwise."""
    if isinstance(key, tuple) and len(key) == 3 and all(
            isinstance(w, str) for w in key):
        size = len(key[0]) // 2 if n is None else n
        if all(_m.MATCHINGS[w].n == size for w in key):
            return key
    raise ValueError(f"{key!r} is not a triple of words of "
                     + ("one size" if n is None else f"size {n}"))


def _check_admissible(order, b):
    """An order is admissible if for every arc (i, j) of b and every point k
    strictly between them, i or j comes strictly before k."""
    if not (hasattr(order, "__iter__")
            and all(type(p) is int for p in order)
            and sorted(order) == list(range(1, 2 * b.n + 1))):
        raise ValueError("order is not a permutation of the basepoints")
    pos = {p: idx for idx, p in enumerate(order)}
    for (i, j) in b.arcs():
        for k in range(i + 1, j):
            if not (pos[i] < pos[k] or pos[j] < pos[k]):
                raise ValueError(
                    f"inadmissible order: arc ({i},{j}) vs point {k}")


BUILTIN_RULES = {"default": DefaultRule(), "ord": OrderRule()}


def _check_rule(*rules):
    """ValueError unless every rule given is a MultiplicationRule."""
    for rule in rules:
        if not isinstance(rule, MultiplicationRule):
            raise ValueError(f"{rule!r} is not a multiplication rule")


# ---------------------------------------------------------------------------
# the resolution plan: geometry only, shared by both products

@lru_cache(maxsize=None)
def _plan_of_words(rule, c, b, a):
    """(events, ops, top) for the bridge resolutions of W(c)b stacked on
    W(b)a, given as words, in the scan order of `rule`: the events, the same
    plan compiled to functor ops (each checked against the circle count it
    meets), and the number of circles of W(c)b.

    The events are on 1-based circle positions in (row, min column) order;
    initially the circles of W(c)b come first, then circle k of W(b)a at
    position top + k, and at the end position k is circle k of W(c)a.

      ("merge", p, q)   p is the circle through the top of the column, q
                        the one through its bottom; the merged circle sits
                        at min(p, q) and the slot max(p, q) disappears.
      ("split", p, i, j, scan_is_source)
                        circle p splits; i and j are the post-split positions
                        of the children through the scanned column and its
                        partner.  One child keeps position p, the other is
                        the one at max(i, j).  The ops split p with the
                        child that keeps position p first; permutes then
                        carry the other child from the next slot to its own.

    The starting positions are those of the cached closed diagrams W(c)b
    and W(b)a.  Two arguments spare the walks of the stacked diagram after
    a resolution:
      - a merge leaves every other circle as it was, and the merged
        circle's least point is the lesser of the two, so the positions are
        relabelled: max(p, q) becomes min(p, q) and each slot above it
        moves down by one;
      - once every arc of b is resolved the circles are those of W(c)a, so
        the last resolution, if it splits, reads its children's positions
        off the cached closed_diagram(c, a).
    Only a split before the last resolution walks the diagram.

    The ops are compiled from the events and the starting circle count,
    once per such pair (`_PLAN_OPS`), so triples with equal events share one
    events tuple and one op tuple.  Cached per (rule, c, b, a), so a rule
    must not be mutated after its first product; ValueError, not cached,
    unless `rule` is a MultiplicationRule whose order names points in
    1..2n only and resolves every arc of b."""
    _check_rule(rule)
    c, b, a = _m.MATCHINGS[c], _m.MATCHINGS[b], _m.MATCHINGS[a]
    m = 2 * c.n
    upper, top = _m.closed_diagram(c, b)
    lower, bottom = _m.closed_diagram(b, a)
    # top point k is k and bottom point k is m + k
    pos = list(upper) + [top + k for k in lower[1:]]
    outer = c.partner + [m + k for k in a.partner[1:]]
    inner = b.partner + [m + k for k in b.partner[1:]]
    left = c.n  # arcs of b still to resolve
    events = []
    for col in rule.order(c, b, a):
        if not 1 <= col <= m:
            raise ValueError(f"scan point {col!r} is not in 1..{m}")
        if inner[col] == m + col:
            continue
        partner = b.partner[col]
        for k in (col, partner):
            inner[k], inner[m + k] = m + k, k
        left -= 1
        p, q = pos[col], pos[m + col]
        if p != q:
            events.append(("merge", p, q))
            lo, hi = (p, q) if p < q else (q, p)
            pos = [x if x < hi else lo if x == hi else x - 1 for x in pos]
            continue
        new = (_m.circle_positions(outer, inner)[0] if left
               else _m.closed_diagram(c, a)[0])
        i, j = new[col], new[partner]
        src = rule.split_source(c, b, a, col, partner, i, j)
        if src not in (col, partner):
            raise ValueError(f"split source {src!r} is not an endpoint "
                             f"of the arc ({col}, {partner}) of {b.word}")
        events.append(("split", p, i, j, src == col))
        pos = new
    if left:
        raise ValueError(f"the scan leaves an arc of {b.word} unresolved")
    events, ops = _PLAN_OPS[tuple(events), top + bottom]
    return events, ops, top


def _compile_plan(key):
    """(events, ops) for a key (events, starting circle count): the key's
    events, which every plan with equal events then shares, and their
    functor ops."""
    events, count = key
    ops = []
    for event in events:
        if event[0] == "merge":
            _f.append_op(ops, _f.merge_op(count, event[1], event[2]))
            count -= 1
            continue
        _, p, i, j, scan_is_source = event
        ops.append(_f.split_op(count, p, scan_is_source == (i == p)))
        count += 1
        ops.extend(_f.permute_op(count, k, k + 1)
                   for k in range(p + 1, max(i, j)))
    return key[0], tuple(ops)


# (events, starting circle count) -> (events, ops); 555 event sequences at
# n = 4 under default serve the 2,744 triples
_PLAN_OPS = _m._Cache(_compile_plan)


# ---------------------------------------------------------------------------
# normative multiplication (the surface functor on the plan)

def _resolve_monomials(rule, c, b, a, colored_x, colored_y, theory):
    """Product of [c|b|colored_x] . [b|a|colored_y], both given as masks:
    the surface functor of `theory` on the compiled ops of the resolution
    plan.  Returns {mask: int} over the circles of W(c)a."""
    _, ops, top = _plan_of_words(rule, c.word, b.word, a.word)
    return _f.run_word(ops, {colored_x | colored_y << top: 1}, theory)


def block_map(rule, theory, c, b, a):
    """The product c(.)b x b(.)a -> c(.)a on basis monomials as {(mask_x,
    mask_y): {mask: coeff}} over the nonzero products: one run of the plan
    on all start keys mask_x | mask_y << top, each tagged with itself above
    the circles (`functors._tagged_basis`).  Even checks the rule, then
    uses the default one."""
    if theory not in ("odd", "even"):
        raise ValueError(f"unknown theory {theory!r}")
    _word_triple((c.word, b.word, a.word))
    if theory == "even":
        _check_rule(rule)
        rule = BUILTIN_RULES["default"]
    _, ops, top = _plan_of_words(rule, c.word, b.word, a.word)
    states = _f._tagged_basis(top + _m.closed_diagram(b, a)[1])
    final = _m.closed_diagram(c, a)[1]
    out = {}
    for key, coeff in _f.run_word(ops, states, theory).items():
        tag = key >> final
        out.setdefault((tag & (1 << top) - 1, tag >> top), {})[
            key ^ tag << final] = coeff
    return out


def _transposed(block):
    """The block map {(sx, sy): product} of a triple (c, b, a) carried by
    the transpose onto (a, b, c): {(sy, sx): (-1)^(|sx||sy|) * product}."""
    return {(sy, sx): out if not sx.bit_count() * sy.bit_count() & 1 else
            {mask: -coeff for mask, coeff in out.items()}
            for (sx, sy), out in block.items()}


def transpose_witness(rule, n):
    """None if the transpose tau[b|a|s] = [a|b|s] is a super anti-involution
    of the odd product under `rule` at size n: tau(x.y) = (-1)^(|x||y|)
    tau(y).tau(x) for every composable basis pair; else {"triple": (c, b,
    a) words, "pair": [repr(x), repr(y)]} for the first triple, in
    enumeration order, and pair x.y where it fails.  tau keeps the mask, as
    W(a)b and W(b)a have the same circles numbered by least point, so the
    claim is block_map(a,b,c)[(sy, sx)] == (-1)^(|sx||sy|) *
    block_map(c,b,a)[(sx, sy)], both absent together.  Reads each mirror
    pair of triples once, and checks a triple with c = a against itself."""
    _check_rule(rule)
    _m.check_size("basis", n)
    mats = _m.enumerate_matchings(n)
    for i, c in enumerate(mats):
        for b in mats:
            for a in mats[i:]:
                forward = block_map(rule, "odd", c, b, a)
                back = _transposed(forward if a is c else
                                   block_map(rule, "odd", a, b, c))
                if back == forward:
                    continue
                sx, sy = min(pair for pair in forward.keys() | back
                             if forward.get(pair) != back.get(pair))
                return {"triple": [c.word, b.word, a.word], "pair": [
                    repr(tuple.__new__(BasisMonomial, (c.word, b.word, sx))),
                    repr(tuple.__new__(BasisMonomial, (b.word, a.word, sy)))]}
    return None


def _block_product(x, y, cache, resolve, rule, *theory):
    """Bilinear extension of resolve(rule, c, b, a, colored_x, colored_y,
    *theory), the product of two basis monomials as {mask: coeff};
    zero across non-matching blocks.  `cache`, a dict or None, keeps per
    monomial pair (mx, my) the built {BasisMonomial: coeff} of the product,
    so each distinct pair is resolved once per cache and a hit builds no
    monomial.  The product's monomials are built without BasisMonomial's
    length check, as their top and bottom come from the operands, and the
    result without SparseZ.__init__.  No resolution holds a zero
    coefficient (merges drop zero sums, splits and permutes are injective),
    so a first contribution with coefficient 1 is copied into the result as
    it is; the result never shares a dict with the cache."""
    if not (type(x) is RingElement and type(y) is RingElement):
        raise ValueError(f"cannot multiply {type(x).__name__} by "
                         f"{type(y).__name__}: need two RingElements")
    if x.space != y.space:
        raise ValueError(f"cannot multiply elements for n={x.n} and n={y.n}")
    out = object.__new__(RingElement)
    out.space = x.space
    out.terms = terms = {}
    if not (x.terms and y.terms):
        return out
    new, matching = tuple.__new__, _m.MATCHINGS
    for mx, cx in x.terms.items():
        top, middle, colored_x = mx
        for my, cy in y.terms.items():
            if middle != my[0]:
                continue
            prods = None if cache is None else cache.get((mx, my))
            if prods is None:
                bottom = my[1]
                prods = {}
                for mask, coeff in resolve(
                        rule, matching[top], matching[middle],
                        matching[bottom], colored_x, my[2], *theory).items():
                    prods[new(BasisMonomial, (top, bottom, mask))] = coeff
                if cache is not None:
                    cache[mx, my] = prods
            k = cx * cy
            if k == 1 and not terms:
                terms.update(prods)
                continue
            for mono, coeff in prods.items():
                cc = terms.get(mono, 0) + k * coeff
                if cc:
                    terms[mono] = cc
                else:
                    del terms[mono]
    return out


def multiply(rule, x, y, theory="odd", *, memo=None):
    """Bilinear product; zero across non-matching blocks.  For the even
    theory the rule must still be a MultiplicationRule but is otherwise
    ignored (the product is order-independent and carries no orientations);
    the usual left-to-right scan is used.  A rule that is no
    MultiplicationRule, a theory other than "odd" and "even" and an
    operand that is no RingElement raise ValueError before any work.

    `memo` is an optional dict owned by the caller: products resolve each
    monomial pair once per memo instead of once per call.  One memo may
    serve several rules and both theories, since it keeps one table per
    (rule, theory); the caller drops it when done, so nothing outlives it."""
    if not isinstance(rule, MultiplicationRule):
        _check_rule(rule)  # raises; tested inline to spare a call
    if theory != "odd":
        if theory != "even":
            raise ValueError(f"unknown theory {theory!r}")
        rule = BUILTIN_RULES["default"]
    cache = None
    if memo is not None:
        cache = memo.get((rule, theory))
        if cache is None:
            cache = memo[rule, theory] = {}
    return _block_product(x, y, cache, _resolve_monomials, rule, theory)


# ---------------------------------------------------------------------------
# diagrammatic multiplication (colored diagrams with sign tables; odd only)

# Each plan event compiles once, keyed by the event itself, to a step (fn,
# consts) that maps {mask: coeff} over colored circle positions (bit p - 1 for
# position p) before the event to the same after it.  The constants are the
# position masks that the sign tables count colored circles in.

def _below(p):
    """Mask of the positions strictly below p."""
    return (1 << p - 1) - 1


def _between(lo, hi):
    """Mask of the positions strictly between lo and hi (none if lo >= hi)."""
    return (1 << hi - 1) - (1 << lo) if lo < hi else 0


def _diagram_merge(terms, consts):
    # two colored circles merge to 0; one colored circle keeps its color,
    # with sign (-1)^(colored circles strictly between it and its partner,
    # counted only when the partner lies below it)
    x_bit, y_bit, x_between, y_between, first_bit, last_bit, keep, high = \
        consts
    out = {}
    for colored, coeff in terms.items():
        if colored & x_bit:
            if colored & y_bit:
                continue
            if (colored & x_between).bit_count() & 1:
                coeff = -coeff
        elif colored & y_bit and (colored & y_between).bit_count() & 1:
            coeff = -coeff
        # the merged circle sits at `first`; positions above `last` move down
        key = (colored & keep) | (colored >> 1 & high)
        if colored & last_bit:
            key |= first_bit
        coeff += out.get(key, 0)
        if coeff:
            out[key] = coeff
        else:
            del out[key]
    return out


def _diagram_split(terms, consts):
    # uncolored circle: alpha (b_i D_i - b_j D_j), b_i = (-1)^(colored circles
    # below k_i); colored circle: both children colored, sign
    # alpha (-1)^#{colored p <= k_j or p < k_i}.  A split is injective on
    # colored sets, so no two terms meet.
    parent_bit, low, ki_bit, kj_bit, below_ki, below_kj, beta, alpha = consts
    out = {}
    for colored, coeff in terms.items():
        rest = colored & ~parent_bit
        # the other circles, those from the moved child's slot up shifted up
        others = (rest & low) | (rest & ~low) << 1
        coeff *= alpha
        if colored & parent_bit:
            new = others | ki_bit | kj_bit
            out[new] = -coeff if (new & beta).bit_count() & 1 else coeff
        else:
            out[others | ki_bit] = (-coeff if (others & below_ki).bit_count()
                                    & 1 else coeff)
            out[others | kj_bit] = (coeff if (others & below_kj).bit_count()
                                    & 1 else -coeff)
    return out


def _diagram_step(event):
    if event[0] == "merge":
        _, x_comp, y_comp = event  # top-side and bottom-side circles
        first, last = min(x_comp, y_comp), max(x_comp, y_comp)
        return _diagram_merge, (1 << x_comp - 1, 1 << y_comp - 1,
                                _between(y_comp, x_comp),
                                _between(x_comp, y_comp),
                                1 << first - 1, 1 << last - 1,
                                _below(last), -(1 << last - 1))
    _, parent, ki, kj, scan_is_source = event
    moved = max(ki, kj)  # the child that leaves the parent's slot
    return _diagram_split, (1 << parent - 1, _below(moved),
                            1 << ki - 1, 1 << kj - 1, _below(ki), _below(kj),
                            _below(kj + 1) | _below(ki),
                            1 if scan_is_source else -1)


# plan event -> its step; few distinct events (28 at n = 4 under default)
_DIAGRAM_STEPS = _m._Cache(_diagram_step)


def _resolve_diagrammatic(rule, c, b, a, colored_x, colored_y):
    events, _, top = _plan_of_words(rule, c.word, b.word, a.word)
    terms = {colored_x | colored_y << top: 1}
    for event in events:
        step, consts = _DIAGRAM_STEPS[event]
        terms = step(terms, consts)
        if not terms:
            break
    return terms


def multiply_diagrammatic(rule, x, y):
    """Same contract as multiply (odd theory), via the colored-diagram sign
    tables."""
    if not isinstance(rule, MultiplicationRule):
        _check_rule(rule)  # raises; tested inline to spare a call
    return _block_product(x, y, None, _resolve_diagrammatic, rule)


# ---------------------------------------------------------------------------
# element grammar

def format_element(elem):
    return signed_sum((elem.terms[mono], f"{abs(elem.terms[mono])}*{mono!r}")
                      for mono in sorted(elem.terms,
                                         key=BasisMonomial.sort_key))


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\*)?"
    r"\[(?P<top>[()]+)\|(?P<bottom>[()]+)\|\{(?P<cols>[\d,\s]*)\}\]")


def parse_element(text, n=None):
    """Parse the element grammar:
    element := term (('+'|'-') term)*
    term    := [uint '*'] '[' matching '|' matching '|' '{' uints '}' ']'
    """
    s = text.strip()
    if not s:
        raise ValueError("empty element")
    if s == "0":
        if n is None:
            raise ValueError("cannot infer n from '0'")
        return RingElement.zero(n)
    terms = {}
    for coeff, match in signed_terms(s, _TERM_RE):
        top, bottom = match.group("top"), match.group("bottom")
        tm, bm = _m.MATCHINGS[top], _m.MATCHINGS[bottom]
        if tm.n != bm.n or (n is not None and tm.n != n):
            raise ValueError("matching sizes disagree")
        indices = [int(u) for u in match.group("cols").split(",")
                   if u.strip()]
        mono = BasisMonomial(top, bottom, indices)
        terms[mono] = terms.get(mono, 0) + coeff
    if n is None:
        n = next(iter(terms)).n
    return RingElement(n, terms)
