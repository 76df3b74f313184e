"""Crossingless matchings of 2n points and their closed diagrams.

A matching is stored canonically as a balanced parenthesis word of length 2n;
the partner involution (other endpoint of the arc through each basepoint) is
derived from it, as a list indexed by the basepoints 1..2n.  Stacking a
matching a under the mirror W(b) of a matching b closes everything up into a
disjoint union of circles; those circles, numbered by least basepoint, drive
all sign conventions downstream, so the order is fixed here once and for all:
`circle_positions` is the one walk that numbers them, for `closed_diagram`,
whose cached diagrams the resolution plans of `arc_rings` start from.
"""

from functools import lru_cache

# Largest n each computation accepts: a matching and the enumeration of all
# matchings (C_12 = 208,012 words), the ring basis and products (and the
# CLI's bn and mul), the centers and their structure constants (N^2
# products, 11-14 s at n = 5, N = 252), the odd Springer quotient and its
# isomorphism check (about 3-4 s at n = 5), and the phi0 associator table
# with everything built on it (38,416 cells in about 14 s at n = 4; n = 5
# has 3.1M cells, 81 times as many); the largest m of the quantum binomial
# [m choose k] (about 0.2 s at m = 256, k = 128); and the most circles
# verify_relations instantiates the functor relations on.  Entry points
# call check_size before any work.
SIZE_LIMITS = {"matching": 12, "basis": 5, "center": 5, "springer": 5,
               "assoc": 4, "qbinom": 256, "relations": 5}


def check_size(what, n):
    """Raise ValueError unless n is an int, not a bool, with 1 <= n <=
    SIZE_LIMITS[what]."""
    limit = SIZE_LIMITS[what]
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= limit:
        raise ValueError(f"n={n!r} out of range for {what}: "
                         f"need 1 <= n <= {limit}")


def check_matchings(*args):
    """Raise ValueError unless every argument is a Matching."""
    for a in args:
        if type(a) is not Matching:
            raise ValueError(f"{a!r} is not a Matching")


class _Cache(dict):
    """{key: convert(key)}, filled on first lookup."""

    def __init__(self, convert):
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


class Matching:
    """A crossingless perfect matching of {1, ..., 2n}: one per word, kept
    in `MATCHINGS`, so matchings compare and hash by identity, in C."""

    __slots__ = ("n", "word", "partner")

    def __new__(cls, word):
        if not isinstance(word, str):
            raise ValueError(f"bad matching word: {word!r}")
        return MATCHINGS[word]

    def arcs(self):
        """Arcs (i, j) with i < j, sorted."""
        return [(i, self.partner[i]) for i in range(1, 2 * self.n + 1)
                if self.partner[i] > i]

    def __repr__(self):
        return f"Matching({self.word!r})"


def _matching(word):
    """The Matching of a str word; ValueError, registering nothing, if the
    word is unbalanced or of a size `check_size` refuses."""
    if len(word) % 2 != 0:
        raise ValueError(f"bad matching word: {word!r}")
    n = len(word) // 2
    check_size("matching", n)
    partner = [0] * (len(word) + 1)
    stack = []
    for pos, ch in enumerate(word, start=1):
        if ch == "(":
            stack.append(pos)
        elif ch == ")":
            if not stack:
                raise ValueError(f"unbalanced word: {word!r}")
            opener = stack.pop()
            partner[opener] = pos
            partner[pos] = opener
        else:
            raise ValueError(f"bad character in {word!r}")
    if stack:
        raise ValueError(f"unbalanced word: {word!r}")
    self = object.__new__(Matching)
    self.n = n
    self.word = word
    self.partner = partner
    return self


# word -> its one Matching, shared by every module
MATCHINGS = _Cache(_matching)


def enumerate_matchings(n):
    """All matchings of 2n points, in lexicographic word order ('(' < ')')."""
    check_size("matching", n)  # before the cache lookup hashes n
    return _enumerate_matchings(n)


@lru_cache(maxsize=None)
def _enumerate_matchings(n):
    words = []

    def build(prefix, opened, closed):
        if closed == n:
            words.append(prefix)
        if opened < n:
            build(prefix + "(", opened + 1, closed)
        if closed < opened:
            build(prefix + ")", opened, closed + 1)

    build("", 0, 0)
    return tuple(MATCHINGS[w] for w in words)


def circle_positions(outer, inner):
    """(pos, count) for a closed diagram on the points 1..len(outer) - 1:
    pos[p] is the 1-based position of the circle through p, count the number
    of circles.  outer[p] is the other end of p's arc on one side, inner[p]
    where the other side leads from p.  Circles are numbered by least point,
    the order every sign downstream depends on."""
    pos = [0] * len(outer)
    count = 0
    for start in range(1, len(outer)):
        if pos[start]:
            continue
        count += 1
        p = start
        while not pos[p]:
            q = outer[p]
            pos[p] = pos[q] = count
            p = inner[q]
    return pos, count


def closed_diagram(b, a):
    """`_closed_diagram`, checked before the cache lookup hashes b and a."""
    check_matchings(b, a)
    return _closed_diagram(b, a)


@lru_cache(maxsize=None)
def _closed_diagram(b, a):
    """(pos, count) of the closed diagram W(b)a: pos[i], a tuple, is the circle
    through basepoint i, numbered by least basepoint; checked on a miss."""
    check_matchings(b, a)
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.word} vs {b.word}")
    pos, count = circle_positions(a.partner, b.partner)
    return tuple(pos), count


def distance(a, b):
    """d(a, b) = n - number of circles of W(b)a."""
    if type(a) is not Matching or type(b) is not Matching:
        check_matchings(a, b)  # raises before the cache lookup hashes them
    return a.n - _closed_diagram(b, a)[1]


def is_arrow(a, b):
    """True iff a -> b: exactly one quadruple i<j<k<l with (i,j),(k,l) arcs of
    a and (i,l),(j,k) arcs of b, all other arcs shared."""
    check_matchings(a, b)
    if a.n != b.n:
        raise ValueError("size mismatch")
    diff_a = sorted(set(a.arcs()) - set(b.arcs()))
    diff_b = sorted(set(b.arcs()) - set(a.arcs()))
    if len(diff_a) != 2 or len(diff_b) != 2:
        return False
    (i, j), (k, l) = diff_a
    return i < j < k < l and diff_b == [(i, l), (j, k)]


def lower_arc_count(a):
    """t(a): number of outermost arcs = '(' at nesting depth 0."""
    check_matchings(a)
    depth = 0
    count = 0
    for ch in a.word:
        if ch == "(":
            if depth == 0:
                count += 1
            depth += 1
        else:
            depth -= 1
    return count
