"""Elementary (chronological) cobordism moves and the two functors.

States live on circles numbered by position 1..m.  The odd functor sends a
collection of m circles to the exterior algebra on generators 1..m; the even
one to A^{tensor m} with A = Z[t]/t^2.  Moves are positional:

  birth(p)        insert a new circle at position p (others shift up)
  death(p)        kill circle p (contraction / trace), others shift down
  merge(p, q)     join circles p and q; result sits at min(p,q), the slot
                  max(p,q) disappears
  split(p, source_first)   circle p becomes two circles at positions p, p+1;
                  orientation p ~> p+1 if source_first else p+1 ~> p
  permute(p, q)   swap the two circles

A state is a map {mask: coeff}, bit k - 1 of a mask standing for a generator
(odd) or a t (even) on circle k, as in `exterior`.  Every move is a few bit
shifts per monomial; an odd move's sign is the popcount parity of the bits a
generator crosses.  `run_word` applies a word of moves, checked once by
`check_word`, and is the one engine under `apply_word` and the ring product.

verify_relations instantiates every relation of the one presentation both
functors satisfy, the odd one up to the chronology sign of each relation, on
all monomials with <= max_labels circles and reports pass/fail per relation.
"""

from dataclasses import dataclass
from itertools import combinations

from . import matchings as _m
from .exterior import ExteriorElement, EvenTensorElement


@dataclass(frozen=True)
class Birth:
    pos: int


@dataclass(frozen=True)
class Death:
    pos: int


@dataclass(frozen=True)
class Merge:
    p: int
    q: int
    # merges carry no orientation: both choices induce the same map


@dataclass(frozen=True)
class Split:
    p: int
    source_first: bool = True


@dataclass(frozen=True)
class Permute:
    p: int
    q: int


def _labels(m):
    return tuple(range(1, m + 1))


def _check_pos(move, m):
    if isinstance(move, Birth):
        ok = 1 <= move.pos <= m + 1
    elif isinstance(move, Death):
        ok = 1 <= move.pos <= m
    elif isinstance(move, Split):
        ok = 1 <= move.p <= m
    elif isinstance(move, (Merge, Permute)):
        ok = 1 <= move.p <= m and 1 <= move.q <= m and move.p != move.q
    else:
        ok = False
    if not ok:
        raise ValueError(f"move {move} invalid on {m} circles")


# The move kernels map {mask: coeff} on m circles, bit k - 1 for circle k,
# to the same on the circles after the move.  `odd` adds the exterior signs:
# a generator that moves past others picks up the popcount parity of the
# bits it crosses.  Only merges can send two monomials to one.

def _birth(move, terms, odd):
    low = (1 << move.pos - 1) - 1
    return {(k & low) | (k & ~low) << 1: c for k, c in terms.items()}


def _death(move, terms, odd):
    # odd: contraction against the dual of generator p; even: the trace
    p = move.pos
    bit = 1 << p - 1
    low = bit - 1
    return {(k & low) | (k >> p) << p - 1:
            -c if odd and (k & low).bit_count() & 1 else c
            for k, c in terms.items() if k & bit}


def _merge(move, terms, odd):
    # generators p and q both go to min(p, q): two of them multiply to zero,
    # and one at max(p, q) moves down past the bits in between
    lo, hi = sorted((move.p, move.q))
    lo_bit, hi_bit = 1 << lo - 1, 1 << hi - 1
    between = hi_bit - (lo_bit << 1)
    out = {}
    for k, c in terms.items():
        if k & hi_bit:
            if k & lo_bit:
                continue
            if odd and (k & between).bit_count() & 1:
                c = -c
            k |= lo_bit
        k = (k & hi_bit - 1) | (k >> hi) << hi - 1
        c += out.get(k, 0)
        if c:
            out[k] = c
        else:
            del out[k]
    return out


def _split(move, terms, odd):
    # circle p becomes circles p and p + 1.  Odd: (a1 - a2) ^ x with x's
    # generator on p moved to the orientation source a1 (circle p if
    # source_first), so 1 -> a1 - a2 and a_p -> a1 ^ a2; the new generator
    # enters in front, past the bits below p.  Even: 1 -> 1 (x) t + t (x) 1
    # and t -> t (x) t.
    p = move.p
    first, second = 1 << p - 1, 1 << p
    low = first - 1
    u = 1 if move.source_first or not odd else -1
    v = -u if odd else u
    out = {}
    for k, c in terms.items():
        base = (k & low) | (k >> p) << p + 1
        if odd and (k & low).bit_count() & 1:
            c = -c
        if k & first:
            out[base | first | second] = u * c
        else:
            out[base | first] = u * c
            out[base | second] = v * c
    return out


def _permute(move, terms, odd):
    # swapping two generators costs -1; moving one costs the parity of the
    # bits it crosses
    lo, hi = sorted((move.p, move.q))
    both = 1 << lo - 1 | 1 << hi - 1
    between = (1 << hi - 1) - (1 << lo)
    out = {}
    for k, c in terms.items():
        ends = k & both
        if ends and ends != both:
            k ^= both
            if odd and (k & between).bit_count() & 1:
                c = -c
        elif ends and odd:
            c = -c
        out[k] = c
    return out


_KERNELS = {Birth: _birth, Death: _death, Merge: _merge, Split: _split,
            Permute: _permute}
_CIRCLES = {Birth: 1, Death: -1, Merge: -1, Split: 1, Permute: 0}
_STATES = {"odd": ExteriorElement, "even": EvenTensorElement}


def check_word(word, m):
    """Raise ValueError unless every move of `word` is valid on the circles
    it meets, starting from m; returns the final circle count."""
    for move in word:
        _check_pos(move, m)
        m += _CIRCLES[type(move)]
    return m


def run_word(word, terms, theory):
    """The functor of `theory` on a word that check_word accepted, applied
    to {mask: coeff} on its starting circles, first move first; returns the
    map on the final circles, a new dict unless `word` is empty.  The one
    engine under apply_word and the ring product."""
    if theory not in _STATES:
        raise ValueError(f"unknown theory {theory!r}")
    odd = theory == "odd"
    for move in word:
        terms = _KERNELS[type(move)](move, terms, odd)
    return terms


def apply_word(word, x, theory):
    """Apply a sequence of moves, first element of `word` first, to a state
    of `theory` on circles 1..m: an ExteriorElement (odd) or an
    EvenTensorElement (even, orientations ignored)."""
    if type(x) is not _STATES.get(theory):
        raise ValueError(f"{type(x).__name__} is not a state of the "
                         f"{theory!r} theory")
    m = len(x.labels)
    if x.labels != _labels(m):
        raise ValueError(f"labels {x.labels} are not 1..{m}")
    word = tuple(word)
    out = type(x)(_labels(check_word(word, m)))
    out.terms = run_word(word, x.terms, theory) if word else dict(x.terms)
    return out


def euler_characteristic(move):
    if isinstance(move, (Birth, Death)):
        return 1
    if isinstance(move, (Merge, Split)):
        return -1
    if isinstance(move, Permute):
        return 0
    raise TypeError(f"unknown move {move!r}")


def _maps_equal(word1, word2, m, theory, sign=1):
    """Do the words agree up to `sign` on every basis state on m circles?
    States on different circle counts are unequal."""
    if check_word(word1, m) != check_word(word2, m):
        return False
    return all(run_word(word1, {mask: 1}, theory)
               == {k: sign * c for k, c in
                   run_word(word2, {mask: 1}, theory).items()}
               for mask in range(2 ** m))


def _relations(m):
    """Every relation of the presentation on m circles, as {name: [(word1,
    word2, odd_sign)]}: the even functor takes both words to the same map,
    the odd one to maps that differ by odd_sign, the chronology sign of the
    relation's form.  A family with no instance on m circles is empty."""
    # p ranges over the circles, over those followed by one more circle
    # (adj) and by two more (triples)
    ps, adj, triples = range(1, m + 1), range(1, m), range(1, m - 1)
    pairs = list(combinations(ps, 2))
    return {
        "permutation involution": [
            ([Permute(p, p + 1)] * 2, [], 1) for p in adj],
        "permutation braid": [
            ([Permute(p, p + 1), Permute(p + 1, p + 2), Permute(p, p + 1)],
             [Permute(p + 1, p + 2), Permute(p, p + 1), Permute(p + 1, p + 2)],
             1) for p in triples],
        "permutation disjoint commute": [
            ([Permute(p, q), Permute(r, s)], [Permute(r, s), Permute(p, q)], 1)
            for p, q in pairs for r, s in pairs if not {p, q} & {r, s}],
        # the born or dying circle slides past a neighbour
        "unit permutation": [
            ([Birth(p), Permute(p, p + 1)], [Birth(p + 1)], 1) for p in ps],
        "counit permutation": [
            ([Permute(p, p + 1), Death(p)], [Death(p + 1)], 1) for p in adj],
        # a merge or split commutes with a permutation of other circles,
        # renumbered by the move
        "merge permutation": [
            ([Permute(r, s), Merge(p, p + 1)],
             [Merge(p, p + 1), Permute(r - (r > p), s - (s > p))], 1)
            for p in adj for r, s in pairs if not {r, s} & {p, p + 1}],
        "split permutation": [
            ([Permute(r, s), Split(p)],
             [Split(p), Permute(r + (r > p), s + (s > p))], 1)
            for p in ps for r, s in pairs if p not in (r, s)],
        "commutativity": [
            ([Permute(p, p + 1), Merge(p, p + 1)], [Merge(p, p + 1)], 1)
            for p in adj],
        "cocommutativity": [
            ([Split(p), Permute(p, p + 1)], [Split(p)], -1) for p in ps],
        "associativity": [
            ([Merge(p, p + 1), Merge(p, p + 1)],
             [Merge(p + 1, p + 2), Merge(p, p + 1)], 1) for p in triples],
        "coassociativity": [
            ([Split(p), Split(p)], [Split(p), Split(p + 1)], -1) for p in ps],
        "Frobenius": [
            (word, [Merge(p, p + 1), Split(p)], 1) for p in adj
            for word in ([Split(p + 1), Merge(p, p + 1)],
                         [Split(p), Merge(p + 1, p + 2)])],
        "unit": [([Birth(p), Merge(p, p + 1)], [], 1) for p in ps]
        + [([Birth(p), Merge(p - 1, p)], [], 1) for p in range(2, m + 1)],
        "counit": [([Split(p), Death(p + k)], [], (-1) ** k)
                   for p in ps for k in (0, 1)],
        # reversing a split's orientation negates the odd split
        "split orientation": [
            ([Split(p, source_first=False)], [Split(p)], -1) for p in ps],
    }


def verify_relations(max_labels, theory):
    """Check every relation of the presentation, with the signs of
    `theory`, on all states with <= max_labels circles, and the degree law
    and closed surfaces; returns {name: bool}, the same names in both
    theories."""
    _m.check_size("relations", max_labels)
    if theory not in _STATES:
        raise ValueError(f"unknown theory {theory!r}")
    odd = theory == "odd"
    report = {}
    for m in range(1, max_labels + 1):
        for name, instances in _relations(m).items():
            report[name] = report.get(name, True) and all(
                _maps_equal(w1, w2, m, theory, sign if odd else 1)
                for w1, w2, sign in instances)

    # degree law: every move of `theory`, at every position, shifts the
    # (post-shift) degree by -chi
    report["degree law"] = all(
        2 * out.bit_count() - check_word((move,), m)
        == 2 * mask.bit_count() - m - euler_characteristic(move)
        for m in range(1, max_labels + 1) for move in _all_moves(m)
        for mask in range(2 ** m)
        for out in run_word((move,), {mask: 1}, theory))

    # the sphere is 0; the torus is 2 (even) or 0 (odd)
    sphere = run_word([Birth(1), Death(1)], {0: 1}, theory)
    torus = run_word([Birth(1), Split(1), Merge(1, 2), Death(1)], {0: 1},
                     theory)
    report["closed surfaces"] = not sphere and torus == ({} if odd else {0: 2})
    return report


def _all_moves(m):
    """Every elementary move on m circles: births at 1..m+1, deaths and
    splits at 1..m, merges of every ordered pair, adjacent permutations."""
    return ([Birth(p) for p in range(1, m + 2)]
            + [Death(p) for p in range(1, m + 1)]
            + [Split(p) for p in range(1, m + 1)]
            + [Merge(p, q) for p in range(1, m + 1)
               for q in range(1, m + 1) if p != q]
            + [Permute(p, p + 1) for p in range(1, m)])
