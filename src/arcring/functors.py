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
generator crosses.  `compile_word` checks a word of moves once and compiles
each move to a kernel with precomputed bit constants, and consecutive merges
to one merge run, which walks each monomial through all of its merges;
`run_word` runs such a compiled word under `apply_word`, `verify_relations`
and the ring's block maps, and a single ring product runs its plan's ops with
the same loop inline; the plans build the same ops through the `*_op`
builders and `append_op`, so every path runs these kernels.

verify_relations instantiates every relation of the one presentation both
functors satisfy, the odd one up to the chronology sign of each relation, on
all monomials with <= max_labels circles and reports pass/fail per relation.
It runs each word once on all basis states together, each state tagged with
its own mask above the circles (`_tagged_basis`).
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


# A move compiles, once per word, to an op (kernel, consts): the kernel maps
# {mask: coeff} on the circles before the move, bit k - 1 for circle k, to
# the same on the circles after it, from bit constants computed at compile
# time.  `odd` adds the exterior signs: a generator that moves past others
# picks up the popcount parity of the bits it crosses.  Only merges can send
# two monomials to one.  The *_op builders check the move against the
# circle count m it meets and raise ValueError, so compiled words are valid.

def _birth(terms, odd, consts):
    low, = consts
    return {(k & low) | (k & ~low) << 1: c for k, c in terms.items()}


def birth_op(m, p):
    if not 1 <= p <= m + 1:
        raise ValueError(f"birth({p}) invalid on {m} circles")
    return _birth, ((1 << p - 1) - 1,)


def _death(terms, odd, consts):
    # odd: contraction against the dual of generator p; even: the trace
    bit, low, high = consts
    return {(k & low) | (k >> 1 & high):
            -c if odd and (k & low).bit_count() & 1 else c
            for k, c in terms.items() if k & bit}


def death_op(m, p):
    if not 1 <= p <= m:
        raise ValueError(f"death({p}) invalid on {m} circles")
    bit = 1 << p - 1
    return _death, (bit, bit - 1, -bit)


def _merge(terms, odd, consts):
    # a run of merges, one constant tuple per merge, first merge first.  In
    # each, generators p and q both go to min(p, q): two of them multiply to
    # zero, and one at max(p, q) moves down past the bits in between.  Each
    # merge sends a monomial to +-1 monomial or to 0, so every term walks the
    # whole run on its own and the terms are summed once at the end.
    out = {}
    for k, c in terms.items():
        for lo_bit, hi_bit, between, keep, high in consts:
            if k & hi_bit:
                if k & lo_bit:
                    break
                if odd and (k & between).bit_count() & 1:
                    c = -c
                k |= lo_bit
            k = (k & keep) | (k >> 1 & high)
        else:
            c += out.get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
    return out


def merge_op(m, p, q):
    """A run of one merge; `append_op` joins it to a run before it."""
    if not (1 <= p <= m and 1 <= q <= m and p != q):
        raise ValueError(f"merge({p}, {q}) invalid on {m} circles")
    lo_bit, hi_bit = 1 << min(p, q) - 1, 1 << max(p, q) - 1
    return _merge, ((lo_bit, hi_bit, hi_bit - (lo_bit << 1), hi_bit - 1,
                     -hi_bit),)


def append_op(ops, op):
    """Append op to the list ops, joining a merge run to the run that ends
    ops, so that consecutive merges compile to one op."""
    if op[0] is _merge and ops and ops[-1][0] is _merge:
        ops[-1] = (_merge, ops[-1][1] + op[1])
    else:
        ops.append(op)


def _split(terms, odd, consts):
    # circle p becomes circles p and p + 1.  Odd: (a1 - a2) ^ x with x's
    # generator on p moved to the orientation source a1 (circle p if
    # source_first), so 1 -> a1 - a2 and a_p -> a1 ^ a2; the new generator
    # enters in front, past the bits below p.  Even: 1 -> 1 (x) t + t (x) 1
    # and t -> t (x) t.
    first, second, low, high, signs = consts
    u, v = signs[odd]
    out = {}
    for k, c in terms.items():
        base = (k & low) | (k << 1 & high)
        if odd and (k & low).bit_count() & 1:
            c = -c
        if k & first:
            out[base | first | second] = u * c
        else:
            out[base | first] = u * c
            out[base | second] = v * c
    return out


def split_op(m, p, source_first=True):
    if not 1 <= p <= m:
        raise ValueError(f"split({p}) invalid on {m} circles")
    # (u, v) of the even and of the odd theory
    u = 1 if source_first else -1
    first = 1 << p - 1
    return _split, (first, first << 1, first - 1, -(first << 2),
                    ((1, 1), (u, -u)))


def _permute(terms, odd, consts):
    # swapping two generators costs -1; moving one costs the parity of the
    # bits it crosses
    both, between = consts
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


def permute_op(m, p, q):
    if not (1 <= p <= m and 1 <= q <= m and p != q):
        raise ValueError(f"permute({p}, {q}) invalid on {m} circles")
    lo, hi = min(p, q), max(p, q)
    return _permute, (1 << lo - 1 | 1 << hi - 1, (1 << hi - 1) - (1 << lo))


# per move type: the builder of its op, called with the move's fields, and
# the change in the circle count
_BUILDERS = {Birth: (birth_op, 1), Death: (death_op, -1),
             Merge: (merge_op, -1), Split: (split_op, 1),
             Permute: (permute_op, 0)}
_STATES = {"odd": ExteriorElement, "even": EvenTensorElement}


def compile_word(word, m):
    """(ops, final circle count) of a word of moves, first move first,
    starting from m circles; ValueError unless every move is valid on the
    circles it meets."""
    ops = []
    for move in word:
        if type(move) not in _BUILDERS:
            raise ValueError(f"{move!r} is not a move")
        build, circles = _BUILDERS[type(move)]
        append_op(ops, build(m, *vars(move).values()))
        m += circles
    return tuple(ops), m


def run_word(ops, terms, theory):
    """The functor of `theory` on a compiled word, applied to {mask: coeff}
    on its starting circles; returns the map on the final circles, a new
    dict unless `ops` is empty, and stops at the first zero state.  Under
    apply_word, verify_relations and `arc_rings.block_map`;
    `arc_rings._resolve_monomials` runs the same loop inline."""
    if theory not in _STATES:
        raise ValueError(f"unknown theory {theory!r}")
    odd = theory == "odd"
    for kernel, consts in ops:
        terms = kernel(terms, odd, consts)
        if not terms:
            break
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
    ops, m = compile_word(word, m)
    out = type(x)(_labels(m))
    out.terms = run_word(ops, x.terms, theory) if ops else dict(x.terms)
    return out


def euler_characteristic(move):
    if isinstance(move, (Birth, Death)):
        return 1
    if isinstance(move, (Merge, Split)):
        return -1
    if isinstance(move, Permute):
        return 0
    raise TypeError(f"unknown move {move!r}")


def _tagged_basis(m):
    """Every basis state on m circles in one {key: 1}: state `mask` has the
    key mask | mask << m, its mask again as a tag just above the circles.
    Each kernel reads only the bits of the circles it meets and shifts all
    higher bits as one block, so a word moves the tag with the circle count
    and never changes it: on c circles, a key is an output mask below bit c
    and the tag of its input state above.  The states never meet, and one
    run of a word is one run per state."""
    return {mask | mask << m: 1 for mask in range(2 ** m)}


def _maps_equal(word1, word2, m, theory, sign=1):
    """Do the words agree up to `sign` on every basis state on m circles?
    States on different circle counts are unequal.  One run per word on
    all the states at once, told apart by their tags."""
    (ops1, m1), (ops2, m2) = compile_word(word1, m), compile_word(word2, m)
    if m1 != m2:
        return False
    states = _tagged_basis(m)
    return run_word(ops1, states, theory) == {
        k: sign * c for k, c in run_word(ops2, states, theory).items()}


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
    # (post-shift) degree by -chi; an output key is its mask below bit
    # `after` and the tag of its input mask above
    report["degree law"] = all(
        2 * (key & (1 << after) - 1).bit_count() - after
        == 2 * (key >> after).bit_count() - m - euler_characteristic(move)
        for m in range(1, max_labels + 1) for move in _all_moves(m)
        for ops, after in [compile_word((move,), m)]
        for key in run_word(ops, _tagged_basis(m), theory))

    # the sphere is 0; the torus is 2 (even) or 0 (odd)
    sphere = run_word(compile_word([Birth(1), Death(1)], 0)[0], {0: 1},
                      theory)
    torus = run_word(compile_word(
        [Birth(1), Split(1), Merge(1, 2), Death(1)], 0)[0], {0: 1}, theory)
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
