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

verify_relations instantiates every relation of the relevant presentation on
all monomials with <= max_labels circles and reports pass/fail per relation.
"""

from dataclasses import dataclass

from .exterior import (ExteriorElement, EvenTensorElement, wedge,
                       contract_dual, rename)


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


def apply_odd(move, x):
    """Apply an elementary move to an ExteriorElement on labels 1..m."""
    m = len(x.labels)
    if x.labels != _labels(m):
        raise ValueError(f"labels {x.labels} are not 1..{m}")
    _check_pos(move, m)
    if isinstance(move, Birth):
        p = move.pos
        shift = {i: i + 1 for i in range(p, m + 1)}
        return rename(x, shift, _labels(m + 1))
    if isinstance(move, Death):
        p = move.pos
        y = contract_dual(p, x)
        shift = {i: i - 1 for i in range(p + 1, m + 1)}
        return rename(y, shift, _labels(m - 1))
    if isinstance(move, Merge):
        lo, hi = min(move.p, move.q), max(move.p, move.q)
        mapping = {move.p: lo, move.q: lo}
        for i in range(hi + 1, m + 1):
            mapping[i] = i - 1
        return rename(x, mapping, _labels(m - 1))
    if isinstance(move, Split):
        p = move.p
        mapping = {i: i + 1 for i in range(p + 1, m + 1)}
        if move.source_first:
            a1, a2 = p, p + 1
        else:
            a1, a2 = p + 1, p
        mapping[p] = a1
        xbar = rename(x, mapping, _labels(m + 1))
        factor = ExteriorElement(_labels(m + 1), {(a1,): 1, (a2,): -1})
        return wedge(factor, xbar)
    if isinstance(move, Permute):
        return rename(x, {move.p: move.q, move.q: move.p}, _labels(m))
    raise TypeError(f"unknown move {move!r}")


def apply_even(move, x):
    """Apply an elementary move to an EvenTensorElement on labels 1..m.
    Orientations are ignored."""
    m = len(x.labels)
    if x.labels != _labels(m):
        raise ValueError(f"labels {x.labels} are not 1..{m}")
    _check_pos(move, m)
    if isinstance(move, Birth):
        p = move.pos
        shift = {i: i + 1 for i in range(p, m + 1)}
        return x.rename(shift, _labels(m + 1))
    if isinstance(move, Death):
        p = move.pos
        # trace: factor must carry t, which then disappears
        out = EvenTensorElement(_labels(m - 1))
        shift = {i: i - 1 for i in range(p + 1, m + 1)}
        terms = {}
        for mono, coeff in x.terms.items():
            if p not in mono:
                continue
            mono2 = frozenset(shift.get(i, i) for i in mono if i != p)
            c = terms.get(mono2, 0) + coeff
            if c:
                terms[mono2] = c
            else:
                terms.pop(mono2, None)
        out.terms = terms
        return out
    if isinstance(move, Merge):
        lo, hi = min(move.p, move.q), max(move.p, move.q)
        mapping = {move.p: lo, move.q: lo}
        for i in range(hi + 1, m + 1):
            mapping[i] = i - 1
        return x.rename(mapping, _labels(m - 1))
    if isinstance(move, Split):
        p = move.p
        shift = {i: i + 1 for i in range(p + 1, m + 1)}
        out = EvenTensorElement(_labels(m + 1))
        terms = {}
        for mono, coeff in x.terms.items():
            base = frozenset(shift.get(i, i) for i in mono if i != p)
            if p in mono:
                # t -> t (x) t
                images = [base | {p, p + 1}]
            else:
                # 1 -> 1 (x) t + t (x) 1
                images = [base | {p}, base | {p + 1}]
            for mono2 in images:
                c = terms.get(mono2, 0) + coeff
                if c:
                    terms[mono2] = c
                else:
                    terms.pop(mono2, None)
        out.terms = terms
        return out
    if isinstance(move, Permute):
        return x.rename({move.p: move.q, move.q: move.p}, _labels(m))
    raise TypeError(f"unknown move {move!r}")


def apply_word(word, x, theory):
    """Apply a sequence of moves, first element of `word` first."""
    step = apply_odd if theory == "odd" else apply_even
    for move in word:
        x = step(move, x)
    return x


def euler_characteristic(move):
    if isinstance(move, (Birth, Death)):
        return 1
    if isinstance(move, (Merge, Split)):
        return -1
    if isinstance(move, Permute):
        return 0
    raise TypeError(f"unknown move {move!r}")


def basis_state(m, subset, theory):
    """The basis state on m circles that carries a generator on each circle
    of `subset`, a sorted sequence of positions."""
    if theory == "odd":
        return ExteriorElement(_labels(m), {tuple(subset): 1})
    if theory == "even":
        return EvenTensorElement(_labels(m), {frozenset(subset): 1})
    raise ValueError(f"unknown theory {theory!r}")


def _monomials(m, theory):
    """All basis states on m circles, as elements."""
    return [basis_state(m, [i for i in _labels(m) if mask >> (i - 1) & 1],
                        theory)
            for mask in range(2 ** m)]


def _maps_equal(word1, word2, m, theory, sign=1):
    for x in _monomials(m, theory):
        y1 = apply_word(word1, x, theory)
        y2 = apply_word(word2, x, theory).scale(sign)
        if y1 != y2:
            return False
    return True


def _relations(theory, m):
    """Named relation instances on m circles (lists of (word1, word2, sign))."""
    rels = {}

    def add(name, w1, w2, sign=1):
        rels.setdefault(name, []).append((w1, w2, sign))

    # shared groups: permutation relations
    for p in range(1, m):
        add("permutation involution", [Permute(p, p + 1), Permute(p, p + 1)], [])
    for p in range(1, m - 1):
        add("permutation braid",
            [Permute(p, p + 1), Permute(p + 1, p + 2), Permute(p, p + 1)],
            [Permute(p + 1, p + 2), Permute(p, p + 1), Permute(p + 1, p + 2)])
    for (p, q), (r, s) in _disjoint_pairs(m):
        add("permutation disjoint commute",
            [Permute(p, q), Permute(r, s)], [Permute(r, s), Permute(p, q)])

    # unit / counit permutation: the born/dying circle slides past a neighbour
    for p in range(1, m + 1):
        add("unit permutation", [Birth(p), Permute(p, p + 1)], [Birth(p + 1)])
    for p in range(1, m):
        add("counit permutation",
            [Permute(p, p + 1), Death(p)], [Death(p + 1)])

    # merge / split permutation (disjoint moves commute past permutations)
    if m >= 3:
        for p in range(1, m):
            for (r, s) in [(r, s) for r in range(1, m + 1) for s in range(r + 1, m + 1)
                           if {r, s}.isdisjoint({p, p + 1})]:
                mr = r - 1 if r > p + 1 else r
                ms = s - 1 if s > p + 1 else s
                add("merge permutation",
                    [Permute(r, s), Merge(p, p + 1)],
                    [Merge(p, p + 1), Permute(mr, ms)])
    if m >= 2 and m + 1 >= 3:
        for p in range(1, m + 1):
            for (r, s) in [(r, s) for r in range(1, m + 1) for s in range(r + 1, m + 1)
                           if p not in (r, s)]:
                sr = r + 1 if r > p else r
                ss = s + 1 if s > p else s
                add("split permutation",
                    [Permute(r, s), Split(p)],
                    [Split(p), Permute(sr, ss)])

    if theory == "even":
        # commutativity / cocommutativity
        for p in range(1, m):
            add("commutativity", [Permute(p, p + 1), Merge(p, p + 1)],
                [Merge(p, p + 1)])
        for p in range(1, m + 1):
            add("cocommutativity", [Split(p), Permute(p, p + 1)], [Split(p)])
        # associativity / coassociativity
        if m >= 3:
            for p in range(1, m - 1):
                add("associativity",
                    [Merge(p, p + 1), Merge(p, p + 1)],
                    [Merge(p + 1, p + 2), Merge(p, p + 1)])
        for p in range(1, m + 1):
            add("coassociativity",
                [Split(p), Split(p)],
                [Split(p), Split(p + 1)])
        # Frobenius
        if m >= 2:
            for p in range(1, m):
                add("Frobenius",
                    [Split(p + 1), Merge(p, p + 1)],
                    [Merge(p, p + 1), Split(p)])
                add("Frobenius",
                    [Split(p), Merge(p + 1, p + 2)],
                    [Merge(p, p + 1), Split(p)])
        # unit / counit
        for p in range(1, m + 1):
            add("unit", [Birth(p), Merge(p, p + 1)], [])
            if p >= 2:
                add("unit", [Birth(p), Merge(p - 1, p)], [])
            add("counit", [Split(p), Death(p)], [])
            add("counit", [Split(p), Death(p + 1)], [])
    else:
        # anti-commutativity: merge after a swap is the merge with the other
        # orientation; merges are orientation-free, so the two sides must agree
        for p in range(1, m):
            add("anti-commutativity", [Permute(p, p + 1), Merge(p, p + 1)],
                [Merge(p, p + 1)])
        # anti-co-commutativity: permuting the outputs flips the orientation
        for p in range(1, m + 1):
            add("anti-co-commutativity",
                [Split(p, source_first=True), Permute(p, p + 1)],
                [Split(p, source_first=False)])

    return rels


def _disjoint_pairs(m):
    out = []
    pairs = [(p, q) for p in range(1, m + 1) for q in range(p + 1, m + 1)]
    for i, (p, q) in enumerate(pairs):
        for (r, s) in pairs:
            if {p, q}.isdisjoint({r, s}):
                out.append(((p, q), (r, s)))
    return out


def verify_relations(max_labels, theory):
    """Check every presentation relation on all states with <= max_labels
    circles; returns {relation_name: bool} plus extra odd-theory checks."""
    if not 1 <= max_labels <= 5:
        raise ValueError("max_labels must be in 1..5")
    if theory not in ("even", "odd"):
        raise ValueError(f"unknown theory {theory!r}")
    report = {}
    for m in range(1, max_labels + 1):
        for name, instances in _relations(theory, m).items():
            ok = all(_maps_equal(w1, w2, m, theory, sign)
                     for (w1, w2, sign) in instances if w2 is not None)
            report[name] = report.get(name, True) and ok

    # degree law: every move shifts the (post-shift) degree by -chi
    ok = True
    for m in range(1, max_labels + 1):
        moves = [Birth(1), Death(1), Split(1)]
        if m >= 2:
            moves += [Merge(1, 2), Permute(1, 2)]
        for move in moves:
            for x in _monomials(m, "odd"):
                y = apply_odd(move, x)
                dx = _degrees(x)[0]
                for d in _degrees(y):
                    if d is not None and d != dx - euler_characteristic(move):
                        ok = False
    report["degree law"] = ok

    if theory == "odd":
        # two chronologies splitting one circle into three differ by -1
        m1 = [Split(1, True), Split(2, True)]
        m2 = [Split(1, True), Split(1, True)]
        report["chronology change sign"] = all(
            apply_word(m1, x, "odd") == apply_word(m2, x, "odd").scale(-1)
            for x in _monomials(1, "odd"))
        # merges do not depend on orientation: permuting inputs first changes
        # nothing (same check as anti-commutativity, stated separately)
        report["merge orientation-free"] = report["anti-commutativity"]
        # closed surfaces die
        one = ExteriorElement.one(())
        sphere = apply_word([Birth(1), Death(1)], one, "odd")
        torus = apply_word([Birth(1), Split(1), Merge(1, 2), Death(1)],
                           one, "odd")
        report["closed surfaces vanish"] = sphere.is_zero() and torus.is_zero()
    else:
        one = EvenTensorElement.one(())
        sphere = apply_word([Birth(1), Death(1)], one, "even")
        torus = apply_word([Birth(1), Split(1), Merge(1, 2), Death(1)],
                           one, "even")
        report["sphere = 0, torus = x2"] = (
            sphere.is_zero() and torus == one.scale(2))
    return report


def _degrees(x):
    """Post-shift degrees 2k - m of the monomials of a state (deduplicated)."""
    m = len(x.labels)
    return sorted({2 * len(mono) - m for mono in x.terms}) or [None]
