from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from arcring.exterior import (ExteriorElement, EvenTensorElement, wedge,
                              contract_dual)
from arcring.functors import (Birth, Death, Merge, Split, Permute,
                              apply_word)

LABELS = (0, 1, 2, 3)


def elements(labels=LABELS, coeff=st.integers(-4, 4)):
    monos = st.lists(st.sampled_from(labels), max_size=len(labels))
    pairs = st.lists(st.tuples(monos, coeff), max_size=4)
    return pairs.map(lambda ps: ExteriorElement(
        labels, {tuple(m): c for m, c in ps} if ps else None))


def monomials(x):
    """The terms of an element as {tuple of labels in label order: coeff}."""
    return {tuple(l for i, l in enumerate(x.labels) if mask >> i & 1): c
            for mask, c in x.terms.items()}


def test_normal_form_and_repeats():
    x = ExteriorElement(LABELS, {(2, 1): 1})
    assert x == ExteriorElement(LABELS, {(1, 2): -1})
    assert x == -ExteriorElement(LABELS, {(1, 2): 1})
    assert monomials(x) == {(1, 2): -1}
    assert ExteriorElement(LABELS, {(1, 1): 5}).is_zero()
    assert ExteriorElement(LABELS, {(3, 0, 2): 1}) == \
        ExteriorElement(LABELS, {(0, 2, 3): 1})


def test_wedge_basic_signs():
    g = lambda l: ExteriorElement.generator(LABELS, l)
    assert wedge(g(0), g(1)) == ExteriorElement(LABELS, {(0, 1): 1})
    assert wedge(g(1), g(0)) == ExteriorElement(LABELS, {(0, 1): -1})
    assert wedge(g(0), g(0)).is_zero()


@settings(max_examples=60, deadline=None)
@given(elements(), elements(), elements())
def test_wedge_associative_and_distributive(x, y, z):
    assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))
    assert wedge(x, y + z) == wedge(x, y) + wedge(x, z)


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_wedge_supercommutative_on_homogeneous(x, y):
    # restrict both factors to a homogeneous wedge length
    for px in range(len(LABELS) + 1):
        xs = ExteriorElement(LABELS, {m: c for m, c in monomials(x).items()
                                      if len(m) == px})
        for py in range(len(LABELS) + 1):
            ys = ExteriorElement(LABELS, {m: c for m, c
                                          in monomials(y).items()
                                          if len(m) == py})
            lhs = wedge(xs, ys)
            rhs = wedge(ys, xs).scale((-1) ** (px * py))
            assert lhs == rhs


def test_contract_dual_signs():
    x = ExteriorElement(LABELS, {(0, 1, 2): 1})
    y = contract_dual(1, x)
    assert y == ExteriorElement((0, 2, 3), {(0, 2): -1})
    assert contract_dual(3, x).is_zero()


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_contract_dual_is_an_antiderivation(x, y):
    # i(x ^ y) = i(x) ^ y' + (-1)^p x' ^ i(y) on homogeneous x of length p
    label = 1
    sub = tuple(l for l in LABELS if l != label)
    for p in range(len(LABELS) + 1):
        xs = ExteriorElement(LABELS, {m: c for m, c in monomials(x).items()
                                      if len(m) == p})
        lhs = contract_dual(label, wedge(xs, y))
        xs_d = ExteriorElement(sub, {m: c for m, c in monomials(xs).items()
                                     if label not in m})
        y_d = ExteriorElement(sub, {m: c for m, c in monomials(y).items()
                                    if label not in m})
        rhs = wedge(contract_dual(label, xs), y_d) + \
            wedge(xs_d, contract_dual(label, y)).scale((-1) ** p)
        assert lhs == rhs


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        ExteriorElement(LABELS, {(9,): 1})
    with pytest.raises(ValueError):
        EvenTensorElement(LABELS, {frozenset({9}): 1})
    with pytest.raises(ValueError):
        ExteriorElement(LABELS, {1 << len(LABELS): 1})


# Reference surface functors on the label API: an odd move is an algebra map
# of generators, built by wedging generator images in monomial order, plus a
# contraction (death) or a wedge with a1 - a2 (split); an even move maps the
# set of t-carrying labels.

def labels(m):
    return tuple(range(1, m + 1))


def odd_map(x, image, m):
    out = ExteriorElement(labels(m))
    for mono, c in monomials(x).items():
        term = ExteriorElement.one(labels(m)).scale(c)
        for l in mono:
            term = wedge(term, ExteriorElement.generator(labels(m), image(l)))
        out = out + term
    return out


def odd_reference(move, x, m):
    if isinstance(move, Birth):
        return odd_map(x, lambda l: l + (l >= move.pos), m + 1)
    if isinstance(move, Death):
        return odd_map(contract_dual(move.pos, x),
                       lambda l: l - (l > move.pos), m - 1)
    if isinstance(move, Merge):
        lo, hi = sorted((move.p, move.q))
        return odd_map(x, lambda l: lo if l in (lo, hi) else l - (l > hi),
                       m - 1)
    if isinstance(move, Split):
        p = move.p
        a1, a2 = (p, p + 1) if move.source_first else (p + 1, p)
        bar = odd_map(x, lambda l: a1 if l == p else l + (l > p), m + 1)
        g = lambda l: ExteriorElement.generator(labels(m + 1), l)
        return wedge(g(a1) - g(a2), bar)
    swap = {move.p: move.q, move.q: move.p}
    return odd_map(x, lambda l: swap.get(l, l), m)


def even_reference(move, x, m):
    def image(mono):
        # the sets of circles carrying t after the move; none if it dies
        if isinstance(move, Birth):
            return [{l + (l >= move.pos) for l in mono}]
        if isinstance(move, Death):
            return [{l - (l > move.pos) for l in mono if l != move.pos}] \
                if move.pos in mono else []
        if isinstance(move, Merge):
            lo, hi = sorted((move.p, move.q))
            if {lo, hi} <= mono:
                return []
            return [{lo if l in (lo, hi) else l - (l > hi) for l in mono}]
        if isinstance(move, Split):
            p = move.p
            rest = {l + (l > p) for l in mono if l != p}
            return [rest | {p, p + 1}] if p in mono else \
                [rest | {p}, rest | {p + 1}]
        swap = {move.p: move.q, move.q: move.p}
        return [{swap.get(l, l) for l in mono}]

    out = EvenTensorElement(labels(m + move_circles(move)))
    for mono, c in monomials(x).items():
        for img in image(set(mono)):
            out = out + EvenTensorElement(out.labels, {frozenset(img): c})
    return out


def move_circles(move):
    return {Birth: 1, Death: -1, Merge: -1, Split: 1, Permute: 0}[type(move)]


def moves_on(kind, m):
    pairs = [(p, q) for p in range(1, m + 1) for q in range(1, m + 1)
             if p != q]
    return {"birth": [Birth(p) for p in range(1, m + 2)],
            "death": [Death(p) for p in range(1, m + 1)],
            "merge": [Merge(p, q) for p, q in pairs],
            "split": [Split(p, f) for p in range(1, m + 1)
                      for f in (True, False)],
            "permute": [Permute(p, q) for p, q in pairs]}[kind]


@pytest.mark.parametrize("kind", ["birth", "death", "merge", "split",
                                  "permute"])
@pytest.mark.parametrize("theory", ["odd", "even"])
def test_moves_match_label_reference(theory, kind):
    # every basis state on <= 5 circles, plus two full combinations whose
    # merged terms collide and, with all coefficients 1, cancel
    cls = ExteriorElement if theory == "odd" else EvenTensorElement
    reference = odd_reference if theory == "odd" else even_reference
    for m in range(6):
        subsets = [s for k in range(m + 1)
                   for s in combinations(labels(m), k)]
        states = [cls(labels(m), {s: 1}) for s in subsets]
        states.append(cls(labels(m), {s: 1 for s in subsets}))
        states.append(cls(labels(m), {s: i + 1 for i, s in
                                      enumerate(subsets)}))
        for move in moves_on(kind, m):
            for x in states:
                assert apply_word([move], x, theory) == \
                    reference(move, x, m), (move, x)
