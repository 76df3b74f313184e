import pytest
from hypothesis import given, settings, strategies as st

from arcring.exterior import (ExteriorElement, EvenTensorElement, wedge,
                              contract_dual, rename)

LABELS = (0, 1, 2, 3)


def elements(labels=LABELS, coeff=st.integers(-4, 4)):
    monos = st.lists(st.sampled_from(labels), max_size=len(labels))
    pairs = st.lists(st.tuples(monos, coeff), max_size=4)
    return pairs.map(lambda ps: ExteriorElement(
        labels, {tuple(m): c for m, c in ps} if ps else None))


def test_normal_form_and_repeats():
    x = ExteriorElement(LABELS, {(2, 1): 1})
    assert x.terms == {(1, 2): -1}
    assert ExteriorElement(LABELS, {(1, 1): 5}).is_zero()


def test_wedge_basic_signs():
    g = lambda l: ExteriorElement.generator(LABELS, l)
    assert wedge(g(0), g(1)).terms == {(0, 1): 1}
    assert wedge(g(1), g(0)).terms == {(0, 1): -1}
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
        xs = ExteriorElement(LABELS,
                             {m: c for m, c in x.terms.items() if len(m) == px})
        for py in range(len(LABELS) + 1):
            ys = ExteriorElement(
                LABELS, {m: c for m, c in y.terms.items() if len(m) == py})
            lhs = wedge(xs, ys)
            rhs = wedge(ys, xs).scale((-1) ** (px * py))
            assert lhs == rhs


def test_contract_dual_signs():
    x = ExteriorElement(LABELS, {(0, 1, 2): 1})
    y = contract_dual(1, x)
    assert y.labels == (0, 2, 3)
    assert y.terms == {(0, 2): -1}
    assert contract_dual(3, x).is_zero()


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_contract_dual_is_an_antiderivation(x, y):
    # i(x ^ y) = i(x) ^ y' + (-1)^p x' ^ i(y) on homogeneous x of length p
    label = 1
    sub = tuple(l for l in LABELS if l != label)
    for p in range(len(LABELS) + 1):
        xs = ExteriorElement(LABELS,
                             {m: c for m, c in x.terms.items() if len(m) == p})
        lhs = contract_dual(label, wedge(xs, y))
        xs_d = ExteriorElement(sub, {m: c for m, c in xs.terms.items()
                                     if label not in m})
        y_d = ExteriorElement(sub, {m: c for m, c in y.terms.items()
                                    if label not in m})
        rhs = wedge(contract_dual(label, xs), y_d) + \
            wedge(xs_d, contract_dual(label, y)).scale((-1) ** p)
        assert lhs == rhs


def test_rename_merge_kills_repeats():
    x = ExteriorElement(LABELS, {(0, 1): 1})
    merged = rename(x, {0: 0, 1: 0}, (0, 2, 3))
    assert merged.is_zero()
    x2 = ExteriorElement(LABELS, {(1, 2): 1})
    merged2 = rename(x2, {0: 0, 1: 0}, (0, 2, 3))
    assert merged2.terms == {(0, 2): 1}


def test_rename_is_an_algebra_map():
    x = ExteriorElement(LABELS, {(0,): 1})
    y = ExteriorElement(LABELS, {(1,): 1, (2,): 2})
    mapping = {1: 3}
    new = LABELS
    lhs = rename(wedge(x, y), mapping, new)
    rhs = wedge(rename(x, mapping, new), rename(y, mapping, new))
    assert lhs == rhs


def test_even_tensor_rename_merges():
    x = EvenTensorElement(LABELS, {frozenset({0, 1}): 1})
    assert x.rename({1: 0}, (0, 2, 3)).is_zero()
    x2 = EvenTensorElement(LABELS, {frozenset({1}): 3})
    assert x2.rename({1: 0}, (0, 2, 3)).terms == {frozenset({0}): 3}


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        ExteriorElement(LABELS, {(9,): 1})
