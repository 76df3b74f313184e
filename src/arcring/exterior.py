"""Exact exterior algebra over Z on a finite ordered label set, plus the
tensor-power states of the even theory.

Labels are opaque hashables; their order is carried explicitly as a tuple
because every sign below depends on it.  An ExteriorElement stores monomials
as tuples of labels listed in label order, mapped to nonzero integers.
"""

from operator import attrgetter

from .zlinalg import SparseZ


def _sort_with_sign(factors, position):
    """Sort a tuple of labels by `position`; return (sorted_tuple, sign) or
    (None, 0) if a label repeats."""
    items = [(position[l], l) for l in factors]
    # count inversions of the sorting permutation
    sign = 1
    arr = list(items)
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            if arr[i][0] > arr[j][0]:
                sign = -sign
            elif arr[i][0] == arr[j][0]:
                return None, 0
    arr.sort()
    return tuple(l for _, l in arr), sign


class ExteriorElement(SparseZ):
    """Element of Lambda* V(S) for an ordered label set S."""

    __slots__ = ("_pos",)
    labels = property(attrgetter("space"))

    # SparseZ.__init__ is inlined in both constructors below, since every
    # wedge, rename and split builds an empty element on new labels
    def __init__(self, labels, terms=None):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct: {labels!r}")
        self.space = labels
        self._pos = {l: i for i, l in enumerate(labels)}
        self.terms = {}
        if terms:
            self._collect(terms)

    def _normal(self, mono):
        mono = tuple(mono)
        for l in mono:
            if l not in self._pos:
                raise ValueError(f"unknown label {l!r}")
        return _sort_with_sign(mono, self._pos)

    @staticmethod
    def one(labels):
        return ExteriorElement(labels, {(): 1})

    @staticmethod
    def generator(labels, l):
        return ExteriorElement(labels, {(l,): 1})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (len(m), tuple(self._pos[l] for l in m))):
            coeff = self.terms[mono]
            name = "^".join(str(l) for l in mono) if mono else "1"
            bits.append(f"{coeff}*{name}")
        return " + ".join(bits)


def wedge(x, y):
    """x ^ y on a common label set."""
    if x.labels != y.labels:
        raise ValueError("label-set mismatch")
    out = ExteriorElement(x.labels)
    terms = {}
    pos = x._pos
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            srt, sign = _sort_with_sign(mx + my, pos)
            if sign == 0:
                continue
            c = terms.get(srt, 0) + sign * cx * cy
            if c:
                terms[srt] = c
            else:
                terms.pop(srt, None)
    out.terms = terms
    return out


def contract_dual(label, x):
    """Contraction a^* against the dual of a generator:
    x1^...^xn^a^y1^...^ym -> (-1)^n x^y; monomials without the label die.
    The result lives on the label set with `label` removed."""
    if label not in x._pos:
        raise ValueError(f"unknown label {label!r}")
    new_labels = tuple(l for l in x.labels if l != label)
    out = ExteriorElement(new_labels)
    terms = {}
    for mono, coeff in x.terms.items():
        if label not in mono:
            continue
        k = mono.index(label)
        new_mono = mono[:k] + mono[k + 1:]
        c = terms.get(new_mono, 0) + ((-1) ** k) * coeff
        if c:
            terms[new_mono] = c
        else:
            terms.pop(new_mono, None)
    out.terms = terms
    return out


def rename(x, mapping, new_labels):
    """Push x through the algebra map sending generator l to mapping.get(l, l),
    landing in Lambda* on new_labels (which fixes the new order).  Non-injective
    mappings implement merges: monomials hitting a repeated target vanish."""
    out = ExteriorElement(new_labels)
    terms = {}
    for mono, coeff in x.terms.items():
        mapped = tuple(mapping.get(l, l) for l in mono)
        srt, sign = _sort_with_sign(mapped, out._pos)
        if sign == 0:
            continue
        c = terms.get(srt, 0) + sign * coeff
        if c:
            terms[srt] = c
        else:
            terms.pop(srt, None)
    out.terms = terms
    return out


class EvenTensorElement(SparseZ):
    """Element of A^{tensor m}, A = Z[t]/t^2, one factor per label.  A monomial
    is the frozenset of labels whose factor carries t."""

    __slots__ = ()
    labels = property(attrgetter("space"))

    def __init__(self, labels, terms=None):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct: {labels!r}")
        self.space = labels
        self.terms = {}
        if terms:
            self._collect(terms)

    def _normal(self, mono):
        mono = frozenset(mono)
        if not mono.issubset(self.space):
            raise ValueError(f"unknown labels in {set(mono)!r}")
        return mono, 1

    @staticmethod
    def one(labels):
        return EvenTensorElement(labels, {frozenset(): 1})

    def rename(self, mapping, new_labels):
        """Relabel factors; a repeated target with two t's kills the term
        (this is exactly the multiplication m of A)."""
        out = EvenTensorElement(new_labels)
        terms = {}
        for mono, coeff in self.terms.items():
            mapped = [mapping.get(l, l) for l in mono]
            if len(set(mapped)) != len(mapped):
                continue
            mono2 = frozenset(mapped)
            c = terms.get(mono2, 0) + coeff
            if c:
                terms[mono2] = c
            else:
                terms.pop(mono2, None)
        out.terms = terms
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        order = {l: i for i, l in enumerate(self.labels)}
        for mono in sorted(self.terms, key=lambda m: (len(m), sorted(order[l] for l in m))):
            name = "t[" + ",".join(str(l) for l in sorted(mono, key=order.get)) + "]" if mono else "1"
            bits.append(f"{self.terms[mono]}*{name}")
        return " + ".join(bits)
