"""Exact exterior algebra over Z on a finite ordered label set, plus the
tensor-power states of the even theory.

Labels are opaque hashables; their order is carried explicitly as a tuple
because every sign below depends on it.  Both element types store a monomial
as an int bitmask, bit i standing for labels[i], mapped to a nonzero integer.
An exterior monomial is the wedge of its labels in label order, so moving a
generator past others costs the popcount parity of the bits it crosses.  The
constructors take monomials as stored masks or on the labels themselves: a
tuple of labels in any order (exterior) or a set of labels (tensor).
"""

from operator import attrgetter

from .zlinalg import SparseZ


def _bit(labels, label):
    """The bit of `label` in a monomial on `labels`."""
    try:
        return 1 << labels.index(label)
    except ValueError:
        raise ValueError(f"unknown label {label!r}") from None


def _indices(mask):
    """Bit indices of a mask, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _MaskElement(SparseZ):
    """Z-combination of bitmask monomials on an ordered tuple of distinct
    labels.  A stored mask stands for itself; subclasses read a monomial
    given on the labels in `_label_normal`."""

    __slots__ = ()
    labels = property(attrgetter("space"))

    def __init__(self, labels, terms=None):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct: {labels!r}")
        super().__init__(labels, terms)

    def _normal(self, mono):
        if not isinstance(mono, int):
            return self._label_normal(mono)
        if not 0 <= mono < 1 << len(self.space):
            raise ValueError(f"mask {mono} is not a monomial on {self.space!r}")
        return mono, 1

    def _named_terms(self):
        """(coeff, labels of the monomial) by degree, then label order."""
        masks = sorted(self.terms, key=lambda m: (m.bit_count(), _indices(m)))
        return [(self.terms[m], [str(self.space[i]) for i in _indices(m)])
                for m in masks]


class ExteriorElement(_MaskElement):
    """Element of Lambda* V(S) for an ordered label set S."""

    __slots__ = ()

    def _label_normal(self, mono):
        """The mask of a label tuple and the sign of sorting it into label
        order; sign 0 if a label repeats."""
        mask, sign = 0, 1
        for label in mono:
            bit = _bit(self.space, label)
            if mask & bit:
                return 0, 0
            if (mask & ~(bit - 1)).bit_count() & 1:
                sign = -sign
            mask |= bit
        return mask, sign

    @staticmethod
    def one(labels):
        return ExteriorElement(labels, {(): 1})

    @staticmethod
    def generator(labels, l):
        return ExteriorElement(labels, {(l,): 1})

    def __repr__(self):
        return " + ".join(f"{c}*{'^'.join(names) or 1}"
                          for c, names in self._named_terms()) or "0"


def wedge(x, y):
    """x ^ y on a common label set; ValueError unless both are
    ExteriorElements."""
    if not (isinstance(x, ExteriorElement) and isinstance(y, ExteriorElement)):
        raise ValueError(f"cannot wedge {type(x).__name__} and "
                         f"{type(y).__name__}: need two ExteriorElements")
    if x.labels != y.labels:
        raise ValueError("label-set mismatch")
    out = ExteriorElement(x.labels)
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            if mx & my:
                continue
            # each generator of y moves left past the generators of x above it
            crossings = sum((mx >> i).bit_count() for i in _indices(my))
            c = out.terms.get(mx | my, 0) + (
                -cx * cy if crossings & 1 else cx * cy)
            if c:
                out.terms[mx | my] = c
            else:
                del out.terms[mx | my]
    return out


def contract_dual(label, x):
    """Contraction a^* against the dual of a generator:
    x1^...^xn^a^y1^...^ym -> (-1)^n x^y; monomials without the label die.
    The result lives on the label set with `label` removed."""
    bit = _bit(x.labels, label)
    low = bit - 1
    out = ExteriorElement(l for l in x.labels if l != label)
    out.terms = {(mask & low) | (mask >> 1 & ~low):
                 -coeff if (mask & low).bit_count() & 1 else coeff
                 for mask, coeff in x.terms.items() if mask & bit}
    return out


class EvenTensorElement(_MaskElement):
    """Element of A^{tensor m}, A = Z[t]/t^2, one factor per label.  A
    monomial's mask has the bits of the labels whose factor carries t."""

    __slots__ = ()

    def _label_normal(self, mono):
        mask = 0
        for label in set(mono):
            mask |= _bit(self.space, label)
        return mask, 1

    def __repr__(self):
        return " + ".join(f"{c}*t[{','.join(names)}]" if names else f"{c}*1"
                          for c, names in self._named_terms()) or "0"
