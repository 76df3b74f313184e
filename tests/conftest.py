import functools

import pytest

from arcring import arc_rings
from arcring.arc_rings import BUILTIN_RULES


@functools.lru_cache(maxsize=None)
def odd_center_cached(rule_name, n):
    from arcring.centers import odd_center
    return odd_center(n, BUILTIN_RULES[rule_name])


def clear_plans():
    """Drop the cached plans, their shared compiled ops and the oracle's
    compiled steps: all three keep the kernels they were built with, so a
    test that patches a kernel clears them around the patch."""
    arc_rings._plan_of_words.cache_clear()
    arc_rings._PLAN_OPS.clear()
    arc_rings._DIAGRAM_STEPS.clear()
    arc_rings._SCANS.clear()
    arc_rings._EVENT_OPS.clear()


def per_merge(real, mutate):
    """A merge-run kernel that runs each merge of a run on its own, as a run
    of one through `real`, and replaces its output by mutate(out, odd,
    constants of that merge): a mutation of the merge kernel that reaches
    every merge inside a run."""
    def kernel(terms, odd, consts):
        for merge in consts:
            terms = mutate(real(terms, odd, (merge,)), odd, merge)
        return terms
    return kernel


def same_lattice(a, b):
    """Do two CenterBasis objects span the same lattice (each contains the
    other's generators)?"""
    return (all(b.contains(g) for g in a.generators)
            and all(a.contains(g) for g in b.generators))


@pytest.fixture(scope="session")
def default_rule():
    return BUILTIN_RULES["default"]


@pytest.fixture(scope="session")
def ord_rule():
    return BUILTIN_RULES["ord"]
