import random

import pytest

from arcring import functors
from arcring.exterior import ExteriorElement, EvenTensorElement
from arcring.functors import (Birth, Death, Merge, Split, Permute,
                              apply_word, run_word,
                              euler_characteristic, verify_relations)
from conftest import per_merge


def test_even_sphere_and_torus():
    # birth then death: F(S^2) = 0; birth, split, merge, death: F(T^2) = 2
    one = EvenTensorElement((), {frozenset(): 1})
    sphere = apply_word([Birth(1), Death(1)], one, "even")
    assert sphere.is_zero()
    torus = apply_word([Birth(1), Split(1), Merge(1, 2), Death(1)], one, "even")
    assert torus == EvenTensorElement((), {frozenset(): 2})


def test_odd_closed_surfaces_vanish():
    one = ExteriorElement((), {(): 1})
    assert apply_word([Birth(1), Death(1)], one, "odd").is_zero()
    assert apply_word([Birth(1), Split(1), Merge(1, 2), Death(1)],
                      one, "odd").is_zero()


def test_odd_split_formula():
    # split of the single circle: 1 -> a1 - a2, a -> a1 ^ a2 (1-based labels)
    x = ExteriorElement((1,), {(): 1})
    out = apply_word([Split(1)], x, "odd")
    assert out == ExteriorElement((1, 2), {(1,): 1, (2,): -1})
    xa = ExteriorElement((1,), {(1,): 1})
    out2 = apply_word([Split(1)], xa, "odd")
    assert out2 == ExteriorElement((1, 2), {(1, 2): 1})


def test_odd_split_orientation_reversal():
    x = ExteriorElement((1,), {(): 1})
    out = apply_word([Split(1, source_first=False)], x, "odd")
    assert out == ExteriorElement((1, 2), {(1,): -1, (2,): 1})


def test_odd_merge_orientation_free():
    x = ExteriorElement((1, 2), {(1,): 1, (2,): 1})
    out = apply_word([Merge(1, 2)], x, "odd")
    assert out == ExteriorElement((1,), {(1,): 2})
    assert apply_word([Merge(1, 2)], ExteriorElement((1, 2), {(1, 2): 1}),
                      "odd").is_zero()


def test_odd_death_contraction_sign():
    x = ExteriorElement((1, 2, 3), {(1, 2): 1})
    out = apply_word([Death(2)], x, "odd")
    assert out == ExteriorElement((1, 2), {(1,): -1})
    assert apply_word([Death(3)], x, "odd").is_zero()


def test_permute_swaps_generators():
    x = ExteriorElement((1, 2), {(1,): 1})
    assert apply_word([Permute(1, 2)], x, "odd") == \
        ExteriorElement((1, 2), {(2,): 1})


def test_euler_characteristic():
    assert euler_characteristic(Birth(1)) == 1
    assert euler_characteristic(Death(1)) == 1
    assert euler_characteristic(Merge(1, 2)) == -1
    assert euler_characteristic(Split(1)) == -1
    assert euler_characteristic(Permute(1, 2)) == 0


@pytest.mark.parametrize("theory", ["even", "odd"])
def test_all_relations_hold(theory):
    # 1 is the least size SIZE_LIMITS["relations"] allows
    for max_labels in (1, 4):
        results = verify_relations(max_labels, theory)
        failures = [name for name, ok in results.items() if not ok]
        assert not failures, (max_labels, failures)


def test_both_theories_report_the_same_relations():
    for max_labels in range(1, 6):
        even = verify_relations(max_labels, "even")
        odd = verify_relations(max_labels, "odd")
        assert list(even) == list(odd) and len(even) == 17
        assert all(even.values()) and all(odd.values()), max_labels


def test_odd_merge_sign_breaks_the_odd_presentation(monkeypatch):
    # an extra -1 on the odd merges away from circle 1 keeps every relation
    # with the same merge on both sides, and breaks the others; a merge's
    # first constant is the bit of circle min(p, q), and the mutation
    # reaches each merge of a run (associativity compiles to a run of two)
    def away_from_one_negated(out, odd, merge):
        if odd and merge[0] >= 2:
            return {k: -c for k, c in out.items()}
        return out

    monkeypatch.setattr(functors, "_merge",
                        per_merge(functors._merge, away_from_one_negated))
    results = verify_relations(4, "odd")
    assert [name for name, ok in results.items() if not ok] == \
        ["associativity", "Frobenius", "unit"]
    assert all(verify_relations(4, "even").values())


def test_verify_relations_rejects_a_fractional_size():
    # 0 and 6 are in test_size_limits_raise; 2.5 lies inside the range
    with pytest.raises(ValueError, match="out of range for relations"):
        verify_relations(2.5, "odd")


def test_degree_law_checks_every_position(monkeypatch):
    # a wrong Euler characteristic for the one merge other than Merge(1, 2)
    # on two circles
    real = functors.euler_characteristic

    def wrong(move):
        return 0 if move == Merge(2, 1) else real(move)

    monkeypatch.setattr(functors, "euler_characteristic", wrong)
    for theory in ("even", "odd"):
        assert not verify_relations(2, theory)["degree law"]
        assert not verify_relations(3, theory)["degree law"]


def test_degree_law_checks_the_theory_asked_for(monkeypatch):
    # an even merge that puts a t on circle 1 raises the degree; the odd
    # merge is untouched
    def even_adds_t(out, odd, merge):
        return out if odd else {k | 1: c for k, c in out.items()}

    monkeypatch.setattr(functors, "_merge",
                        per_merge(functors._merge, even_adds_t))
    assert not verify_relations(3, "even")["degree law"]
    assert verify_relations(3, "odd")["degree law"]


def test_chronology_change_sign():
    # two splits of different circles in the two orders differ by -1
    x = ExteriorElement((1, 2), {(): 1})
    w1 = apply_word([Split(1), Split(3)], x, "odd")
    w2 = apply_word([Split(2), Split(1)], x, "odd")
    assert w1 == -w2 or w1 == w2.scale(-1)


def test_apply_word_rejects_bad_states_and_moves():
    odd, even = ExteriorElement((1, 2), {(1,): 1}), EvenTensorElement((1, 2))
    for word, x, theory in (([Permute(1, 2)], even, "odd"),
                            ([Permute(1, 2)], odd, "even"),
                            ([Permute(1, 2)], odd, "exterior"),
                            ([Merge(1, 2), Merge(1, 2)], odd, "odd"),
                            ([Split(1), Death(4)], even, "even")):
        with pytest.raises(ValueError):
            apply_word(word, x, theory)


@pytest.mark.parametrize("theory", ["even", "odd"])
def test_maps_equal_compares_circle_counts_and_signs(theory):
    # Birth(2) adds an empty circle after circle 1: every basis state keeps
    # its mask, but on two circles, not one
    assert not functors._maps_equal([Birth(2)], [], 1, theory)
    assert functors._maps_equal([Permute(1, 2), Permute(1, 2)], [], 2, theory)
    assert not functors._maps_equal([Permute(1, 2)], [], 2, theory, -1)


def _maps_equal_per_state(word1, word2, m, theory, sign):
    # the reference: one run of each word per basis state
    (ops1, m1), (ops2, m2) = (functors.compile_word(w, m)
                              for w in (word1, word2))
    return m1 == m2 and all(
        functors.run_word(ops1, {mask: 1}, theory)
        == {k: sign * c
            for k, c in functors.run_word(ops2, {mask: 1}, theory).items()}
        for mask in range(2 ** m))


@pytest.mark.parametrize("theory", ["even", "odd"])
def test_maps_equal_agrees_with_a_per_state_check(theory):
    # both signs and against the empty word, so that both verdicts occur
    verdicts = set()
    for m in range(1, 5):
        for instances in functors._relations(m).values():
            for w1, w2, _ in instances:
                for pair in ((w1, w2), (w1, []), (w2, [])):
                    for sign in (1, -1):
                        want = _maps_equal_per_state(*pair, m, theory, sign)
                        assert functors._maps_equal(*pair, m, theory,
                                                    sign) == want, (pair, m)
                        verdicts.add(want)
    assert verdicts == {True, False}


def _every_op(m):
    """(op, circles after) of every move the *_op builders accept on m
    circles."""
    ps = range(1, m + 1)
    pairs = [(p, q) for p in ps for q in ps if p != q]
    return ([(functors.birth_op(m, p), m + 1) for p in range(1, m + 2)]
            + [(functors.death_op(m, p), m - 1) for p in ps]
            + [(functors.split_op(m, p, first), m + 1)
               for p in ps for first in (True, False)]
            + [(functors.merge_op(m, p, q), m - 1) for p, q in pairs]
            + [(functors.permute_op(m, p, q), m) for p, q in pairs])


@pytest.mark.parametrize("odd", [False, True])
def test_every_kernel_carries_a_tag_above_the_circles(odd):
    # a tag t at any bit T >= m comes out unchanged at T + (after - m)
    for m in range(1, 5):
        for (kernel, consts), after in _every_op(m):
            for mask in range(2 ** m):
                plain = kernel({mask: 1}, odd, consts)
                for shift in (m, m + 3):
                    for t in (1, 0b10110):
                        tag = t << shift + after - m
                        assert kernel({mask | t << shift: 1}, odd, consts) \
                            == {k | tag: c for k, c in plain.items()}


def _merge_sequences(m, k):
    """Every sequence of k merges (p, q), each valid on the circles it
    meets, from m circles."""
    if k == 0:
        return [[]]
    return [[(p, q)] + rest for p in range(1, m + 1)
            for q in range(1, m + 1) if p != q
            for rest in _merge_sequences(m - 1, k - 1)]


def _run_and_singles(m, merges):
    """(the merges compiled to one run, the same merges as runs of one)."""
    ops, singles = [], []
    for p, q in merges:
        op = functors.merge_op(m, p, q)
        functors.append_op(ops, op)
        singles.append(op)
        m -= 1
    return ops, singles


@pytest.mark.parametrize("theory", ["even", "odd"])
def test_a_merge_run_equals_its_merges_one_at_a_time(theory):
    # every sequence of merges from m <= 5 circles and a seeded sample of
    # 300 from 6, on every tagged basis state at once
    rng = random.Random(25)
    sequences = [(m, seq) for m in range(2, 6) for k in range(1, m)
                 for seq in _merge_sequences(m, k)]
    for _ in range(300):
        seq, m = [], 6
        for _ in range(rng.randrange(2, 6)):
            seq.append(tuple(rng.sample(range(1, m + 1), 2)))
            m -= 1
        sequences.append((6, seq))
    for m, seq in sequences:
        run, singles = _run_and_singles(m, seq)
        assert len(run) == 1 and len(run[0][1]) == len(seq)
        states = functors._tagged_basis(m)
        assert run_word(run, states, theory) == \
            run_word(singles, states, theory), (m, seq)


@pytest.mark.parametrize("theory", ["even", "odd"])
def test_a_merge_run_sums_terms_that_meet_at_its_end(theory):
    # x1 - x3 on 3 circles: Merge(1, 2) twice takes both terms to x1 only
    # at the second merge, so the run's single sum must cancel them; x1 -
    # x2 + x3 cancels after the first merge, and x3 survives as x1
    run, singles = _run_and_singles(3, [(1, 2), (1, 2)])
    for state, want in (({0b001: 1, 0b100: -1}, {}),
                        ({0b001: 1, 0b010: -1, 0b100: 1}, {0b1: 1})):
        assert run_word(run, state, theory) == want
        assert run_word(singles, state, theory) == want


def test_a_corrupted_state_is_caught(monkeypatch):
    # negate what one permutation makes of the key that basis state 0b10110
    # on 5 circles enters the batched check with: one state in 32 is wrong
    key, = (k for k in functors._tagged_basis(5) if k & 0b11111 == 0b10110)
    real = functors._permute

    def corrupted(terms, odd, consts):
        out = real(terms, odd, consts)
        if key in terms:
            (image, c), = real({key: terms[key]}, odd, consts).items()
            out[image] = -c
        return out

    monkeypatch.setattr(functors, "_permute", corrupted)
    assert [name for name, ok in verify_relations(5, "odd").items()
            if not ok] == ["permutation involution", "permutation braid",
                           "permutation disjoint commute", "unit permutation",
                           "counit permutation", "merge permutation",
                           "split permutation", "commutativity"]
    # no check on 4 circles meets that key
    assert all(verify_relations(4, "odd").values())
    monkeypatch.undo()
    assert all(verify_relations(5, "odd").values())
