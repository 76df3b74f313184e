import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from arcring.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bn(capsys):
    code, out, _ = run(capsys, "bn", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "((()))  t=1"
    assert lines[-1] == "count: 5"


def test_mul_worked_example(capsys):
    code, out, _ = run(capsys, "mul", "--n", "2", "--rule", "default",
                       "--x", "[(())|()()|{}]", "--y", "[()()|(())|{1}]")
    assert code == 0
    assert out.strip() == "-1*[(())|(())|{1,2}]"


def test_mul_oracle(capsys):
    code, out, _ = run(capsys, "mul", "--n", "2", "--oracle",
                       "--x", "[(())|()()|{}]", "--y", "[()()|(())|{}]")
    assert code == 0
    assert "oracle:" in out


def test_mul_even_oracle_exits_2_before_any_product(capsys, monkeypatch):
    import arcring.cli as cli

    def no_product(*args, **kwargs):
        raise AssertionError("a product was computed")

    monkeypatch.setattr(cli, "multiply", no_product)
    monkeypatch.setattr(cli, "multiply_diagrammatic", no_product)
    code, out, err = run(capsys, "mul", "--n", "2", "--even", "--oracle",
                         "--x", "[(())|()()|{}]", "--y", "[()()|(())|{}]")
    assert code == 2
    assert out == ""
    assert "odd-only" in err


def test_mul_repeated_circle_index_exits_2(capsys):
    # x1 ^ x1 = 0, so {1,1} names no basis monomial
    for top in ("()()", "(())"):
        code, out, err = run(capsys, "mul", "--n", "2", "--x",
                             f"[{top}|{top}|{{1,1}}]", "--y",
                             f"[{top}|{top}|{{}}]")
        assert code == 2
        assert out == ""
        assert "repeated circle index" in err


def test_mul_parse_error(capsys):
    code, _, err = run(capsys, "mul", "--n", "2", "--x", "nope",
                       "--y", "[(())|(())|{}]")
    assert code == 2
    assert "parse error" in err


def test_bad_rule_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--n", "2", "--rule", "bogus",
              "--x", "[(())|(())|{}]", "--y", "[(())|(())|{}]"])
    assert exc.value.code == 2


def test_center(capsys):
    code, out, _ = run(capsys, "center", "--n", "2", "--flavor", "odd-ring")
    assert code == 0
    assert out.splitlines()[0] == "graded_rank: 0:1 1:0 2:2"


def test_springer_ranks_and_basis(capsys):
    code, out, _ = run(capsys, "springer", "--n", "2", "--ranks")
    assert code == 0
    assert out.strip() == "graded_rank: 0:1 1:3 2:2 3:0"
    code, out, _ = run(capsys, "springer", "--n", "2", "--basis")
    assert code == 0
    assert out.strip().splitlines() == ["1", "x1", "x2", "x3", "x1x2", "x1x3"]


def test_springer_check_iso(capsys):
    code, out, _ = run(capsys, "springer", "--n", "1", "--check-iso")
    assert code == 0
    assert out.splitlines() == [
        f"{stage}: pass" for stage in ("generators_vanish", "injective",
                                       "betti_numbers", "graded_ranks",
                                       "spans_center", "diagonal_wedge",
                                       "structure_constants")]


def test_assoc_phi0_table(capsys):
    code, out, _ = run(capsys, "assoc", "--n", "2", "--phi0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert sum("undefined" in l for l in lines) == 2


def test_assoc_cocycle(capsys):
    code, out, _ = run(capsys, "assoc", "--n", "2", "--cocycle")
    assert code == 0
    assert "cocycle: pass" in out
    assert "coboundary: found" in out


def test_assoc_compare(capsys):
    code, out, _ = run(capsys, "assoc", "--n", "2", "--compare",
                       "flip-default")
    assert code == 0
    assert "verified isomorphism" in out


def test_assoc_compare_without_sign_isomorphism(capsys):
    # default and ord have equal phi0 tables at n = 2, but eta is no
    # coboundary: d(eta) is 1 on the two quadruples where phi0 is undefined
    code, out, err = run(capsys, "assoc", "--n", "2", "--compare", "ord")
    assert (code, out, err) == (
        1, "associators equal; no sign isomorphism\n", "")


def test_qbinom(capsys):
    code, out, _ = run(capsys, "qbinom", "--m", "4", "--k", "2")
    assert code == 0
    assert out.strip() == "q^4 + q^2 + 2 + q^-2 + q^-4"
    code, _, _ = run(capsys, "qbinom", "--m", "2", "--k", "5")
    assert code == 2


def test_qbinom_size_limit(capsys):
    code, out, _ = run(capsys, "qbinom", "--m", "0", "--k", "0")
    assert (code, out.strip()) == (0, "1")
    # far above SIZE_LIMITS["qbinom"]
    code, _, err = run(capsys, "qbinom", "--m", "1000", "--k", "500")
    assert code == 2
    assert "out of range for qbinom" in err


def test_verify_all_n2(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--suite", "all")
    assert code == 0
    assert out.count("pass") == 6


def test_verify_mod2_fails_on_an_even_split_without_its_second_child(
        capsys, monkeypatch):
    # compiled plans and their shared ops keep the kernels they were built
    # with: clear them around the patch
    from arcring import functors
    from conftest import clear_plans
    real = functors._split

    def lopsided(terms, odd, consts):
        if odd:
            return real(terms, odd, consts)
        first, second, low, high, _ = consts
        return {(k & low) | (k << 1 & high) | first
                | (second if k & first else 0): c for k, c in terms.items()}

    clear_plans()
    monkeypatch.setattr(functors, "_split", lopsided)
    try:
        code, out, _ = run(capsys, "verify", "--n", "2", "--suite", "mod2")
    finally:
        monkeypatch.undo()
        clear_plans()
    assert code == 1
    assert re.fullmatch(r"mod2: FAIL \(mod-2 mismatch at \[\S+\] \* "
                        r"\[\S+\]\)\n", out)


def test_assoc_compare_n3_skips_vanishing_blocks(capsys):
    # six odd block maps vanish at n = 3; their eta cells impose nothing
    code, out, err = run(capsys, "assoc", "--n", "3", "--compare",
                         "flip-default")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "associators equal; verified isomorphism with eps:"
    assert len(lines) == 26
    assert sum(line.endswith("-> -1") for line in lines) == 12
    assert "((()))|((())) -> +1" in lines


def test_verify_relations_follows_n(capsys, monkeypatch):
    from arcring import functors, matchings
    asked = []
    real = functors.verify_relations

    def spy(max_labels, theory):
        asked.append(max_labels)
        return real(max_labels, theory)

    monkeypatch.setattr(functors, "verify_relations", spy)
    for n in ("1", "3"):
        code, _, _ = run(capsys, "verify", "--n", n, "--suite", "relations")
        assert code == 0
    assert asked == [2, 2, 5, 5]
    # the cap is the relations size limit, not a literal 5
    asked.clear()
    monkeypatch.setitem(matchings.SIZE_LIMITS, "relations", 4)
    code, _, _ = run(capsys, "verify", "--n", "3", "--suite", "relations")
    assert code == 0
    assert asked == [4, 4]


def test_verify_catalan_beyond_the_seventh_catalan_number(monkeypatch):
    # the Catalan oracle must cover any n the basis limit allows
    from arcring import matchings
    from arcring.cli import _verify_catalan
    monkeypatch.setitem(matchings.SIZE_LIMITS, "basis", 7)
    assert _verify_catalan(7) is None


def test_verify_centers_solves_one_center(monkeypatch):
    # split-free products carry no choice (the `centers` docstring), so
    # the suite solves the center under its own rule only
    from arcring import centers
    from arcring.arc_rings import BUILTIN_RULES
    from arcring.cli import _verify_centers
    asked = []
    real = centers.odd_center

    def spy(n, rule):
        asked.append((n, rule))
        return real(n, rule)

    monkeypatch.setattr(centers, "odd_center", spy)
    for name in ("default", "ord"):
        rule = BUILTIN_RULES[name]
        asked.clear()
        assert _verify_centers(2, rule) is None
        assert asked == [(2, rule)]


@pytest.mark.parametrize("rule", ["default", "ord"])
def test_verify_iso_rejects_a_center_sublattice(monkeypatch, rule):
    # doubling one degree-1 generator keeps every graded rank but leaves
    # an index-2 sublattice, which the Springer images do not span
    from arcring import centers
    from arcring.arc_rings import BUILTIN_RULES
    from arcring.cli import _verify_iso
    real = centers.odd_center

    def fake(n, rule):
        basis = real(n, rule)
        basis.generators[1] = basis.generators[1].scale(2)
        return basis

    monkeypatch.setattr(centers, "odd_center", fake)
    assert _verify_iso(2, BUILTIN_RULES[rule]) == \
        "springer isomorphism failed at spans_center"


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "center", "--n", "2", "--flavor", "odd")
    _, out2, _ = run(capsys, "center", "--n", "2", "--flavor", "odd")
    assert out1 == out2


def test_empty_element_exits_2(capsys):
    code, _, err = run(capsys, "mul", "--n", "2", "--x", "",
                       "--y", "[(())|(())|{}]")
    assert code == 2
    assert "empty" in err


@pytest.mark.parametrize("argv", [
    ["bn", "--n", "6"],
    ["bn", "--n", "0"],
    ["mul", "--n", "6", "--x", "[()|()|{}]", "--y", "[()|()|{}]"],
    ["center", "--n", "6"],
    ["springer", "--n", "6", "--ranks"],
    ["assoc", "--n", "5", "--phi0"],
    ["verify", "--n", "5", "--suite", "all"],
    ["verify", "--n", "5", "--suite", "cocycle"],
    ["verify", "--n", "6", "--suite", "centers"],
], ids=" ".join)
def test_n_above_limit_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "out of range" in err


def _run_optimized(*args):
    """Run the interpreter with -O (asserts stripped) on src/."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-O", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_n_above_limit_exits_2_under_optimize():
    proc = _run_optimized("-m", "arcring.cli", "center", "--n", "6")
    assert proc.returncode == 2
    assert "out of range" in proc.stderr


def test_bad_input_raises_under_optimize():
    proc = _run_optimized("-c", """
from arcring.arc_rings import BasisMonomial, RingElement, parse_element
from arcring.springer import (OddPolynomial, QuotientPresentation,
                              _div_one_minus, epsilon_generator, map_s,
                              parse_poly, qint, quotient_presentation)

def squares_not_in_ideal():
    QuotientPresentation.reduces_to_zero = lambda self, p: False
    quotient_presentation(1)

import arcring.associator as A
import arcring.matchings as M
from arcring.arc_rings import BUILTIN_RULES
from arcring.exterior import EvenTensorElement, ExteriorElement
from arcring.arc_rings import DefaultRule, MultiplicationRule, _plan_of_words
from arcring.functors import Birth, Split, apply_word, compile_word, merge_op


class OffArc(MultiplicationRule):
    def split_source(self, c, b, a, scan, partner, *keys):
        return 0


class ScanOrder(DefaultRule):
    def __init__(self, points):
        self.points = points

    def order(self, c, b, a):
        return self.points

DEFAULT = BUILTIN_RULES["default"]
W2 = [a.word for a in M.enumerate_matchings(2)]


def patched(module, name, value, call):
    def run():
        old = getattr(module, name)
        setattr(module, name, value)
        try:
            call()
        finally:
            setattr(module, name, old)
    return run


def non_cocycle_eta(rule1, rule2, n):
    eta = {t: 0 for t in A._product(W2, repeat=3)}
    eta[W2[0], W2[0], W2[1]] = 1
    return eta


def eta_not_a_cocycle():
    A.eta_table = non_cocycle_eta
    A.compare_rules(DEFAULT, DEFAULT, 2)

print(__debug__)
x1 = OddPolynomial.generator(4, 1)
one = RingElement.monomial(BasisMonomial("()", "()", frozenset()))
for bad in (lambda: BasisMonomial("()", "(())", frozenset()),
            lambda: parse_element("[()()|()()|{1,1}]"),
            lambda: setattr(BasisMonomial("()", "()", frozenset()), "top",
                            "()"),
            lambda: A._proportionality([(one.terms, one.terms, 1),
                                        (one.terms, one.terms, -1)]),
            lambda: epsilon_generator(2, (1, 2, 9), 1),
            lambda: quotient_presentation(2).basis_coordinates(
                parse_poly("x1 + x1x2", 4)),
            lambda: quotient_presentation(2).basis_coordinates(
                parse_poly("x1", 2)),
            lambda: quotient_presentation(2).reduces_to_zero(
                parse_poly("x5", 6)),
            lambda: map_s(x1, 3),
            lambda: qint(-1),
            lambda: _div_one_minus([1], 0),
            lambda: _div_one_minus([1, 0, 1], 1),
            squares_not_in_ideal,
            lambda: apply_word((Birth(1),), ExteriorElement((0, 1)), "odd"),
            lambda: apply_word((Birth(1),), EvenTensorElement((0, 1)),
                               "even"),
            patched(M, "distance", lambda a, b: 1,
                    lambda: A.scission_count(*[M.Matching("()")] * 3)),
            patched(A, "solve_f2", lambda rows, rhs, ncols: [0] * ncols,
                    lambda: A.solve_coboundary({("()",) * 4: 1}, 1)),
            patched(A, "solve_f2", lambda rows, rhs, ncols: None,
                    lambda: print(A.compare_rules(DEFAULT, DEFAULT, 1)[1])),
            patched(A, "solve_f2",
                    lambda rows, rhs, ncols: [1] + [0] * (ncols - 1),
                    lambda: A.compare_rules(DEFAULT, DEFAULT, 2)),
            eta_not_a_cocycle,
            lambda: _plan_of_words(OffArc(), "()()", "(())", "()()"),
            lambda: merge_op(2, 1, 3),
            lambda: compile_word([Birth(1), Split(3)], 1),
            lambda: A.cocycle_defect(A.phi0_table(DEFAULT, 2), 3),
            lambda: A.solve_coboundary({}, 2),
            lambda: _plan_of_words(ScanOrder((1,)), "()()", "()()", "()()"),
            lambda: _plan_of_words(ScanOrder((1, 2, 3, 4, 9)), "()()",
                                   "()()", "()()")):
    try:
        bad()
    except (ValueError, AttributeError, AssertionError) as exc:
        print(type(exc).__name__)

# the scans are cached per (order, middle word): a bad order for a middle
# word whose usual scan is cached raises the same error on every call, and
# only valid scans are kept
from arcring.arc_rings import _SCANS
_plan_of_words(DEFAULT, "()()", "()()", "()()")
for points in ((0, 1, 2, 3, 4), (1, 2, 3, 4, 5), (1,)):
    rule = ScanOrder(points)
    for _ in range(2):
        try:
            _plan_of_words(rule, "(())", "()()", "()()")
        except ValueError as exc:
            print(exc)
# a float order equals its int twin, whose scan is cached: still refused
rule = ScanOrder((1.0, 2.0, 3.0, 4.0))
for _ in range(2):
    try:
        _plan_of_words(rule, "(())", "()()", "()()")
    except TypeError as exc:
        print(type(exc).__name__)
print(sorted((order, b.word) for order, b in _SCANS))
""")
    assert proc.stdout.splitlines() == (
        ["False"] + ["ValueError"] * 2 + ["AttributeError"]
        + ["AssertionError"] + ["ValueError"] * 5 + ["AssertionError"] * 4
        + ["ValueError"] * 2 + ["AssertionError"] * 2 + ["None"]
        + ["AssertionError"] * 2 + ["ValueError"] * 7
        + ["scan point 0 is not in 1..4"] * 2
        + ["scan point 5 is not in 1..4"] * 2
        + ["the scan leaves an arc of ()() unresolved"] * 2
        + ["TypeError"] * 2
        + ["[((1, 2), '()'), ((1, 2, 3, 4), '(())'), "
           "((1, 2, 3, 4), '()()')]"]), proc.stderr


def test_non_unit_pivot_raises_under_optimize():
    proc = _run_optimized("-c", """
import arcring.springer as S
S._slice_columns = lambda n, d, previous: [{(2,): 2}] if d == 1 else []
S.QuotientPresentation(1)
""")
    assert proc.returncode == 1
    assert proc.stderr.endswith("AssertionError: the ideal slice of degree 1 "
                                "has a pivot other than 1\n"), proc.stderr
