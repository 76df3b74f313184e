"""The workloads: their inputs, the timed verdict, and the checkers.

Each workload drives arcring through one caller, with calls made back to
back (a closed loop with one client).  Calls always go through the module
attribute (``ar.multiply``, not a name bound here), so that a tracer that
rewraps the module functions sees them.
"""

import io
import random
from contextlib import redirect_stdout
from itertools import combinations_with_replacement
from math import comb

WORKLOADS = ("verify3", "products4", "lattice4")

# products4 sample size: ~0.6 ms of work per pair, so one iteration lasts
# several seconds and p99 has about 120 samples beyond it.
PRODUCTS4_SAMPLE = 12000

VERIFY3_ARGV = ["verify", "--n", "3", "--suite", "all", "--rule", "default"]
VERIFY3_LINES = [f"{s}: pass" for s in
                 ("catalan", "mod2", "centers", "iso", "cocycle", "relations")]

# lattice4: graded ranks of the odd and of the even center at n = 4, and the
# degrees of the ideal slices passed through column_hnf and
# smith_normal_form (degree 4, 330 x 833, takes minutes).
LATTICE4_CENTER_RANKS = {0: 1, 1: 7, 2: 20, 3: 28, 4: 14}
LATTICE4_DEGREES = range(4)


class Checks:
    """Correctness checks of one iteration: attempted count and named
    failures."""

    MAX_NAMED = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name, ok, detail):
        """Count one check; on failure name it, with the message that
        `detail()` builds only then."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.MAX_NAMED:
                self.failures.append(f"{name}: {detail()}")


# -- inputs ----------------------------------------------------------------

def compatible_pairs(ar, n):
    """All basis pairs (x, y) with x.bottom == y.top, in canonical order."""
    basis = [mono for mono, _ in ar.ring_basis(n)]
    by_top = {}
    for mono in basis:
        by_top.setdefault(mono.top, []).append(mono)
    return [(x, y) for x in basis for y in by_top.get(x.bottom, ())]


def products4_sample(ar, seed, size=PRODUCTS4_SAMPLE):
    pairs = compatible_pairs(ar, 4)
    return random.Random(seed).sample(pairs, size)


def make_inputs(workload, mods, seed):
    """Inputs of the verdict; only the products4 sample uses the seed."""
    if workload == "products4":
        return {"pairs": products4_sample(mods["arc_rings"], seed)}
    return {}


# -- checkers --------------------------------------------------------------

def check_product(checks, x, y, odd, even, diag):
    """The odd product of x and y equals the diagrammatic oracle, and odd
    and even products agree mod 2 on every coefficient."""
    checks.check("products.odd_equals_diagrammatic", odd == diag,
                 lambda: f"{x!r}*{y!r}: {odd!r} != {diag!r}")
    keys = set(odd.terms) | set(even.terms)
    bad = [k for k in keys
           if (odd.terms.get(k, 0) - even.terms.get(k, 0)) % 2]
    checks.check("products.odd_even_mod2", not bad,
                 lambda: f"{x!r}*{y!r}: differ mod 2 at {bad[:3]!r}")


def check_verify3(checks, exit_code, stdout):
    checks.check("verify3.exit_code", exit_code == 0,
                 lambda: f"exit code {exit_code}")
    lines = stdout.splitlines()
    checks.check("verify3.line_count", len(lines) == len(VERIFY3_LINES),
                 lambda: f"{len(lines)} lines")
    for i, want in enumerate(VERIFY3_LINES):
        got = lines[i] if i < len(lines) else None
        checks.check(f"verify3.line[{i}]", got == want,
                     lambda: f"got {got!r}")


def check_lattice4_centers(checks, odd_ranks, even_ranks):
    for name, got in (("odd", odd_ranks), ("even", even_ranks)):
        ranks = {d: r for d, r in got.items() if r}
        checks.check(f"lattice4.{name}_center_ranks",
                     ranks == LATTICE4_CENTER_RANKS, lambda: f"got {ranks}")


def check_lattice4_slice(checks, d, rank, factors):
    """The degree-d ideal slice has rank C(7+d, d) minus the odd-center rank
    in degree d, and no torsion: every Smith invariant factor is 0 or 1."""
    want = comb(7 + d, d) - LATTICE4_CENTER_RANKS.get(d, 0)
    checks.check(f"lattice4.slice_rank[{d}]", rank == want,
                 lambda: f"rank {rank}, want {want}")
    bad = [f for f in factors if f not in (0, 1)]
    checks.check(f"lattice4.smith_factors[{d}]", not bad,
                 lambda: f"invariant factors {bad[:5]}")


# -- timed phases ----------------------------------------------------------

def run_products(mods, pairs, checks):
    """Odd, even and diagrammatic multiply on each pair, back to back."""
    ar = mods["arc_rings"]
    rule = ar.BUILTIN_RULES["default"]
    for x, y in pairs:
        ex = ar.RingElement.monomial(x)
        ey = ar.RingElement.monomial(y)
        odd = ar.multiply(rule, ex, ey)
        even = ar.multiply(rule, ex, ey, "even")
        diag = ar.multiply_diagrammatic(rule, ex, ey)
        check_product(checks, x, y, odd, even, diag)


def run_verify3(mods, checks):
    out = io.StringIO()
    with redirect_stdout(out):
        code = mods["cli"].main(list(VERIFY3_ARGV))
    check_verify3(checks, code, out.getvalue())


def slice_matrix(springer, d):
    """The degree-d ideal slice at n = 4 as an integer matrix: one row per
    monomial of degree d in the 8 variables, in the order of the springer
    module, one column per element of ``ideal_slice(4, d)``, in the order it
    produces them.  The order matters: other column orders of the degree-3
    slice give the same HNF in 0.14 s or 252 s instead of 8.2 s."""
    monos = list(combinations_with_replacement(range(1, 9), d))
    row_of = {m: i for i, m in enumerate(monos)}
    cols = springer.ideal_slice(4, d)
    matrix = [[0] * len(cols) for _ in monos]
    for j, poly in enumerate(cols):
        for mono, coeff in poly.terms.items():
            matrix[row_of[mono]][j] = coeff
    return matrix


def run_lattice4(mods, checks):
    """Odd and even center at n = 4, then the ideal slices of degree d <= 3
    through column_hnf and smith_normal_form."""
    ce, sp, zl = mods["centers"], mods["springer"], mods["zlinalg"]
    rule = mods["arc_rings"].BUILTIN_RULES["default"]
    odd = ce.odd_center(4, rule)
    even = ce.even_center(4)
    check_lattice4_centers(checks, odd.graded_rank, even.graded_rank)
    for d in LATTICE4_DEGREES:
        matrix = slice_matrix(sp, d)
        rank, factors = 0, []
        if matrix[0]:
            hnf = zl.column_hnf(matrix)
            rank = len(hnf[0]) if hnf and hnf[0] else 0
            if rank:
                _, diag, _ = zl.smith_normal_form(hnf)
                factors = [diag[i][i] for i in range(min(len(diag), rank))]
        check_lattice4_slice(checks, d, rank, factors)


def run_verdict(workload, mods, inputs, checks):
    """The timed part of one iteration: from the first call into arcring to
    the checked verdict."""
    if workload == "products4":
        run_products(mods, inputs["pairs"], checks)
    elif workload == "lattice4":
        run_lattice4(mods, checks)
    else:
        run_verify3(mods, checks)
