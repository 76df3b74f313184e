import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors
from sympy.polys.matrices import DomainMatrix

from arcring import centers, zlinalg
from arcring.arc_rings import BUILTIN_RULES, BasisMonomial, RingElement
from arcring.exterior import EvenTensorElement, ExteriorElement
from arcring.springer import OddPolynomial, _degree_monomials, ideal_slice
from arcring.zlinalg import (column_hnf, hnf_columns, hnf_reduce,
                             smith_normal_form, kernel_basis_Z, solve_f2)

# Invariant factors 1, 1, 1, 1, 1, 1, 351484.  Clearing against a fixed pivot
# grew the entries of its Smith normal form to 2,036 bits after 100 row
# operations, and the call ran for minutes.
SNF_BLOWUP_7X7 = [[-5, -3, 5, -6, 5, -2, -2], [-1, -5, 0, 0, 3, -5, -1],
                  [0, 6, -2, -6, -2, -5, -6], [4, -2, 4, -4, -3, -2, 0],
                  [2, -1, -3, 6, -1, 6, 0], [-6, 6, 6, 4, 0, 2, 2],
                  [-3, 5, -5, -6, 5, 0, 1]]


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in A]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def sympy_rank(M):
    return DomainMatrix.from_list(M, ZZ).convert_to(QQ).rank()


def rational_rank(M):
    """Independent oracle: Gaussian elimination over Fraction."""
    A = [[Fraction(v) for v in row] for row in M]
    rank = 0
    cols = len(A[0]) if A else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        A[rank] = [v / A[rank][c] for v in A[rank]]
        for i in range(len(A)):
            if i != rank and A[i][c]:
                f = A[i][c]
                A[i] = [v - f * w for v, w in zip(A[i], A[rank])]
        rank += 1
    return rank


def fuzzed_matrices(seed, count, max_rows=6, max_cols=7):
    """Small random integer matrices, about a third of them with a last row
    that depends on the first two."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, max_rows), rng.randint(1, max_cols)
        M = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        if rows > 2 and rng.random() < 0.4:
            M[-1] = [a - 2 * b for a, b in zip(M[0], M[1])]
        yield M


def slice_matrix(n, d):
    """The degree-d ideal slice: one row per monomial, one column per
    element of ideal_slice(n, d), both in the springer module's order."""
    gens = ideal_slice(n, d)
    return [[p.terms.get(m, 0) for p in gens]
            for m in _degree_monomials(2 * n, d)]


def sympy_column_hnf(M):
    """column_hnf through sympy's row-style hermite_normal_form: reverse the
    rows going in, and the rows and columns coming out."""
    S = hermite_normal_form(Matrix(M[::-1]))
    return [[int(S[i, j]) for j in reversed(range(S.cols))]
            for i in reversed(range(S.rows))]


def assert_normal_forms_match_sympy(M):
    assert column_hnf(M) == sympy_column_hnf(M)
    _, D, _ = smith_normal_form(M)
    assert [D[i][i] for i in range(min(len(M), len(M[0])))] == [
        int(v) for v in invariant_factors(Matrix(M))]


def test_normal_forms_match_sympy_fuzzed():
    for M in fuzzed_matrices(3, 200, 9, 10):
        assert_normal_forms_match_sympy(M)
    assert_normal_forms_match_sympy([[0, 0], [0, 0]])
    assert_normal_forms_match_sympy(SNF_BLOWUP_7X7)


def dense_kernel(M, columns=None):
    """kernel_basis_Z on the sparse columns of the dense matrix M (by
    default its columns with the zeros kept), with the kernel vectors read
    back as the columns of a dense matrix."""
    if columns is None:
        columns = [dict(enumerate(col)) for col in zip(*M)]
    K = kernel_basis_Z(columns)
    return [[vec.get(j, 0) for vec in K] for j in range(len(columns))]


def assert_kernel_characterized(M, columns=None):
    """kernel_basis_Z(M) against sympy: it lies in the kernel, has dimension
    cols - rank, is saturated (every invariant factor is 1) and is its own
    column HNF."""
    K = dense_kernel(M, columns)
    cols = len(M[0])
    assert len(K) == cols
    dim = len(K[0]) if K else 0
    assert dim == cols - sympy_rank(M)
    if dim:
        assert not any(any(row) for row in mat_mul(M, K))
        assert set(invariant_factors(Matrix(K))) == {1}
        assert sympy_column_hnf(K) == K


def test_kernel_matches_sympy_fuzzed():
    for M in fuzzed_matrices(6, 600, 9, 10):
        assert_kernel_characterized(M)
    assert_kernel_characterized([[0, 0, 0]])
    assert_kernel_characterized(SNF_BLOWUP_7X7)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_matches_sympy_on_center_systems(n, monkeypatch):
    systems = []
    monkeypatch.setattr(centers, "kernel_basis_Z", lambda columns: (
        systems.append(columns) or kernel_basis_Z(columns)))
    rule = BUILTIN_RULES["default"]
    centers.odd_center(n, rule)
    centers.even_center(n)
    centers.ring_center(n, rule)
    assert len(systems) == 3 * (n + 1)
    for columns in systems:
        # a system without rows (n = 1, or the top degree) reads as one
        # zero row, so that sympy sees its columns
        rows = sorted(set().union(*columns))
        M = ([[col.get(r, 0) for col in columns] for r in rows]
             or [[0] * len(columns)])
        assert_kernel_characterized(M, columns)


@pytest.mark.parametrize("n, d", [(3, 1), (3, 2), (3, 3), (3, 4),
                                  (4, 1), (4, 2), (4, 3)])
def test_normal_forms_match_sympy_on_slices(n, d):
    assert_normal_forms_match_sympy(slice_matrix(n, d))


def test_hnf_column_order_keeps_coefficients_small():
    """The degree-3 ideal slice at n = 4 gives one HNF in three column
    orders.  Pairwise Euclid-and-swap elimination took 0.14 s, 8.2 s and
    252 s on them through coefficient growth; the bound catches that."""
    cols = list(zip(*slice_matrix(4, 3)))
    shuffled = cols[:]
    random.Random(4).shuffle(shuffled)
    start = time.perf_counter()
    hnfs = [column_hnf([list(row) for row in zip(*order)])
            for order in (cols, cols[::-1], shuffled)]
    assert time.perf_counter() - start < 10
    assert hnfs[0] == hnfs[1] == hnfs[2]
    assert len(hnfs[0][0]) == 120 - 28


def full_scan_hnf_columns(columns):
    """Reference: `hnf_columns` with the back-reduction interleaved in the
    elimination, each new pivot scanning every earlier echelon column."""
    lead = {}
    for col in columns:
        col = {r: v for r, v in col.items() if v}
        if col:
            lead.setdefault(min(col), []).append(col)
    echelon = {}
    while lead:
        r = min(lead)
        group = lead.pop(r)
        while len(group) > 1:
            piv = min(group, key=lambda col: (abs(col[r]), len(col)))
            kept = [piv]
            for col in group:
                if col is not piv:
                    zlinalg._add_multiple(col, -(col[r] // piv[r]), piv)
                    if r in col:
                        kept.append(col)
                    elif col:
                        lead.setdefault(min(col), []).append(col)
            group = kept
        piv = group[0]
        if piv[r] < 0:
            for k in piv:
                piv[k] = -piv[k]
        for prev in echelon.values():
            q = prev.get(r, 0) // piv[r]
            if q:
                zlinalg._add_multiple(prev, -q, piv)
        echelon[r] = piv
    return echelon


def random_sparse_columns(rng):
    """Sparse columns on non-contiguous rows, negative ones included, with
    non-unit and negative entries, explicit zeros, empty and duplicate
    columns."""
    rows = rng.sample(range(-6, 60), rng.randint(1, 14))
    columns = []
    for _ in range(rng.randint(0, 16)):
        roll = rng.random()
        if roll < 0.08:
            columns.append(rng.choice([{}, {rows[0]: 0}]))
        elif roll < 0.2 and columns:
            columns.append(dict(rng.choice(columns)))
        else:
            columns.append({r: rng.choice([-9, -4, -3, -2, -1, 0, 1, 1, 2,
                                           3, 5, 6, 12])
                            for r in rng.sample(rows, rng.randint(
                                1, len(rows)))})
    return columns


def test_hnf_back_reduction_equals_the_full_scan():
    rng = random.Random(27)
    for _ in range(2000):
        columns = random_sparse_columns(rng)
        want = full_scan_hnf_columns([dict(col) for col in columns])
        got = hnf_columns([dict(col) for col in columns])
        assert list(got.items()) == list(want.items())


def test_hnf_reduce_decides_membership():
    """v lies in the column lattice L(M) iff appending it as a column leaves
    the HNF unchanged (through sympy)."""
    rng = random.Random(5)
    for M in fuzzed_matrices(5, 150):
        rows, cols = len(M), len(M[0])
        echelon = hnf_columns(dict(enumerate(col)) for col in zip(*M))
        x = [rng.randint(-4, 4) for _ in range(cols)]
        assert hnf_reduce(echelon, dict(enumerate(mat_vec(M, x)))) == {}
        hnf = sympy_column_hnf(M)
        for i in range(rows):
            rem = hnf_reduce(echelon, {i: 1})
            widened = [row + [int(k == i)] for k, row in enumerate(M)]
            assert (rem == {}) == (sympy_column_hnf(widened) == hnf)
            assert all(0 <= rem.get(r, 0) < col[r]
                       for r, col in echelon.items())
    for M, v, inside in (([[2]], [1], False), ([[1], [0]], [1, 1], False),
                         ([[1, 0], [0, 2]], [3, 4], True)):
        echelon = hnf_columns(dict(enumerate(col)) for col in zip(*M))
        assert (hnf_reduce(echelon, dict(enumerate(v))) == {}) == inside


def assert_unimodular(*matrices):
    for X in matrices:
        assert abs(Matrix(X).det()) == 1


def test_snf_golden():
    U, D, V = smith_normal_form([[2, 0], [0, 3]])
    assert [D[0][0], D[1][1]] == [1, 6]
    U, D, V = smith_normal_form([[0, 0], [0, 0]])
    assert D == [[0, 0], [0, 0]]
    # a column add would send diag(3, 2) back to itself and never finish
    for M, D_want in (([[3, 0], [0, 2]], [[1, 0], [0, 6]]),
                      ([[0, 4], [6, 0]], [[2, 0], [0, 12]])):
        U, D, V = smith_normal_form(M)
        assert D == D_want
        assert mat_mul(mat_mul(U, M), V) == D
        assert_unimodular(U, V)
    # degenerate shapes: U and V are not canonical, D is
    assert smith_normal_form([])[1] == []
    assert smith_normal_form([[]])[1] == [[]]
    assert smith_normal_form([[0], [0], [0]])[1] == [[0], [0], [0]]


def test_kernel_golden():
    assert dense_kernel([[1, 1]]) == [[1], [-1]]
    K = dense_kernel([[1, 0], [0, 1]])
    assert not (K and K[0])


def test_kernel_sparse_columns():
    """No columns have no kernel, k empty columns are k unconstrained
    unknowns, and row ids need not be contiguous: the kernel is that of the
    dense matrix, whose explicit zeros change nothing."""
    assert kernel_basis_Z([]) == []
    for k in range(1, 5):
        assert kernel_basis_Z([{} for _ in range(k)]) == [
            {j: 1} for j in range(k)]
    rng = random.Random(12)
    for M in fuzzed_matrices(12, 200):
        ids = sorted(rng.sample(range(10 ** 6), len(M)))
        columns = [{ids[i]: x for i, x in enumerate(col)
                    if x or rng.random() < 0.5} for col in zip(*M)]
        assert dense_kernel(M, columns) == dense_kernel(M)


def whole_echelon_kernel(columns):
    """Reference for `kernel_basis_Z`: the whole `hnf_columns` echelon of
    the columns stacked on the identity, every column back-reduced, read
    off in its tag block."""
    columns = [{i: x for i, x in col.items() if x} for col in columns]
    tag = 1 + max((i for col in columns for i in col), default=-1)
    echelon = hnf_columns({**col, tag + j: 1} for j, col in enumerate(columns))
    return [{r - tag: x for r, x in col.items()}
            for p, col in echelon.items() if p >= tag]


def assert_kernel_block_reduced(columns):
    want = whole_echelon_kernel([dict(col) for col in columns])
    assert kernel_basis_Z([dict(col) for col in columns]) == want


def test_kernel_block_back_reduction_equals_the_whole_echelon(monkeypatch):
    # kernel_basis_Z back-reduces only the columns that pivot in a tag row;
    # on fuzzed matrices, sparse columns on scattered rows and every center
    # system for n <= 4 it must read off the kernel of the whole echelon
    for M in fuzzed_matrices(31, 600, 9, 10):
        assert_kernel_block_reduced([dict(enumerate(col))
                                     for col in zip(*M)])
    rng = random.Random(31)
    for _ in range(1000):
        assert_kernel_block_reduced(random_sparse_columns(rng))
    systems = []
    monkeypatch.setattr(centers, "kernel_basis_Z", lambda columns: (
        systems.append([dict(col) for col in columns])
        or kernel_basis_Z(columns)))
    rule = BUILTIN_RULES["default"]
    for n in (1, 2, 3, 4):
        centers.odd_center(n, rule)
        centers.even_center(n)
        centers.ring_center(n, rule)
    assert len(systems) == 3 * (2 + 3 + 4 + 5)
    for columns in systems:
        assert_kernel_block_reduced(columns)


def test_kernel_check_raises(monkeypatch):
    # an echelon that claims a kernel vector off the kernel is caught: the
    # tag row of unknown 0 is row 1, below the system's row 0
    monkeypatch.setattr(zlinalg, "_eliminate", lambda columns: {1: {1: 1}})
    with pytest.raises(AssertionError, match="not in the kernel"):
        kernel_basis_Z([{0: 1}])


def test_snf_7x7_no_blowup():
    start = time.perf_counter()
    U, D, V = smith_normal_form(SNF_BLOWUP_7X7)
    assert time.perf_counter() - start < 2
    assert mat_mul(mat_mul(U, SNF_BLOWUP_7X7), V) == D
    assert [D[i][i] for i in range(7)] == [1] * 6 + [351484]
    assert_unimodular(U, V)


def test_fuzz_snf_kernel_solve():
    rng = random.Random(0)
    for _ in range(150):
        rows = rng.randint(1, 9)
        cols = rng.randint(1, 10)
        M = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        U, D, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert_unimodular(U, V)
        diag = [D[i][i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] and diag[i + 1] % diag[i] == 0
            if diag[i] == 0:
                assert diag[i + 1] == 0
        r = sum(1 for d in diag if d)
        assert r == rational_rank(M)
        K = dense_kernel(M)
        kdim = len(K[0]) if K and K[0] else 0
        assert kdim == cols - r
        # an image vector M x reduces to zero modulo the column lattice
        x = [rng.randint(-4, 4) for _ in range(cols)]
        echelon = hnf_columns(dict(enumerate(col)) for col in zip(*M))
        assert len(echelon) == r
        assert hnf_reduce(echelon, dict(enumerate(mat_vec(M, x)))) == {}


def snf_digest(matrices):
    """sha256 over repr((U, D, V)) of each matrix, in order."""
    h = hashlib.sha256()
    for M in matrices:
        h.update(repr(smith_normal_form(M)).encode())
    return h.hexdigest()


def n4_slices():
    """The n = 4 ideal slices of degree d <= 3, each followed by its
    column_hnf, as the lattice benchmark passes them."""
    for d in range(4):
        M = slice_matrix(4, d)
        yield M
        yield column_hnf(M)


# Recorded from the dense-pass Smith form: not only D but the exact U and V
# must not change, as the passes see the same vectors in the same order.
SNF_DIGESTS = {
    "fuzzed": ("f567a7cf342ee8ec90deb244e4fea18b"
               "1a3b8a3bbda89a6dcf2e3f700afba5d8"),
    "slices": ("de3e138d2298742c32256122b45795e6"
               "245280b30e35145ec3b0eef0b7b70bb1"),
}


@pytest.mark.parametrize("name, matrices", [
    ("fuzzed", lambda: fuzzed_matrices(9, 2000, 9, 10)),
    ("slices", n4_slices)])
def test_snf_digest(name, matrices):
    assert snf_digest(matrices()) == SNF_DIGESTS[name]


def test_hnf_canonical_for_lattice():
    # column operations do not change the HNF
    M = [[2, 4, 1], [0, 3, 1]]
    M2 = [[4, 2, 1 + 4], [3, 0, 1 + 3]]  # swapped + added columns
    assert column_hnf(M) == column_hnf(M2)


def bits(row):
    return sum(v << j for j, v in enumerate(row))


def dense_solve_f2(A, b):
    """Column-by-column Gauss-Jordan elimination over F2 on dense 0/1 rows,
    free variables zero: the reference for the bitset solve_f2."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    aug = [[v & 1 for v in row] + [bv & 1] for row, bv in zip(A, b)]
    pivots = []
    rr = 0
    for c in range(cols):
        piv = next((i for i in range(rr, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[rr], aug[piv] = aug[piv], aug[rr]
        for i in range(rows):
            if i != rr and aug[i][c]:
                aug[i] = [(x ^ y) for x, y in zip(aug[i], aug[rr])]
        pivots.append(c)
        rr += 1
        if rr == rows:
            break
    if any(aug[i][cols] for i in range(rr, rows)):
        return None
    x = [0] * cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols]
    return x


def test_solve_f2():
    assert solve_f2([0b01, 0b10], [1, 0], 2) == [1, 0]
    assert solve_f2([0b00], [1], 2) is None
    assert solve_f2([], [], 3) == [0, 0, 0]
    x = solve_f2([0b011, 0b110], [1, 1], 3)
    assert x is not None
    assert (x[0] + x[1]) % 2 == 1 and (x[1] + x[2]) % 2 == 1
    with pytest.raises(ValueError):
        solve_f2([0b100], [1], 2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4),
                min_size=1, max_size=5),
       st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_solve_f2_consistent_systems(rows, x):
    b = [sum(a * v for a, v in zip(row, x)) % 2 for row in rows]
    sol = solve_f2([bits(row) for row in rows], b, 4)
    assert sol is not None
    for row, bv in zip(rows, b):
        assert sum(a * v for a, v in zip(row, sol)) % 2 == bv


def test_solve_f2_matches_dense_elimination_fuzzed():
    # same canonical solution (or None) as dense elimination, on systems
    # with zero rows, repeated rows and inconsistent right-hand sides
    rng = random.Random(11)
    unsolvable = 0
    for _ in range(1500):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice((0.15, 0.4, 0.7))
        A = [[int(rng.random() < density) for _ in range(ncols)]
             for _ in range(nrows)]
        if rng.random() < 0.3:
            A[rng.randrange(nrows)] = [0] * ncols
        if rng.random() < 0.3:
            A.append(list(rng.choice(A)))
        if rng.random() < 0.5:
            x = [rng.randint(0, 1) for _ in range(ncols)]
            b = [sum(a * v for a, v in zip(row, x)) % 2 for row in A]
        else:
            b = [rng.randint(0, 1) for _ in A]
        want = dense_solve_f2(A, b)
        unsolvable += want is None
        assert solve_f2([bits(row) for row in A], b, ncols) == want
    assert 100 < unsolvable < 1400


@pytest.mark.parametrize("cls, space, other_space, monos", [
    (RingElement, 2, 3, [BasisMonomial("(())", "(())", frozenset({1})),
                         BasisMonomial("()()", "(())", frozenset())]),
    (ExteriorElement, (0, 1, 2), (0, 1), [(2, 0), (1,)]),
    (EvenTensorElement, (0, 1, 2), (0, 1), [frozenset({0, 2}), frozenset({1})]),
    (OddPolynomial, 4, 2, [(3, 1), (2, 2)]),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_sparse_z_spaces_and_hash(cls, space, other_space, monos):
    forward = cls(space, dict(zip(monos, (3, -2))))
    backward = cls(space, dict(reversed(list(forward.terms.items()))))
    assert list(forward.terms) != list(backward.terms)
    assert forward == backward and hash(forward) == hash(backward)
    assert (forward - backward).is_zero()
    with pytest.raises(ValueError):
        forward + cls(other_space)
