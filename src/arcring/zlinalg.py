"""Exact linear algebra over Z and F2.

One sparse elimination engine answers the lattice questions (kernel,
membership, coordinates, rank).  `hnf_columns` brings sparse integer columns
{row: int} to canonical column Hermite normal form; `hnf_reduce` reduces a
vector modulo the lattice of such an echelon, which decides membership and,
when every column carries a tag row of its own, leaves the coordinates in
the tag rows; `kernel_basis_Z` reads a saturated kernel off the echelon of
sparse columns stacked on the identity.  Two dense adapters, which no src
module calls (the lattice4 benchmark and the tests do), take and return lists
of row lists of Python ints and are sparse inside: `column_hnf` wraps
`hnf_columns`, and `smith_normal_form` alternates `hnf_columns` passes over
columns and rows.  Besides them: GF(2) elimination on bitset rows (`solve_f2`).

SparseZ is the common base of the sparse integer combinations (ring
elements, exterior and tensor states, odd polynomials); `signed_sum` writes
the text form of such a combination and `signed_terms` reads it back.
"""

from heapq import heapify, heappop, heappush


class SparseZ:
    """Finite Z-combination of monomials of one space, stored as
    {normal monomial: nonzero int}.  `space` (n, a label tuple, a variable
    count) must be equal for two elements to be added.  Subclasses define
    `_normal(mono) -> (key, sign)`, the normal form of a monomial and the
    sign it picks up on the way; sign 0 drops the term."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        self.space = space
        self.terms = {}
        if terms:
            self._collect(terms)

    def _collect(self, terms):
        own = self.terms
        normal = self._normal
        for mono, coeff in terms.items():
            if not coeff:
                continue
            key, sign = normal(mono)
            if not sign:
                continue
            c = own.get(key, 0) + sign * coeff
            if c:
                own[key] = c
            else:
                own.pop(key, None)

    @classmethod
    def zero(cls, space):
        return cls(space)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self) and self.space == other.space
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def __add__(self, other):
        if type(other) is not type(self) or other.space != self.space:
            raise ValueError(f"cannot add {type(other).__name__} on "
                             f"{other.space!r} to {type(self).__name__} on "
                             f"{self.space!r}")
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = terms.get(mono, 0) + coeff
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        out = type(self)(self.space)
        out.terms = terms
        return out

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        out = type(self)(self.space)
        if k:
            out.terms = {m: k * c for m, c in self.terms.items()}
        return out


def signed_sum(terms):
    """Join (coeff, body) pairs, nonzero coeffs and bodies showing |coeff|,
    as `body + body - body`, a negative first term as `-body`; '0' if there
    are none."""
    parts = []
    for coeff, body in terms:
        if parts:
            parts.append("+" if coeff > 0 else "-")
        elif coeff < 0:
            body = "-" + body
        parts.append(body)
    return " ".join(parts) or "0"


def signed_terms(text, term_re):
    """Parsing twin of `signed_sum`: yield (signed coeff, match) for each
    term of `text`, a match of `term_re` (groups `sign` and `coeff`, both
    optional) at the end of the one before; only the first term may omit
    its sign."""
    pos = 0
    while pos < len(text):
        match = term_re.match(text, pos)
        if not match:
            raise ValueError(f"parse error at {text[pos:]!r}")
        sign = match.group("sign")
        if pos and sign is None:
            raise ValueError(f"missing +/- before {text[pos:]!r}")
        coeff = int(match.group("coeff") or 1)
        yield -coeff if sign == "-" else coeff, match
        pos = match.end()


def _identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def hnf_columns(columns):
    """Column Hermite normal form of the lattice spanned by sparse integer
    columns {row: int} (rows are any sortable keys, read in increasing order).

    Returns {pivot row: column} in increasing pivot order: column j is zero
    above its positive pivot, and every later pivot row holds entries in
    [0, pivot) in the earlier columns.  Canonical for the lattice.  Rows are
    cleared one at a time: the live column with the smallest |entry| in the
    row, the shortest among equals (less fill-in), is the pivot, every other
    live column drops its floor quotient of it, and this repeats until the
    pivot is alone.  That keeps the coefficients small, where pairwise
    Euclid-and-swap let them grow; a unit pivot clears its row in one
    pass.  Once every row is cleared, `_back_reduce` brings the earlier
    columns into range."""
    lead = {}  # row -> live columns whose first nonzero entry is in it
    for col in columns:
        col = {r: v for r, v in col.items() if v}
        if col:
            lead.setdefault(min(col), []).append(col)
    rows = list(lead)
    heapify(rows)
    echelon = {}
    while rows:
        r = heappop(rows)
        group = lead.pop(r)
        while len(group) > 1:
            piv = min(group, key=lambda col: (abs(col[r]), len(col)))
            p = piv[r]
            kept = [piv]
            for col in group:
                if col is piv:
                    continue
                _add_multiple(col, -(col[r] // p), piv)
                if r in col:
                    kept.append(col)
                elif col:
                    first = min(col)
                    if first not in lead:
                        lead[first] = []
                        heappush(rows, first)
                    lead[first].append(col)
            group = kept
        piv = group[0]
        if piv[r] < 0:
            for k in piv:
                piv[k] = -piv[k]
        echelon[r] = piv
    _back_reduce(echelon)
    return echelon


def _back_reduce(echelon):
    """Bring the entries of the earlier columns in each pivot row into
    [0, pivot), in place: pivot by pivot in increasing order, each earlier
    column with an entry in the pivot row drops its floor quotient of the
    pivot column.  The forward elimination never reads echelon columns, and
    a pivot column meets no later pivot before it reduces the earlier ones,
    so this gives the reduction interleaved with the elimination.  Only the
    columns in the pivot row's index are visited: the index starts from the
    entries of each column below its own pivot, and a reduced column joins
    the index of every later pivot row of the pivot column."""
    cols = list(echelon.values())
    holders = {r: set() for r in echelon}  # pivot row -> earlier columns in it
    for j, (r, col) in enumerate(echelon.items()):
        for s in col:
            if s != r and s in holders:
                holders[s].add(j)
    for r, piv in echelon.items():
        p = piv[r]
        later = None
        for j in holders.pop(r):
            prev = cols[j]
            q = prev.get(r, 0) // p
            if q:
                _add_multiple(prev, -q, piv)
                if later is None:
                    later = [s for s in piv if s != r and s in holders]
                for s in later:
                    holders[s].add(j)


def hnf_reduce(echelon, v):
    """Remainder of the sparse vector v {row: int} modulo the lattice of an
    `hnf_columns` echelon: each pivot row, in order, drops its floor
    quotient.  The remainder is {} exactly when v lies in the lattice; its
    pivot-row entries lie in [0, pivot)."""
    v = {r: x for r, x in v.items() if x}
    for r, col in echelon.items():
        x = v.get(r)
        if x:
            q = x // col[r]
            if q:
                _add_multiple(v, -q, col)
    return v


def _add_multiple(col, q, other):
    """col += q * other, in place, for sparse columns."""
    for k, v in other.items():
        x = col.get(k, 0) + q * v
        if x:
            col[k] = x
        else:
            del col[k]


def column_hnf(M):
    """Column-style Hermite normal form: returns H = M * V (V unimodular,
    not returned) in column echelon form with positive pivots, entries to the
    right of each pivot reduced, zero columns trimmed.  Canonical for the
    column lattice of M."""
    if not M:
        return []
    echelon = hnf_columns({i: x for i, x in enumerate(col) if x}
                          for col in zip(*M))
    return [[col.get(i, 0) for col in echelon.values()]
            for i in range(len(M))]


def smith_normal_form(M):
    """(U, D, V) with U*M*V = D diagonal, d1 | d2 | ... nonnegative with the
    zeros last, U and V unimodular, all three dense.  No src module calls
    it; the lattice4 benchmark and the tests do.

    Alternating Hermite forms (Kannan-Bachem): a column pass brings the
    columns of D stacked on those of V to `hnf_columns` form, and a row pass
    does the same for the rows of D beside those of U, until D is diagonal.
    Where d_i does not divide d_{i+1}, row i+1 is added to row i, which the
    next column pass lowers to gcd(d_i, d_{i+1}); a column add would not
    help, as the column pass restores the diagonal lattice unchanged.
    Between the passes D, U and V stay sparse (D as rows or columns, U as
    rows, V as columns); the dense matrices are built once, on return."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if not rows or not cols:
        return _identity(rows), [list(r) for r in M], _identity(cols)
    D = [{j: x for j, x in enumerate(row) if x} for row in M]
    U = [{i: 1} for i in range(rows)]
    V = [{j: 1} for j in range(cols)]

    def transpose(X, k):
        out = [{} for _ in range(k)]
        for i, vec in enumerate(X):
            for j, x in vec.items():
                out[j][i] = x
        return out

    def hnf_pass(lines, tags, m):
        # hnf_columns of each line with its tag shifted past the m line
        # entries, split back into (lines, tags) in pivot order; the tags
        # are the rows of a unimodular matrix, so no vector is lost
        echelon = hnf_columns({**line, **{m + k: x for k, x in tag.items()}}
                              for line, tag in zip(lines, tags))
        return ([{k: x for k, x in v.items() if k < m}
                 for v in echelon.values()],
                [{k - m: x for k, x in v.items() if k >= m}
                 for v in echelon.values()])

    while True:
        D, V = hnf_pass(transpose(D, cols), V, rows)
        D, U = hnf_pass(transpose(D, rows), U, cols)
        if any(row.keys() - {i} for i, row in enumerate(D)):
            continue
        diag = [D[i].get(i, 0) for i in range(min(rows, cols))]
        i = next((i for i in range(len(diag) - 1)
                  if diag[i] and diag[i + 1] % diag[i]), None)
        if i is None:
            return ([[u.get(k, 0) for k in range(rows)] for u in U],
                    [[row.get(j, 0) for j in range(cols)] for row in D],
                    [[v.get(k, 0) for v in V] for k in range(cols)])
        # D is diagonal, so row i+1 adds the single entry d_{i+1}
        D[i][i + 1] = diag[i + 1]
        _add_multiple(U[i], 1, U[i + 1])


def kernel_basis_Z(columns):
    """Saturated basis of {v : Sum_j v_j columns[j] = 0} from one sparse
    column {row: int} per unknown (int rows, zeros ignored, an empty column
    unconstrained), as sparse vectors {j: int} in canonical column-HNF order.
    One `hnf_columns` pass over the columns stacked on the identity, whose
    tag rows lie below the system's: the echelon columns that pivot in a tag
    row are zero on the system, and their tag part is a kernel basis,
    saturated because column operations are unimodular, and in column HNF."""
    columns = [{i: x for i, x in col.items() if x} for col in columns]
    tag = 1 + max((i for col in columns for i in col), default=-1)
    echelon = hnf_columns({**col, tag + j: 1} for j, col in enumerate(columns))
    kernel = [{r - tag: x for r, x in col.items()}
              for p, col in echelon.items() if p >= tag]
    for vec in kernel:
        image = {}
        for j, x in vec.items():
            _add_multiple(image, x, columns[j])
        if image:
            raise AssertionError("kernel basis is not in the kernel")
    return kernel


def solve_f2(rows, rhs, ncols):
    """Canonical solution (free variables = 0) of A x = b over F2, as a list
    of ncols bits, or None.  Row i of A is the int rows[i], bit j standing
    for unknown j; b_i = rhs[i] & 1.  Rows are combined by XOR and each
    pivots on its lowest set bit, so the pivot columns, and the solution,
    are those of column-by-column elimination."""
    top = 1 << ncols
    pivots = {}  # lowest set bit -> row with b_i in bit ncols
    for row, bv in zip(rows, rhs):
        if row < 0 or row >= top:
            raise ValueError(f"row {row:#x} has bits outside {ncols} columns")
        row |= (bv & 1) << ncols
        while row:
            low = row & -row
            if low == top:
                return None
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    x = 0
    for low in sorted(pivots, reverse=True):
        row = pivots[low]
        if ((row & x).bit_count() ^ row >> ncols) & 1:
            x |= low
    for row, bv in zip(rows, rhs):
        if ((row & x).bit_count() ^ bv) & 1:
            raise AssertionError("F2 solution does not solve A x = b")
    return [x >> j & 1 for j in range(ncols)]
