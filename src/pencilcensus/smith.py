"""Polynomial matrices, Smith normal form and linear pencils.

The Smith form is computed by gcd-pivot elimination: bring the nonzero entry
of minimal degree to the pivot, reduce its row and column by division with
remainder, and restart the block whenever a remainder of smaller degree
appears.  The divisibility chain on the diagonal is enforced by a final
gcd/lcm sweep.  The determinantal divisors (gcds of all i x i minors,
computed by brute-force cofactor expansion) provide an independent check of
the same diagonal.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import ExactnessError, OutOfRangeError, ShapeError
from .gf import (
    FieldCtx,
    ScalarMatrix,
    kernel_basis_rows,
    rank_rows,
    rows_mul,
)
from .polyring import Poly, parse_poly, poly_gcd


class PolyMatrix:
    """Dense matrix of polynomials over one field, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Poly]):
        if len(entries) != rows * cols:
            raise ShapeError(
                f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Poly]]) -> "PolyMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Poly] = []
        for row in rows:
            if len(row) != ncols:
                raise ShapeError("ragged rows")
            flat.extend(row)
        return cls(nrows, ncols, flat)

    def at(self, i: int, j: int) -> Poly:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[Poly]]:
        k = self.cols
        e = self.entries
        return [list(e[i * k: (i + 1) * k]) for i in range(self.rows)]

    def __repr__(self) -> str:
        grid = [[str(p) for p in row] for row in self.to_rows()]
        return f"PolyMatrix({grid!r})"


class InvariantFactorTuple:
    """Monic chain p_1 | p_2 | ... | p_k; the canonical census key."""

    __slots__ = ("polys",)

    def __init__(self, polys: Sequence[Poly]):
        polys = tuple(polys)
        if not polys:
            raise ValueError("need at least one invariant factor")
        for p in polys:
            if not p.is_monic():
                raise ValueError(f"invariant factor {p} is not monic")
        for a, b in zip(polys, polys[1:]):
            if (b % a).coeffs:
                raise ValueError(f"{a} does not divide {b}")
        self.polys = polys

    @property
    def k(self) -> int:
        return len(self.polys)

    @property
    def field(self) -> FieldCtx:
        return self.polys[0].field

    def product(self) -> Poly:
        out = self.polys[0]
        for p in self.polys[1:]:
            out = out * p
        return out

    def total_degree(self) -> int:
        return sum(len(p.coeffs) - 1 for p in self.polys)

    @classmethod
    def parse(cls, text: str, field: FieldCtx) -> "InvariantFactorTuple":
        return cls([parse_poly(part, field) for part in text.split("|")])

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, InvariantFactorTuple)
                and self.polys == other.polys)

    def __hash__(self) -> int:
        return hash(self.polys)

    def __str__(self) -> str:
        return "|".join(str(p) for p in self.polys)

    def __repr__(self) -> str:
        return f"InvariantFactorTuple({str(self)!r})"


class SnfResult:
    """Diagonal of a Smith form: monic chain entries, then trailing zeros."""

    __slots__ = ("diagonal", "rank")

    def __init__(self, diagonal: tuple[Poly, ...], rank: int):
        self.diagonal = diagonal
        self.rank = rank

    def __repr__(self) -> str:
        return f"SnfResult([{', '.join(str(p) for p in self.diagonal)}], rank={self.rank})"


def _min_degree_pos(m: list[list[Poly]], t: int) -> tuple[int, int] | None:
    """Nonzero entry of minimal degree in the block m[t:][t:], ties row-major."""
    best = None
    best_len = None
    for i in range(t, len(m)):
        row = m[i]
        for j in range(t, len(row)):
            n = len(row[j].coeffs)
            if n:
                if n == 1:
                    return (i, j)
                if best_len is None or n < best_len:
                    best = (i, j)
                    best_len = n
    return best


def _divides(a: Poly, b: Poly) -> bool:
    if not a.coeffs:
        return not b.coeffs
    return not (b % a).coeffs


def snf(a: PolyMatrix) -> SnfResult:
    """Diagonal of the Smith normal form of a polynomial matrix.

    The zero matrix is allowed and yields rank 0.  Transformation matrices
    are not tracked; only the diagonal is ever needed here, and
    :func:`det_divisor` supplies an independent route to the same values.
    """
    nrows, ncols = a.rows, a.cols
    size = min(nrows, ncols)
    m = a.to_rows()
    t = 0
    while t < size:
        pos = _min_degree_pos(m, t)
        if pos is None:
            break
        while True:
            i0, j0 = pos
            if i0 != t:
                m[t], m[i0] = m[i0], m[t]
            if j0 != t:
                for row in m:
                    row[t], row[j0] = row[j0], row[t]
            pivot = m[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                e = m[i][t]
                if e.coeffs:
                    quot, rem = divmod(e, pivot)
                    if quot.coeffs:
                        row_i, row_t = m[i], m[t]
                        for j in range(t + 1, ncols):
                            if row_t[j].coeffs:
                                row_i[j] = row_i[j] - quot * row_t[j]
                    m[i][t] = rem
                    if rem.coeffs:
                        dirty = True
            row_t = m[t]
            for j in range(t + 1, ncols):
                e = row_t[j]
                if e.coeffs:
                    quot, rem = divmod(e, pivot)
                    if quot.coeffs:
                        for i in range(t + 1, nrows):
                            if m[i][t].coeffs:
                                m[i][j] = m[i][j] - quot * m[i][t]
                    row_t[j] = rem
                    if rem.coeffs:
                        dirty = True
            if not dirty:
                break
            pos = _min_degree_pos(m, t)
        t += 1
    diag = [m[i][i].monic() for i in range(size)]
    # Final sweep: replace adjacent non-chain pairs by (gcd, lcm) until the
    # divisibility chain holds; zeros bubble to the end.
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if _divides(x, y):
                continue
            if not x.coeffs:
                diag[i], diag[i + 1] = y, x
            else:
                g = poly_gcd(x, y)
                diag[i], diag[i + 1] = g, ((x * y) // g).monic()
            changed = True
    rank = sum(1 for p in diag if p.coeffs)
    return SnfResult(tuple(diag), rank)


def _det(rows: list[list[Poly]]) -> Poly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for j, e in enumerate(rows[0]):
        if not e.coeffs:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = e * _det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return Poly.zero(rows[0][0].field)
    return acc


def det_divisor(a: PolyMatrix, order: int) -> Poly:
    """Monic gcd of all order x order minors; zero if every minor vanishes.

    Cofactor expansion over all row/column subsets: brutally simple, and the
    independent oracle for :func:`snf`.  Only sensible for min(n, k) <= 6.
    """
    if not 1 <= order <= min(a.rows, a.cols):
        raise OutOfRangeError(
            f"minor order {order} out of range for {a.rows}x{a.cols}")
    grid = a.to_rows()
    g: Poly | None = None
    for rsel in itertools.combinations(range(a.rows), order):
        for csel in itertools.combinations(range(a.cols), order):
            d = _det([[grid[i][j] for j in csel] for i in rsel])
            if d.coeffs:
                g = d if g is None else poly_gcd(g, d)
                if len(g.coeffs) == 1:
                    return g.monic()
    if g is None:
        return Poly.zero(a.entries[0].field)
    return g.monic()


# ---------------------------------------------------------------------------
# Linear pencils x*I - B and maps defined on a subspace
# ---------------------------------------------------------------------------

_PENCIL_POLYS: dict[FieldCtx, tuple[list[Poly], list[Poly]]] = {}


def _pencil_polys(field: FieldCtx) -> tuple[list[Poly], list[Poly]]:
    cached = _PENCIL_POLYS.get(field)
    if cached is None:
        consts = [Poly(field, (field.neg(b),)) for b in field.elements()]
        linears = [Poly(field, (field.neg(b), 1)) for b in field.elements()]
        cached = (consts, linears)
        _PENCIL_POLYS[field] = cached
    return cached


def pencil_matrix(field: FieldCtx, b: ScalarMatrix) -> PolyMatrix:
    """The polynomial matrix x*I_{n,k} - B."""
    consts, linears = _pencil_polys(field)
    k = b.cols
    entries = []
    for t, v in enumerate(b.entries):
        entries.append(linears[v] if t // k == t % k else consts[v])
    return PolyMatrix(b.rows, b.cols, entries)


def pencil_invariant_factors(field: FieldCtx,
                             b: ScalarMatrix) -> InvariantFactorTuple:
    """The k invariant factors of the pencil x*I_{n,k} - B, for n >= k >= 1."""
    n, k = b.rows, b.cols
    if n < k or k < 1:
        raise ShapeError(f"pencil needs n >= k >= 1, got {n}x{k}")
    result = snf(pencil_matrix(field, b))
    if result.rank != k:
        raise ExactnessError("a pencil always has full column rank")
    return InvariantFactorTuple(result.diagonal)


def char_poly(field: FieldCtx, a: ScalarMatrix) -> Poly:
    """Characteristic polynomial det(x*I - A) of a square matrix.

    Similarity reduction to Hessenberg form followed by the standard
    leading-minor recurrence; O(n^3) field operations, division-free in x.
    """
    n = a.rows
    if n != a.cols:
        raise ShapeError("characteristic polynomial needs a square matrix")
    if n == 0:
        return Poly.one(field)
    h = a.to_rows()
    mul, add, sub, inv = field.mul, field.add, field.sub, field.inv
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if h[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        pivot_inv = inv(h[j + 1][j])
        for i in range(j + 2, n):
            t = h[i][j]
            if t:
                f = mul(t, pivot_inv)
                row_i, row_p = h[i], h[j + 1]
                for c in range(j, n):
                    if row_p[c]:
                        row_i[c] = sub(row_i[c], mul(f, row_p[c]))
                for r in range(n):
                    if h[r][i]:
                        h[r][j + 1] = add(h[r][j + 1], mul(f, h[r][i]))
    charpolys = [Poly.one(field)]
    x = Poly.x(field)
    for m in range(1, n + 1):
        p = (x - Poly.constant(field, h[m - 1][m - 1])) * charpolys[m - 1]
        prod = 1
        for i in range(m - 2, -1, -1):
            prod = mul(prod, h[i + 1][i])
            if prod == 0:
                break
            coef = mul(h[i][m - 1], prod)
            if coef:
                p = p - charpolys[i].scale(coef)
        charpolys.append(p)
    return charpolys[n]


def max_invariant_subspace(field: FieldCtx, a: ScalarMatrix, c: ScalarMatrix
                           ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Largest subspace of the domain that the map sends into itself.

    The map is given by the vertical stack [A; C] with A square k x k (the
    in-domain block) and C of shape (n-k) x k.  Returns the dimension and the
    canonical echelon basis of the intersection of the kernels of C*A^i for
    i = 0 .. k-1.
    """
    k = a.rows
    if a.cols != k or c.cols != k:
        raise ShapeError("block column counts must match")
    if c.rows == 0:
        basis = tuple(tuple(r) for r in ScalarMatrix.identity(k).to_rows())
        return k, basis
    arows = a.to_rows()
    cur = c.to_rows()
    stack = list(cur)
    for _ in range(k - 1):
        cur = rows_mul(field, cur, arows)
        stack.extend(cur)
    basis = kernel_basis_rows(field, stack, k)
    return len(basis), basis


def reachability_matrix(field: FieldCtx, a: ScalarMatrix,
                        b: ScalarMatrix) -> ScalarMatrix:
    """Horizontal block matrix [B, A*B, ..., A^{k-1}*B]."""
    k = a.rows
    if a.cols != k or b.rows != k:
        raise ShapeError("A must be k x k and B must have k rows")
    blocks = [b.to_rows()]
    arow = a.to_rows()
    cur = blocks[0]
    for _ in range(k - 1):
        cur = rows_mul(field, arow, cur)
        blocks.append(cur)
    rows = [[v for block in blocks for v in block[i]] for i in range(k)]
    return ScalarMatrix.from_rows(rows)


def reachability_rank(field: FieldCtx, a: ScalarMatrix,
                      b: ScalarMatrix) -> int:
    """Rank of the reachability matrix; the pair is reachable iff it equals k."""
    if b.cols < 1:
        raise ShapeError("input block needs at least one column")
    m = reachability_matrix(field, a, b)
    return rank_rows(field, m.to_rows(), m.cols)
