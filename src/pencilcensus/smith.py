"""Smith normal form and linear pencils.

Matrices are lists of equal-length rows: of coefficient tuples (zero is
()) for the polynomial ones that ``snf(field, rows)`` and
``det_divisor(field, rows, order)`` read, ``snf`` returning the Smith
form's diagonal as a tuple of them, and of field elements for scalar ones
such as the B of a pencil.  The Smith form
is computed by gcd-pivot elimination: bring the nonzero entry of minimal
degree to the pivot, reduce its row and column by division with remainder,
and restart the block whenever a remainder of smaller degree appears.  The
divisibility chain on the diagonal is enforced by a final gcd/lcm sweep.
The determinantal divisors (gcds of all i x i minors, computed by
brute-force cofactor expansion) provide an independent check of it.

The key of a tall pencil x*I_{n,k} - B never eliminates the constant rows
below row k: with B = [A; C], r = rank C and S a basis of ker C, the
diagonal is r ones followed by the Smith form of the k x (k - r) pencil
(x*I - A)*S, by unimodular steps alone (see :func:`pencil_invariant_factors`).
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from typing import Sequence

from .errors import ExactnessError, OutOfRangeError, ShapeError
from .gf import (
    FieldCtx,
    kernel_basis_rows,
    kernel_free_rows,
    rank_rows,
    rows_mul,
)
from .polyring import (coeffs_divmod, coeffs_gcd, coeffs_monic, coeffs_mul,
                       coeffs_submul, coeffs_text, parse_coeffs)


class InvariantFactorTuple:
    """Monic chain p_1 | ... | p_k of coefficient tuples; the census key.
    A pencil key reads its entries' texts from ``_texts``, its field's,
    which holds monics of degree <= k; any other chain stores nothing."""

    __slots__ = ("field", "coeffs", "_texts")

    def __init__(self, field: FieldCtx, coeffs: Sequence[Sequence[int]]):
        """The chain of the coefficient tuples ``coeffs``, once each is
        monic and divides the next."""
        self.field, self.coeffs = field, tuple(map(tuple, coeffs))
        self._texts = None
        if not self.coeffs:
            raise ValueError("need at least one invariant factor")
        text = partial(coeffs_text, field)
        for c in self.coeffs:
            if not c or c[-1] != 1:
                raise ValueError(f"invariant factor {text(c)} is not monic")
        for a, b in zip(self.coeffs, self.coeffs[1:]):
            if coeffs_divmod(field, b, a)[1]:
                raise ValueError(f"{text(a)} does not divide {text(b)}")

    @classmethod
    def _of_chain(cls, field: FieldCtx, coeffs: tuple,
                  texts: dict | None = None) -> "InvariantFactorTuple":
        """The chain of ``coeffs``, unchecked: for a nonzero diagonal of
        :func:`snf`, whose final sweep has already made it a monic chain."""
        ifs = object.__new__(cls)
        ifs.field, ifs.coeffs, ifs._texts = field, coeffs, texts
        return ifs

    def product(self) -> tuple[int, ...]:
        """The coefficients of p_1 * ... * p_k."""
        out = self.coeffs[0]
        for c in self.coeffs[1:]:
            out = coeffs_mul(self.field, out, c)
        return out

    def total_degree(self) -> int:
        return sum(len(c) - 1 for c in self.coeffs)

    @classmethod
    def parse(cls, text: str, field: FieldCtx) -> "InvariantFactorTuple":
        return cls(field, [parse_coeffs(part, field)
                           for part in text.split("|")])

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, InvariantFactorTuple) and
                (self.field.q, self.coeffs) == (other.field.q, other.coeffs))

    def __hash__(self) -> int:
        return hash((self.field.q, self.coeffs))

    def __str__(self) -> str:
        texts = {} if self._texts is None else self._texts
        return "|".join([texts.get(c) or texts.setdefault(
            c, coeffs_text(self.field, c)) for c in self.coeffs])

    def __repr__(self) -> str:
        return f"InvariantFactorTuple({str(self)!r})"


def _min_degree_pos(m: list[list[tuple]], t: int) -> tuple[int, int] | None:
    """Nonzero entry of minimal degree in the block m[t:][t:], ties row-major."""
    best = None
    best_len = None
    for i in range(t, len(m)):
        row = m[i]
        for j in range(t, len(row)):
            n = len(row[j])
            if n:
                if n == 1:
                    return (i, j)
                if best_len is None or n < best_len:
                    best = (i, j)
                    best_len = n
    return best


def _shape(rows: Sequence[Sequence]) -> tuple[int, int]:
    if len(set(map(len, rows))) > 1:
        raise ShapeError("ragged rows")
    return len(rows), len(rows[0]) if rows else 0


def snf(field: FieldCtx, rows: Sequence[Sequence[tuple]], *,
        _fresh_shape: tuple[int, int] | None = None) -> tuple[tuple, ...]:
    """Diagonal of the Smith normal form of a polynomial matrix over
    ``field``, given as equal-length rows of coefficient tuples: the monic
    chain, then () for each unit of rank deficiency.

    The elimination runs on a copy of the rows; this module's pencil keys
    pass ``_fresh_shape``, the shape they checked, to have their fresh rows
    consumed in place.  An empty matrix yields ().  Transformation matrices
    are not tracked; only the diagonal is ever needed here, and
    :func:`det_divisor` supplies an independent route to the same values.
    """
    nrows, ncols = _fresh_shape or _shape(rows)
    m = rows if _fresh_shape else [list(row) for row in rows]
    size = min(nrows, ncols)
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
                if e:
                    quot, rem = coeffs_divmod(field, e, pivot)
                    if quot:
                        row_i, row_t = m[i], m[t]
                        for j in range(t + 1, ncols):
                            if row_t[j]:
                                row_i[j] = coeffs_submul(field, row_i[j],
                                                         quot, row_t[j])
                    m[i][t] = rem
                    if rem:
                        dirty = True
            row_t = m[t]
            for j in range(t + 1, ncols):
                e = row_t[j]
                if e:
                    quot, rem = coeffs_divmod(field, e, pivot)
                    if quot:
                        for i in range(t + 1, nrows):
                            if m[i][t]:
                                m[i][j] = coeffs_submul(field, m[i][j], quot,
                                                        m[i][t])
                    row_t[j] = rem
                    if rem:
                        dirty = True
            if not dirty:
                break
            pos = _min_degree_pos(m, t)
        t += 1
    diag = [coeffs_monic(field, m[i][i]) for i in range(size)]
    # Final sweep: replace adjacent non-chain pairs by (gcd, lcm) until the
    # divisibility chain holds; a zero x gives (y, 0), so zeros bubble to
    # the end.  The lcm x*y/g of monic x, y and g is monic.
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if (not coeffs_divmod(field, y, x)[1] if x
                    else not y):  # x divides y
                continue
            diag[i] = g = coeffs_gcd(field, x, y)
            diag[i + 1] = coeffs_divmod(field, coeffs_mul(field, x, y), g)[0]
            changed = True
    return tuple(diag)


def _det(field: FieldCtx, rows: list[list[tuple]]) -> tuple[int, ...]:
    """The determinant of a square matrix of coefficient tuples, by cofactor
    expansion along the first row: each entry times its minor's
    determinant, added at even columns and subtracted at odd ones."""
    if len(rows) == 1:
        return rows[0][0]
    signs = (field.neg(1),), (1,)  # acc - sign * term: + at even j
    acc = ()
    for j, e in enumerate(rows[0]):
        if e:
            minor = _det(field, [row[:j] + row[j + 1:] for row in rows[1:]])
            acc = coeffs_submul(field, acc, signs[j % 2],
                                coeffs_mul(field, e, minor))
    return acc


def det_divisor(field: FieldCtx, rows: Sequence[Sequence[tuple]],
                order: int) -> tuple[int, ...]:
    """Monic gcd of all order x order minors of a matrix given as rows of
    coefficient tuples; () if every minor vanishes.

    Cofactor expansion over all row/column subsets: brutally simple, and the
    independent oracle for :func:`snf`.  Only sensible for min(n, k) <= 6.
    """
    nrows, ncols = _shape(rows)
    if not 1 <= order <= min(nrows, ncols):
        raise OutOfRangeError(
            f"minor order {order} out of range for {nrows}x{ncols}")
    g = ()
    for rsel in itertools.combinations(range(nrows), order):
        for csel in itertools.combinations(range(ncols), order):
            g = coeffs_gcd(field, g, _det(
                field, [[rows[i][j] for j in csel] for i in rsel]))
            if g == (1,):
                return g
    return g


# ---------------------------------------------------------------------------
# Linear pencils x*I - B and maps defined on a subspace
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pencil_entries(field: FieldCtx) -> tuple[list[tuple], list[tuple], dict]:
    """The coefficients of the pencil entries -v and x - v, indexed by v,
    and the texts of the pencil keys' entries, filled as each first appears."""
    neg = field.neg
    return ([(neg(v),) if v else () for v in field.elements()],
            [(neg(v), 1) for v in field.elements()], {})


def _pencil_rows(field: FieldCtx, b: Sequence[Sequence[int]],
                 size: int) -> list[list]:
    """Fresh rows of coefficient tuples of x*I_{n,k} - B, B's rows checked
    equal in length and size = min(n, k)."""
    consts, linears, _ = _pencil_entries(field)
    rows = [[consts[v] for v in row] for row in b]
    for i in range(size):
        rows[i][i] = linears[b[i][i]]
    return rows


def pencil_matrix(field: FieldCtx,
                  b: Sequence[Sequence[int]]) -> list[list[tuple]]:
    """Fresh rows of coefficient tuples of the matrix x*I_{n,k} - B."""
    return _pencil_rows(field, b, min(_shape(b)))


def pencil_invariant_factors(field: FieldCtx,
                             b: Sequence[Sequence[int]]) -> InvariantFactorTuple:
    """The k invariant factors of the pencil x*I_{n,k} - B, for n >= k >= 1.

    For n > k write B = [A; C], A the top k x k block.  If C = 0 its rows
    are zero rows of the pencil, which change no minor, so the Smith form is
    that of x*I - A.  Otherwise let r = rank C and let S be a k x (k - r)
    basis of ker C, any one: its columns are the rows of
    :func:`kernel_free_rows`, read off one reduction of C.  For any
    complement S_c, Q = [S_c | S] is an invertible constant matrix, and
    [x*I - A; -C] * Q has the bottom block [-C*S_c, 0] of rank r.
    Constant row operations turn -C*S_c into [I_r; 0], and its r unit
    pivots clear the top left block (x*I - A)*S_c, leaving (x*I - A)*S in
    the top right.  Every step is unimodular, so the diagonal is r ones
    followed by the Smith form of the k x (k - r) pencil x*S - A*S: the
    rows below k never reach the elimination.
    """
    n, k = _shape(b)
    if n < k or k < 1:
        raise ShapeError(f"pencil needs n >= k >= 1, got {n}x{k}")
    if n > k and any(map(any, b[k:])):
        kernel = kernel_free_rows(field, b[k:], k)
        # row j of A*S transposed is A*s_j, s_j the j-th kernel vector
        a_s = rows_mul(field, kernel, list(zip(*b[:k])))
        consts, linears, _ = _pencil_entries(field)
        neg = field.neg
        rows = [[consts[t[i]] if not s[i] else linears[t[i]] if s[i] == 1
                 else (neg(t[i]), s[i])
                 for s, t in zip(kernel, a_s)] for i in range(k)]
        diagonal = ((1,),) * (k - len(kernel)) + snf(
            field, rows, _fresh_shape=(k, len(kernel)))
    else:
        diagonal = snf(field, _pencil_rows(field, b[:k], k),
                       _fresh_shape=(k, k))
    if not all(diagonal):
        raise ExactnessError("a pencil always has full column rank")
    return InvariantFactorTuple._of_chain(field, diagonal,
                                          _pencil_entries(field)[2])


def char_poly(field: FieldCtx,
              a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The coefficients of the characteristic polynomial det(x*I - A) of a
    square matrix.

    Similarity reduction to Hessenberg form followed by the standard
    leading-minor recurrence on coefficient tuples; O(n^3) field operations,
    division-free in x.
    """
    n, cols = _shape(a)
    if n != cols:
        raise ShapeError("characteristic polynomial needs a square matrix")
    if n == 0:
        return (1,)
    h = [list(row) for row in a]
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
    charpolys = [(1,)]
    for m in range(1, n + 1):
        p = coeffs_mul(field, (sub(0, h[m - 1][m - 1]), 1), charpolys[m - 1])
        prod = 1
        for i in range(m - 2, -1, -1):
            prod = mul(prod, h[i + 1][i])
            if prod == 0:
                break
            coef = mul(h[i][m - 1], prod)
            if coef:
                p = coeffs_submul(field, p, (coef,), charpolys[i])
        charpolys.append(p)
    return charpolys[n]


def _krylov_rows(field: FieldCtx, c_rows: Sequence[Sequence[int]],
                 a_rows: Sequence[Sequence[int]], k: int) -> list[list[int]]:
    """Rows of the vertical stack C, C*A, ..., C*A^{k-1}."""
    cur = c_rows
    stack = list(cur)
    for _ in range(k - 1):
        cur = rows_mul(field, cur, a_rows)
        stack.extend(cur)
    return stack


def max_invariant_subspace(field: FieldCtx, a: Sequence[Sequence[int]],
                           c: Sequence[Sequence[int]]
                           ) -> tuple[tuple[int, ...], ...]:
    """Largest subspace of the domain that the map sends into itself.

    The map is given by the vertical stack [A; C] with A square k x k (the
    in-domain block) and C of shape (n-k) x k.  Returns the canonical echelon
    basis of the kernel of the stack C, C*A, ..., C*A^{k-1} (the whole domain
    when C has no rows); its length is the dimension.
    """
    k, cols = _shape(a)
    m, c_cols = _shape(c)
    if cols != k or m and c_cols != k:
        raise ShapeError("block column counts must match")
    return kernel_basis_rows(field, _krylov_rows(field, c, a, k), k)


def reachability_rank(field: FieldCtx, a: Sequence[Sequence[int]],
                      b: Sequence[Sequence[int]]) -> int:
    """Rank of [B, A*B, ..., A^{k-1}*B]; the pair is reachable iff it is k.

    That matrix is the transpose of the stack B^T, B^T*A^T, ...,
    B^T*(A^T)^{k-1} (Kalman duality), whose rank is computed instead.
    """
    k, cols = _shape(a)
    rows, m = _shape(b)
    if m < 1:
        raise ShapeError("input block needs at least one column")
    if cols != k or rows != k:
        raise ShapeError("A must be k x k and B must have k rows")
    stack = _krylov_rows(field, list(zip(*b)), list(zip(*a)), k)
    return rank_rows(field, stack, k)
