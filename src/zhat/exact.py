"""Exact rational linear algebra and the integer factors of the engine walk.

Everything here works over arbitrary-precision integers and
``fractions.Fraction``; no floating point is used anywhere.  The engine
uses

* Smith normal form with unimodular transforms, on integer rows,
* the fraction-free factors (trailing minors and their adjugates) of a
  positive definite integer form, and the integer range solve, that its
  support walk runs on.

The dense :class:`ExactMatrix` (exact determinant, inverse, trace and
signature) and the negative definiteness test, one run of those same
factors, are kept as independent oracles for tests and the benchmark:
no computation path builds an ExactMatrix, since plumbing trees are
eliminated in integers by :mod:`zhat.plumbing`, inertia included.

All operations are pure functions on immutable inputs, so concurrent use
is safe and results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import Iterable, Sequence

from .errors import NotNegativeDefinite, SingularMatrix

def _exact_entry(x) -> Fraction:
    """``x`` as a Fraction; a float raises TypeError naming the entry,
    since Fraction(x) would take its binary value."""
    if isinstance(x, float):
        raise TypeError(f"matrix entry {x!r} is a float, not an exact number (an int, a Fraction or a string)")
    return Fraction(x)


def _as_fraction_rows(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(map(_exact_entry, row)) for row in rows)


class ExactMatrix:
    """Immutable square matrix with exact rational entries."""

    __slots__ = ("rows", "size")

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = _as_fraction_rows(rows)
        self.size = len(self.rows)
        if any(len(r) != self.size for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence) -> "ExactMatrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({[list(map(str, r)) for r in self.rows]})"

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.size)
            for j in range(i + 1, self.size)
        )

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.size)), Fraction(0))

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.size != self.size:
            raise ValueError("size mismatch")
        n = self.size
        return ExactMatrix(
            [
                [sum((self.rows[i][k] * other.rows[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
                for i in range(n)
            ]
        )

    def matvec(self, v: Sequence) -> tuple[Fraction, ...]:
        if len(v) != self.size:
            raise ValueError("size mismatch")
        vf = [Fraction(x) for x in v]
        return tuple(
            sum((self.rows[i][j] * vf[j] for j in range(self.size)), Fraction(0))
            for i in range(self.size)
        )

    def submatrix(self, keep: Sequence[int]) -> "ExactMatrix":
        """Principal submatrix on the given index list (kept in order)."""
        return ExactMatrix([[self.rows[i][j] for j in keep] for i in keep])

    def delete_row_col(self, k: int) -> "ExactMatrix":
        keep = [i for i in range(self.size) if i != k]
        return self.submatrix(keep)

    def determinant(self) -> Fraction:
        """Exact determinant by fraction-free Bareiss elimination.

        Plumbing trees get theirs from
        :meth:`zhat.plumbing.PlumbingGraph.elimination` instead.
        """
        if self.size == 0:
            return Fraction(1)
        return _det_bareiss(self.rows)

    def inverse(self) -> "ExactMatrix":
        """Exact rational inverse; raises SingularMatrix when det = 0."""
        n = self.size
        a = [list(row) for row in self.rows]
        inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                raise SingularMatrix("matrix is singular")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                inv[col], inv[piv] = inv[piv], inv[col]
            p = a[col][col]
            a[col] = [x / p for x in a[col]]
            inv[col] = [x / p for x in inv[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return ExactMatrix(inv)

    def signature_and_positive_count(self) -> tuple[int, int]:
        """(sigma, pi) = (#positive - #negative eigenvalues, #positive).

        Computed by exact symmetric congruence (Lagrange)
        diagonalization with rational pivots; a symmetric row/column
        addition repairs an all-zero diagonal block.  Raises
        SingularMatrix if a zero eigenvalue is detected.
        """
        if not self.is_symmetric():
            raise ValueError("signature requires a symmetric matrix")
        n = self.size
        a = [list(row) for row in self.rows]
        pos = neg = 0
        for k in range(n):
            if a[k][k] == 0:
                swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
                if swap is not None:
                    for row in a:
                        row[k], row[swap] = row[swap], row[k]
                    a[k], a[swap] = a[swap], a[k]
                else:
                    off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                    if off is None:
                        raise SingularMatrix("zero eigenvalue detected")
                    # whole remaining diagonal is zero, so this addition
                    # puts 2*a[k][off] != 0 on the diagonal
                    for j in range(n):
                        a[k][j] += a[off][j]
                    for i in range(n):
                        a[i][k] += a[i][off]
            p = a[k][k]
            if p > 0:
                pos += 1
            else:
                neg += 1
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    f = a[i][k] / p
                    for j in range(k, n):
                        a[i][j] -= f * a[k][j]
                    for j in range(k, n):
                        a[j][i] -= f * a[j][k]
        return pos - neg, pos


def _clear_denominators(rows) -> tuple[list[list[int]], Fraction]:
    """Scale each row to integers; returns (int rows, total scale factor)."""
    scale = Fraction(1)
    out: list[list[int]] = []
    for row in rows:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        scale *= lcm
        out.append([int(x * lcm) for x in row])
    return out, scale


def _det_bareiss(rows) -> Fraction:
    """Fraction-free Bareiss determinant (exact)."""
    n = len(rows)
    a, scale = _clear_denominators(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return Fraction(0)
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        ak = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (akk * ai[j] - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return Fraction(sign * a[n - 1][n - 1]) / scale


# -- Smith normal form ---------------------------------------------------


def _integer_rows(m) -> list[list[int]]:
    """New int rows of a square integer ExactMatrix or matrix of rows; a float is a TypeError."""
    rows = m.rows if isinstance(m, ExactMatrix) else m
    try:
        ints, integral = [list(map(index, row)) for row in rows], True
    except TypeError:  # Fraction entries, which must be integral; any other stays a TypeError
        ints = [[x.numerator if isinstance(x, Fraction) else index(x) for x in row] for row in rows]
        integral = all(x == y for r, i in zip(rows, ints) for x, y in zip(r, i))
    if not integral or any(len(row) != len(ints) for row in ints):
        raise ValueError("Smith normal form requires a square matrix with integer entries")
    return ints


def smith_normal_form(m) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return integer rows (U, D, V) with U*m*V = D, U and V unimodular.

    ``m`` is a square matrix of integer rows, or an ExactMatrix with
    integer entries (read once, here).  D is diagonal with nonnegative
    entries d1 | d2 | ...; unit factors are normalized positive.
    """
    a = _integer_rows(m)
    n = len(a)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    for t in range(n):
        while True:
            # the first entry of least |a[i][j]| != 0 in row-major order
            best = min(((abs(x), i, j) for i in range(t, n) for j, x in enumerate(a[i][t:], t) if x), default=None)
            if best is None:
                break
            swap_rows(t, best[1])
            swap_cols(t, best[2])
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            witness = None
            for i in range(t + 1, n):
                if any(a[i][j] % a[t][t] != 0 for j in range(t + 1, n)):
                    witness = i
                    break
            if witness is None:
                break
            add_row(witness, t, 1)  # pull a non-divisible entry into the pivot row
        if t < n and a[t][t] < 0:
            for row in a:
                row[t] = -row[t]
            for row in v:
                row[t] = -row[t]
    return u, a, v


# -- the fraction-free factors of the engine walk -------------------------


def _range_under_square(alpha: int, lam: int, disc: int) -> tuple[int, int]:
    """Integer range [lo, hi] of z with (alpha*z + lam)^2 <= disc
    (alpha > 0); an empty range is returned as (1, 0)."""
    if disc < 0:
        return 1, 0
    r = math.isqrt(disc)
    return -((r + lam) // alpha), (r - lam) // alpha


def _ldl_ordered(a: Sequence[Sequence[int]]) -> list[tuple[int, list[list[int]]]]:
    """Fraction-free factorization of a positive definite integer form
    for recursive enumeration that fixes x_0 first, then x_1, ...: for
    each p the determinant D_p and the adjugate of the trailing block
    a[p:][p:].  Fixing x_p leaves the quadratic in x_p with leading
    coefficient D_p / D_(p+1) once the later coordinates are minimized
    out, and row 0 of the adjugate gives its center.

    Each block goes through fraction-free Gauss-Jordan (Bareiss): every
    division is exact and the pivots are the block's leading principal
    minors.  Raises NotNegativeDefinite when a pivot is not positive.
    """
    n = len(a)
    out = []
    for p in range(n):
        size = n - p
        rows = [list(a[i][p:]) + [int(i - p == j) for j in range(size)] for i in range(p, n)]
        prev = 1
        for k in range(size):
            piv = rows[k][k]
            if piv <= 0:
                raise NotNegativeDefinite("quadratic form is not positive definite")
            pivot_row = rows[k]
            for i, row in enumerate(rows):
                if i != k:
                    f = row[k]
                    rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, pivot_row)]
            prev = piv
        out.append((prev, [row[size:] for row in rows]))
    return out


def is_negative_definite(m: ExactMatrix) -> bool:
    """Whether m is symmetric and -m positive definite, decided by the
    fraction-free factorization the engine walk runs on (Sylvester's
    criterion: its pivots are the leading principal minors of -m, on
    the rows scaled to integers by the lcm of the denominators)."""
    if not m.is_symmetric():
        return False
    scale = math.lcm(*(x.denominator for row in m.rows for x in row))
    try:
        _ldl_ordered([[int(-x * scale) for x in row] for row in m.rows])
    except NotNegativeDefinite:
        return False
    return True
