"""Dense linear algebra helpers for small matrices.

Exact paths share one fraction-free elimination on int rows, which gives
the rank, determinant, inverse and null space; the public exact_* helpers
take Fractions too and clear the whole matrix once before it.  Its
symmetric form, with symmetric pivoting, gives the inertia of a symmetric
int matrix.  No exact path makes a float call.  Float paths go through
numpy; float_rank and float_inertia cut at an absolute value in the
matrix's units, which the caller sets.  The invariants decide the backend
once per form (invariants._Evaluation) and call the int or float helper
directly; det, inverse and nullspace take the exact route when every entry is.
"""

import math
from fractions import Fraction

import numpy as np

from .exterior import _clear_denominators, is_exact


def matrix_is_exact(rows):
    return all(is_exact(x) for r in rows for x in r)


def _integral(rows):
    """(d, d rows on int), d the lcm of the denominators of exact rows."""
    d, ints = _clear_denominators(x for r in rows for x in r)
    it = iter(ints)
    return d, [[next(it) for _ in r] for r in rows]


def _bareiss(rows, jordan=False):
    """Fraction-free Gaussian elimination (Bareiss, Math. Comp. 22, 1968)
    on int rows, which it leaves unchanged.

    The pivot p of column c sits on the first row at or below the current
    one that is nonzero there, and every other row becomes
    (p row - row[c] pivot_row) // d, d the previous pivot (1 at the start).
    The division is exact: every entry stays a minor of the matrix.  The
    forward elimination clears below the pivots only; jordan=True clears
    above them too, and then every pivot row carries the last pivot d at
    its pivot, so those rows are d times the reduced row echelon form.

    Returns (int rows, pivot columns, d, sign), sign that of the row swaps:
    a square matrix of full rank has determinant sign d."""
    m, sign = list(rows), 1
    nrow, ncol = len(m), len(m[0]) if m else 0
    pivots, d, r = [], 1, 0
    for c in range(ncol):
        pr = next((i for i in range(r, nrow) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(0 if jordan else r + 1, nrow):
            if i == r:
                continue
            f = m[i][c]
            if f:
                m[i] = [(p * x - f * y) // d for x, y in zip(m[i], top)]
            elif p != d:
                m[i] = [p * x // d for x in m[i]]
        pivots.append(c)
        d = p
        r += 1
        if r == nrow:
            break
    return m, pivots, d, sign


def int_rank(rows):
    """Rank of an int matrix: the pivot count of the forward elimination."""
    return len(_bareiss(rows)[1])


def exact_nullspace(rows):
    """Basis of the right null space, as tuples of Fractions: one vector per
    free column, read off the pivot rows d RREF."""
    m, pivots, d, _ = _bareiss(_integral(rows)[1], jordan=True)
    ncol = len(m[0]) if m else 0
    basis = []
    for fc in range(ncol):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncol
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][fc], d)
        basis.append(tuple(v))
    return basis


def exact_det(rows):
    """Determinant of a square exact matrix, as a Fraction."""
    D, ints = _integral(rows)
    _, pivots, d, sign = _bareiss(ints)
    return Fraction(sign * d, D ** len(rows)) if len(pivots) == len(rows) else Fraction(0)


def exact_inverse(rows):
    """Inverse of a square exact matrix, as rows of Fractions: the right half
    of D [A | I] after the Gauss-Jordan elimination is d A^-1."""
    n = len(rows)
    m, pivots, d, _ = _bareiss(_integral(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])[1],
        jordan=True)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[Fraction(x, d) for x in r[n:]] for r in m]


def det(rows):
    if matrix_is_exact(rows):
        return exact_det(rows)
    return float(np.linalg.det(np.array(rows, dtype=float)))


def inverse(rows):
    if matrix_is_exact(rows):
        return exact_inverse(rows)
    return [list(r) for r in np.linalg.inv(np.array(rows, dtype=float))]


def float_rank(rows, cut):
    """Rank of a float matrix: the number of its singular values above cut,
    an absolute cut that the caller sets in the units of its matrix.  A
    matrix with a non-finite entry is refused, before LAPACK can misread it."""
    a = np.array(rows, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if not a.size:
        return 0
    return int(np.sum(np.linalg.svd(a, compute_uv=False) > cut))


def float_nullspace(rows, tol=1e-8):
    a = np.array(rows, dtype=float)
    _, s, vt = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    r = int(np.sum(s > tol * smax)) if smax > 0 else 0
    return [tuple(v) for v in vt[r:]]


def nullspace(rows, tol=1e-8):
    if matrix_is_exact(rows):
        return exact_nullspace(rows)
    return float_nullspace(rows, tol)


def exact_inertia(rows):
    """Inertia (n_zero, n_plus, n_minus) of a symmetric int matrix, exact,
    by one fraction-free symmetric elimination with no float or tolerance.

    Each step pivots on a nonzero diagonal entry, moved to the front by a
    symmetric swap; where the trailing block's diagonal is zero but some
    m[a][b] is not, row and column b are first added to row and column a, a
    congruence that puts 2 m[a][b] on the diagonal.  Every other entry
    becomes (p x - f y) // d, d the last pivot, exactly as in _bareiss, and
    the pivots p_1..p_r are the leading principal minors of a matrix
    congruent to the input.  At a zero trailing block (d times the Schur
    complement) n_zero = n - r (Haynsworth), and n_minus is the number of
    sign changes in (1, p_1..p_r) (Jacobi).  A non-int entry, such as a
    Fraction, raises TypeError: clear the denominators first."""
    if not all(isinstance(x, int) for r in rows for x in r):
        raise TypeError("exact_inertia takes a matrix of int entries")
    n = len(rows)
    if any(len(r) != n for r in rows) or any(
            rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    m, d, nminus, r = [list(row) for row in rows], 1, 0, 0
    while m:
        i = next((i for i, row in enumerate(m) if row[i]), None)
        if i is None:
            i, b = next(((a, b) for a, row in enumerate(m)
                         for b in range(a + 1, len(m)) if row[b]), (None, None))
            if i is None:
                break
            for row in m:  # the congruence e_a -> e_a + e_b
                row[i] += row[b]
            m[i] = [x + y for x, y in zip(m[i], m[b])]
        if i:
            m[0], m[i] = m[i], m[0]
            for row in m:
                row[0], row[i] = row[i], row[0]
        p, top = m[0][0], m[0][1:]
        m = [[(p * x - row[0] * y) // d for x, y in zip(row[1:], top)] for row in m[1:]]
        nminus += (p < 0) != (d < 0)
        d, r = p, r + 1
    return (n - r, r - nminus, nminus)


def float_inertia(rows, cut):
    """Eigenvalue inertia (n_zero, n_plus, n_minus) of a symmetric float
    matrix, eigenvalues within an absolute cut in its units counted as zero.
    A non-finite entry is refused, and so is |a - a^T| > cut anywhere; the
    eigenvalues are read in a's binade (max|2^-e a| in [1/2, 1)), where none
    overflows, against 2^-e cut."""
    a = np.array(rows, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    if not (np.abs(a - a.T) <= cut).all():
        raise ValueError("matrix is not symmetric")
    e = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    w, cut = np.linalg.eigvalsh(np.ldexp(a, -e)), math.ldexp(cut, -e)
    return (int(np.sum(np.abs(w) <= cut)), int(np.sum(w > cut)), int(np.sum(w < -cut)))


def is_positive_definite(rows):
    """Sylvester criterion: all leading principal minors positive (exact
    when the entries are)."""
    return all(det([r[:k + 1] for r in rows[:k + 1]]) > 0 for k in range(len(rows)))
