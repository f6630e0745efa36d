"""Dense linear algebra helpers for small matrices.

Exact paths run fraction-preserving Gaussian elimination (entries int or
Fraction, never rounded), and exact ranks a fraction-free elimination on
int rows; float paths go through numpy (SVD ranks, symmetric
eigenvalues).  Dispatching helpers pick the exact route whenever every entry
is exact.
"""

import math
from fractions import Fraction

import numpy as np

from .exterior import _clear_denominators, _exact_div, is_exact


def matrix_is_exact(rows):
    return all(is_exact(x) for r in rows for x in r)


def to_float_matrix(rows):
    return np.array([[float(x) for x in r] for r in rows], dtype=float)


def _rref(rows):
    """Reduced row echelon form: (rref rows, pivot columns, det), det the
    product of the pivots times the sign of the row swaps, which for a
    square matrix with a pivot in every column is its determinant."""
    m = [list(r) for r in rows]
    nrow = len(m)
    ncol = len(m[0]) if nrow else 0
    pivots = []
    det = 1
    r = 0
    for c in range(ncol):
        pr = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            det = -det
        pv = m[r][c]
        det *= pv
        # row r is 0 left of column c, so only columns c.. change
        row = m[r][c:] = [_exact_div(x, pv) for x in m[r][c:]]
        for i in range(nrow):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i][c:] = [a - f * b for a, b in zip(m[i][c:], row)]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    return m, pivots, det


def exact_rank(rows):
    """Rank of an exact matrix, fraction-free.  Each row is scaled to int
    (row scaling leaves the rank alone) and divided by the gcd of its
    entries; a row whose leading column is taken by a kept row b becomes
    b[c] row - row[c] b, which clears that column, and is reduced again."""
    kept = {}  # leading column -> kept int row
    for r in rows:
        row = _clear_denominators(r)[1]
        while True:
            lead = next((c for c, x in enumerate(row) if x), None)
            if lead is None:
                break
            g = math.gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            b = kept.get(lead)
            if b is None:
                kept[lead] = row
                break
            g = math.gcd(b[lead], row[lead])
            f, h = b[lead] // g, row[lead] // g
            row = [f * x - h * y for x, y in zip(row, b)]
    return len(kept)


def exact_nullspace(rows):
    """Basis of the right null space, as tuples of Fractions."""
    if not rows:
        return []
    ncol = len(rows[0])
    rref, pivots, _ = _rref(rows)
    free = [c for c in range(ncol) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncol
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -Fraction(rref[r][fc])
        basis.append(tuple(v))
    return basis


def exact_det(rows):
    """Determinant of a square exact matrix, as a Fraction, from the pivots
    of _rref."""
    _, pivots, det = _rref(rows)
    return Fraction(det) if len(pivots) == len(rows) else Fraction(0)


def exact_inverse(rows):
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    rref, pivots, _ = _rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [r[n:] for r in rref]


def det(rows):
    if matrix_is_exact(rows):
        return exact_det(rows)
    return float(np.linalg.det(to_float_matrix(rows)))


def inverse(rows):
    if matrix_is_exact(rows):
        return exact_inverse(rows)
    return [list(r) for r in np.linalg.inv(to_float_matrix(rows))]


def float_rank(rows, tol=1e-8):
    a = to_float_matrix(rows)
    if not a.size:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def float_nullspace(rows, tol=1e-8):
    a = to_float_matrix(rows)
    _, s, vt = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    r = int(np.sum(s > tol * smax)) if smax > 0 else 0
    return [tuple(v) for v in vt[r:]]


def rank(rows, tol=1e-8):
    if matrix_is_exact(rows):
        return exact_rank(rows)
    return float_rank(rows, tol)


def nullspace(rows, tol=1e-8):
    if matrix_is_exact(rows):
        return exact_nullspace(rows)
    return float_nullspace(rows, tol)


def signature_counts(sym, tol=1e-8):
    """Eigenvalue inertia (n_zero, n_plus, n_minus) of a symmetric matrix.

    Eigenvalues within tol * max|eigenvalue| of zero count as zero.  For an
    exact matrix the zero count is cross-checked against the exact rank.
    """
    a = to_float_matrix(sym)
    scale0 = float(np.abs(a).max()) if a.size else 0.0
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, scale0)):
        raise ValueError("matrix is not symmetric")
    w = np.linalg.eigvalsh(a)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if scale == 0.0:
        return (len(sym), 0, 0)
    cut = tol * scale
    n0 = int(np.sum(np.abs(w) <= cut))
    npos = int(np.sum(w > cut))
    nneg = int(np.sum(w < -cut))
    if matrix_is_exact(sym):
        n0_exact = len(sym) - exact_rank(sym)
        if n0_exact != n0:
            raise ValueError(
                f"signature tolerance misconfigured: float zeros {n0}, exact {n0_exact}")
    return (n0, npos, nneg)


def leading_minors(rows):
    """Leading principal minors, exact when entries are exact."""
    return [det([r[: k + 1] for r in rows[: k + 1]]) for k in range(len(rows))]


def is_positive_definite(rows):
    """Sylvester criterion: all leading principal minors positive."""
    return all(m > 0 for m in leading_minors(rows))
