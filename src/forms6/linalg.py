"""Dense linear algebra helpers for small matrices.

Exact paths (entries int or Fraction, never rounded) share one
fraction-free elimination on rows scaled to int, which gives the rank,
determinant, inverse and null space; float paths go through numpy (SVD
ranks, symmetric eigenvalues).  Dispatching helpers pick the exact route
whenever every entry is exact.
"""

from fractions import Fraction

import numpy as np

from .exterior import _clear_denominators, is_exact


def matrix_is_exact(rows):
    return all(is_exact(x) for r in rows for x in r)


def to_float_matrix(rows):
    return np.array([[float(x) for x in r] for r in rows], dtype=float)


def _bareiss(rows, jordan=False):
    """Fraction-free Gaussian elimination (Bareiss, Math. Comp. 22, 1968).

    Each row is first scaled to int.  The pivot p of column c sits on the
    first row at or below the current one that is nonzero there, and every
    other row becomes (p row - row[c] pivot_row) // d, d the previous pivot
    (1 at the start).  The division is exact: every entry stays a minor of
    the scaled matrix.  The forward elimination clears below the pivots
    only; jordan=True clears above them too, and then every pivot row
    carries the last pivot d at its pivot, so those rows are d times the
    reduced row echelon form.

    Returns (int rows, pivot columns, d, D), D the product of the row
    scalings times the sign of the row swaps: a square matrix of full rank
    has determinant d / D."""
    m, D = [], 1
    for r in rows:
        s, row = _clear_denominators(r)
        m.append(row)
        D *= s
    nrow, ncol = len(m), len(m[0]) if m else 0
    pivots, d, r = [], 1, 0
    for c in range(ncol):
        pr = next((i for i in range(r, nrow) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            D = -D
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
    return m, pivots, d, D


def exact_rank(rows):
    """Rank of an exact matrix: the pivot count of the forward elimination."""
    return len(_bareiss(rows)[1])


def exact_nullspace(rows):
    """Basis of the right null space, as tuples of Fractions: one vector per
    free column, read off the pivot rows d RREF."""
    m, pivots, d, _ = _bareiss(rows, jordan=True)
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
    _, pivots, d, D = _bareiss(rows)
    return Fraction(d, D) if len(pivots) == len(rows) else Fraction(0)


def exact_inverse(rows):
    """Inverse of a square exact matrix, as rows of Fractions: the right half
    of [A | I] after the Gauss-Jordan elimination is d A^-1."""
    n = len(rows)
    m, pivots, d, _ = _bareiss(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)],
        jordan=True)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [[Fraction(x, d) for x in r[n:]] for r in m]


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
