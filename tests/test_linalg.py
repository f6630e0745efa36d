import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import exact_rank
from forms6 import linalg


def rref_oracle(rows):
    """Fraction Gauss-Jordan, independent of linalg: (reduced row echelon
    rows, pivot columns, det), det the product of the pivots times the sign
    of the row swaps."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrow, ncol = len(m), len(m[0]) if m else 0
    pivots, det, r = [], Fraction(1), 0
    for c in range(ncol):
        pr = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            det = -det
        pv = m[r][c]
        det *= pv
        row = m[r] = [x / pv for x in m[r]]
        for i in range(nrow):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    return m, pivots, det


def nullspace_oracle(rows):
    rref, pivots, _ = rref_oracle(rows)
    ncol = len(rows[0]) if rows else 0
    basis = []
    for fc in (c for c in range(ncol) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(ncol)]
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis


def assert_fractions(xs):
    assert all(type(x) is Fraction for x in xs)


def rand_mat(rng, n, m=None):
    m = m or n
    return [[Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(m)]
            for _ in range(n)]


def test_exact_rank_against_numpy(rng):
    for _ in range(30):
        a = rand_mat(rng, rng.randint(2, 6), rng.randint(2, 6))
        assert exact_rank(a) == np.linalg.matrix_rank(
            np.array(a, dtype=float), tol=1e-9)


def test_exact_rank_matches_rref_on_rank_deficient_matrices(rng):
    # products of n x k and k x m factors have rank <= k; half the rows then
    # get scaled copies or sums of others, and some entries stay int
    for _ in range(300):
        n, m = rng.randint(1, 8), rng.randint(1, 15)
        k = rng.randint(0, min(n, m))
        a, b = rand_mat(rng, n, k) if k else [[]] * n, rand_mat(rng, k, m)
        rows = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
                 for j in range(m)] for i in range(n)]
        for i in range(n // 2):
            src = rows[rng.randrange(n)]
            rows[i] = [x * rng.choice((-3, Fraction(1, 7))) + y
                       for x, y in zip(src, rows[rng.randrange(n)])]
        rows[0] = [int(x) if x.denominator == 1 else x for x in rows[0]]
        assert exact_rank(rows) == len(rref_oracle(rows)[1])
        # the int core on the cleared rows, which it leaves as they are
        ints = linalg._integral(rows)[1]
        copy = [list(r) for r in ints]
        assert linalg.int_rank(ints) == len(rref_oracle(rows)[1]) and ints == copy
        basis = linalg.exact_nullspace(rows)
        assert basis == nullspace_oracle(rows)
        assert all(type(v) is tuple for v in basis)
        assert_fractions(x for v in basis for x in v)


@pytest.mark.parametrize("rows", [
    [], [[]], [[], []], [[0]], [[-3]], [[Fraction(2, 3)]],
    [[0, 0], [0, 0]], [[2, 4], [1, 2]], [[0, 1], [1, 0]], [[0, 2, 1], [0, 4, 2]],
    [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
], ids=lambda rows: str(rows).replace(" ", ""))
def test_exact_routes_match_oracle_on_edge_cases(rows):
    rref, pivots, det = rref_oracle(rows)
    assert exact_rank(rows) == len(pivots)
    basis = linalg.exact_nullspace(rows)
    assert basis == nullspace_oracle(rows)
    assert_fractions(x for v in basis for x in v)
    if any(len(r) != len(rows) for r in rows):
        return
    d = linalg.exact_det(rows)
    assert type(d) is Fraction
    assert d == (det if len(pivots) == len(rows) else 0)
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.exact_inverse(rows)
        return
    n = len(rows)
    inv = linalg.exact_inverse(rows)
    assert inv == [r[n:] for r in rref_oracle(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])[0]]
    assert_fractions(x for r in inv for x in r)


def test_exact_nullspace(rng):
    for _ in range(20):
        a = rand_mat(rng, 4, 6)
        for v in linalg.exact_nullspace(a):
            assert_fractions(v)
            assert all(sum(r[j] * v[j] for j in range(6)) == 0 for r in a)
        assert len(linalg.exact_nullspace(a)) == 6 - exact_rank(a)


def test_exact_inverse_and_det(rng):
    for _ in range(20):
        a = rand_mat(rng, 5)
        d = linalg.exact_det(a)
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                linalg.exact_inverse(a)
            continue
        inv = linalg.exact_inverse(a)
        assert_fractions(x for r in inv for x in r)
        prod = [[sum(a[i][k] * inv[k][j] for k in range(5)) for j in range(5)]
                for i in range(5)]
        assert prod == [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        assert abs(float(d) - np.linalg.det(np.array(a, dtype=float))) < 1e-6 * max(1, abs(float(d)))


def test_exact_det_and_inverse_match_sympy(rng):
    import sympy
    for n in range(90):
        size = rng.randint(1, 6)
        if n % 3 == 0:      # int entries only
            a = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        else:
            a = rand_mat(rng, size)
        if n % 3 == 2:      # singular: the last row combines two others
            size = max(size, 2)
            a = rand_mat(rng, size)
            s, t = rand_mat(rng, 1, 2)[0]
            a[-1] = [s * x + t * y for x, y in zip(a[0], a[-2])]
        m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                          for r in a])
        want = m.det()
        d = linalg.exact_det(a)
        assert type(d) is Fraction
        assert d == Fraction(int(want.p), int(want.q))
        if want == 0:
            with pytest.raises(ZeroDivisionError):
                linalg.exact_inverse(a)
            continue
        mi = m.inv()
        assert linalg.exact_inverse(a) == [
            [Fraction(int(mi[i, j].p), int(mi[i, j].q)) for j in range(size)]
            for i in range(size)]


def test_signature_counts():
    assert linalg.signature_counts(np.eye(6).tolist()) == (0, 6, 0)
    assert linalg.signature_counts(np.diag([1, 1, 1, -1, -1, -1]).tolist()) == (0, 3, 3)
    assert linalg.signature_counts([[0] * 6 for _ in range(6)]) == (6, 0, 0)
    # a float zero matrix has no eigenvalue to cut against: every direction is null
    assert linalg.float_inertia([[0.0] * 4 for _ in range(4)]) == (4, 0, 0)
    with pytest.raises(ValueError):
        linalg.signature_counts([[0, 1, 0, 0, 0, 0]] + [[0] * 6 for _ in range(5)])


def test_float_inertia_reads_eigenvalues_past_the_float_range():
    # eigvalsh runs on the matrix in its binade: a finite symmetric matrix
    # whose eigenvalues reach past the float range (here 2^1024, 0 and
    # -2^1023) read as inf, so the cut tol max|eigenvalue| was inf and every
    # eigenvalue counted as 0; the inertia is a power-of-two scaling invariant
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    for k in (-1070, -500, 0, 500, 1023):
        assert linalg.float_inertia(np.ldexp(a, k)) == (1, 1, 1), k
    assert linalg.float_inertia(np.eye(6) * 1.7e308) == (0, 6, 0)


def test_float_rank_refuses_a_non_finite_entry(capfd):
    # as float_inertia does: LAPACK's SVD of an inf or nan entry wrote
    # "DLASCL parameter number 4 had an illegal value" to stderr and gave
    # rank 0; a finite matrix up to the top of the float range keeps its rank
    # under a cut in its units, and the cut is absolute, not relative to the
    # largest singular value
    for bad in (math.inf, -math.inf, math.nan):
        rows = np.eye(6)
        rows[2, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linalg.float_rank(rows, 1e-8)
    assert linalg.float_rank(np.eye(6) * 1e308, 1e300) == 6
    assert linalg.float_rank([[1.0, 2.0], [2.0, 4.0]], 1e-8) == 1
    assert linalg.float_rank(np.diag([1.0, 1e-6, 1e-9]), 1e-8) == 2
    assert linalg.float_rank(np.eye(3) * 1e-9, 1e-8) == 0
    assert capfd.readouterr() == ("", "")


def rand_symmetric(rng, rank, n=6):
    """A symmetric int matrix of rank at most rank (almost always exactly),
    sum of +-u u^T over random int u, then congruent by a diagonal of mixed
    signs and magnitudes up to 10^8: the inertia stays, but its eigenvalues
    spread over up to 16 decades."""
    s = [[0] * n for _ in range(n)]
    for _ in range(rank):
        u = [rng.randint(-5, 5) for _ in range(n)]
        sign = rng.choice((1, -1))
        for i in range(n):
            for j in range(n):
                s[i][j] += sign * u[i] * u[j]
    d = [rng.choice((1, -1)) * 10 ** rng.randint(0, 8) for _ in range(n)]
    return [[d[i] * x * d[j] for j, x in enumerate(r)] for i, r in enumerate(s)]


def sympy_inertia(rows):
    """(zero, positive, negative) real roots of the characteristic polynomial
    with multiplicity, counted by sympy on its square-free factors."""
    import sympy
    counts = [0, 0, 0]
    for f, k in sympy.Matrix(rows).charpoly().sqf_list()[1]:
        zero = int(f.eval(0) == 0)
        counts[0] += k * zero
        counts[1] += k * (f.count_roots(0, None) - zero)
        counts[2] += k * (f.count_roots(None, 0) - zero)
    assert sum(counts) == len(rows)  # a symmetric matrix is real-rooted
    return tuple(counts)


def test_exact_inertia_matches_sympy_roots(rng):
    for n in range(140):
        a = rand_symmetric(rng, n % 7)
        want = sympy_inertia(a)
        assert linalg.exact_inertia(a) == want
        # exact input never reads tol, and a common denominator changes nothing
        for tol in (0.5, 1e-8, 1e-300):
            assert linalg.signature_counts(a, tol) == want
        assert linalg.signature_counts([[Fraction(x, 7) for x in r] for r in a]) == want


# one matrix per branch of the symmetric elimination: a zero leading pivot
# (a symmetric swap), a nonzero block with a zero diagonal (the congruence
# step), first and after a pivot, and a stop at a zero trailing block
BRANCHES = {
    "swap": [[0, 1, 0], [1, 2, 0], [0, 0, -3]],
    "congruence first": [[0, 2, 3], [2, 0, -5], [3, -5, 0]],
    "congruence later": [[1, 1, 1, 0], [1, 1, 1, 2], [1, 1, 1, 0], [0, 2, 0, 0]],
    "rank-deficient stop": [[1, 2, 3], [2, 4, 6], [3, 6, 9]],
    "zero block then stop": [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
}


@pytest.mark.parametrize("name", BRANCHES)
def test_exact_inertia_takes_each_branch_exactly(name):
    a = BRANCHES[name]
    want = sympy_inertia(a)
    assert linalg.exact_inertia(a) == want
    # entries near 10^400, far past the float range, keep the inertia
    big = 10 ** 400 + 1
    assert linalg.exact_inertia([[big * x for x in r] for r in a]) == want


def test_exact_inertia_beyond_float_range():
    big = 10 ** 400
    a = [[big, 1, 0], [1, -big, 0], [0, 0, 0]]
    assert linalg.exact_inertia(a) == sympy_inertia(a) == (1, 1, 1)
    assert linalg.signature_counts(a, 1e-8) == (1, 1, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([0, 1, -1, 3, -7, 10 ** 30, -(10 ** 30)]), min_size=n, max_size=n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-9, 9)),
             max_size=12))))
def test_exact_inertia_of_a_unimodular_congruence(diag_and_moves):
    # P^T diag(d) P, P a product of elementary int row additions, so det P =
    # 1: by Sylvester's law of inertia its inertia is the sign count of d
    d, moves = diag_and_moves
    n = len(d)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, k in moves:
        if i != j:
            P[i] = [x + k * y for x, y in zip(P[i], P[j])]
    a = [[sum(P[k][i] * d[k] * P[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    want = (d.count(0), sum(x > 0 for x in d), sum(x < 0 for x in d))
    assert linalg.exact_inertia(a) == want


def test_exact_inertia_refuses_non_int_entries():
    # a Fraction would reach the floor divisions of the int-only
    # elimination; signature_counts clears the denominators first
    a = [[10 ** 20, 0, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(2, 5)]]
    for bad in (a, [[1.0, 0], [0, 1.0]], [[np.int64(1)]]):
        with pytest.raises(TypeError, match="int entries"):
            linalg.exact_inertia(bad)
    assert linalg.signature_counts(a) == (0, 3, 0)


def test_exact_inertia_refuses_asymmetric_input():
    with pytest.raises(ValueError, match="not symmetric"):
        linalg.exact_inertia([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="not symmetric"):
        linalg.exact_inertia([[0, 1]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_signature_refuses_non_finite_entries(bad):
    a = np.eye(6).tolist()
    a[2][2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        linalg.signature_counts(a)
    a[2][2], a[0][1] = 1.0, bad
    with pytest.raises(ValueError, match="non-finite"):
        linalg.signature_counts(a)


def test_float_symmetry_cut():
    # |a - a^T| <= 1e-12 max(1, max|a|) + 1e-5 |a^T|, entrywise
    a = np.diag([1.0, 2.0, 3.0]).tolist()
    a[0][1], a[1][0] = 1.0, 1.0 + 0.9e-5
    assert linalg.signature_counts(a) == (0, 3, 0)
    a[1][0] = 1.0 + 1.1e-5
    with pytest.raises(ValueError, match="not symmetric"):
        linalg.signature_counts(a)
    a[0][1], a[1][0] = 0.0, 4e-12
    with pytest.raises(ValueError, match="not symmetric"):
        linalg.signature_counts(a)


def test_positive_definite():
    assert linalg.is_positive_definite([[2, 1], [1, 2]])
    assert not linalg.is_positive_definite([[1, 2], [2, 1]])


@pytest.fixture
def rng():
    return random.Random(7)
