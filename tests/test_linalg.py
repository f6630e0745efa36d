import random
from fractions import Fraction

import numpy as np
import pytest

from forms6 import linalg


def rand_mat(rng, n, m=None):
    m = m or n
    return [[Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(m)]
            for _ in range(n)]


def test_exact_rank_against_numpy(rng):
    for _ in range(30):
        a = rand_mat(rng, rng.randint(2, 6), rng.randint(2, 6))
        assert linalg.exact_rank(a) == np.linalg.matrix_rank(
            linalg.to_float_matrix(a), tol=1e-9)


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
        assert linalg.exact_rank(rows) == len(linalg._rref(rows)[1])


def test_exact_nullspace(rng):
    for _ in range(20):
        a = rand_mat(rng, 4, 6)
        for v in linalg.exact_nullspace(a):
            assert all(sum(r[j] * v[j] for j in range(6)) == 0 for r in a)
        assert len(linalg.exact_nullspace(a)) == 6 - linalg.exact_rank(a)


def test_exact_inverse_and_det(rng):
    for _ in range(20):
        a = rand_mat(rng, 5)
        d = linalg.exact_det(a)
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                linalg.exact_inverse(a)
            continue
        inv = linalg.exact_inverse(a)
        prod = [[sum(a[i][k] * inv[k][j] for k in range(5)) for j in range(5)]
                for i in range(5)]
        assert prod == [[1 if i == j else 0 for j in range(5)] for i in range(5)]
        assert abs(float(d) - np.linalg.det(linalg.to_float_matrix(a))) < 1e-6 * max(1, abs(float(d)))


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
    with pytest.raises(ValueError):
        linalg.signature_counts([[0, 1, 0, 0, 0, 0]] + [[0] * 6 for _ in range(5)])


def test_positive_definite():
    assert linalg.is_positive_definite([[2, 1], [1, 2]])
    assert not linalg.is_positive_definite([[1, 2], [2, 1]])


@pytest.fixture
def rng():
    return random.Random(7)
