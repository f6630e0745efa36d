import functools
import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from forms6 import invariants, linalg
from forms6.exterior import Form, LinearMap6, pullback
from forms6.verify import rand_coords, rand_fraction  # noqa: F401 (re-exported)


# CI runs the suite with --hypothesis-profile=ci, so a failing example there
# is drawn the same way on every machine and reproduces locally
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def rng():
    return random.Random(20260810)


def forget_evaluations(monkeypatch):
    """Empty the memo of the last form's evaluation in invariants until
    monkeypatch undoes its changes, which puts the old memo back: a fault
    injected into a kernel is then neither hidden by an evaluation made
    before it nor served to a later test."""
    monkeypatch.setattr(invariants, "_last", (None, None))


@pytest.fixture
def K_evaluations(monkeypatch):
    """A list that grows by one on each evaluation of the K table kernel,
    starting from an empty memo."""
    forget_evaluations(monkeypatch)
    calls = []
    kernel = invariants._K_numerators

    def counting(v):
        calls.append(1)
        return kernel(v)

    monkeypatch.setattr(invariants, "_K_numerators", counting)
    return calls


def rand_form(rng, grade, sparsity=1.0):
    import itertools
    coeffs = {}
    for axes in itertools.combinations(range(1, 7), grade):
        if rng.random() <= sparsity:
            c = rand_fraction(rng)
            if c:
                coeffs[sum(1 << (a - 1) for a in axes)] = c
    return Form(grade, coeffs)


def rand_vector(rng, lo=-4, hi=4):
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(6))


def exact_rank(rows):
    """Rank of an exact matrix: linalg's int elimination on its cleared rows."""
    return linalg.int_rank(linalg._integral(rows)[1])


def rand_invertible(rng):
    while True:
        rows = [[rand_fraction(rng, -3, 3, (1, 1, 2)) for _ in range(6)]
                for _ in range(6)]
        if linalg.exact_det(rows) != 0:
            return LinearMap6(rows)


def _interleave(block):
    # block order (x1,x2,x3,y1,y2,y3) -> axes (1,3,5,2,4,6)
    sigma = (0, 2, 4, 1, 3, 5)
    out = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            out[sigma[a]][sigma[b]] = block[a][b]
    return out


def coframe_block_map(block):
    """The LinearMap6 whose pullback realizes a 6x6 matrix written in the
    (dx, dy) coframe basis, under dx^j = e^{2j-1}, dy^j = e^{2j}.

    The coframe column transforms by the transpose, g* c^a = sum_b M[b][a] c^b,
    so a lower-triangular block matrix [[A,0],[B,C]] keeps the span of the dy
    covectors invariant (B feeds dy components into the images of the dx)."""
    return LinearMap6(_interleave([list(c) for c in zip(*block)]))


def _lift(A):
    """The GL(3) lift diag(A, A^-T) as a symplectic map."""
    Ait = linalg.exact_inverse([[A[j][i] for j in range(3)] for i in range(3)])
    return LinearMap6(_interleave(
        [[A[i][j] if i < 3 and j < 3 else Ait[i - 3][j - 3] if i >= 3 and j >= 3
          else 0 for j in range(6)] for i in range(6)]))


def _shear(B):
    """The symmetric shear [[I, B], [0, I]] as a symplectic map."""
    return LinearMap6(_interleave(
        [[(1 if i == j else 0) if j < 3 or i >= 3 else B[i][j - 3]
          for j in range(6)] for i in range(6)]))


def _swap():
    """The x/y swap [[0, I], [-I, 0]] as a symplectic map."""
    block = [[0] * 6 for _ in range(6)]
    for i in range(3):
        block[i][3 + i] = 1
        block[3 + i][i] = -1
    return LinearMap6(_interleave(block))


def rand_symplectic(rng, factors=3):
    """Random element of Sp(6) from elementary generators: block-diagonal
    GL(3) lifts, symmetric shears, and the x/y swap."""
    g = LinearMap6.diagonal([1] * 6)
    for _ in range(factors):
        kind = rng.randrange(3)
        if kind == 0:
            while True:
                A = [[rand_fraction(rng, -2, 2, (1, 1, 2)) for _ in range(3)]
                     for _ in range(3)]
                if linalg.exact_det(A) != 0:
                    break
            h = _lift(A)
        elif kind == 1:
            B = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    B[i][j] = B[j][i] = rand_fraction(rng, -2, 2, (1, 2))
            h = _shear(B)
        else:
            h = _swap()
        g = g.compose(h)
    return g


@functools.cache
def _seed11_maps(count):
    rng = random.Random(11)
    return tuple(rand_symplectic(rng) for _ in range(count))


def seed11_moved_form(label, n):
    """The Sp normal form of label moved by map n of the seed-11
    rand_symplectic maps, as floats: the pool on which the float orbit
    faults are recorded."""
    return pullback(_seed11_maps(n + 1)[n], invariants.sp_normal_form(label)).to_float()


@st.composite
def ill_conditioned_symplectic(draw, max_factors=8, max_entry=10 ** 12):
    """Integer elements of Sp(6) that spread a form over many decades: a
    product of up to max_factors of rand_symplectic's generators, with GL(3)
    lifts of the unimodular I + t E_ij and symmetric shears whose entries t
    reach max_entry.  Exact integer forms stay integer under them."""
    big = st.integers(-max_entry, max_entry)
    g = LinearMap6.diagonal([1] * 6)
    for kind in draw(st.lists(st.sampled_from(("lift", "shear", "swap")),
                              min_size=1, max_size=max_factors)):
        if kind == "lift":
            i, j, _ = draw(st.permutations(range(3)))
            A = [[int(r == c) for c in range(3)] for r in range(3)]
            A[i][j] = draw(big)
            h = _lift(A)
        elif kind == "shear":
            B = [[0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    B[i][j] = B[j][i] = draw(st.sampled_from((0, 1, -1)) | big)
            h = _shear(B)
        else:
            h = _swap()
        g = g.compose(h)
    return g
