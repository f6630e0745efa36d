"""Reference computations made apart from forms6.

Everything here works on dense component tensors and plain numbers, never on
forms6 objects, so the benchmark's correctness checks compare the program
against an independent computation:

* K and Q of a 3-form by a dense Levi-Civita contraction in exact integers;
* random symplectic maps and the pullback of 3-forms along them;
* the paper's Sp normal forms and their orbit tables;
* the nil flow limit R/(4H^2), the solv positivity inequalities and the
  closed-form blow-up bound T', and the leaf-geometry closed forms.

Conventions match the paper: coframe axes 1..6 (0-based here), omega =
e12 + e34 + e56, vol = omega^3/3! = e123456.
"""

import itertools
import math
from fractions import Fraction

DIM = 6


def _perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


#: all 720 permutations of (0..5) with their signs: the Levi-Civita symbol
EPSILON = tuple((p, _perm_sign(p)) for p in itertools.permutations(range(DIM)))


# --- dense 3-forms -------------------------------------------------------------

def zero3():
    return [[[0] * DIM for _ in range(DIM)] for _ in range(DIM)]


def dense_from_terms(terms):
    """Full antisymmetric tensor T[a][b][c] from {(a, b, c) increasing: coeff}."""
    t = zero3()
    for (a, b, c), x in terms.items():
        for (i, j, k), s in (((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
                             ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1)):
            t[i][j][k] = x * s
    return t


def terms_from_dense(t):
    return {(a, b, c): t[a][b][c]
            for a, b, c in itertools.combinations(range(DIM), 3) if t[a][b][c] != 0}


def mask_of(axes):
    return sum(1 << a for a in axes)


def e(*axes1):
    """The basis 3-form e^{abc} with 1-based axes, as a term dict."""
    return {tuple(a - 1 for a in axes1): 1}


def add_terms(*parts):
    out = {}
    for sign, terms in parts:
        for k, v in terms.items():
            out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v != 0}


# --- the paper's Sp normal forms and orbit tables --------------------------------

def sp_normal_terms(label):
    """Normal form of each Sp orbit of primitive 3-forms, at mu = 1."""
    table = {
        "O-+": ((1, e(1, 3, 5)), (-1, e(1, 4, 6)), (-1, e(2, 3, 6)), (-1, e(2, 4, 5))),
        "O--": ((1, e(1, 3, 5)), (-1, e(1, 4, 6)), (1, e(2, 3, 6)), (1, e(2, 4, 5))),
        "O+": ((1, e(1, 3, 5)), (1, e(2, 4, 6))),
        "O0+": ((1, e(1, 4, 6)), (1, e(2, 3, 6)), (1, e(2, 4, 5))),
        "O0-": ((1, e(1, 4, 6)), (-1, e(2, 3, 6)), (-1, e(2, 4, 5))),
        "O1+": ((1, e(1, 3, 5)), (-1, e(2, 4, 5))),
        "O1-": ((1, e(1, 3, 5)), (1, e(2, 4, 5))),
        "O3": ((1, e(1, 3, 5)),),
        "O6": (),
    }
    return add_terms(*table[label])


SP_LABELS = ("O-+", "O--", "O+", "O0+", "O0-", "O1+", "O1-", "O3", "O6")
STABLE = ("O-+", "O--", "O+")
GL_OF_SP = {"O-+": "O-", "O--": "O-", "O+": "O+", "O0+": "O0", "O0-": "O0",
            "O1+": "O1", "O1-": "O1", "O3": "O3", "O6": "O6"}
#: inertia (n0, n+, n-) of the q-form on each Sp orbit
SIGNATURE = {"O-+": (0, 6, 0), "O--": (0, 2, 4), "O+": (0, 3, 3),
             "O0+": (3, 3, 0), "O0-": (3, 1, 2), "O1+": (5, 1, 0),
             "O1-": (5, 0, 1), "O3": (6, 0, 0), "O6": (6, 0, 0)}
#: (dim ker phi, dim ker K, dim im K, dim (Ann phi)^perp) on each GL orbit
DIMS = {"O-": (0, 0, 6, 6), "O+": (0, 0, 6, 6), "O0": (0, 3, 3, 6),
        "O1": (1, 5, 1, 5), "O3": (3, 6, 0, 3), "O6": (6, 6, 0, 0)}


# --- symplectic maps and pullback -------------------------------------------------

# Darboux order (x1, x2, x3, y1, y2, y3) -> axes (1, 3, 5, 2, 4, 6), 0-based
_DARBOUX = (0, 2, 4, 1, 3, 5)


def _matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)]


def det3(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def _inv3(a):
    d = det3(a)
    cof = [[(a[(j + 1) % 3][(i + 1) % 3] * a[(j + 2) % 3][(i + 2) % 3]
             - a[(j + 1) % 3][(i + 2) % 3] * a[(j + 2) % 3][(i + 1) % 3])
            for j in range(3)] for i in range(3)]
    return [[Fraction(cof[i][j]) / d for j in range(3)] for i in range(3)]


def _generator(rng, kind):
    """One elementary symplectic map in Darboux block form: an upper shear
    [[I, S], [0, I]], a block diagonal diag(A, A^-T) or a lower shear
    [[I, 0], [S, I]], with S symmetric and nonzero, A small and not I."""
    eye = [[int(i == j) for j in range(6)] for i in range(6)]
    if kind == "block":
        while True:
            A = [[rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(3)] for _ in range(3)]
            if det3(A) in (1, -1, 2, -2) and A != [r[:3] for r in eye[:3]]:
                break
        B = _inv3([[A[j][i] for j in range(3)] for i in range(3)])
        return [[A[i][j] if i < 3 and j < 3 else
                 B[i - 3][j - 3] if i >= 3 and j >= 3 else 0
                 for j in range(6)] for i in range(6)]
    S = [[0] * 3 for _ in range(3)]
    while not any(any(r) for r in S):
        for i in range(3):
            for j in range(i, 3):
                S[i][j] = S[j][i] = Fraction(rng.choice((-2, -1, 0, 0, 1, 2)), 2)
    upper = kind == "upper"
    return [[eye[i][j] + (S[i][j - 3] if upper and i < 3 <= j else 0)
             + (S[i - 3][j] if not upper and j < 3 <= i else 0)
             for j in range(6)] for i in range(6)]


def random_symplectic(rng, max_entry=3):
    """Matrix M with g* e^i = sum_j M[i][j] e^j, preserving omega exactly.

    Always one upper shear, one block diagonal and one lower shear, in that
    order, so that every transformed normal form is about equally dense and
    a seed changes the numbers, not the amount of work.  Maps with an entry
    above ``max_entry`` are redrawn so that the forms keep the scale of the
    normal forms."""
    while True:
        blk = [[int(i == j) for j in range(6)] for i in range(6)]
        for kind in ("upper", "block", "lower"):
            blk = _matmul(blk, _generator(rng, kind))
        if max(abs(x) for r in blk for x in r) > max_entry:
            continue
        m = [[0] * 6 for _ in range(6)]
        for a in range(6):
            for b in range(6):
                m[_DARBOUX[a]][_DARBOUX[b]] = blk[a][b]
        if not pullback2_preserves_omega(m):
            raise AssertionError("generator is not symplectic")
        return m


def pullback2_preserves_omega(m):
    # g* omega = sum over pairs of (row 2i) ^ (row 2i+1)
    w = [[0] * 6 for _ in range(6)]
    for i in (0, 2, 4):
        for a in range(6):
            for b in range(6):
                w[a][b] += m[i][a] * m[i + 1][b] - m[i + 1][a] * m[i][b]
    target = [[0] * 6 for _ in range(6)]
    for i in (0, 2, 4):
        target[i][i + 1], target[i + 1][i] = 1, -1
    return w == target


def pullback3(m, t):
    """(g* phi)_{abc} = phi_{def} M[d][a] M[e][b] M[f][c], one index at a time."""
    r = range(DIM)
    t1 = [[[sum(t[d][e][f] * m[d][a] for d in r if m[d][a]) for f in r] for e in r]
          for a in r]
    t2 = [[[sum(t1[a][e][f] * m[e][b] for e in r if m[e][b]) for f in r] for b in r]
          for a in r]
    return [[[sum(t2[a][b][f] * m[f][c] for f in r if m[f][c]) for c in r] for b in r]
            for a in r]


def is_primitive(t):
    """omega ^ phi = 0 for omega = e12 + e34 + e56, as the trace condition."""
    return all(t[0][1][k] + t[2][3][k] + t[4][5][k] == 0 for k in range(DIM))


# --- K and Q by Levi-Civita contraction in integers --------------------------------

def _common_denominator(t):
    den = 1
    for a in t:
        for b in a:
            for x in b:
                if isinstance(x, Fraction):
                    den = den * x.denominator // math.gcd(den, x.denominator)
    return den


def exact_K_Q(t):
    """K (as rows[a][j] = K^a_j) and Q of an exact 3-form, vol = e123456.

    K^a_j = -(1/12) eps^{abcdef} phi_{jbc} phi_{def} and
    Q = -(1/36) eps^{abcdef} phi_{abc} F_{def} with F_{def} = -2 K^g_d phi_{gef}.
    The sums run over integers after clearing denominators once."""
    L = _common_denominator(t)
    p = [[[int(x * L) for x in b] for b in a] for a in t]
    s = [[0] * DIM for _ in range(DIM)]      # s[a][j] = eps phi_jbc phi_def
    for (a, b, c, d, e_, f), sign in EPSILON:
        tdef = p[d][e_][f]
        if tdef:
            tdef *= sign
            row = s[a]
            for j in range(DIM):
                x = p[j][b][c]
                if x:
                    row[j] += x * tdef
    # 12 K = -s ;  12 F_def = -2 (12 K)^g_d phi_gef = 2 s^g_d phi_gef
    F12 = [[[2 * sum(s[g][d] * p[g][e_][f] for g in range(DIM)) for f in range(DIM)]
            for e_ in range(DIM)] for d in range(DIM)]
    tot = sum(sign * p[a][b][c] * F12[d][e_][f]
              for (a, b, c, d, e_, f), sign in EPSILON if p[a][b][c])
    K = [[Fraction(-s[a][j], 12 * L * L) for j in range(DIM)] for a in range(DIM)]
    Q = Fraction(-tot, 36 * 12 * L ** 4)
    return K, Q


def K_squared_is_Q_over_4(K, Q):
    KK = _matmul(K, K)
    return all(KK[i][j] == (Q / 4 if i == j else 0) for i in range(DIM) for j in range(DIM))


# --- flow closed forms ---------------------------------------------------------------

def nil_limit(c):
    """R/(4 H^2): the stationary value of A on the nil algebra, whose reduced
    flow is dA/dt = R - 4 H^2 A with every other coefficient frozen."""
    A, B, C, D, E, F, G, H, I, J, K, L, M, N = (c[k] for k in "ABCDEFGHIJKLMN")
    R = 4 * H * (B * G + C * F + D * E - 2 * I * J - 2 * K * L - 2 * M * N) \
        + 8 * (D * J ** 2 + F * L ** 2 + G * N ** 2 - D * F * G - 2 * J * L * N)
    return R / (4 * H * H)


SOLV_LAMBDA = math.log((3 + math.sqrt(5)) / 2)


def solv_positive(al, be, ga, de, M, N, margin=1e-3):
    """The paper's positivity inequalities for closed solv data, with a margin
    so that no start sits on the boundary of the region."""
    vals = (al, be, ga, de)
    if not (all(v > margin for v in vals) or all(v < -margin for v in vals)):
        return False
    ad, bg = al * de, be * ga
    q16 = -4 * ad * bg + ad * (M - N) ** 2 + bg * (M + N) ** 2
    return ad + bg > M * M + margin and ad + bg > N * N + margin and q16 < -margin


def solv_t_prime(al, be, ga, de, M, N, lam=SOLV_LAMBDA):
    """Closed-form upper bound T' for the blow-up time, or None where the
    comparison argument gives no finite bound."""
    u0, v0 = 4 * al * de, 4 * be * ga
    S = max((M + N) ** 2, (M - N) ** 2)
    C0 = u0 - v0
    k = 8 * lam ** 2
    if u0 <= 0 or v0 <= 0:
        return None
    if S == 0.0:
        if C0 == 0.0:
            return 1.0 / (k * u0)
        return math.log(u0 / v0) / (k * C0)
    if C0 == 0.0:
        return math.log(u0 / (u0 - S)) / (k * S) if u0 > S else None
    bracket = 1.0 + (S / C0) * math.log(v0 / u0)
    if bracket <= 0.0:
        return None
    return -math.log(bracket) / (k * S)


# --- leaf geometry closed forms --------------------------------------------------------

def leaf_r(g, t):
    """(r, det g) with r = t^T g t / det g at a fiber point."""
    det = det3(g)
    num = sum(t[j] * t[k] * g[j][k] for j in range(3) for k in range(3))
    return num / det, det


def leaf_scalar_curvature(r, C):
    """5 C^2 / (rho^4 (rho^3 + C)^(4/3)) with rho = sqrt r."""
    rho = math.sqrt(r)
    return 5 * C * C / (rho ** 4 * (rho ** 3 + C) ** (4.0 / 3.0))
