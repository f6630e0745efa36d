"""Exterior algebra over a fixed six-dimensional real vector space.

Conventions
-----------
* Coframe axes are labelled 1..6.  A basis k-form e^{i1...ik} with
  i1 < ... < ik is encoded as a 6-bit mask with bit (i-1) set for each
  axis i; signs of products are obtained by counting inversions.
* A :class:`Form` stores only its nonzero coefficients, keyed by mask.
* Coefficients may be exact (``int`` / ``fractions.Fraction``) or ``float``;
  every operation is generic over the backend, and exact inputs yield
  exact outputs.  Float decisions (primitivity, the alternation check of
  F, the integrability flags) cut at ``DEFAULT_TOL`` times max|phi|^k, k
  the degree of the quantity in phi; ``Form.__eq__`` compares the
  coefficients with ``==``.
* Vectors are plain length-6 sequences in the basis dual to e^1..e^6.
"""

import math
from fractions import Fraction

DIM = 6
FULL_MASK = (1 << DIM) - 1

#: default tolerance of float decisions, relative to max|phi|^k in degree k
DEFAULT_TOL = 1e-9


class GradeError(ValueError):
    """Raised for operations on forms of unusable grade (e.g. wedge past 6)."""


def mask_from_axes(axes):
    """Encode strictly increasing axes from {1..6} as a bit mask."""
    m = 0
    last = 0
    for a in axes:
        if not (isinstance(a, int) and 1 <= a <= DIM):
            raise ValueError(f"axis {a!r} outside 1..{DIM}")
        if a <= last:
            raise ValueError(f"axes {tuple(axes)} not strictly increasing")
        last = a
        m |= 1 << (a - 1)
    return m


def axes_from_mask(mask):
    """Decode a bit mask into the increasing tuple of axes."""
    return tuple(i + 1 for i in range(DIM) if mask >> i & 1)


def is_exact(x):
    """True for scalars of the exact backend (int or Fraction)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _clear_denominators(xs):
    """(D, [D x for x in xs]) for exact scalars xs, D the lcm of their
    denominators, so that every D x is an int."""
    xs = list(xs)
    D = math.lcm(*(x.denominator for x in xs))
    return D, [x.numerator * (D // x.denominator) for x in xs]


def _exact_div(a, b):
    """a / b, kept exact as a Fraction when both are int; Fraction / int
    stays a Fraction and a float operand gives a float, as with ``/``."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def _build_wedge_signs():
    # sign[(a << 6) | b] = +-1 for disjoint masks, 0 when they overlap
    table = [0] * (1 << (2 * DIM))
    for a in range(1 << DIM):
        for b in range(1 << DIM):
            if a & b:
                continue
            inv = 0
            for i in range(DIM):
                if a >> i & 1:
                    inv += (b & ((1 << i) - 1)).bit_count()
            table[(a << DIM) | b] = -1 if inv & 1 else 1
    return table


def _build_contractions():
    # per mask: tuple of (axis_index, reduced_mask, sign) for its set bits
    table = []
    for m in range(1 << DIM):
        entries = []
        pos = 0
        for i in range(DIM):
            if m >> i & 1:
                entries.append((i, m ^ (1 << i), -1 if pos & 1 else 1))
                pos += 1
        table.append(tuple(entries))
    return table


_WSIGN = _build_wedge_signs()
_CONTRACT = _build_contractions()


class Form:
    """A homogeneous alternating form of grade 0..6, sparse over basis masks."""

    __slots__ = ("grade", "coeffs")

    def __init__(self, grade, coeffs=None):
        if not (isinstance(grade, int) and 0 <= grade <= DIM):
            raise GradeError(f"grade {grade!r} outside 0..{DIM}")
        clean = {}
        if coeffs:
            for m, c in coeffs.items():
                if m.bit_count() != grade:
                    raise ValueError(
                        f"mask {axes_from_mask(m)} has grade {m.bit_count()}, "
                        f"form has grade {grade}")
                if c != 0:
                    clean[m] = c
        self.grade = grade
        self.coeffs = clean

    @classmethod
    def _trusted(cls, grade, coeffs):
        """A form from masks that are valid by construction, as the kernel
        operations below build them: no grade check, zeros dropped as in
        the public constructor."""
        f = object.__new__(cls)
        f.grade = grade
        f.coeffs = {m: c for m, c in coeffs.items() if c != 0}
        return f

    @classmethod
    def zero(cls, grade):
        return cls(grade, {})

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if other.grade != self.grade:
            raise GradeError("cannot add forms of different grade")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Form._trusted(self.grade, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Form._trusted(self.grade, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, s):
        if isinstance(s, Form):
            raise TypeError("use wedge() for products of forms")
        return Form._trusted(self.grade, {m: c * s for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, s):
        return Form._trusted(self.grade, {m: c / s for m, c in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, Form) and other.grade == self.grade
                and other.coeffs == self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def map_coeffs(self, fn):
        return Form._trusted(self.grade, {m: fn(c) for m, c in self.coeffs.items()})

    def to_float(self):
        return self.map_coeffs(float)

    def is_exact(self):
        return all(is_exact(c) for c in self.coeffs.values())

    def max_abs(self):
        """Largest absolute coefficient, as a float (0.0 for the zero form)."""
        return max((abs(float(c)) for c in self.coeffs.values()), default=0.0)

    def __repr__(self):
        if not self.coeffs:
            return f"Form({self.grade}, 0)"
        bits = []
        for m in sorted(self.coeffs):
            axes = "".join(str(a) for a in axes_from_mask(m))
            label = f"e{axes}" if axes else "1"
            bits.append(f"{self.coeffs[m]!r}*{label}")
        return "Form(" + " + ".join(bits) + ")"


def basis(*axes):
    """The basis form e^{axes}, e.g. ``basis(1,3,5)`` for e^135."""
    return Form(len(axes), {mask_from_axes(axes): 1})


def basis_matrix(op, masks_in, masks_out):
    """M with M[o][n] the coefficient of e^(masks_out[o]) in
    op(e^(masks_in[n])), for an op linear on basis forms."""
    images = [op(Form._trusted(m.bit_count(), {m: 1})).coeffs for m in masks_in]
    return [[image.get(q, 0) for image in images] for q in masks_out]


def wedge(a, b):
    """Exterior product.  Grades must sum to at most 6 (hard error past 6)."""
    g = a.grade + b.grade
    if g > DIM:
        raise GradeError(f"wedge of grades {a.grade} and {b.grade} exceeds {DIM}")
    sign = _WSIGN
    out = {}
    for ma, ca in a.coeffs.items():
        base = ma << DIM
        for mb, cb in b.coeffs.items():
            s = sign[base | mb]
            if s:
                m = ma | mb
                p = ca * cb
                if s < 0:
                    p = -p
                out[m] = out.get(m, 0) + p
    return Form._trusted(g, out)


def interior(v, a):
    """Interior product iota_v a for a vector v (length-6 sequence)."""
    if a.grade == 0:
        raise GradeError("interior product of a 0-form")
    out = {}
    for m, c in a.coeffs.items():
        for i, nm, s in _CONTRACT[m]:
            vi = v[i]
            if vi:
                p = vi * c
                if s < 0:
                    p = -p
                out[nm] = out.get(nm, 0) + p
    return Form._trusted(a.grade - 1, out)


def eval_form(a, *vectors):
    """Evaluate a grade-k form on k vectors."""
    if len(vectors) != a.grade:
        raise GradeError(f"grade-{a.grade} form evaluated on {len(vectors)} vectors")
    f = a
    for v in vectors:
        f = interior(v, f)
    return f.coeffs.get(0, 0)


class LinearMap6:
    """A linear endomorphism of V, stored as the 6x6 matrix of its action
    on the basis (column j = image of e_j)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != DIM or any(len(r) != DIM for r in rows):
            raise ValueError("LinearMap6 needs a 6x6 matrix")
        self.rows = rows

    @classmethod
    def diagonal(cls, diag):
        return cls([[diag[i] if i == j else 0 for j in range(DIM)]
                    for i in range(DIM)])

    def compose(self, other):
        """self after other (matrix product self @ other)."""
        orows = other.rows
        return LinearMap6([[sum(self.rows[i][k] * orows[k][j] for k in range(DIM))
                            for j in range(DIM)] for i in range(DIM)])

    def scale(self, s):
        return LinearMap6([[x * s for x in r] for r in self.rows])

    def __eq__(self, other):
        return isinstance(other, LinearMap6) and other.rows == self.rows

    def __repr__(self):
        return f"LinearMap6({[list(r) for r in self.rows]!r})"


def pullback(g, a):
    """Pullback of a form along g: (g*a)(v1..vk) = a(g v1, .., g vk).

    An algebra homomorphism: pullback(g, a^b) = pullback(g,a)^pullback(g,b),
    and pullback(g.compose(h), a) = pullback(h, pullback(g, a)).
    """
    rows = rows_of(g)
    if a.grade == 0:
        return Form._trusted(0, a.coeffs)
    row_forms = [Form._trusted(1, {1 << j: rows[i][j] for j in range(DIM)})
                 for i in range(DIM)]
    out = Form.zero(a.grade)
    for m, c in a.coeffs.items():
        prod = Form._trusted(0, {0: 1})
        for i in range(DIM):
            if m >> i & 1:
                prod = wedge(prod, row_forms[i])
        out = out + prod * c
    return out


def rows_of(g):
    return g.rows if isinstance(g, LinearMap6) else g


def vector_of_five_form(beta, vol):
    """The unique vector u with iota_u vol = beta, for a nonzero 6-form vol."""
    if beta.grade != DIM - 1 or vol.grade != DIM:
        raise GradeError("expected a 5-form and a 6-form")
    c = vol.coeffs.get(FULL_MASK, 0)
    if c == 0:
        raise ValueError("volume form is zero")
    u = []
    for i in range(DIM):
        b = beta.coeffs.get(FULL_MASK ^ (1 << i), 0)
        if b == 0:
            u.append(0)
            continue
        u.append(_exact_div(b if i % 2 == 0 else -b, c))
    return tuple(u)


def form_max_diff(a, b):
    """Largest absolute coefficient difference between two same-grade forms."""
    if a.grade != b.grade:
        raise GradeError("comparing forms of different grade")
    masks = set(a.coeffs) | set(b.coeffs)
    return max((abs(float(a.coeffs.get(m, 0)) - float(b.coeffs.get(m, 0)))
                for m in masks), default=0.0)
