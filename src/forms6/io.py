"""Shared file formats: forms, coefficient vectors, Lie algebras, reports.

A form is a JSON array of ``{"axes": [i, j, ...], "coeff": ...}`` with axes
strictly increasing and 1-based.  Exact coefficients travel as "p/q" strings
(or bare ints); floats stay JSON numbers.  All writers go through an atomic
temp-file + rename."""

import json
import math
import os
import tempfile
from fractions import Fraction

from .exterior import Form, axes_from_mask, mask_from_axes


def scalar_to_json(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else x.numerator
    if isinstance(x, float) or isinstance(x, int):
        return x
    raise TypeError(f"cannot serialize scalar {x!r}")


def scalar_from_json(v):
    if isinstance(v, str):
        num, _, den = v.partition("/")
        den = int(den) if den else 1
        if den == 0:
            raise ValueError(f"zero denominator in coefficient {v!r}")
        return Fraction(int(num), den)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"bad coefficient {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"non-finite coefficient {v!r}")
    return v


def form_to_json(form):
    return [{"axes": list(axes_from_mask(m)), "coeff": scalar_to_json(c)}
            for m, c in sorted(form.coeffs.items())]


def form_from_json(data, grade=None):
    if not isinstance(data, list):
        raise ValueError("form JSON must be an array of terms")
    coeffs = {}
    for term in data:
        axes = term["axes"]
        m = mask_from_axes(axes)
        if grade is None:
            grade = len(axes)
        elif len(axes) != grade:
            # past the first term, the terms read so far have this grade
            raise ValueError(f"mixed grades in form terms: {axes}" if coeffs else
                             f"a term of grade {len(axes)} (axes {axes}) where grade "
                             f"{grade} was expected")
        x = scalar_from_json(term["coeff"])
        try:
            x = coeffs.get(m, 0) + x
        except OverflowError:  # an int past the float range plus a float
            x = math.inf
        if isinstance(x, float) and not math.isfinite(x):
            raise ValueError(f"the terms on axes {axes} sum past the float range")
        coeffs[m] = x
    if grade is None:
        raise ValueError("cannot infer the grade of an empty form; pass grade=")
    return Form(grade, coeffs)


def coords_to_json(c):
    from .invariants import COORD_NAMES
    return {name: scalar_to_json(x) for name, x in zip(COORD_NAMES, c)}


def coords_from_json(data):
    from .invariants import COORD_NAMES, PrimitiveCoords
    if not isinstance(data, dict):
        raise ValueError("coefficients must be an object keyed A..N, "
                         f"not {type(data).__name__}")
    extra = set(data) - set(COORD_NAMES)
    if extra:
        raise ValueError(f"unknown coefficient names {sorted(extra)}")
    return PrimitiveCoords(*(scalar_from_json(data.get(n, 0)) for n in COORD_NAMES))


def dumps_report(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def atomic_write_text(path, text):
    """Write via a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
