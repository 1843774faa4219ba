"""Ground fields: exact rationals and Gaussian rationals.

``Fraction`` carries Q; ``GaussRat`` carries Q(i).  Both are immutable and
hashable, and mixed arithmetic coerces Q into Q(i).  Scalars serialize as
"a/b" (denominator omitted when 1) and "a/b+c/di" with either part
omissible.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import ParseError

Q = "Q"
QI = "QI"


class GaussRat:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=Fraction(0), im=Fraction(0)):
        # A part that is already a Fraction is kept, not wrapped again.
        object.__setattr__(self, "re",
                           re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im",
                           im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        # Rebuild through __init__: restoring slot state would go through
        # the __setattr__ above.
        return (GaussRat, (self.re, self.im))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "GaussRat":
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRat(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussRat(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        # A real factor takes two Fraction products, not four and two sums.
        if isinstance(other, GaussRat):
            if not other.im:
                other = other.re
            elif not self.im:
                return GaussRat(self.re * other.re, self.re * other.im)
            else:
                return GaussRat(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussRat(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRat((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_rational(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_qi(self)


I = GaussRat(0, 1)

Scalar = Union[Fraction, GaussRat]


# Scalars are immutable, so every zero and one can be the same object.
_ZERO_Q, _ZERO_QI = Fraction(0), GaussRat(0)
_ONE_Q, _ONE_QI = Fraction(1), GaussRat(1)


def zero(field: str) -> Scalar:
    return _ZERO_Q if field == Q else _ZERO_QI


def one(field: str) -> Scalar:
    return _ONE_Q if field == Q else _ONE_QI


def as_scalar(field: str, x) -> Scalar:
    """Coerce ints / Fractions / GaussRats into the given field; the ints
    0 and 1 give the field's shared zero and one."""
    if type(x) is int and (x == 0 or x == 1):
        return one(field) if x else zero(field)
    if field == Q:
        if isinstance(x, GaussRat):
            if not x.is_rational():
                raise FieldError(f"{x} is not rational")
            return x.re
        return x if isinstance(x, Fraction) else Fraction(x)
    return x if isinstance(x, GaussRat) else GaussRat(x)


class FieldError(ParseError):
    pass


# -- serialization ----------------------------------------------------------

def format_q(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_qi(x) -> str:
    if isinstance(x, (int, Fraction)):
        x = GaussRat(x)
    if not x.im:
        return format_q(x.re)
    imag = format_q(abs(x.im))
    imag = "i" if imag == "1" else imag + "i"
    if not x.re:
        return imag if x.im > 0 else "-" + imag
    sign = "+" if x.im > 0 else "-"
    return f"{format_q(x.re)}{sign}{imag}"


_TERM = re.compile(r"^([+-]?)(?:(\d+(?:/\d+)?)?(i)|(\d+(?:/\d+)?))$")


def parse_q(s: str) -> Fraction:
    g = parse_qi(s)
    if not g.is_rational():
        raise ParseError(f"expected a rational, got {s!r}")
    return g.re


def _fraction(text: str, s: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {s!r}") from None
    except ValueError:  # more digits than int() converts from a string
        raise ParseError(f"scalar {text[:20]}... has too many digits "
                         f"({len(text)} characters)") from None


def parse_qi(s: str) -> GaussRat:
    """Parse "a/b+c/di" with either part omissible."""
    text = s.strip().replace(" ", "")
    if not text:
        raise ParseError("empty scalar string")
    # Split into signed terms.
    terms = re.findall(r"[+-]?[^+-]+", text)
    if not terms or "".join(terms) != text:
        raise ParseError(f"malformed scalar {s!r}")
    re_part = Fraction(0)
    im_part = Fraction(0)
    seen_re = seen_im = False
    for term in terms:
        m = _TERM.match(term)
        if not m:
            raise ParseError(f"malformed scalar term {term!r} in {s!r}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group(3):  # imaginary term
            if seen_im:
                raise ParseError(f"duplicate imaginary part in {s!r}")
            mag = _fraction(m.group(2), s) if m.group(2) else Fraction(1)
            im_part = sign * mag
            seen_im = True
        else:
            if seen_re:
                raise ParseError(f"duplicate real part in {s!r}")
            re_part = sign * _fraction(m.group(4), s)
            seen_re = True
    return GaussRat(re_part, im_part)
