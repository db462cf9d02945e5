"""Sparse formal q-series with exact rational exponents and coefficients.

A :class:`QSeries` is a finite list of (exponent, coefficient) pairs with
strictly increasing exponents, plus a truncation order: every exponent
up to and including the order is fully determined, so "coefficient is
zero" and "not computed" stay distinguishable.  Each number is an exact
rational, an int or a Fraction: a kernel stores the int it computes, and
makes a Fraction only where it divides.  Values are immutable and all
arithmetic is exact.  This is the generic series type; the theta sums of
the closed form are built in :mod:`zhat.brieskorn`.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable

from .errors import EmptySeries, FormatError, Record

_set = object.__setattr__


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@contextmanager
def reading_json(kind: str):
    """Turn a malformed serialized object (a missing key, a field of the
    wrong type, a zero denominator) into FormatError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad {kind} object: {exc!r}") from exc


def json_value(x, *types):
    """``x`` when its type is exactly one of ``types`` (a bool is no int,
    a float no string), else TypeError."""
    if type(x) not in types:
        raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {x!r}")
    return x


def json_ints(x) -> tuple[int, ...]:
    return tuple(json_value(v, int) for v in json_value(x, list, tuple))


def json_fraction(x) -> Fraction:
    return Fraction(json_value(x, str, int))


class QSeries(Record):
    """Sparse exact series sum_e c_e * q^e, truncated at ``order``.  Each
    number is an int or a Fraction: equal values compare and hash equal
    (``hash(Fraction(7)) == hash(7)``) and print the same, so only the
    ``repr`` shows which."""

    __slots__ = ("terms", "order")
    terms: tuple[tuple[int | Fraction, int | Fraction], ...]
    order: int | Fraction

    def __init__(self, terms, order):
        _set(self, "terms", terms)
        _set(self, "order", order)

    @staticmethod
    def from_terms(terms: Iterable[tuple], order) -> "QSeries":
        """Normalize: sort by exponent, merge duplicates, drop zeros and
        anything above the truncation order."""
        order = _fr(order)
        acc: dict[Fraction, Fraction] = {}
        for e, c in terms:
            e, c = _fr(e), _fr(c)
            if e <= order:
                acc[e] = acc.get(e, Fraction(0)) + c
        clean = tuple((e, acc[e]) for e in sorted(acc) if acc[e] != 0)
        return QSeries(clean, order)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, e) -> int | Fraction:
        """The coefficient of q^e; 0 when no term has that exponent."""
        e = _fr(e)
        for exp, c in self.terms:
            if exp == e:
                return c
        return 0

    def exponents(self) -> tuple[int | Fraction, ...]:
        return tuple(e for e, _ in self.terms)

    def prefix(self, count: int) -> "QSeries":
        """First ``count`` terms as a series truncated at the last kept exponent."""
        kept = self.terms[:count]
        order = kept[-1][0] if kept else self.order
        return QSeries(kept, order)

    def shift_exponent(self, r) -> "QSeries":
        """Multiply by q^r: every exponent and the order move up by r."""
        r = _fr(r)
        if not r:
            return self
        return QSeries(tuple((e + r, c) for e, c in self.terms), self.order + r)

    def leading_exponent_and_normalize(self) -> tuple[int | Fraction, "QSeries", int]:
        """(delta, tail, eta) with self = q^delta * tail, tail(0) != 0.

        ``eta`` is the least e >= 0 with 2^e * (all coefficients) integral.
        Raises EmptySeries when no terms survive below the truncation
        order (the caller should raise the order).
        """
        if not self.terms:
            raise EmptySeries("series has no terms below its truncation order")
        delta = self.terms[0][0]
        tail = self.shift_exponent(-delta)
        eta = 0
        for _, c in tail.terms:
            den = c.denominator
            e2 = den.bit_length() - 1
            if den != (1 << e2):
                raise ValueError("coefficient denominators are not powers of two")
            eta = max(eta, e2)
        return delta, tail, eta

    # -- rendering / serialization ------------------------------------

    def text(self, ellipsis: bool = False) -> str:
        """Canonical text form, e.g. ``1 - q^7 - q^9 + q^20 + ...``."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (e, c) in enumerate(self.terms):
            mag = _term_text(e, abs(c))
            if i == 0:
                parts.append(mag if c > 0 else "-" + mag)
            else:
                parts.append(("+ " if c > 0 else "- ") + mag)
        out = " ".join(parts)
        if ellipsis:
            out += " + ..."
        return out

    def to_json_obj(self) -> dict:
        return {
            "terms": [{"exp": str(e), "coeff": str(c)} for e, c in self.terms],
            "order": str(self.order),
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "QSeries":
        with reading_json("QSeries"):
            terms = [(json_fraction(t["exp"]), json_fraction(t["coeff"])) for t in json_value(obj["terms"], list, tuple)]
            return QSeries.from_terms(terms, json_fraction(obj["order"]))


def _term_text(e: int | Fraction, c: int | Fraction) -> str:
    if e == 0:
        return str(c)
    if e == 1:
        q = "q"
    elif e.denominator == 1:
        q = f"q^{e}"
    else:
        q = f"q^({e})"
    if c == 1:
        return q
    if c.denominator == 1:
        return f"{c}{q}"
    return f"({c}){q}"
