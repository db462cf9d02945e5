"""Closed-form pipeline for Brieskorn sphere invariants.

For pairwise coprime 0 < b1 < b2 < b3 (with b1 >= 2 and excluding
(2, 3, 5)), the sphere is realized as a star-shaped negative definite
plumbing: a central vertex of weight b < 0 and three legs whose weights
are the negated continued-fraction coefficients of b_i/a_i, where
(b, a1, a2, a3) is the one solution with 0 < a_i < b_i of

    b1*b2*b3*b + b2*b3*a1 + b1*b3*a2 + b1*b2*a3 = -1.

From the tree one reads off h_i (cofactors of the legs' terminal
vertices), the normalization exponent xi, the leading exponent delta0 =
xi + alpha1^2/(4p), both from one integer numerator over 4p, and the
tail: a signed sum over n >= 0 in the eight residue progressions
+-alpha_i mod 2p, with integer exponents e = (n^2 - alpha1^2)/4p.  The
tail is integer at the core: exactness is checked once per residue r
(every n = r + 2pk has n^2 = r^2 mod 4p), n = r + 2pk steps e as
e_r + k(r + pk), and the series is cut at the integer part of the order.
Its exponents and coefficients stay the ints the kernel computes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterator, Sequence

from .engine import SpinCRep, ZhatResult, _checked_order
from .errors import ConsistencyError, ExcludedTriple, InvalidFraction, InvalidTriple, Record
from .plumbing import PlumbingGraph
from .qseries import QSeries, json_fraction, json_ints, json_value, reading_json

_set = object.__setattr__


class BrieskornData(Record):
    """Everything the closed form needs, fully populated."""

    __slots__ = ("b", "seifert_b", "a", "p", "alphas", "leg_fractions", "h", "xi", "delta0")
    b: tuple[int, int, int]
    seifert_b: int
    a: tuple[int, int, int]
    p: int
    alphas: tuple[int, int, int, int]
    leg_fractions: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    h: tuple[int, int, int]
    xi: Fraction
    delta0: Fraction

    def __init__(self, b, seifert_b, a, p, alphas, leg_fractions, h, xi, delta0):
        _set(self, "b", b)
        _set(self, "seifert_b", seifert_b)
        _set(self, "a", a)
        _set(self, "p", p)
        _set(self, "alphas", alphas)
        _set(self, "leg_fractions", leg_fractions)
        _set(self, "h", h)
        _set(self, "xi", xi)
        _set(self, "delta0", delta0)

    @property
    def vertex_count(self) -> int:
        return 1 + sum(len(f) for f in self.leg_fractions)

    def to_json_obj(self) -> dict:
        return {
            "b": list(self.b),
            "seifertB": self.seifert_b,
            "a": list(self.a),
            "p": self.p,
            "alphas": list(self.alphas),
            "legFractions": [list(f) for f in self.leg_fractions],
            "h": list(self.h),
            "xi": str(self.xi),
            "delta0": str(self.delta0),
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "BrieskornData":
        with reading_json("BrieskornData"):
            return BrieskornData(
                json_ints(obj["b"]),
                json_value(obj["seifertB"], int),
                json_ints(obj["a"]),
                json_value(obj["p"], int),
                json_ints(obj["alphas"]),
                tuple([json_ints(f) for f in json_value(obj["legFractions"], list, tuple)]),
                json_ints(obj["h"]),
                json_fraction(obj["xi"]),
                json_fraction(obj["delta0"]),
            )


def validate_triple(b1: int, b2: int, b3: int) -> None:
    if not (2 <= b1 < b2 < b3):
        raise InvalidTriple(f"need 2 <= b1 < b2 < b3, got ({b1}, {b2}, {b3})")
    for x, y in ((b1, b2), (b1, b3), (b2, b3)):
        if math.gcd(x, y) != 1:
            raise InvalidTriple(f"{x} and {y} are not coprime")


def solve_seifert_data(b1: int, b2: int, b3: int) -> tuple[int, int, int, int]:
    """Canonical (b, a1, a2, a3) with 0 < a_i < b_i.

    a_i is the unique solution of a_i * (p/b_i) = -1 (mod b_i) in
    (0, b_i); b then comes out of the defining equation exactly and is
    negative.  Positivity of the a_i plus the equation forces this
    choice up to the a_i's residues, so it is the only solution that
    also builds a star plumbing with all leg weights <= -2.
    """
    validate_triple(b1, b2, b3)
    p = b1 * b2 * b3
    a = [(-pow(p // bi, -1, bi)) % bi for bi in (b1, b2, b3)]
    rest = (p // b1) * a[0] + (p // b2) * a[1] + (p // b3) * a[2]
    b, r = divmod(-1 - rest, p)
    if r != 0:
        raise ConsistencyError(f"Seifert equation of ({b1}, {b2}, {b3}) leaves remainder {r} mod {p}")
    return b, a[0], a[1], a[2]


def hj_continued_fraction(num: int, den: int) -> list[int]:
    """Minus-sign continued fraction num/den = k1 - 1/(k2 - ...), all k_i >= 2.

    Computed by repeated ceiling division; requires 0 < den < num and
    gcd(num, den) = 1.
    """
    if not (0 < den < num) or math.gcd(num, den) != 1:
        raise InvalidFraction(f"need 0 < den < num coprime, got {num}/{den}")
    ks = []
    while den > 0:
        k = -(-num // den)  # ceil
        ks.append(k)
        num, den = den, k * den - num
    return ks


def evaluate_hj(ks: list[int]) -> Fraction:
    """Evaluate [k1, ..., ks] back to a fraction (round-trip check).
    Raises InvalidFraction for an empty list, or one whose tail evaluates to 0."""
    if not ks:
        raise InvalidFraction(f"cannot evaluate the empty continued fraction {ks}")
    val = Fraction(ks[-1])
    for k in reversed(ks[:-1]):
        if not val:
            raise InvalidFraction(f"continued fraction {ks} divides by a zero tail")
        val = k - 1 / val
    return val


def alphas(b1: int, b2: int, b3: int) -> tuple[int, int, int, int]:
    """The four exponent offsets; alpha1 is always the smallest."""
    p = b1 * b2 * b3
    e12, e13, e23 = b1 * b2, b1 * b3, b2 * b3
    return (
        p - e12 - e13 - e23,
        p + e12 - e13 - e23,
        p - e12 + e13 - e23,
        p + e12 + e13 - e23,
    )


def _leg_fractions(b: tuple[int, int, int], a: tuple[int, int, int]):
    return tuple([tuple(hj_continued_fraction(bi, ai)) for bi, ai in zip(b, a)])


def build_plumbing_from_legs(seifert_b: int, leg_fractions) -> PlumbingGraph:
    """Star tree: vertex 0 is the center with weight b; leg i follows as
    a path with weights -k_{i,1}, ..., -k_{i,s_i} (terminal last)."""
    weights = [seifert_b]
    edges = []
    for frac in leg_fractions:
        prev = 0
        for k in frac:
            weights.append(-k)
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    return PlumbingGraph(tuple(weights), tuple(edges))


def build_plumbing(d: BrieskornData) -> PlumbingGraph:
    return build_plumbing_from_legs(d.seifert_b, d.leg_fractions)


def leg_determinants(g: PlumbingGraph, leg_fractions) -> tuple[int, int, int]:
    """h_i = |det(M - t_i)| for leg i's terminal vertex t_i: the diagonal
    cofactor adj(M)[t_i][t_i], read off the adjugate block on the support
    (:meth:`~zhat.plumbing.PlumbingGraph.support_adjugate`)."""
    terminals = list(itertools.accumulate(len(f) for f in leg_fractions))  # the center is vertex 0
    _, block = g.support_adjugate()  # each terminal is a leaf, so in the support
    return tuple([abs(block[t][t]) for t in terminals])


def _exclude_2_3_5(b1: int, b2: int, b3: int) -> None:
    if (b1, b2, b3) == (2, 3, 5):
        raise ExcludedTriple("the closed form needs an extra term for (2, 3, 5)")


def compute_xi_delta0(
    b: tuple[int, int, int],
    h: tuple[int, int, int],
    g: PlumbingGraph,
) -> tuple[Fraction, Fraction]:
    """xi = (sum h_i - 3s - Tr(M) - b2*b3/b1 - b1*b3/b2 - b1*b2/b3)/4 and
    delta0 = xi + alpha1^2/(4p), from one integer numerator over 4p
    (p/b1 = b2*b3, and so on)."""
    b1, b2, b3 = b
    _exclude_2_3_5(b1, b2, b3)
    p = b1 * b2 * b3
    num = p * (sum(h) - 3 * g.vertex_count - sum(g.weights)) - (b2 * b3) ** 2 - (b1 * b3) ** 2 - (b1 * b2) ** 2
    a1 = alphas(b1, b2, b3)[0]
    return Fraction(num, 4 * p), Fraction(num + a1 * a1, 4 * p)


def brieskorn_data(b1: int, b2: int, b3: int) -> BrieskornData:
    """Run the full pipeline for one triple, from its normalized Seifert
    data (:func:`solve_seifert_data`, the only solution with 0 < a_i < b_i)."""
    b, a1, a2, a3 = solve_seifert_data(b1, b2, b3)
    legs = _leg_fractions((b1, b2, b3), (a1, a2, a3))
    if not all(legs):  # a_i >= 1 and b_i >= 2 force nonempty legs
        raise ConsistencyError(f"empty leg in the star plumbing of ({b1}, {b2}, {b3})")
    g = build_plumbing_from_legs(b, legs)
    h = leg_determinants(g, legs)
    xi, delta0 = compute_xi_delta0((b1, b2, b3), h, g)
    return BrieskornData(
        (b1, b2, b3), b, (a1, a2, a3), b1 * b2 * b3, alphas(b1, b2, b3), legs, h, xi, delta0
    )


def _residues(p: int, offsets: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """(r, c) in increasing r, 0 <= r < 2p, c != 0 the sum of the signs of
    the (residue, sign) ``offsets`` with residue = r mod 2p."""
    twop = 2 * p
    coefficients = Counter()
    for residue, sign in offsets:
        coefficients[residue % twop] += sign
    return sorted((r, c) for r, c in coefficients.items() if c)


def false_theta(p: int, a: int, order) -> QSeries:
    """One-sided theta-like series sum_{n >= 0} psi(n) q^(n^2/4p).

    psi(n) is +1 on n = a mod 2p, -1 on n = -a mod 2p, 0 otherwise (so
    exactly 0 when both congruences hold, i.e. p | a).  Terms are kept
    while n^2/4p <= order, which must be nonnegative.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    order = _checked_order(order)
    top = math.isqrt(4 * p * order.numerator // order.denominator)  # n^2 <= 4p * order iff n <= top
    terms = sorted((n, c) for r, c in _residues(p, ((a, 1), (-a, -1))) for n in range(r, top + 1, 2 * p))
    return QSeries(tuple([(Fraction(n * n, 4 * p), c) for n, c in terms]), order)


def _tail_terms(p: int, al: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(e, c) in increasing e, endless: the tail exponents e = (n^2 -
    alpha1^2)/4p, integers, and their coefficients, over the progressions
    +-alpha_i mod 2p with the signs (+, -, -, +) of alpha_1..alpha_4.

    Each residue r is checked once: n = r + 2pk has n^2 = r^2 (mod 4p),
    and its exponent is e_r + k(r + pk)."""
    offsets = [(s * a, s * sign) for a, sign in zip(al, (1, -1, -1, 1)) for s in (1, -1)]
    rows = []
    for r, c in _residues(p, offsets):
        e, rem = divmod(r * r - al[0] ** 2, 4 * p)
        if rem:
            raise ConsistencyError(f"tail exponent ({r}^2 - {al[0]}^2)/{4 * p} is not an integer")
        rows.append((e, r, c))
    if not rows:
        return
    for k in itertools.count():
        for e, r, c in rows:
            yield e + k * (r + p * k), c


def zhat0_brieskorn(b1: int, b2: int, b3: int, order, data: BrieskornData | None = None) -> ZhatResult:
    """Series from the theta progressions, normalized to q^delta0 * tail.

    ``order`` bounds the tail exponents (integers >= 0); the tail has
    constant term 1 and integer coefficients.  ``data``, when given, is
    ``brieskorn_data`` of this triple.
    """
    order = _checked_order(order)
    d = data if data is not None else brieskorn_data(b1, b2, b3)
    if d.b != (b1, b2, b3):
        raise ValueError(f"data is for the triple {d.b}, not ({b1}, {b2}, {b3})")
    cut = order.numerator // order.denominator  # the exponents are integers
    terms = []
    for term in _tail_terms(d.p, d.alphas):
        if term[0] > cut:
            break
        terms.append(term)
    tail = QSeries(tuple(terms), order)
    # the star's degrees in build_plumbing_from_legs order: center, then each leg ending in a leaf
    degrees = (3,) + sum(((2,) * (len(f) - 1) + (1,) for f in d.leg_fractions), ())
    rep = SpinCRep(degrees, 0)  # unique class of a ZHS
    return ZhatResult(rep, d.delta0, tail, 0, 1, order)


def tail_order_for_terms(b1: int, b2: int, b3: int, count: int) -> int:
    """Smallest integer tail order that realizes ``count`` series terms: the count-th exponent.
    Raises what :func:`brieskorn_data` raises for the triple, TypeError for a count that is
    a bool or not an integer, and ValueError for a count below 1."""
    validate_triple(b1, b2, b3)
    _exclude_2_3_5(b1, b2, b3)
    if isinstance(count, bool) or not isinstance(count, int):
        raise TypeError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    e, _ = next(itertools.islice(_tail_terms(b1 * b2 * b3, alphas(b1, b2, b3)), count - 1, None))
    return e
