from fractions import Fraction

import pytest
from hypothesis import strategies as st

from zhat.exact import ExactMatrix
from zhat.plumbing import PlumbingGraph

# Linking matrix of the 6-vertex star plumbing for Sigma(2, 9, 11):
# center -1 with legs [-2], [-5, -2], [-4, -3].
SIGMA_2_9_11_ROWS = [
    [-1, 1, 1, 0, 1, 0],
    [1, -2, 0, 0, 0, 0],
    [1, 0, -5, 1, 0, 0],
    [0, 0, 1, -2, 0, 0],
    [1, 0, 0, 0, -4, 1],
    [0, 0, 0, 0, 1, -3],
]


@pytest.fixture
def m_2_9_11() -> ExactMatrix:
    return ExactMatrix(SIGMA_2_9_11_ROWS)


@pytest.fixture
def g_2_9_11() -> PlumbingGraph:
    return PlumbingGraph((-1, -2, -5, -2, -4, -3), ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5)))


def det_cofactor(rows) -> Fraction:
    """Independent determinant oracle: direct cofactor expansion."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * det_cofactor(minor)
    return total


@st.composite
def trees(draw, max_size=7, weights=st.integers(-4, 4)):
    """Random labelled tree: each vertex hangs from an earlier one, then
    the labels are shuffled so that vertex 0 is not always the root."""
    n = draw(st.integers(1, max_size))
    label = draw(st.permutations(range(n)))
    edges = tuple((label[draw(st.integers(0, v - 1))], label[v]) for v in range(1, n))
    return PlumbingGraph(tuple(draw(st.lists(weights, min_size=n, max_size=n))), edges)
