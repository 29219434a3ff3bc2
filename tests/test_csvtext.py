"""csvtext.cells and csvtext.lines give exactly the bytes of repr(float(x))."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrcat import csvtext

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def texts(values) -> list[str]:
    """The formatter's text of each value, one CSV line per value."""
    return csvtext.lines(csvtext.cells(np.asarray(values, dtype=float))).decode().splitlines()


def reprs(values) -> list[str]:
    return [repr(float(v)) for v in np.asarray(values, dtype=float).ravel()]


@PROPERTY
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_floats_match_repr(values):
    # NaN, +-inf and subnormals included
    assert texts(values) == reprs(values)


@PROPERTY
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_bit_patterns_match_repr(patterns):
    # every NaN payload, with or without the sign bit, prints as 'nan'
    values = np.array(patterns, dtype=np.uint64).view(float)
    assert texts(values) == reprs(values)


TINY = 2.0**-1022
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-323, TINY, np.nextafter(TINY, 0.0), np.nextafter(TINY, 1.0),
    9.999999999999999e-05, 1e-4, 1e-05, 0.001, 0.1, 1.0, 123.0, 0.3333333333333333,
    9999999999999998.0, 1e16, 1.7976931348623157e308, -1e100, 1e-100, 1.5e-310,
    math.pi, -math.e, math.inf, -math.inf, math.nan, -math.nan,
]


@pytest.mark.parametrize(
    "values",
    [EDGES, 2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309),
     -(10.0 ** np.arange(-323, 309))],
    ids=["edges", "powers_of_two", "powers_of_ten", "negative_powers_of_ten"],
)
def test_edges_match_repr(values):
    assert texts(values) == reprs(values)


def test_random_bit_sweep_matches_repr():
    values = np.random.default_rng(2020).integers(0, 2**64, 200_000, dtype=np.uint64).view(float)
    for block in np.split(values, 25):
        assert texts(block) == reprs(block)


def test_cells_keep_the_shape():
    values = np.arange(6.0).reshape(2, 3)
    assert csvtext.cells(values).shape == (2, 3, csvtext.WIDTH)
    assert csvtext.cells(2.5).shape == (csvtext.WIDTH,)
    assert csvtext.lines(csvtext.cells(np.empty((0, 2)))) == b""


def test_lines_broadcast_and_pack():
    re = csvtext.packed(csvtext.cells([-1.5, 0.25]))
    im = csvtext.packed(csvtext.cells([3.0]))[:, np.newaxis]
    q = csvtext.cells([[1e-05, 0.5]])
    assert re.shape == (2, len("-1.5"))
    assert csvtext.lines(re, im, q) == b"-1.5,3.0,1e-05\n0.25,3.0,0.5\n"
