"""Property tests of the lattice interpolants and the CSV writer (need ``hypothesis``)."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from wkist.lattice import (  # noqa: E402
    _CSV_ROWS,
    _halving_miss,
    _lagrange_interpolant,
    columns_to_csv,
)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(n=st.integers(20, 80), spacing=st.floats(0.01, 1.0),
                  start=st.floats(-5.0, 5.0),
                  phases=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
                  coeffs=st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
                                  min_size=4, max_size=4))
def test_lagrange_miss_at_the_midpoints_is_within_its_halving_estimate(n, spacing, start,
                                                                       phases, coeffs):
    # band-limited sums of c_k e^{i w_k x}, |w_k| h <= 2 pi / 10: ten nodes
    # per shortest period, as on the hodograph lattice
    nodes = start + spacing * np.arange(n)
    omegas = 2.0 * np.pi / 10 * np.asarray(phases) / spacing

    def wave(x):
        return np.exp(1j * np.outer(x, omegas)) @ np.asarray(coeffs[:len(omegas)])

    values = wave(nodes)
    midpoints = (nodes[1:] + nodes[:-1]) / 2
    miss = np.max(np.abs(_lagrange_interpolant(nodes, values)(midpoints) - wave(midpoints)))
    # rounding bounds both where the sum is close to a polynomial of degree 9
    rounding = 1e-13 * np.max(np.abs(values))
    assert miss <= _halving_miss(nodes, values) + rounding


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(gaps=st.lists(st.floats(0.5, 1.0), min_size=1, max_size=40),
                  spacing=st.floats(0.01, 1.0), start=st.floats(-5.0, 5.0),
                  degree=st.integers(0, 9),
                  coeffs=st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
                                  min_size=10, max_size=10),
                  fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_lagrange_interpolant_is_exact_on_degree_nine_on_uneven_nodes(gaps, spacing, start,
                                                                     degree, coeffs,
                                                                     fractions):
    # on two or more nodes whose gaps differ up to twofold, as the mapped
    # nodes x(x_H) do: a polynomial of degree <= 9 (and below the node
    # count) is its own interpolant between the end nodes
    nodes = start + spacing * np.concatenate([[0.0], np.cumsum(gaps)])
    a, b = nodes[0], nodes[-1]
    c = coeffs[:min(degree, nodes.size - 1) + 1]

    def poly(x):
        return np.polyval(c, (x - a) / (b - a))

    inside = np.clip(a + (b - a) * np.asarray(fractions), a, b)
    got = _lagrange_interpolant(nodes, poly(nodes))(inside)
    assert np.max(np.abs(got - poly(inside))) <= 1e-13 * np.max(np.abs(poly(nodes)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(gaps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=40),
                  start=st.floats(-5.0, 5.0), seed=st.integers(0, 2**16))
def test_lagrange_interpolant_returns_uneven_node_values_and_zero_one_ulp_outside(gaps, start,
                                                                                  seed):
    nodes = start + np.concatenate([[0.0], np.cumsum(gaps)])
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(nodes.size) + 1j * rng.standard_normal(nodes.size)
    interpolant = _lagrange_interpolant(nodes, values)
    assert interpolant(nodes).tobytes() == values.tobytes()
    a, b = nodes[0], nodes[-1]
    outside = np.array([np.nextafter(a, -np.inf), a - 1.0, np.nextafter(b, np.inf), b + 1.0])
    assert np.all(interpolant(outside) == 0.0)


# the edges of the writer's fast path: signed zeros, the smallest
# subnormal, the exact 17-digit tie 2**-25 (2.9802322387695312e-08), the
# fixed-point/exponent boundaries at 1e-4 and 1e17, 17 nines, 0.1 and a
# value below 1e-280
PINNED = [0.0, -0.0, 5e-324, 2.0 ** -25, 1e-5, 9.999999999999999e-05, 1e-4, 1e16, 1e17,
          99999999999999998.0, 0.1, -1e-300]
TEXT = st.text(st.characters(exclude_categories=["Cs"]), max_size=20)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(values=st.lists(st.floats() | st.sampled_from(PINNED), max_size=60),
                  width=st.integers(1, 5), at=st.integers(0, 5),
                  words=st.lists(TEXT | st.integers(), max_size=4), long=st.booleans())
@hypothesis.example(values=PINNED, width=3, at=1, words=["Triangular", 7], long=False)
@hypothesis.example(values=PINNED, width=5, at=5, words=[""], long=True)
@hypothesis.example(values=[], width=2, at=0, words=["kind"], long=False)
# numpy makes [0, 2**63] a float64 column: a text column keeps the caller's ints
@hypothesis.example(values=[0.0, 0.0], width=1, at=0, words=[0, 2**63], long=False)
@hypothesis.example(values=PINNED, width=3, at=0, words=[], long=True)
def test_column_writer_writes_the_percent_17g_bytes(values, width, at, words, long):
    # the contract: "%.17g" % v per number and "%s" % v per text value,
    # comma-separated, each line ended in CRLF; no words leave the text
    # column out, a file the writer formats by numpy arithmetic, and long
    # columns cross its blocks of rows
    n = 2 * _CSV_ROWS + 5 if long and values else len(values)
    columns = [np.resize(np.roll(values, k), n) * (-1.0) ** k for k in range(width)]
    at = min(at, width)
    if words:
        columns.insert(at, [words[j % len(words)] for j in range(n)])
    header = [f"c{k}" for k in range(len(columns))]
    text = header[at:at + 1] if words else []
    fmt = ",".join("%s" if name in text else "%.17g" for name in header) + "\r\n"
    expected = (",".join(header) + "\r\n"
                + "".join(fmt % row for row in zip(*(list(c) for c in columns)))).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        columns_to_csv(path, header, columns, text=text)
        assert path.read_bytes() == expected
