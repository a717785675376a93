"""The '%.17g' array formatter behind the grunsky_matrix export."""

import io
import math
import pathlib
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faberkit import assemble, norm_history, write_matrix
from faberkit.cli import load_config_file
from faberkit.textfmt import _KMIN, _POW10, format_g17
from oracles import write_matrix_by_percent

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def by_percent(values, seps):
    flat = np.asarray(values, dtype=float).ravel()
    sep = np.broadcast_to(np.asarray(seps, dtype=np.uint8), np.shape(values)).ravel()
    return b"".join(("%.17g" % x).encode() + bytes([c]) for x, c in zip(flat, sep))


any_float64 = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(any_float64, min_size=1, max_size=64))
def test_matches_percent_on_any_float64(xs):
    assert format_g17(np.array(xs), ord(" ")) == by_percent(xs, ord(" "))


def test_matches_percent_on_many_bit_patterns():
    # enough entries that a fallback margin below the rounding error of the
    # long double scaling shows up as misrounded last digits
    v = np.random.default_rng(5).integers(0, 2 ** 64, 2 ** 18, dtype=np.uint64).view(float)
    assert format_g17(v, ord(" ")) == by_percent(v, ord(" "))


@pytest.mark.parametrize("x", [
    1000000000000000.25, 1000000000000000.75,      # exact ties, rounded to even
    1e-5, 1e-4, 1e16, 1e17, 9.9999999999999998e16,  # fixed/scientific boundaries
    1e-14, 1e-243, 1e-305,                         # 17-digit rounding carries a decade
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    0.0, -0.0, math.inf, -math.inf, math.nan,
    1.0, 100.0, 12345678.5, 0.1, 123456789012345678.0,
])
def test_matches_percent_on_edge_values(x):
    v = np.array([x, -x])
    assert format_g17(v, ord(",")) == by_percent(v, ord(","))


def test_separators_follow_each_entry_in_row_order():
    v = np.arange(6.0).reshape(2, 3) / 7
    seps = np.frombuffer(b", \n", dtype=np.uint8)
    assert format_g17(v, seps) == by_percent(v, seps)
    assert format_g17(v, seps).count(b"\n") == 2


def test_powers_of_ten_are_correctly_rounded():
    # the fallback margin assumes each 10^k is within half an ulp
    for index, p in enumerate(_POW10):
        if np.isinf(p):  # beyond a long double that is plain double: falls back
            continue
        exact = Fraction(10) ** (index + _KMIN)
        err = abs(Fraction(*p.as_integer_ratio()) - exact)
        for neighbour in (np.nextafter(p, 0 * p), np.nextafter(p, np.inf * p)):
            assert err <= abs(Fraction(*neighbour.as_integer_ratio()) - exact)


@pytest.mark.parametrize("name", ["perturbed_pair", "three_disks", "two_disks"])
@pytest.mark.parametrize("trunc", [1, 3, 16, 64, 256])
def test_write_matrix_matches_percent_writer(name, trunc):
    config = load_config_file(CONFIGS / (name + ".json"))
    gr = assemble(config, trunc, policy="dual" if trunc <= 64 else "definitional")
    history = norm_history(gr)
    ours, reference = io.StringIO(), io.StringIO()
    write_matrix(gr, ours, sigma_history=history)
    write_matrix_by_percent(gr, reference, sigma_history=history)
    assert ours.getvalue() == reference.getvalue()
