"""The '%.17g' array formatter and parser behind the grunsky_matrix export."""

import io
import math
import pathlib
import re
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faberkit import assemble, norm_history, read_matrix, write_matrix
from faberkit.cli import load_config_file
from faberkit.textfmt import _HI, _KMAX, _KMIN, _LO, _POW10, format_g17, parse_g17
from oracles import write_matrix_by_percent

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def same_floats(a, b):
    """Bit for bit, so -0.0 is not 0.0; any NaN matches any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(
        (a.view(np.uint64) == b.view(np.uint64)) | np.isnan(a) & np.isnan(b)))


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


EDGE_VALUES = [
    1000000000000000.25, 1000000000000000.75,      # exact ties, rounded to even
    1e-5, 1e-4, 1e16, 1e17, 9.9999999999999998e16,  # fixed/scientific boundaries
    1e-14, 1e-243, 1e-305,                         # 17-digit rounding carries a decade
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    0.0, -0.0, math.inf, -math.inf, math.nan,
    1.0, 100.0, 12345678.5, 0.1, 123456789012345678.0,
]


@pytest.mark.parametrize("x", EDGE_VALUES)
def test_matches_percent_on_edge_values(x):
    v = np.array([x, -x])
    assert format_g17(v, ord(",")) == by_percent(v, ord(","))


def test_separators_follow_each_entry_in_row_order():
    v = np.arange(6.0).reshape(2, 3) / 7
    seps = np.frombuffer(b", \n", dtype=np.uint8)
    assert format_g17(v, seps) == by_percent(v, seps)
    assert format_g17(v, seps).count(b"\n") == 2


def test_powers_of_ten_are_correctly_rounded():
    # the fallback margin assumes each 10^k is within half an ulp; one table
    # serves the formatter's scalings (-292 .. 340) and the parser's exponents
    assert (_KMIN, _KMAX) == (-340, 340) and _POW10.size == _KMAX - _KMIN + 1
    for index, p in enumerate(_POW10):
        if np.isinf(p):  # beyond a long double that is plain double: falls back
            continue
        exact = Fraction(10) ** (index + _KMIN)
        err = abs(Fraction(*p.as_integer_ratio()) - exact)
        for neighbour in (np.nextafter(p, 0 * p), np.nextafter(p, np.inf * p)):
            assert err <= abs(Fraction(*neighbour.as_integer_ratio()) - exact)


def test_bounds_enclose_every_power_of_ten():
    # parse_g17 takes the double that D * _LO[k] and D * _HI[k] both round
    # to; that needs the rounded products, and D where long double is plain
    # double, to stay on their side of D * 10^k: _LO (1 + u)^2 <= 10^k <=
    # _HI (1 - u)^2, u half the long double epsilon
    u = Fraction(*(np.finfo(np.longdouble).eps / 2).as_integer_ratio())
    assert _LO[0] == _LO[-1] == 0 and _HI[0] == _HI[-1] == np.inf  # |k| > 340
    for k, lo, hi in zip(range(_KMIN, _KMAX + 1), _LO[1:-1], _HI[1:-1]):
        exact = Fraction(10) ** k
        assert Fraction(*lo.as_integer_ratio()) * (1 + u) ** 2 <= exact
        assert np.isinf(hi) or exact <= Fraction(*hi.as_integer_ratio()) * (1 - u) ** 2


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(any_float64, st.sampled_from(b", \n")), min_size=1, max_size=64))
def test_parse_inverts_format_on_any_float64(entries):
    v = np.array([x for x, _ in entries])
    seps = np.array([c for _, c in entries], dtype=np.uint8)
    values, back = parse_g17(format_g17(v, seps))
    assert same_floats(values, v)
    np.testing.assert_array_equal(back, seps)


def test_parse_inverts_format_on_many_bit_patterns():
    v = np.random.default_rng(6).integers(0, 2 ** 64, 2 ** 18, dtype=np.uint64).view(float)
    assert same_floats(parse_g17(format_g17(v, ord(",")))[0], v)


def test_parse_matches_float_on_many_digit_strings():
    # '%.17g' text sits far from rounding boundaries; random mantissas of up
    # to 19 digits do not, so a margin below the rounding error of the long
    # double product shows up here as misrounded floats
    rng = np.random.default_rng(7)
    n = 2 ** 18
    tokens = []
    for d, m, point, e, neg in zip(rng.integers(1, 20, n),
                                   rng.integers(0, 10 ** 19, n, dtype=np.uint64),
                                   rng.integers(0, 20, n), rng.integers(-345, 330, n),
                                   rng.random(n) < 0.5):
        text = ("%019d" % m)[-d:]
        tokens.append("%s%s.%se%+03d" % ("-" if neg else "", text[:point], text[point:], e))
    data = " ".join(tokens).encode()
    assert same_floats(parse_g17(data)[0], [float(t) for t in tokens])


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789", min_size=1, max_size=21), st.integers(0, 21),
       st.integers(-400, 400), st.booleans())
def test_parse_matches_float_on_decimal_strings(digits, point, exponent, negative):
    token = "-" * negative + digits[:point] + "." + digits[point:] + "e%+d" % exponent
    assert same_floats(parse_g17(token.encode())[0], [float(token)])


@pytest.mark.parametrize("x", EDGE_VALUES)
def test_parse_inverts_format_on_edge_values(x):
    v = np.array([x, -x])
    assert same_floats(parse_g17(format_g17(v, ord(",")))[0], v)


@pytest.mark.parametrize("token", [
    "1E5", "+0.5", ".5", "5.", "-.5", "1e5", "1e+005", "1.e+05", "00012",
    "1234567890123456789012345", "0.000000000000000000001234",
    "9007199254740993", "1152921504606847104", "9223372036854776832",  # ties
    "2.2250738585072011e-308", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "1.7976931348623158e308", "1.7976931348623159e308", "1e-400", "-1e400",
    "nan", "-inf", "Infinity",
])
def test_parse_matches_float_on_other_tokens(token):
    assert same_floats(parse_g17(token.encode())[0], [float(token)])


@pytest.mark.parametrize("token", ["1e", "-", ".", "e5", "0x10", "1..2", "1e+5e", "--1"])
def test_parse_refuses_what_float_refuses(token):
    with pytest.raises(ValueError):
        float(token)
    with pytest.raises(ValueError):
        parse_g17(b"1 " + token.encode() + b" 2")


def test_parse_separators():
    # runs of separators end one token; a newline anywhere in the run wins,
    # and the end of the data counts as one
    values, seps = parse_g17(b" 1,, 2 \n 3\t4\r\n\n5")
    np.testing.assert_array_equal(values, [1, 2, 3, 4, 5])
    assert bytes(seps) == b",\n\t\n\n"
    assert parse_g17(b"")[0].size == parse_g17(b" \n ")[0].size == 0


@pytest.mark.parametrize("name", ["perturbed_pair", "three_disks", "two_disks"])
@pytest.mark.parametrize("trunc", [1, 3, 16, 64, 256])
def test_write_matrix_matches_percent_writer(name, trunc):
    config = load_config_file(CONFIGS / (name + ".json"))
    gr = assemble(config, trunc)
    history = norm_history(gr)
    ours, reference = io.StringIO(), io.StringIO()
    write_matrix(gr, ours, sigma_history=history)
    write_matrix_by_percent(gr, reference, sigma_history=history)
    assert ours.getvalue() == reference.getvalue()
    # read back bit for bit, signed zeros included, and written again with
    # the file's own sigma history, byte for byte
    back = read_matrix(io.StringIO(ours.getvalue()))
    np.testing.assert_array_equal(back.blocks.view(np.uint64), gr.blocks.view(np.uint64))
    own = {int(t): float(s) for t, s in
           re.findall(r"^sigma_max\[(\d+)\] = (\S+)$", ours.getvalue(), re.M)}
    again = io.StringIO()
    write_matrix(back, again, sigma_history=own)
    assert again.getvalue() == ours.getvalue()


def test_read_matrix_memory_stays_flat(tmp_path):
    # the reader parses a chunk of rows at a time: beyond the blocks it
    # returns, it holds a few MB whatever the size of the file (28 MB here)
    gr = assemble(load_config_file(CONFIGS / "three_disks.json"), 256)
    path = tmp_path / "grunsky_matrix.txt"
    with open(path, "w") as fh:
        write_matrix(gr, fh, sigma_history={256: 1.0})
    tracemalloc.start()
    try:
        with open(path) as fh:
            back = read_matrix(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= back.blocks.nbytes + 8e6
