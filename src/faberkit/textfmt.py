"""Exact '%.17g' text for float64 arrays, both ways, with numpy array operations.

format_g17 returns the same bytes as formatting every entry with
'%.17g' % v, and parse_g17 returns the same floats as float() of every
token, each at a fraction of the cost of one correctly rounding conversion
per number (at 17 digits CPython's dtoa takes its bignum path).

Writing.  A finite nonzero entry is |v| = D * 10^(e-16), D its 17
significant digits:

    e = floor(log10|v|),
    y = |v| * 10^(16-e) in long double, with 10^k correctly rounded,
    D = y rounded to the nearest integer.

y carries two long double roundings, so it is within _ROUND_ERR of the exact
|v| * 10^(16-e) (about 0.011 on x87, where long double has a 64-bit
mantissa).  Both round to the same integer unless y lies within _ROUND_ERR
of a half-integer, so every other D is exact.  Those near-ties (about 2% of
uniformly spread digits), a log10 that lands on the wrong side of an integer
(y outside [1e16, 1e17)), a rounding that carries into the next decade, the
fixed notation with the point after digit 2 to 17 (10 <= |v| < 1e17, which
no export reaches while sigma_max < 10: every entry is at most sigma_max)
and the non-finite values take '%.17g' itself.  Where long double is plain
double _ROUND_ERR is about 22, every entry takes that fallback, and the bytes
stay the same.

Reading.  A token [-]digits[.digits][e+dd|e+ddd] of at most 24 mantissa
bytes is x = D * 10^k exactly, D < 10^19 the integer of its digits and k
its exponent less the digits after the point.  Its mantissa is read
right-aligned in three 8-byte words, eight digits per word at a time (SWAR),
and the point is dropped by integer arithmetic.  D is exact in a long
double (64-bit mantissa on x87), and so are bounds on each side of x:

    lo = D * _LO[k] <= x <= D * _HI[k] = hi,

where _LO[k] and _HI[k] are the correctly rounded 10^k scaled by (1 -+ 2
eps): with u half the long double epsilon, _LO[k] (1 + u)^2 <= 10^k, so
even after rounding the product (and D, where long double is plain double)
lo stays at or below x, and hi at or above it.  Rounding to the nearest
double is monotone, so where lo and hi round to the same double, x rounds
to it too, and that double is float() of the token, subnormals and
overflow to inf included.  Tokens of another shape (no digit, a second
point, "E", a leading "+", a mantissa past 24 bytes or 19 digits, "nan",
"inf"), exponents past +-340 and the products whose bounds straddle a
rounding boundary take float() itself.  '%.17g' of a double is within 0.45
ulp of it (5e-17 relative, against an ulp of at least 1.1e-16), far inside
its rounding interval, so no such token falls back.  Where long double is
plain double the bounds are a few ulps apart and rarely agree; the floats
stay the same.
"""

import numpy as np

_LD = np.longdouble
_EMIN, _EMAX = -324, 308  # decimal exponents of nonzero float64 values
# correctly rounded powers of ten: _POW10[k - _KMIN] = 10^k, for the scaling
# k = 16 - e of format_g17 (-292 .. 340) and the exponents of parse_g17
_KMIN, _KMAX = -340, 340
_POW10 = np.array([_LD("1e%d" % k) for k in range(_KMIN, _KMAX + 1)])
# |y - x| <= (2u + u^2) x for x = |v| 10^k and u half the long double
# epsilon; x < 1e17 wherever the bound is used
_ROUND_ERR = float(1e17 * np.finfo(_LD).eps) * 1.01

_U64 = np.dtype("<u8")
_U32 = np.dtype("<u4")


def _words(texts, dtype):
    """Little-endian words holding each text, NUL padded."""
    width = dtype.itemsize
    return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts), dtype=dtype)


def _digit_words():
    """Words "0000" .. "9999", then the same with trailing zeros as NUL
    (all NUL for 0), for the last nonzero group of a digit string."""
    q = np.arange(10000)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    kept = np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] > 0  # a later digit is nonzero
    text = (digits + ord("0")).astype(np.uint8)
    return np.concatenate([text, text * kept]).view(_U32).ravel()


_QUADS = _digit_words()
# sign and fixed-notation prefix for 1e-4 <= |v| < 1: index neg + 2 * (-e)
_SIGN_PREFIX = _words([s + p for p in ["", "0.", "0.0", "0.00", "0.000"] for s in ["", "-"]],
                      _U64)
# %g writes -4 <= e < 17 in fixed notation, the rest as d.ddde+XX
_EXPONENT = _words(["" if -4 <= e <= 16 else "e%+03d" % e for e in range(_EMIN, _EMAX + 1)],
                   _U64)

# one 32-byte row per entry, as four words:
#   0: sign, prefix (5 bytes), first digit, point
#   1, 2: sixteen more digits
#   3: exponent (5 bytes), separator
# NUL bytes are dropped at the end.
_SEP = 29


def format_g17(values, seps):
    """Bytes of '%.17g' % v followed by its separator, for every entry.

    values is a float64 array; seps is a uint8 array broadcastable to its
    shape, the separator byte written after each entry.  Entries are
    written in C order.
    """
    v = np.ascontiguousarray(values, dtype=float).ravel()
    sep = np.broadcast_to(np.asarray(seps, dtype=np.uint8), np.shape(values)).ravel()
    a = np.abs(v)
    regular = np.isfinite(a) & (a != 0)
    a = np.where(regular, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    # where long double is plain double, 10^k overflows for the smallest |v|;
    # y is then inf and y - d NaN, which the negated < sends to the fallback
    with np.errstate(invalid="ignore"):
        y = a.astype(_LD) * _POW10[16 - e - _KMIN]
        d = np.rint(y)
        D = d.astype(np.int64)
        fallback = ~np.isfinite(v) | regular & (
            ~(np.abs(y - d) < 0.5 - _ROUND_ERR) | (y < 1e16) | (D >= 10 ** 17)
            | (e >= 1) & (e <= 16))
    special = ~regular | fallback  # zero, or written by the fallback
    D[special] = 0
    e[special] = 0

    top, rest = np.divmod(D, 10 ** 16)
    hi, lo = np.divmod(rest, 10 ** 8)
    groups = [hi // 10000, hi % 10000, lo // 10000, lo % 10000]
    out = np.zeros((v.size, 32), dtype=np.uint8)
    quads = out.view(_U32)
    stripped = np.ones(v.size, dtype=bool)  # every later group is zero
    for k in (3, 2, 1, 0):
        quads[:, 2 + k] = _QUADS[groups[k] + 10000 * stripped]
        stripped &= groups[k] == 0

    small = (e >= -4) & (e < 0)
    words = out.view(_U64)
    words[:, 0] = (_SIGN_PREFIX[np.signbit(v) + 2 * np.where(small, -e, 0)]
                   | (top + ord("0")).astype(np.uint64) << 48
                   | ((rest != 0) & ~small).astype(np.uint64) * ord(".") << 56)
    words[:, 3] = _EXPONENT[e - _EMIN] | sep.astype(np.uint64) << 40

    rows = np.flatnonzero(fallback)
    if rows.size:
        text = np.array(["%.17g" % x for x in v[rows]], dtype="S%d" % _SEP)
        out[rows, :_SEP] = text.view(np.uint8).reshape(rows.size, _SEP)
    return out.tobytes().translate(None, b"\0")


# parse_g17 reads each mantissa right-aligned in a window of three words
_WIDTH = 24
_WINDOW = np.dtype("V%d" % _WIDTH)
# _KEEP[k, n] is word k of a mask that keeps the last n bytes of a window
_KEEP = np.array([b"\0" * (_WIDTH - n) + b"\xff" * n for n in range(_WIDTH + 1)],
                 dtype="S%d" % _WIDTH).view(_U64).reshape(_WIDTH + 1, 3).T.copy()
_ONES = np.uint64(0x0101010101010101)
_ZEROS = _ONES * np.uint64(ord("0"))
# times a word with 1 from one byte to its end: (bytes from that byte to the
# end of the window) << 56
_TO_END = _ONES + np.array([[16], [8], [0]], dtype=np.uint64)
_P10 = 10 ** np.arange(20, dtype=np.uint64)
# bounds on 10^k at index k - _KMIN + 1: D * _LO and D * _HI, rounded, stay
# at or below and at or above D * 10^k.  The sentinels 0 and inf, whose
# products never round alike, stand past +-340 and wherever 10^k is not a
# normal long double.
_normal = np.isfinite(_POW10) & (_POW10 >= np.finfo(_LD).tiny)
_LO = np.concatenate([[0], np.where(_normal, _POW10 * (1 - 2 * np.finfo(_LD).eps), 0), [0]])
_HI = np.concatenate([[np.inf], np.where(_normal, _POW10 * (1 + 2 * np.finfo(_LD).eps), np.inf),
                      [np.inf]]).astype(_LD)


def _eight_digits(d):
    """Values of words holding eight digits 0..9 each, the first in the
    lowest byte: pairs, then quads, then octets (Lemire's SWAR steps).
    Overwrites d."""
    d *= np.uint64(10 * 2 ** 8 + 1)
    d >>= np.uint64(8)
    d &= np.uint64(0x00FF00FF00FF00FF)
    d *= np.uint64(100 * 2 ** 16 + 1)
    d >>= np.uint64(16)
    d &= np.uint64(0x0000FFFF0000FFFF)
    d *= np.uint64(10000 * 2 ** 32 + 1)
    d >>= np.uint64(32)
    return d


def _tokens(buf):
    """Start and end offsets of the tokens in buf (which begins and ends with
    a separator) and the separator byte that ends each."""
    is_sep = buf <= ord(" ")
    scratch = buf == ord(",")
    is_sep |= scratch
    at = np.flatnonzero(is_sep)
    start, end = at[:-1] + 1, at[1:]
    if not (end > start).all():  # runs of separators
        token = end > start
        start, end = start[token], end[token]
    seps = buf[end]
    newline = np.equal(buf[:-1], ord("\n"), out=scratch[:-1])  # not the final padding
    if np.count_nonzero(newline) != np.count_nonzero(seps == ord("\n")):
        # a newline later in a run of separators, or a token that runs to
        # the end of the data
        last = np.searchsorted(end, np.flatnonzero(newline), side="right") - 1
        seps[last[last >= 0]] = ord("\n")
    return start, end, seps


def _exponents(buf, end):
    """Length and value of each token's exponent, "e+dd" or "e+ddd" at its
    end (length 0 and value 0 for none), and whether it is well formed."""
    tails = np.ndarray(buf.size - 4, "V5", buf, strides=(1,))[end - 5]
    fifth, fourth, hundreds, tens, units = tails.view(np.uint8).reshape(-1, 5).T
    three = fifth == ord("e")
    has = three | (fourth == ord("e"))
    sign = hundreds + three * (fourth - hundreds)  # the byte after the "e"
    minus = sign == ord("-")
    units = units - np.uint8(ord("0"))
    tens = tens - np.uint8(ord("0"))
    hundreds = (hundreds - np.uint8(ord("0"))) * three
    ok = ~has | (minus | (sign == ord("+"))) & (units <= 9) & (tens <= 9) & (hundreds <= 9)
    value = units.astype(np.int16)
    value += 10 * tens.astype(np.int16)
    value += 100 * hundreds.astype(np.int16)
    value *= (1 - 2 * minus.astype(np.int16)) * has
    return 4 * has + three.astype(np.int64), value, ok


def _mantissas(buf, start, end):
    """(D, p, ok) for the mantissas buf[start:end]: D the integer of their
    digits, p the digits after the point, ok where a mantissa is digits and
    at most one point, holds a digit, and fits the window with N (its bytes
    read as digits, the point as 0) below 10^19."""
    length = end - start
    windows = np.ndarray(buf.size - _WIDTH + 1, _WINDOW, buf, strides=(1,))
    d = np.ascontiguousarray(windows[end - _WIDTH].view(_U64).reshape(-1, 3).T)
    d ^= _ZEROS  # d[k]: word k of every window, digits as 0..9
    d &= np.take(_KEEP, length, axis=1, mode="clip")
    # 1 in each byte that is not a digit 0..9 (the point is 0x1e); a carry
    # out of a non-ASCII byte can only mark one more
    bad = d + np.uint64(0x7676767676767676)
    bad |= d
    bad >>= np.uint64(7)
    bad &= _ONES
    # per word, 1 from each marked byte to the end of the word; the top
    # bytes count the marked bytes (no byte sum below carries)
    marks = bad * _ONES
    n_bad = (marks[0] + marks[1] + marks[2]) >> np.uint64(56)
    point = n_bad == 1
    marks *= _TO_END
    p = ((marks[0] + marks[1] + marks[2]) >> np.uint64(56)).astype(np.int64) - point
    del marks
    bad *= np.uint64(0xFF)
    bad &= d  # the point byte
    d ^= bad  # the point read as a zero digit
    ok = (n_bad <= 1) & ((bad[0] | bad[1] | bad[2]) * _ONES >> np.uint64(56)
                         == point * np.uint64(0x1E)) \
        & (length >= 1 + point) & (length <= _WIDTH)
    del bad
    v = _eight_digits(d)
    N = v[0] * _P10[16]
    N += v[1] * _P10[8]
    N += v[2]
    ok &= v[0] < 1000  # N < 10^19 < 2^64
    # D = N without the point's digit; with no point, or one among the
    # leading zeros (p >= 19), D = N
    scale = np.take(_P10, p + 19 * ~point, mode="clip")
    q, r = np.divmod(N, scale)
    q //= np.uint64(10)
    q *= scale
    q += r
    return q, p, ok


def parse_g17(data):
    """Floats and separators of text written by format_g17.

    Tokens are the runs of bytes between separators: commas, spaces and
    control bytes (ASCII whitespace among them).  Returns (values, seps):
    values[i] is float() of token i, bit for bit, and seps[i] the byte that
    ends it: a newline where the separators after it hold one (the end of
    the data counts as one for a token that runs to it), else the first of
    them.  So parse_g17 of format_g17(v, seps) gives back v and seps.  A
    token float() refuses raises its ValueError.
    """
    # separators around the data keep the gathers in bounds: a window ends
    # at most five bytes before its token does
    front = _WIDTH + 5
    buf = np.empty(front + len(data) + 1, dtype=np.uint8)
    buf[:front] = ord(" ")
    buf[front:-1] = np.frombuffer(data, dtype=np.uint8)
    buf[-1] = ord("\n")
    start, end, seps = _tokens(buf)
    e_len, exponent, ok = _exponents(buf, end)
    negative = buf[start] == ord("-")
    D, p, well_formed = _mantissas(buf, start + negative, end - e_len)
    ok &= well_formed
    index = exponent - p
    index += 1 - _KMIN  # clipped by take: the sentinels at both ends
    D = D.astype(_LD)
    # both brackets round to the same double only where D * 10^k does
    with np.errstate(invalid="ignore", over="ignore"):
        lo, hi = np.take(_LO, index, mode="clip"), np.take(_HI, index, mode="clip")
        lo *= D
        hi *= D
        values = lo.astype(float)
        ok &= values == hi.astype(float)
    values.view(_U64)[...] |= negative.astype(_U64) << np.uint64(63)  # the sign bit
    for i in np.flatnonzero(~ok):
        values[i] = float(bytes(buf[start[i]:end[i]]))
    return values, seps
