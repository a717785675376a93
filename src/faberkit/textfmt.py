"""Exact '%.17g' text for float64 arrays, built with numpy array operations.

format_g17 returns the same bytes as formatting every entry with
'%.17g' % v, at a fraction of the cost of one correctly rounding dtoa call
per float (at 17 digits CPython's dtoa takes its bignum path).

A finite nonzero entry is |v| = D * 10^(e-16), D its 17 significant digits:

    e = floor(log10|v|),
    y = |v| * 10^(16-e) in long double, with 10^k correctly rounded,
    D = y rounded to the nearest integer.

y carries two long double roundings, so it is within _ROUND_ERR of the exact
|v| * 10^(16-e) (about 0.011 on x87, where long double has a 64-bit
mantissa).  Both round to the same integer unless y lies within _ROUND_ERR
of a half-integer, so every other D is exact.  Those near-ties (about 2% of
uniformly spread digits), a log10 that lands on the wrong side of an integer
(y outside [1e16, 1e17)), a rounding that carries into the next decade and
the non-finite values take '%.17g' itself.  Where long double is plain
double _ROUND_ERR is about 22, every entry takes that fallback, and the bytes
stay the same.
"""

import numpy as np

_LD = np.longdouble
_EMIN, _EMAX = -324, 308  # decimal exponents of nonzero float64 values
# correctly rounded powers of ten: _POW10[k - _KMIN] = 10^k, k = 16 - e
_KMIN = 16 - _EMAX
_POW10 = np.array([_LD("1e%d" % k) for k in range(_KMIN, 16 - _EMIN + 1)])
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
# fixed notation with e >= 1 moves the point from after the first digit to
# after digit e: _MOVE_POINT[e] reorders the 18 digit-and-point bytes
_MOVE_POINT = np.array([[0] + list(range(2, e + 2)) + [1] + list(range(e + 2, 18))
                        for e in range(17)])

# one 32-byte row per entry, as four words:
#   0: sign, prefix (5 bytes), first digit, point
#   1, 2: sixteen more digits
#   3: exponent (5 bytes), separator
# NUL bytes are dropped at the end.
_DIGITS = slice(6, 24)  # first digit, point, sixteen digits
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
            ~(np.abs(y - d) < 0.5 - _ROUND_ERR) | (y < 1e16) | (D >= 10 ** 17))
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

    fixed = (e >= -4) & (e <= 16)
    small = fixed & (e < 0)
    words = out.view(_U64)
    words[:, 0] = (_SIGN_PREFIX[np.signbit(v) + 2 * np.where(small, -e, 0)]
                   | (top + ord("0")).astype(np.uint64) << 48
                   | ((rest != 0) & ~small).astype(np.uint64) * ord(".") << 56)
    words[:, 3] = _EXPONENT[e - _EMIN] | sep.astype(np.uint64) << 40

    moved = np.flatnonzero(fixed & (e >= 1))
    if moved.size:
        em = e[moved]
        part = np.take_along_axis(out[moved, _DIGITS], _MOVE_POINT[em], axis=1)
        # digits of the integer part were stripped as trailing zeros
        col = np.arange(18)
        part[(col >= 1) & (col <= em[:, None]) & (part == 0)] = ord("0")
        part[np.arange(moved.size), em + 1] = np.where(
            D[moved] % 10 ** (16 - em) != 0, ord("."), 0)
        out[moved, _DIGITS] = part

    rows = np.flatnonzero(fallback)
    if rows.size:
        text = np.array(["%.17g" % x for x in v[rows]], dtype="S%d" % _SEP)
        out[rows, :_SEP] = text.view(np.uint8).reshape(rows.size, _SEP)
    return out.tobytes().translate(None, b"\0")
