"""Shortest round-trip text of float64 arrays, byte for byte as ``repr``.

The digits are Schubfach's shortest decimal (R. Giulietti, "The Schubfach
way to render doubles", 2020): the shortest decimal in the interval of reals
that round to the double, the closest of those to it, ties to an even last
digit.  That is the decimal Python's ``repr`` prints (Gay's dtoa, mode 0) for
every normal double; the layout below is the one ``repr`` gives it.  Zeros,
subnormals, infinities and NaNs keep ``repr``, one value at a time: for
subnormals Schubfach as published may print two digits where ``repr``
prints one (4.9e-324 for 5e-324).

The arithmetic runs on ``uint64`` arrays in blocks of ``BLOCK`` values, which
keeps every temporary small.  Each value becomes one fixed-width slot of
``SLOT`` bytes and a mask of the bytes its text uses:

    sign | 0. | three zeros | 17 digits with the point inserted | e | exponent
    sign | three exponent digits | separator

``csv_blocks`` gathers the slots of each row and keeps the masked bytes.
It writes what ``repr`` writes, so the tests take ``repr`` as its reference.
"""

import numpy as np

#: values and rows per block of array work
BLOCK = 4096

#: bytes per value slot; the last is the field separator
SLOT = 30

_DIGITS = 17
_FIELD = 6  # first byte of the 17 digits with the point inserted
_EXP = 24  # the 'e'
_SEP = SLOT - 1

_U = np.uint64
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)
_HIDDEN = 2**52  # the implicit bit of a normal significand
_Q_MIN = -1074  # exponent of the binade below the smallest normal
_K_MIN, _K_MAX = -324, 292
_ONE = np.array(1.0).view(np.uint64)


def _table():
    """g1, g0 and floor(log2 10^-k) for k = K_MIN..K_MAX, where
    g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1 with 2^125 <= g < 2^126."""
    g1s, g0s, log2s = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        e = -k
        if e >= 0:
            p = 10**e
            log2 = p.bit_length() - 1
            r = log2 - 125
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            d = 10**-e  # never a power of two, so log2 10^e = -bit_length(d) + a fraction
            log2 = -d.bit_length()
            g = (1 << (125 - log2)) // d + 1
        g1s.append(g >> 63)
        g0s.append(g & (2**63 - 1))
        log2s.append(log2)
    return (np.array(g1s, dtype=np.uint64), np.array(g0s, dtype=np.uint64),
            np.array(log2s, dtype=np.int64))


_G1, _G0, _LOG2_POW10 = _table()

#: 10^0 .. 10^17
_POW10 = np.array([10**i for i in range(_DIGITS + 1)], dtype=np.uint64)

#: the four ASCII digits of 0 .. 9999, as one uint32 each
_GROUP_TEXT = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                   indexing="ij"), axis=-1).view(np.uint32).ravel()

#: columns of the padded digit rows: '0', 17 digits, '0', '.'
_PADDED = _DIGITS + 3

#: per point position p, the padded columns of the 18 field bytes: digits
#: before the point, the point at p, the digits after it one byte later
_POINT_AT = np.array([[c + 1 if c < p else _PADDED - 1 if c == p else c
                       for c in range(_DIGITS + 1)] for p in range(_DIGITS + 1)])

#: the bytes every slot starts from: all but the digits and the exponent
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * (_DIGITS + 1) + b"e+000,", dtype=np.uint8)

#: the sign and three digits of each exponent from _EXPONENT_MIN, one uint32 each
_EXPONENT_MIN = -400
_EXPONENT_TEXT = np.frombuffer(b"".join(b"%+04d" % x for x in range(_EXPONENT_MIN, 400)),
                               dtype=np.uint32)


def _masks():
    """The slot masks, indexed by (negative, prefix, used, exponent): the
    sign, the first ``prefix`` bytes of '0.000', the first ``used`` field
    bytes, no exponent or e+dd or e+ddd, and the separator."""
    negative, prefix, used, exponent = np.indices((2, _FIELD, _DIGITS + 2, 3))[..., None]
    return np.concatenate([
        negative == 1,
        np.arange(_FIELD - 1) < prefix,
        np.arange(_DIGITS + 1) < used,
        np.array([[0, 0, 0, 0, 0], [1, 1, 0, 1, 1], [1, 1, 1, 1, 1]], dtype=bool)[exponent[..., 0]],
        np.ones_like(negative, dtype=bool),
    ], axis=-1)


_MASKS = _masks().reshape(-1, SLOT)


def _halves(a):
    return a & _M32, a >> _U(32)


def _mulhi(a, b):
    """High 64 bits of the 128-bit products of a and b, given as 32-bit halves."""
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    ll = a_lo * b_lo
    hl = a_hi * b_lo
    cross = (ll >> _U(32)) + (hl & _M32) + a_lo * b_hi  # < 2^64
    return a_hi * b_hi + (hl >> _U(32)) + (cross >> _U(32))


def _rop(g1, g0, cp):
    """Schubfach's rop: g cp 2^-127 rounded to odd, for g = g1 2^63 + g0
    (g1 and g0 also as 32-bit halves) and cp < 2^59."""
    c = _halves(cp)
    x1 = _mulhi(g0[1], c)
    y1 = _mulhi(g1[1], c)
    y0 = g1[0] * cp  # the low 64 bits
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """(f, e) with f 10^e the shortest decimal of each normal double of
    ``bits`` (its magnitude), f < 10^17."""
    c = (bits & _U(_HIDDEN - 1)) | _U(_HIDDEN)
    q = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64) - 1075
    regular = (c != _U(_HIDDEN)) | (q == _Q_MIN)
    # floor(log10 2^q), or floor(log10 3/4 2^q) at a binade's bottom
    k = (q * 661_971_961_083 - np.where(regular, 0, 274_743_187_321)) >> 41
    row = k - _K_MIN
    g1, g0 = _G1[row], _G0[row]
    g1, g0 = (g1, _halves(g1)), (g0, _halves(g0))
    h = (q + _LOG2_POW10[row] + 2).astype(np.uint64)  # 1 to 4
    cb = c << _U(2)
    out = c & _U(1)  # an even significand owns its interval's ends
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - np.where(regular, _U(2), _U(1))) << h)
    vbr = _rop(g1, g0, (cb + _U(2)) << h)
    s = vb >> _U(2)  # at least c >= 2^52: 16 or 17 digits
    # one digit fewer: the multiples of ten next to s, if one alone is inside
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + out <= vbr
    shorter = upin != wpin
    # the same length: s or s + 1, whichever alone is inside, else the closer
    t = s + _U(1)
    uin = vbl + out <= s << _U(2)
    win = (t << _U(2)) + out <= vbr
    mid = (s + t) << _U(1)
    take_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0))))
    f = np.where(shorter, np.where(upin, sp10, tp10), np.where(take_s, s, t))
    return f, k


def _fill(bits, slots, mask):
    """Fill the slots and masks of the normal doubles ``bits``."""
    f, e = _shortest(bits)
    length = np.searchsorted(_POW10, f, side="right")  # 10^(len-1) <= f < 10^len
    f17 = (f * _POW10[_DIGITS - length]).astype(np.int64)
    decpt = e + length  # the value is 0.d1d2... 10^decpt
    # padded[:, 1:18] holds the 17 digits as ASCII: the lead digit, then four
    # groups of four from a table; a '0' on each side, then the point
    padded = np.empty((len(f), _PADDED), dtype=np.uint8)
    lead, rest = np.divmod(f17, 10**16)
    high, low = np.divmod(rest, 10**8)
    groups = np.empty((len(f), 4), dtype=np.int64)
    groups[:, 0], groups[:, 1] = np.divmod(high, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(low, 10**4)
    padded[:, 1] = lead + ord("0")
    padded[:, 2:_DIGITS + 1] = _GROUP_TEXT[groups].view(np.uint8).reshape(len(f), 16)
    padded[:, 0] = padded[:, _DIGITS + 1] = ord("0")
    padded[:, _DIGITS + 2] = ord(".")
    # significant digits: 17 less the trailing zeros
    n = _DIGITS - np.argmax(padded[:, _DIGITS:0:-1] != ord("0"), axis=1)

    sci = (decpt <= -4) | (decpt > 16)
    small = ~sci & (decpt <= 0)  # 0.000ddd
    # the point goes after the first digit, after the integer part, or past
    # the used bytes for 0.000ddd, whose point is the prefix's
    point = np.where(sci, 1, np.where(small, _DIGITS, decpt))
    base = np.arange(len(f))[:, None] * _PADDED
    slots[:, _FIELD:_EXP] = padded.ravel()[base + np.take(_POINT_AT, point, axis=0)]
    x = decpt - 1  # the exponent of d.ddd
    slots[:, _EXP + 1:_SEP] = _EXPONENT_TEXT[x - _EXPONENT_MIN].view(np.uint8).reshape(-1, 4)
    # bytes used: d.ddd (d alone), ddd.ddd (ddd0.0 padded), ddd
    used = np.where(sci, n + (n > 1), np.where(small, n, np.maximum(n, decpt + 1) + 1))
    negative = (bits >> _U(63)).astype(np.int64)
    prefix = np.where(small, 2 - decpt, 0)
    exponent = sci * (1 + (np.abs(x) >= 100))
    np.take(_MASKS, ((negative * _FIELD + prefix) * (_DIGITS + 2) + used) * 3 + exponent,
            axis=0, out=mask)


def _slots(values):
    """(slots, mask): per value of the float64 array ``values``, its ``repr``
    in a ``SLOT``-byte slot and the mask of the bytes it uses; the last byte
    of each slot is the separator ',', always used."""
    bits = values.view(np.uint64)
    slots = np.empty((len(bits), SLOT), dtype=np.uint8)
    slots[:] = _TEMPLATE
    mask = np.empty((len(bits), SLOT), dtype=bool)
    exponent = (bits >> _U(52)) & _U(0x7FF)
    normal = (exponent != _U(0)) & (exponent != _U(0x7FF))
    for start in range(0, len(bits), BLOCK):
        block = slice(start, start + BLOCK)
        # the kernel takes normal doubles only: 1.0 stands in for the others
        _fill(np.where(normal[block], bits[block], _ONE), slots[block], mask[block])
    for i in np.flatnonzero(~normal).tolist():  # zeros, subnormals, inf, NaN
        text = repr(float(values[i])).encode()
        slots[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        mask[i, :_SEP] = np.arange(_SEP) < len(text)
    return slots, mask


def csv_blocks(columns):
    """The CSV rows of equal-length 1-D float64 ``columns``, one ``bytes``
    per block of rows: each field the ``repr`` of its value, ``,`` between
    fields and ``\\n`` after the last.  Each column's distinct bit patterns
    (0.0 and -0.0 apart) are rendered once, all columns' in one call."""
    distinct, inverse, offset = [], [], 0
    for col in columns:
        bits, where = np.unique(col.view(np.int64), return_inverse=True)
        distinct.append(bits)
        inverse.append(where + offset)
        offset += len(bits)
    slots, mask = _slots(np.concatenate(distinct).view(np.float64))
    slots[offset - len(distinct[-1]):, _SEP] = ord("\n")  # the last column's end each row
    rows = np.stack(inverse, axis=1)
    for start in range(0, len(rows), BLOCK):
        at = rows[start:start + BLOCK]
        yield np.take(slots, at, axis=0)[np.take(mask, at, axis=0)].tobytes()
