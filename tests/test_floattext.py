"""The CSV float text against ``repr``, its reference: a seeded corpus of
random bit patterns and every edge class of the shortest-digit search and
of the layout, each value with its negative."""

import math
import struct
import sys

import numpy as np

from pspurity.floattext import BLOCK, csv_blocks


def edge_values() -> list[float]:
    """Each power of two and of ten with its neighbours, each binade's
    bottom (significand 2**52) and top, the ends of the normal range, both
    notation switches and the values whose digits are hard to choose."""
    centres = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    centres += [float(f"1e{e}") for e in range(-323, 309)]
    centres += [1e-4, 1e-5, 1e15, 1e16, 9999999999999998.0, 1e22, 1e23,
                sys.float_info.min, sys.float_info.max]
    values = []
    for x in centres:
        values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    for exponent in range(1, 2047):
        for significand in (0, 2**52 - 1):  # bits below the implicit 2**52
            values.append(struct.unpack("<d", struct.pack("<Q", exponent << 52 | significand))[0])
    return values


def rendered(values: np.ndarray) -> list[bytes]:
    """One field per value, as a one-column CSV writes it."""
    text = b"".join(csv_blocks([values]))
    assert text.endswith(b"\n")
    return text[:-1].split(b"\n")


def assert_fields_are_repr(values: np.ndarray):
    fields = rendered(values)
    assert len(fields) == len(values)
    for field, value in zip(fields, values.tolist()):
        assert field == repr(value).encode(), (value, field)
        if math.isfinite(value):
            assert struct.pack("<d", float(field)) == struct.pack("<d", value)


def test_random_bit_patterns_match_repr():
    """200,000 random bit patterns, across many blocks: almost all normal,
    with a few zeros' neighbours, subnormals, infinities and NaNs."""
    bits = np.random.default_rng(20261021).integers(0, 2**64, size=200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert len(values) > 40 * BLOCK
    assert_fields_are_repr(values)


def test_edge_values_match_repr():
    values = np.array(edge_values())
    assert_fields_are_repr(np.concatenate([values, -values]))


def test_decimal_ranges_match_repr():
    """Both notations and the point at every place: magnitudes from 1e-7 to
    1e18, short decimals, integers past 2**53 and single-precision values."""
    rng = np.random.default_rng(7)
    spread = 10.0 ** rng.uniform(-7.0, 18.0, 20_000)
    short = [round(x, d) for x, d in zip(rng.uniform(-1e4, 1e4, 20_000).tolist(),
                                         rng.integers(0, 8, 20_000).tolist())]
    integers = rng.integers(-2**60, 2**60, 20_000).astype(np.float64)
    single = rng.standard_normal(20_000).astype(np.float32).astype(np.float64)
    values = np.concatenate([spread, short, integers, single])
    assert_fields_are_repr(np.concatenate([values, -values]))
