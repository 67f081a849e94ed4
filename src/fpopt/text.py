"""Exact decimal text of float arrays, written in bulk.

Two spellings of a double share one exact product and one set of lookup
tables: ``'%.17g'`` for the CSV columns of :func:`write_columns`, and
Python's ``repr``, the shortest digits that read back to the same double,
for the float arrays of JSON documents (:func:`json_arrays`).  Both find
the 17-digit decimal scaling of each value exactly, pick its digits without
a Python call per value, and assemble the bytes from tables.  Only values
within rounding of a tie or of a rounding interval's end, and values beyond
the tables' range, are spelled by one Python call each.  The tables are
built on first use, so importing the package costs nothing here.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

#: Values per call of the formatters.  Their temporaries, some 250 bytes a
#: value, then stay within about a MiB, which the allocator reuses from
#: call to call: at 2**16 values each CSV file paid some 700 page faults.
#: Half as many values a call made a d = 64 certificate 10 % slower.
_FORMAT_CHUNK = 2**12

#: Decimal exponents ``X`` (of ``|x| = d.ddd 10**X``) that the formatters
#: tabulate; values from 1e-250 to 1e250 fall well inside.
_EXPONENT_RANGE = 252

#: A scaled value this close to a rounding tie or to the end of its
#: rounding interval may be on either side of it (the exact product is
#: good to about 1e-14), so it is spelled by Python instead.
_MARGIN = 1e-6

#: 10**k for the k of :func:`_format_repr`.
_POWERS = 10 ** np.arange(18, dtype=np.int64)


def write_columns(target, header: str, *columns: np.ndarray) -> None:
    """Write ``header`` and one row per index of the equal-length
    ``columns``, to a path or an open text stream.

    Each value is written exactly as ``'%.17g' % float(value)`` writes it,
    byte for byte: 17 significant digits, trailing zeros after the point
    stripped, the exponent form when the decimal exponent is below -4 or
    above 16, and ``0``, ``-0``, ``inf``, ``-inf`` and ``nan`` spelled as
    Python spells them.  Values are separated by commas, rows end in
    ``\\n``.  The text comes from :func:`_format_17g`, in chunks of whole
    rows of about ``_FORMAT_CHUNK`` values.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    step = max(1, _FORMAT_CHUNK // table.shape[1])
    row = [_tail(b",")] * (table.shape[1] - 1) + [_tail(b"\n")]
    separators = np.tile(np.array(row, np.uint64), step)
    chunks = (_format_17g(chunk.ravel(), separators[:chunk.size])
              for chunk in (table[k:k + step] for k in range(0, len(table), step)))
    if hasattr(target, "write"):
        target.write(header + "\n")
        for chunk in chunks:
            target.write(chunk.decode("ascii"))
    else:
        with open(target, "wb") as handle:
            handle.write(header.encode() + b"\n")
            for chunk in chunks:
                handle.write(chunk)


def json_arrays(arrays) -> list:
    """The JSON text of each float array of one or two dimensions, equal
    byte for byte to ``json.dumps(a.tolist(), separators=(",", ":"))``.

    Each value is spelled as ``repr`` spells it: the shortest digits that
    read back to the same double, the closest such when several fit; the
    exponent form when the decimal exponent is below -4 or at least 16;
    ``.0`` after an integral value; and ``0.0``, ``-0.0``, ``NaN``,
    ``Infinity`` and ``-Infinity`` as :mod:`json` spells them.  All the
    values of all ``arrays`` go through :func:`_format_repr` together, so a
    document pays its per-call cost once, not once per array.
    """
    full = [a for a in arrays if a.size]
    bodies = iter(())
    if full:
        values = np.concatenate([a.ravel() for a in full])
        separators = np.concatenate([_json_separators(a.shape) for a in full])
        text = b"".join(_format_repr(values[k:k + _FORMAT_CHUNK], separators[k:k + _FORMAT_CHUNK])
                        for k in range(0, values.size, _FORMAT_CHUNK))
        bodies = iter(text.decode("ascii").split("\n"))
    return ["[" * a.ndim + next(bodies) if a.size else "[" + ",".join(["[]"] * len(a)) + "]"
            for a in arrays]


def _json_separators(shape) -> np.ndarray:
    """What follows each value of a C-ordered array of ``shape`` in its JSON
    text; the last value's closing brackets end in ``\\n``, which
    :func:`json_arrays` splits the joined text of several arrays at."""
    separators = np.full(shape, _tail(b","), np.uint64)
    if len(shape) == 2:
        separators[:, -1] = _tail(b"],[")
    separators.flat[-1] = _tail(b"]" * len(shape) + b"\n")
    return separators.ravel()


def _tail(separator: bytes) -> int:
    """``separator`` at the top end of a little-endian word: the last bytes
    of a value's slot (see :func:`_text`)."""
    return int.from_bytes(separator.rjust(8, b"\0"), "little")


def _words(strings, width: int) -> np.ndarray:
    """NUL-padded byte strings as rows of ``width`` little-endian uint64s."""
    return np.array(strings, dtype=f"S{8 * width}").view("<u8").reshape(-1, width)


class _Layout(NamedTuple):
    """How one spelling places the digits, by decimal exponent X at index
    X + _EXPONENT_RANGE (prefix: plus len(suffix) for a negative sign)."""
    prefix: np.ndarray      # the sign, and '0.000' for -4 <= X < 0
    suffix: np.ndarray      # the exponent, empty in the fixed form
    integer: np.ndarray     # the last digit never stripped (-1: none)
    point: np.ndarray       # the digit the point follows (17: no point)
    special: np.ndarray     # rows of three words: 0, -0, inf, -inf and nan


class _DecimalTables(NamedTuple):
    # by decimal exponent X, at index X + _EXPONENT_RANGE
    scale: np.ndarray       # 10**(16 - X), rounded
    scale_top: np.ndarray   # its top 26 bits, for Dekker's exact product
    scale_low: np.ndarray   # scale - scale_top
    scale_rest: np.ndarray  # 10**(16 - X) - scale, rounded
    # by four-digit group
    quads: np.ndarray       # its ASCII
    zeros: np.ndarray       # its trailing zeros (4 for 0000)
    # by digit j, one row per digit word; column 17 is all digits, no point
    upto: np.ndarray        # masks the bytes up to digit j
    dot: np.ndarray         # '.' in the byte after digit j
    g17: _Layout            # '%.17g': fixed form for -4 <= X <= 16
    repr: _Layout           # repr: fixed form for -4 <= X <= 15, and '.0'


def _layout(exponents, top: int, fraction: int, special) -> _Layout:
    """The layout whose fixed form runs from X = -4 to ``top`` and keeps
    ``fraction`` digits after the point of an integral value."""
    fixed = [-4 <= x <= top for x in exponents]
    prefix = [sign + (b"0." + b"0" * (-x - 1) if x < 0 and f else b"")
              for sign in (b"", b"-") for x, f in zip(exponents, fixed)]
    suffix = [b"" if f else b"e%+03d" % x for x, f in zip(exponents, fixed)]
    integer = [x + fraction if f and x >= 0 else -1 for x, f in zip(exponents, fixed)]
    point = [(x if 0 <= x < 16 else 17) if f else 0 for x, f in zip(exponents, fixed)]
    return _Layout(prefix=_words(prefix, 1)[:, 0], suffix=_words(suffix, 1)[:, 0],
                   integer=np.array(integer), point=np.array(point),
                   special=_words(special, 3))


@functools.lru_cache(maxsize=None)
def _decimal_tables() -> _DecimalTables:
    """Lookup tables of :func:`_text`, built on first use.

    The scale ``10**(16 - X)`` is held as a double-double ``scale +
    scale_rest`` whose parts come from Python integers: ``float`` of an
    integer and the true division of two integers both round correctly.
    """
    exponents = range(-_EXPONENT_RANGE, _EXPONENT_RANGE + 1)
    scale, rest = np.empty(len(exponents)), np.empty(len(exponents))
    for i, x in enumerate(exponents):
        if x <= 16:
            scale[i] = float(10**(16 - x))
            rest[i] = float(10**(16 - x) - int(scale[i]))
        else:
            scale[i] = 1 / 10**(x - 16)
            num, den = scale[i].as_integer_ratio()
            rest[i] = (den - num * 10**(x - 16)) / (den * 10**(x - 16))
    split = 134217729.0 * scale
    top = split - (split - scale)
    groups = [b"%04d" % g for g in range(10**4)]
    # digit j of the 17 sits at byte 6 + j of the three digit words
    upto = _words([b"\xff" * (7 + j) for j in range(17)] + [b"\xff" * 24], 3)
    dot = _words([b"\0" * (7 + j) + b"." for j in range(17)] + [b""], 3)
    return _DecimalTables(
        scale=scale, scale_top=top, scale_low=scale - top, scale_rest=rest,
        quads=np.array(groups).view("<u4").astype(np.uint64),
        zeros=np.array([len(g) - len(g.rstrip(b"0")) for g in groups]),
        upto=np.ascontiguousarray(upto.T), dot=np.ascontiguousarray(dot.T),
        g17=_layout(exponents, 16, 0, [b"0", b"-0", b"inf", b"-inf", b"nan"]),
        repr=_layout(exponents, 15, 1, [b"0.0", b"-0.0", b"Infinity", b"-Infinity", b"NaN"]))


def _scaled_floor(a: np.ndarray, at: np.ndarray):
    """Floor and fractional part of ``a * 10**(16 - X)``, ``X`` at index
    ``at`` of the tables, to about 1e-14.

    The product with the double-double ``10**(16 - X)`` is exact in its
    leading term (Dekker's two-product) and leaves a relative error near
    2**-105 from the trailing one, so the fraction decides the rounding to
    an integer correctly unless it is within 1e-6 of one half.
    """
    tables = _decimal_tables()
    b, b_top, b_low = tables.scale[at], tables.scale_top[at], tables.scale_low[at]
    p = a * b
    split = a * 134217729.0
    a_top = split - (split - a)
    a_low = a - a_top
    rest = ((a_top * b_top - p) + a_top * b_low + a_low * b_top) + a_low * b_low
    rest += a * tables.scale_rest[at]
    whole = np.floor(p)
    rest += p - whole
    step = np.floor(rest)
    return whole.astype(np.int64) + step.astype(np.int64), rest - step


def _scaled(values: np.ndarray):
    """``(a, fast, at, floor, frac)``: ``a = |values|``, ``fast`` marking
    the values inside the tables' range (the others are set to 1 in ``a``),
    and the decimal exponent ``X`` (at index ``at``) with the floor and
    fraction of ``a * 10**(16 - X)``, the floor in ``[1e16, 1e17)``.  ``X``
    comes from ``log10`` and is moved by one where the floor says so."""
    a = np.abs(values)
    fast = (a >= 1e-250) & (a < 1e250)
    a[~fast] = 1.0
    at = np.floor(np.log10(a)).astype(np.int64) + _EXPONENT_RANGE
    floor, frac = _scaled_floor(a, at)
    off = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
    if off.size:
        at[off] += np.where(floor[off] < 10**16, -1, 1)
        floor[off], frac[off] = _scaled_floor(a[off], at[off])
    fast &= (floor >= 10**16) & (floor < 10**17)
    return a, fast, at, floor, frac


def _format_17g(values: np.ndarray, separators: np.ndarray) -> bytes:
    """``'%.17g'`` of each of ``values``, each followed by its separator.

    The 17 digits are ``round(|x| 10**(16 - X))``.  Values within 1e-6 of
    a rounding tie take the ``%`` call.
    """
    _, fast, at, floor, frac = _scaled(values)
    fast &= np.abs(frac - 0.5) >= _MARGIN
    return _text(values, floor + (frac > 0.5), at, fast, _decimal_tables().g17,
                 separators, "%.17g".__mod__)


def _format_repr(values: np.ndarray, separators: np.ndarray) -> bytes:
    """``repr`` of each of ``values``, each followed by its separator.

    With ``S = |x| 10**(16 - X)``, the decimals that read back to ``x`` are
    those inside ``(S - h_lo, S + h_hi)``, where the half-gaps to the
    neighbouring doubles are equal except at a power of two, whose lower
    neighbour is twice as close.  The interval holds between 1 and 23
    integers, the last of them ``top``; the shortest digits are those of
    the largest ``10**k`` with a multiple inside, which is ``top`` less its
    last ``k`` digits, so ``k`` is 2 plus the trailing zeros of ``top //
    100`` if ``top % 100`` is below the count of integers, else 1 or 0 by
    ``top % 10``.  Of the multiples of ``10**k`` just under and over ``S``
    the digits are the one inside, the closer if both are.  A value takes
    the ``repr`` call when an end of its interval lies within ``_MARGIN``
    of an integer (the ends count only for even mantissas), or when the
    two multiples are both inside and within ``_MARGIN`` of a tie.
    """
    tables = _decimal_tables()
    a, fast, at, floor, frac = _scaled(values)
    mantissa, exponent = np.frexp(a)
    half_up = np.ldexp(tables.scale[at], exponent - 54)   # half an ulp, scaled
    half_down = np.where(mantissa == 0.5, 0.5 * half_up, half_up)
    # the integers strictly inside the interval are floor + (lowest .. highest)
    low_end, high_end = frac - half_down, frac + half_up
    lowest, highest = np.floor(low_end) + 1, np.floor(high_end)
    on_end = ((np.abs(np.round(low_end) - low_end) < _MARGIN)
              | (np.abs(np.round(high_end) - high_end) < _MARGIN))
    count = (highest - lowest).astype(np.int64) + 1
    top = floor + highest.astype(np.int64)
    hundreds = top // 100
    ones = top - 100 * hundreds
    k = (ones - ones // 10 * 10 < count).astype(np.int64)
    more = np.flatnonzero(ones < count)
    if more.size:
        k[more] = 2 + _trailing_zeros(hundreds[more])
    step = _POWERS[k]
    r = floor % step
    below, above = r + frac, (step - r) - frac
    low_in, high_in = r <= -lowest, step - r <= highest
    both = low_in & high_in
    tie = both & (np.abs(below - above) < _MARGIN)
    digits = floor - r + step * (high_in & ~(both & (below < above)))
    return _text(values, digits, at, fast & ~on_end & ~tie, tables.repr, separators,
                 float.__repr__)


def _trailing_zeros(n: np.ndarray) -> np.ndarray:
    """The trailing decimal zeros of the positive integers ``n`` below 1e16."""
    zeros = _decimal_tables().zeros
    high = n // 10**8
    low = n - high * 10**8
    groups = (low // 10**4, high - high // 10**4 * 10**4, high // 10**4)
    count = zeros[low - groups[0] * 10**4]
    for group, full in zip(groups, (4, 8, 12)):
        count += zeros[group] * (count == full)
    return count


def _text(values, digits, at, fast, layout: _Layout, separators, spell) -> bytes:
    """The text of ``values``, each followed by its separator (up to three
    bytes), from their 17-digit integers ``digits`` in ``[1e16, 1e17]`` at
    the decimal exponents of index ``at``.

    ``1e17``, a rounding carry, is ``1e16`` at the next exponent.  Each
    value gets a slot of four little-endian words: the sign or ``0.000``
    prefix in bytes 0-5, the digits from byte 6 with the trailing zeros of
    the fraction blanked and a point shifted in after the integer digits,
    and in the last word the exponent and the separator.  Removing the NUL
    bytes leaves the text.  Zeros, infinities and nan come from the
    layout's table, the other values not ``fast`` from one ``spell`` call
    each.
    """
    tables = _decimal_tables()
    carry = digits == 10**17
    digits = np.where(carry, 10**16, digits)
    at = at + carry
    high = digits // 10**8
    low = digits - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    q1, q3 = high // 10**4, low // 10**4
    q2, q4 = high - q1 * 10**4, low - q3 * 10**4
    last = 16 - tables.zeros[q4]   # the last nonzero digit
    for q, blank in ((q3, 12), (q2, 8), (q1, 4)):
        last -= tables.zeros[q] * (last == blank)
    keep = np.maximum(last, layout.integer[at])
    point = layout.point[at]
    point = np.where(keep > point, point, 17)
    g1, g3 = tables.quads[q1], tables.quads[q3]
    w0 = layout.prefix[np.signbit(values) * len(layout.suffix) + at]
    w0 |= (lead.astype(np.uint64) + ord("0")) << 48 | g1 << 56
    w1 = g1 >> 8 | tables.quads[q2] << 24 | g3 << 56
    w2 = g3 >> 8 | tables.quads[q4] << 24
    w0 &= tables.upto[0][keep]
    w1 &= tables.upto[1][keep]
    w2 &= tables.upto[2][keep]
    # the digits up to the point stay, the rest move up one byte
    low0 = w0 & tables.upto[0][point]
    low1 = w1 & tables.upto[1][point]
    low2 = w2 & tables.upto[2][point]
    w0 ^= low0
    w1 ^= low1
    w2 ^= low2
    out = np.empty((len(values), 4), "<u8")
    out[:, 0] = low0 | w0 << 8 | tables.dot[0][point]
    out[:, 1] = low1 | w1 << 8 | w0 >> 56 | tables.dot[1][point]
    out[:, 2] = low2 | w2 << 8 | w1 >> 56 | tables.dot[2][point]
    out[:, 3] = layout.suffix[at] | separators

    if not fast.all():
        slow = np.flatnonzero(~fast)
        v = values[slow]
        out[slow, :3] = 0
        special = ~np.isfinite(v) | (v == 0)
        kind = np.where(np.isnan(v), 4, np.where(v == 0, 0, 2) + np.signbit(v))
        out[slow[special], :3] = layout.special[kind[special]]
        rest = slow[~special]
        if rest.size:
            out[rest, :3] = _words([spell(v) for v in values[rest].tolist()], 3)
        out[slow, 3] = separators[slow]
    return out.tobytes().translate(None, b"\0")
