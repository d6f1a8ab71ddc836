"""Output writers: report CSV, time-series CSV, structured-grid snapshots.

Numbers are printed with 6 significant digits, switching to scientific
notation below 1e-3; undefined cells stay empty.  Snapshots use the
legacy structured-points text format so any standard viewer can open
them without bindings, on every node of the box: `mesh.extend_nodal`
adds the boundary values or the periodic wrap.  Their point data is
printed byte for byte as Python's `repr` prints each value: the
shortest digits that read back to the same double, of those the ones
closest to it (ties to even), positional from 1e-4 up to 1e16 with `.0`
on integral values and `d.ddde±XX` outside, with `-0.0`, `inf`, `-inf`
and `nan`.  A numpy kernel prints a whole block at once; no value goes
through Python on its own.

Every file goes out through one helper that writes blocks of text in
turn.  A snapshot's point data is streamed: the values are read
x-fastest straight from the field in blocks of a few thousand, and
each block's text is written before the next one is formed, so writing
one holds the full-grid field and one block's text and temporaries,
never the whole file's text or an x-fastest copy of the field.
"""

from array import array
from itertools import chain
from pathlib import Path

import numpy as np

from .mesh import extend_nodal

REPORT_HEADER = "nt,resolution,err_l2,cr_l2,err_h1,cr_h1,sec_per_step,growth"


def format_number(x):
    """6 significant digits, scientific below 1e-3, empty for None."""
    if x is None:
        return ""
    x = float(x)
    if x == 0.0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.5e}"
    return f"{x:.6g}"


# values per block of snapshot point data.  The buffered iterator hands
# out whole x-rows: 1799 values at 257 x 129, 2015 at 65^3 and 1089 at
# 33^3.  The kernel's temporaries take about 210 bytes per value, and
# its fixed cost of about a hundred numpy calls per block made blocks
# of 1024 about 1.2 to 1.5 times slower than these
_BLOCK_VALUES = 2048


def _write_lines(texts, path):
    """Write blocks of text, each ended by a newline, to path, creating
    its parent directories when the open finds them missing.  Each
    block's text is formed and written before the next block is read."""
    path = Path(path)
    try:
        out = path.open("w", encoding="utf-8", newline="\n")
    except FileNotFoundError:
        # only here: mkdir on a directory that exists raises and catches
        # FileExistsError, which costs more than the open
        path.parent.mkdir(parents=True, exist_ok=True)
        out = path.open("w", encoding="utf-8", newline="\n")
    with out:
        for text in texts:
            out.write(text + "\n")


# Shortest digits (Giulietti, "The Schubfach way to render doubles",
# 2020).  A finite positive double is c * 2^q; the reals that read back
# to it form an interval of width 2^q (3/4 of that at a power of two
# above the smallest normal binade), closed when c is even.  With
# k = floor(log10(width)) the width is 1 to 10 units of 10^k, so the
# interval holds at most one multiple of 10^(k+1) and at least one of
# 10^k: the digits are that multiple of 10^(k+1) when there is one,
# else the multiple of 10^k closest to the value, ties to even.  The
# value and the interval's ends, times 4 / 10^k, are rounded to odd
# from products of 4c * 2^h with g, the 126-bit ceiling of 10^-k scaled
# by a power of two, which keeps every comparison exact.

_M32 = np.uint64(0xFFFFFFFF)
_M52 = np.uint64((1 << 52) - 1)
_M63 = np.uint64((1 << 63) - 1)
_KMIN = -324  # k of the smallest subnormal
_KMAX = 292  # k of the largest finite binade


def _power_tables():
    """Per row 2 * biased exponent + [asymmetric interval]: k - _KMIN
    and h; per k - _KMIN: g's high 63 bits g1 and its 32-bit limbs, and
    the 32-bit limbs of its low 63 bits.  Built from exact integers in
    Python: importing runs no numpy loop, so a run that writes no
    snapshot keeps its resident memory."""
    tens = [1]
    while len(tens) <= -_KMIN:
        tens.append(10 * tens[-1])
    # floor(log2(10^-k)); 10^k is no power of two for k > 0
    e2 = [tens[-j].bit_length() - 1 if j <= 0 else -tens[j].bit_length()
          for j in range(_KMIN, _KMAX + 1)]
    ks, hs = array("q"), array("q")
    for row in range(4094):
        q = max(row // 2, 1) - 1075
        # floor(log10(2^q)), or floor(log10(3/4 * 2^q)) on odd rows;
        # exact for |q| < 5e6
        k = ((q * 661971961083 - row % 2 * 274743187321) >> 41) - _KMIN
        ks.append(k)
        hs.append(q + e2[k] + 2)
    powers = array("Q")
    for j, e in enumerate(e2, _KMIN):
        g = (tens[max(-j, 0)] << max(125 - e, 0)) // (
            tens[max(j, 0)] << max(e - 125, 0)) + 1
        powers.extend([g >> 63, g >> 95, g >> 63 & 0xFFFFFFFF,
                       g >> 32 & 0x7FFFFFFF, g & 0xFFFFFFFF])
    exponents = np.array([np.frombuffer(ks, dtype=np.int64),
                          np.frombuffer(hs, dtype=np.int64)])
    powers = np.frombuffer(powers, dtype=np.uint64).reshape(-1, 5).T.copy()
    for table in (exponents, powers):
        table.flags.writeable = False
    return exponents, powers


_EXPONENTS, _POWERS = _power_tables()
# whether s = vb >> 2 is nearer to the value than s + 1, by the low three
# bits of vb, 4 / 10^k times the value rounded to odd; an exact half
# goes to even s
_NEARER_S = np.array([1, 1, 1, 0, 1, 1, 0, 0], dtype=bool)


def _add_high_product(acc, ah, al, b, t, w):
    """acc += the high 64 bits of (ah * 2^32 + al) * b, from products of
    32-bit halves; t and w are work arrays."""
    np.bitwise_and(b, _M32, out=w)
    np.multiply(al, w, out=t)
    t >>= np.uint64(32)
    w *= ah
    t += w
    np.right_shift(t, np.uint64(32), out=w)
    acc += w
    t &= _M32
    np.right_shift(b, np.uint64(32), out=w)
    w *= al
    t += w
    t >>= np.uint64(32)
    acc += t
    np.right_shift(b, np.uint64(32), out=w)
    w *= ah
    acc += w


def _round_to_odd(g, cp):
    """g * cp / 2^127 rounded to odd, for g = g1 * 2^63 + g0 given as
    `_power_tables`' limbs and cp below 2^63, formed as Schubfach forms
    it: from g1 * cp and the high 64 bits of g0 * cp."""
    g1, g1h, g1l, g0h, g0l = g
    t, w = np.empty_like(cp), np.empty_like(cp)
    z = g1 * cp
    z >>= np.uint64(1)
    _add_high_product(z, g0h, g0l, cp, t, w)
    v = z >> np.uint64(63)
    _add_high_product(v, g1h, g1l, cp, t, w)
    z &= _M63
    z += _M63
    z >>= np.uint64(63)
    v |= z
    return v


def _shortest_digits(bits):
    """(f, k) with f * 10^k the shortest closest decimal of each finite
    positive double given by its bits; f < 10^17 may end in zeros."""
    row = bits >> np.uint64(52)
    c = bits & _M52
    asym = (c == 0) & (row > 1)
    c |= (row > 0).astype(np.uint64) << np.uint64(52)
    row <<= np.uint64(1)
    row += asym
    k = np.take(_EXPONENTS[0], row.view(np.int64))
    cp = np.stack([c, c, c])
    cp <<= np.uint64(2)
    cp[0] -= np.uint64(2) - asym
    cp[2] += np.uint64(2)
    cp <<= np.take(_EXPONENTS[1], row.view(np.int64)).view(np.uint64)
    odd = (c & np.uint64(1)).astype(bool)
    del row, c
    vbl, vb, vbr = _round_to_odd(np.take(_POWERS, k, axis=1), cp)
    del cp
    # s = vb >> 2 and s + 1 are the multiples of 10^k around the value,
    # tens and tens + 10 the multiples of 10^(k+1), all times 4 below;
    # the interval's ends move inside when it is open
    lo, hi = vbl + odd, vbr - odd
    s4 = vb & ~np.uint64(3)
    nearer_s = np.take(_NEARER_S, (vb & np.uint64(7)).view(np.int64))
    down = (lo <= s4) & ((hi < s4 + np.uint64(4)) | nearer_s)
    tens = vb // np.uint64(40)
    tens4 = tens * np.uint64(40)
    ten_up = tens4 + np.uint64(40) <= hi
    tens += ten_up
    tens *= np.uint64(10)
    f = np.where((lo <= tens4) != ten_up, tens, (s4 >> np.uint64(2)) + ~down)
    return f, k + _KMIN


# One value's text is cut out of a 56-byte row by a mask that depends
# on its layout alone.  The row holds "000" and the 17 digits twice, at
# 0-19 and at 24-43, four bytes at a time: the integer part is read from
# the first copy, the fraction from the second and the zeros of "0.000"
# from the second's "000".  Column 0 holds the sign, 1 the "0" of "0.",
# 20 the point, 44 the "0" of ".0", and 48-55 the exponent and the
# newline, written as one 8-byte word.
_ROW = np.frombuffer(b" " * 20 + b"." + b" " * 23 + b"0" + b" " * 11,
                     dtype=np.uint8)
_TEN_POWERS = np.array([10 ** i for i in range(18)], dtype=np.int64)
# the four digits of 0-9999 as 4-byte words, from the pairs 00-99
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)),
                       dtype=np.uint8).reshape(100, 2)
_QUADS = np.empty((100, 100, 4), dtype=np.uint8)
_QUADS[..., :2] = _PAIRS[:, None]
_QUADS[..., 2:] = _PAIRS
_QUADS = _QUADS.view(np.uint32).ravel()
# per decimal point position + 323 (5e-324's is -323, the largest 309):
# the exponent text and the layout kind times 36; kinds 0-19 are
# positional with the point after digit kind - 3, 20 and 21 exponential
# with 2 and 3 exponent digits, 22 inf and nan
_POINTS = range(-323, 310)
_EXPONENT_TEXT = np.frombuffer(
    b"".join((b"e%+03d" % (p - 1)).ljust(7) + b"\n" for p in _POINTS),
    dtype=np.uint64)
_KINDS = np.array([36 * (p + 3 if -3 <= p <= 16 else 20 + (abs(p - 1) > 99))
                   for p in _POINTS])


def _significant_lengths():
    """Per 4-digit chunk j of digits 1-16 (rows) and chunk value: the
    length of the 17 digits up to the chunk's last nonzero digit, 1 for
    an all-zero chunk (the first digit is never zero)."""
    zeros = bytearray(10000)  # trailing zeros of each nonzero chunk
    for count, step in enumerate((10, 100, 1000), 1):
        zeros[::step] = bytes([count]) * (10000 // step)
    zeros[0] = 4
    # chunk j holds digits 4j + 1 to 4j + 4
    lengths = b"".join(
        zeros.translate(bytes([4 * j + 5 - z for z in range(4)] + [1] * 252))
        for j in range(4))
    return np.frombuffer(lengths, dtype=np.int8)


def _keep_masks():
    """The columns of `_ROW` kept per layout key: kind * 36 + 2n + sign,
    n the number of significant digits."""
    keep = np.zeros((23, 18, 2, 56), dtype=bool)
    keep[..., 55] = True
    keep[..., 1, 0] = True
    for n in range(1, 18):
        for point in range(-3, 17):
            row = keep[point + 3, n]
            row[:, 20] = True
            if point <= 0:
                row[:, 1] = True
                row[:, 24:24 - point] = True
                row[:, 27:27 + n] = True
            else:
                row[:, 3:3 + point] = True
                row[:, 27 + point:27 + n] = True
                row[:, 44] = point >= n
        for wide in (0, 1):
            row = keep[20 + wide, n]
            row[:, 3] = True
            row[:, 20] = n > 1
            row[:, 28:27 + n] = True
            row[:, 48:52 + wide] = True
        keep[22, n, :, 3:6] = True
    keep = keep.reshape(-1, 56)
    keep.flags.writeable = False
    return keep


_LENGTHS = _significant_lengths()
_CHUNK_OFFSETS = 10000 * np.arange(4)[:, None]
_KEEP = _keep_masks()


def _format_block(values):
    """The text of "\\n".join(map(repr, values)) for a 1-D float64 array,
    formed with no Python call per value."""
    bits = values.view(np.uint64)
    finite = np.isfinite(values)
    plain = finite & (values != 0)
    f, k = _shortest_digits(np.where(plain, bits & _M63, np.uint64(1) << 62))
    f = f.view(np.int64)
    digits = np.searchsorted(_TEN_POWERS, f, side="right")
    # the value is 0.d1d2... times 10^point; zero prints as "0.0"
    point = np.where(plain, k + digits, 1)
    f *= np.take(_TEN_POWERS, 17 - digits)
    f *= plain
    del k, digits
    chunks = np.empty((5, values.size), dtype=np.int64)
    np.divmod(f, 10 ** 16, out=(chunks[0], f))
    high, low = np.divmod(f, 10 ** 8)
    np.divmod(high, 10 ** 4, out=(chunks[1], chunks[2]))
    np.divmod(low, 10 ** 4, out=(chunks[3], chunks[4]))
    del f, high, low
    n = np.take(_LENGTHS, chunks[1:] + _CHUNK_OFFSETS).max(axis=0)

    rows = np.empty((values.size, 56), dtype=np.uint8)
    rows[:] = _ROW
    quads = rows.view(np.uint32)
    quads[:, :5] = quads[:, 6:11] = np.take(_QUADS, chunks).T
    del chunks
    rows[:, 0] = ord("-")
    point += 323
    rows.view(np.uint64)[:, 6] = np.take(_EXPONENT_TEXT, point)
    key = np.take(_KINDS, point)
    key += 2 * n
    key += (bits >> np.uint64(63)).view(np.int64)
    if not finite.all():
        special = values[~finite]
        nan = np.isnan(special)
        key[~finite] = 22 * 36 + 2 + (np.signbit(special) & ~nan)
        rows[~finite, 3:6] = np.where(nan[:, None],
                                      np.frombuffer(b"nan", np.uint8),
                                      np.frombuffer(b"inf", np.uint8))
    return rows[np.take(_KEEP, key, axis=0)][:-1].tobytes().decode("ascii")


def _write_csv(header, rows, path):
    """Write the header line and one line of comma-joined cells per row."""
    _write_lines(["\n".join([header, *map(",".join, rows)])], path)


def write_report_csv(rows, path):
    """Write study rows as CSV (one line per ladder rung)."""
    _write_csv(REPORT_HEADER, (
        [str(row.nt), row.resolution, *map(format_number, (
            row.err_l2, row.rate_l2, row.err_h1, row.rate_h1,
            row.sec_per_step, row.growth))] for row in rows), path)


def write_series_csv(rows, path):
    """Write (t, sup_norm, energy) observer rows as CSV."""
    _write_csv("t,sup_norm,energy", (map(format_number, row) for row in rows),
               path)


def write_snapshot(U, mesh, t, path):
    """Write one scalar field as a legacy structured-points file.

    The field is written on the full grid of `mesh.extend_nodal`, nodes
    0..N along every axis, so it spans the whole box: Dirichlet fields
    with their boundary values, periodic ones with node N wrapped from
    node 0.  Point data runs x-fastest per the format's convention.
    """
    full = extend_nodal(U, mesh, t)
    dims = [1, 1, 1]
    origin = [0.0, 0.0, 0.0]
    spacing = [1.0, 1.0, 1.0]
    for a, p in enumerate(mesh.partitions):
        dims[a] = full.shape[a]
        origin[a] = p.a
        spacing[a] = p.h
    header = [
        "# vtk DataFile Version 3.0",
        f"expfem snapshot t={float(t)!r}",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        "DIMENSIONS {} {} {}".format(*dims),
        "ORIGIN {} {} {}".format(*(repr(float(v)) for v in origin)),
        "SPACING {} {} {}".format(*(repr(float(v)) for v in spacing)),
        f"POINT_DATA {full.size}",
        "SCALARS u double",
        "LOOKUP_TABLE default",
    ]
    # Fortran order runs the first axis fastest, x-fastest; the buffered
    # iterator gathers each block into its own small buffer
    blocks = np.nditer(full, flags=["external_loop", "buffered"], order="F",
                       buffersize=_BLOCK_VALUES)
    _write_lines(chain(["\n".join(header)], map(_format_block, blocks)), path)
