"""CSV text of float64 values, byte for byte what `repr(float(v))` writes.

Python's repr writes the shortest decimal that reads back to the same
float64, the closest such one to its exact value.  Ryū (U. Adams, "Ryū: fast
float-to-string conversion", PLDI 2018, https://doi.org/10.1145/3192366.3192369)
finds the same digits with fixed-width integer arithmetic, so here it runs
over whole arrays in `uint64`, with 64x64 -> 128-bit products built from
32-bit limbs.  The digits are laid out by repr's rule: positional when the
decimal exponent is from -4 to 15 (`0.0001`, `12.5`, `123.0`), otherwise
`d.ddde±XX` with at least two exponent digits (`1e-05`, `1e+16`).

Each value gets a cell of WIDTH bytes: the digits before the point,
right-aligned up to a fixed point column, then the point, then the digits
after it, left-aligned; a few bytes are then placed per value (sign,
exponent, separator, the point of `0.00123`).  The text of every value is
then one run of its cell, so one boolean selection over the cells of a
block of rows yields the CSV text, separators included.  Values on Ryū's
rare trailing-zero branch, values with |v| >= 2^50, subnormals and
non-finite values take repr one at a time.
"""

import functools

import numpy as np

# Most values per pass.  Each uint64 temporary then stays at or below 64 KiB,
# under glibc's 128 KiB mmap threshold, so it comes from the heap, not from a
# mapping of its own; the heap's top is still trimmed after a pass and
# faulted in again by the next (`_fill` peaks at ~500 KB).  On an 8-frame
# example3 block (24,576 values) passes of 8,192 took 570-600 ns a value, of
# 4,096 600-615 ns and of 2,048 ~780 ns (2-vCPU Xeon VM, NumPy 2.4).
CHUNK = 8192

# Largest biased exponent on the array path: |v| < 2^50.  Below it Ryū's
# binary exponent e2 is at most -5, so only its e2 < 0 branch is needed, with
# its table of 5^i, and no value has Ryū's vm or vp on a trailing-zero case
# other than the vr one tested below.
_MAX_EXP = 1072
_POW5_BITS = 125
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
# Half of the last digit dropped: 5 * 10^(k-1); nothing rounds at k = 0.
_HALF = np.array([2 ** 64 - 1] + [5 * 10 ** k for k in range(19)],
                 dtype=np.uint64)

# Cell layout.  The point column is fixed: up to 17 digits end just before
# it and up to 17 follow it; 6 bytes of exponent and separator follow those.
_POINT = 18
WIDTH = _POINT + 18 + 6


def _get(table, index):
    """table[index] for indices known to be in range; mode="clip" spares
    np.take the bounds check that buffers its output."""
    return np.take(table, index, mode="clip")


@functools.cache
def _tables():
    """Per-exponent Ryū constants, digit groups and cell ranges, built on
    first use (~0.3 ms), so `import dynosc` builds none of them."""
    exp = np.arange(_MAX_EXP + 1)
    e2 = np.maximum(exp, 1) - 1023 - 52 - 2           # Ryū's binary exponent
    q = ((-e2 * 732923) >> 20) - 1          # floor(log10(5^-e2)) - 1
    i = -e2 - q
    # 5^i cut to its top 125 bits, as four 32-bit limbs, for each i; and
    # half of it, rounded up, as two 64-bit words.
    pow5 = [1]
    for _ in range(i.max()):
        pow5.append(pow5[-1] * 5)
    cut = [p.bit_length() - _POW5_BITS for p in pow5]
    mul = [p >> c if c >= 0 else p << -c for p, c in zip(pow5, cut)]

    def words(ints, size):
        data = b"".join(m.to_bytes(16, "little") for m in ints)
        return np.frombuffer(data, size).reshape(len(ints), -1).T[:, i]

    limbs = words(mul, "<u4").astype(np.uint64)
    half = words([(m + 1) >> 1 for m in mul], "<u8")
    # vr = floor(4 m2 mul / 2^j), j = q - cut, is the 192-bit product
    # 2 m2 mul from bit 64 + shift on; vr is digits x 10^(q + e2).
    shift = (q - np.array(cut)[i] - 1 - 64).astype(np.uint64)
    # Ryū's vrIsTrailingZeros: 4 m2 has at least q trailing zero bits.
    zeros_mask = np.where(q < 63, (np.uint64(1) << q.astype(np.uint64))
                          - np.uint64(1), np.uint64(2 ** 64 - 1))
    # Point position of the binade's least value 2^e, floor(log10 2^e) + 1
    # (Ryū's log10Pow2 is exact here): a value of the binade has its point
    # there or one digit later.
    e = exp - 1023
    point = np.where(e >= 0, ((e * 78913) >> 18) + 1, -((-e * 78913) >> 18))
    # Four ASCII digits of each v < 10^4, first digit in the lowest byte.
    digit = np.arange(ord("0"), ord("9") + 1, dtype="<u4")
    quads = (digit[:, None, None, None] | digit[:, None, None] << 8
             | digit[:, None] << 16 | digit << 24).ravel()
    # keep[start * (WIDTH + 1) + end]: bytes start..end-1 of a cell.
    col = np.arange(WIDTH)
    keep = ((col >= np.arange(WIDTH + 1)[:, None, None])
            & (col < np.arange(WIDTH + 1)[None, :, None]))
    return {"limbs": limbs,
            "mul": (limbs[0] | limbs[1] << np.uint64(32),
                    limbs[2] | limbs[3] << np.uint64(32)), "half": half,
            "shift": shift, "unshift": np.uint64(64) - shift,
            "zeros_mask": zeros_mask, "point": point,
            "digits_below": point - (q + e2),
            "quads": quads, "keep": keep.reshape(-1, WIDTH)}


def _product(n, limbs):
    """The 192-bit product n * mul as (lo, mid, hi) uint64 words, for
    n < 2^54 and mul < 2^125 given by its four 32-bit limbs.  Each column
    of 32 bits is summed in place, so few temporaries are alive at once."""
    c0, c1, c2, c3 = limbs
    low, bits = np.uint64(0xFFFFFFFF), np.uint64(32)
    nl, nh = n & low, n >> bits
    k = nl * c0
    s = k >> bits
    lo = k & low
    k = nl * c1
    s += k & low
    s += nh * c0
    lo |= s << bits
    s >>= bits
    s += k >> bits
    k = nl * c2
    s += k & low
    s += nh * c1
    mid = s & low
    s >>= bits
    s += k >> bits
    s += nl * c3
    s += nh * c2
    mid |= s << bits
    s >>= bits
    s += nh * c3
    return lo, mid, s


def _shortest(vr, vp, vm):
    """Ryū's common case: drop digits of vr while the interval (vm, vp]
    still holds a shorter number, rounding by the last digit dropped.
    Returns the digits and the number dropped."""
    dropped = np.zeros(vr.size, dtype=np.intp)
    up, down = vp, vm
    for _ in range(3):                # most values drop one to three
        up, down = up // np.uint64(10), down // np.uint64(10)
        go = up > down
        dropped += go
    lanes = np.flatnonzero(go)
    up, down = up[lanes], down[lanes]
    while lanes.size:
        up, down = up // np.uint64(10), down // np.uint64(10)
        go = np.flatnonzero(up > down)
        lanes, up, down = lanes[go], up[go], down[go]
        dropped[lanes] += 1
    scale = _get(_POW10, dropped)
    out = vr // scale
    rounds = vr - out * scale >= _get(_HALF, dropped)
    return out + (rounds | (out == vm // scale)), dropped


def _render(x, tab):
    """The 17-digit zero-padded decimal of each x < 10^17: its first digit
    as an ASCII byte, and the other 16 as ASCII bytes, shape x.shape +
    (16,).  x is overwritten."""
    lead = x // np.uint64(10 ** 16)
    x -= lead * np.uint64(10 ** 16)
    lead += np.uint64(ord("0"))
    high = x // np.uint64(10 ** 8)
    x -= high * np.uint64(10 ** 8)
    quads = np.empty(x.shape + (4,), dtype="<u4")
    for column, half in ((0, high), (2, x)):
        top = half // np.uint64(10 ** 4)
        half -= top * np.uint64(10 ** 4)
        quads[..., column] = _get(tab["quads"], top)
        quads[..., column + 1] = _get(tab["quads"], half)
    return lead.astype(np.uint8), quads.view(np.uint8)


def _ryu(bits, exp, tab):
    """Ryū's shortest digits of normal values below 2^50, their count and
    point position (the value is 0.DIGITS x 10^point), and whether Ryū's
    trailing-zero branch applies."""
    at = np.minimum(exp, np.uint64(_MAX_EXP)).astype(np.intp)
    fraction = bits & np.uint64((1 << 52) - 1)
    # Ryū's mmShift is 0 at powers of two above the least normal: the
    # spacing halves below them.
    power = (fraction == 0) & (exp > np.uint64(1))
    m2 = fraction | np.uint64(1 << 52)
    del fraction
    # Ryū's vrIsTrailingZeros: 4 m2 has at least q trailing zero bits.
    trailing = m2 << np.uint64(2) & _get(tab["zeros_mask"], at) == 0
    # vr, vp and vm are 2 m2 mul, 2 m2 mul + mul and 2 m2 mul - mul (e2 <
    # 0), shifted; at powers of two vm is 2 m2 mul - ceil(mul / 2).
    m2 <<= np.uint64(1)
    lo, mid, hi = _product(m2, [_get(limb, at) for limb in tab["limbs"]])
    del m2
    mul = _get(tab["mul"][0], at)
    up = lo > ~mul
    mul[power] = _get(tab["half"][0], at[power])
    down = lo < mul
    del lo
    mul = _get(tab["mul"][1], at)
    up_mid = mid + mul
    up_mid += up
    mul[power] = _get(tab["half"][1], at[power])
    down_mid = mid - mul
    down_mid -= down
    up = hi + (up_mid < mid)
    down = hi - (down_mid > mid)
    shift, unshift = _get(tab["shift"], at), _get(tab["unshift"], at)

    def shifted(high, low):
        high <<= unshift
        high |= low >> shift
        return high

    digits, dropped = _shortest(shifted(hi, mid), shifted(up, up_mid),
                                shifted(down, down_mid))
    # The point falls after the binade's least point, or one digit later.
    least = _get(tab["digits_below"], at) - dropped
    later = digits >= _get(_POW10, least)
    return digits, least + later, _get(tab["point"], at) + later, trailing


def _split(digits, length, point, cells, tab):
    """Render the digits into the cells around the point column; the first
    and past-the-last byte of each value's text, without its sign and
    separator, and which values are 0.00125-like and which 1.25e-05-like."""
    integral = (point >= 1) & (point <= 16)            # 12.5, 12000.0
    fraction = (point >= -3) & (point <= 0)            # 0.00125
    science = ~(integral | fraction)                   # 1.25e-05
    # `whole` goes before the point (right-aligned up to the point column),
    # `part` after it (left-aligned).
    before = point * integral + science
    after = length - before
    cut = np.maximum(after, 0)
    scale = _get(_POW10, cut)
    whole = digits // scale
    part = (digits - whole * scale) * _get(_POW10, 17 - cut)
    whole *= _get(_POW10, np.maximum(-after, 0))       # 12000.0
    shape = cells.shape[:-1]
    for number, field in ((whole, _POINT - 17), (part, _POINT + 1)):
        lead, text = _render(number, tab)
        cells[..., field] = lead.reshape(shape)
        cells[..., field + 1:field + 17] = text.reshape(shape + (16,))
    cells[..., _POINT] = ord(".")
    # 0.00125 has one 0 before its point and takes its other zeros from the
    # padding of `whole`; 123.0 has one 0 after its point; 1e-05 has none.
    start = _POINT - before - fraction * (1 - point)
    stop = (_POINT + 1 + np.maximum(after, 1)
            - 2 * (science & (length == 1)))
    return start, stop, fraction, science


def _fill(values, cells, keep, flat, base, sep):
    """Cells and keep rows of a chunk of values, in place.

    values is (rows, columns); cells and keep are their (rows, columns,
    WIDTH) views into one buffer, flat the buffer's flat cell bytes and base
    the flat offset of each value's cell; sep is the byte after each value.
    The work is split over helpers that free their temporaries on return:
    the heap's peak decides how many pages each pass faults in afresh.
    """
    tab = _tables()
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.uint64)
    exp = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    digits, length, point, trailing = _ryu(bits, exp, tab)
    zero = (bits << np.uint64(1)) == 0
    # Repr takes values on Ryū's trailing-zero branch, large or non-finite
    # values and subnormals (their binade spans decades).
    slow = ~zero & ((exp > np.uint64(_MAX_EXP)) | (exp == 0) | trailing)
    plain = zero | slow
    digits *= ~plain
    length[plain] = point[plain] = 1
    start, stop, fraction, science = _split(digits, length, point, cells, tab)

    lane = np.flatnonzero(fraction)
    flat[base[lane] + _POINT] = ord("0")
    flat[base[lane] + _POINT + point[lane]] = ord(".")
    flat[base + stop] = sep
    end = stop + 1
    lane = np.flatnonzero(science)
    if lane.size:
        power = point[lane] - 1
        wide = np.abs(power) >= 100
        suffix = np.empty((lane.size, 6), dtype=np.uint8)
        suffix[:, 0] = ord("e")
        suffix[:, 1] = ord("+") + 2 * (power < 0)
        suffix[:, 2:5] = _get(tab["quads"], np.abs(power)).view(
            np.uint8).reshape(-1, 4)[:, 1:]
        suffix[:, 5] = sep[lane]
        suffix[~wide, 2:5] = suffix[~wide, 3:6]
        at = base[lane] + stop[lane]
        for k in range(6):
            flat[at + k] = suffix[:, k]
        end[lane] += 4 + wide
    lane = np.flatnonzero(np.signbit(values))
    start[lane] -= 1
    flat[base[lane] + start[lane]] = ord("-")

    lane = np.flatnonzero(slow)
    if lane.size:
        # At most 24 bytes: -2.2250738585072014e-308.
        texts = [repr(v) for v in bits.view(np.float64)[lane].tolist()]
        size = np.array([len(text) for text in texts])
        text = np.frombuffer("".join(text.ljust(24) for text in texts)
                             .encode("ascii"), np.uint8).reshape(-1, 24)
        flat[base[lane, None] + np.arange(1, 25)] = text
        flat[base[lane] + 1 + size] = sep[lane]
        start[lane], end[lane] = 1, size + 2
    keep[...] = np.take(tab["keep"], start * (WIDTH + 1) + end, axis=0,
                        mode="clip").reshape(keep.shape)


class CsvText:
    """CSV bytes of tables with a fixed number of rows and columns: a header
    line, then one line per row, values joined by commas, LF line endings.

    The cells are made once and reused by every call.  They hold up to
    `tables` tables, as many as fit in CHUNK values, so small tables go
    through `_fill` several at a time.  `lead`, if given, is a first column
    that every table shares, formatted here once.
    """

    def __init__(self, rows, columns, tables=1, lead=None):
        self.rows = rows
        # A pass has a fixed cost of ~0.45 ms, so small tables share one: an
        # 8-frame block of 64 points took 1.27 ms against 4.84 ms one table
        # per pass, and a 101-frame evolve of 64 points 107 against 158 ms
        # in-process.  At 1,024 points (two tables a pass) the two tie:
        # example3 evolve 288 against 290 ms (medians of 15, 2 cores).
        self.tables = max(1, min(tables, CHUNK // max(1, rows * columns)))
        first = 0 if lead is None else 1
        total = first + columns
        shape = (self.tables * rows, total)
        self.cells = np.zeros(shape + (WIDTH,), dtype=np.uint8)
        self.keep = np.zeros(self.cells.shape, dtype=bool)
        # Flat offset of each cell, and the byte after each value.
        self.base = np.arange(shape[0] * total).reshape(shape) * WIDTH
        self.sep = np.full(shape, ord(","), dtype=np.uint8)
        self.sep[:, -1] = ord("\n")
        self.values = slice(first, total)
        if lead is not None:
            lead = np.tile(np.asarray(lead, dtype=np.float64), self.tables)
            self._fill(lead.reshape(-1, 1), slice(0, 1))

    def _fill(self, values, columns):
        step = max(1, CHUNK // values.shape[1])
        for start in range(0, len(values), step):
            rows = slice(start, min(start + step, len(values)))
            _fill(values[rows], self.cells[rows, columns],
                  self.keep[rows, columns], self.cells.reshape(-1),
                  self.base[rows, columns].ravel(),
                  self.sep[rows, columns].ravel())

    def texts(self, header, columns):
        """CSV bytes of T tables: the header line, then the columns, each a
        (T, rows) array, after the lead column."""
        values = np.stack([np.asarray(c, dtype=np.float64) for c in columns],
                          axis=-1)
        header = header.encode("ascii") + b"\n"
        out = []
        for first in range(0, len(values), self.tables):
            block = values[first:first + self.tables]
            rows = len(block) * self.rows
            self._fill(block.reshape(rows, len(columns)), self.values)
            keep = self.keep[:rows]
            text = memoryview(self.cells[:rows][keep])
            ends = np.cumsum(keep.reshape(len(block), -1).sum(axis=1))
            out += [header + text[start:end]
                    for start, end in zip([0, *ends[:-1]], ends)]
        return out


def csv_bytes(header, columns):
    """CSV bytes of the header line and the equal-length columns."""
    table = CsvText(len(columns[0]), len(columns))
    return table.texts(header, [np.asarray(c)[None] for c in columns])[0]
