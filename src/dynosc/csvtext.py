"""CSV text of float64 values, byte for byte what `repr(float(v))` writes.

Python's repr writes the shortest decimal that reads back to the same
float64, the closest such one to its exact value.  Ryū (U. Adams, "Ryū: fast
float-to-string conversion", PLDI 2018, https://doi.org/10.1145/3192366.3192369)
finds the same digits with fixed-width integer arithmetic, so here it runs
over whole arrays in `uint64`, with 64x64 -> 128-bit products built from
32-bit limbs.  The digits are laid out by repr's rule: positional when the
decimal exponent is from -4 to 15 (`0.0001`, `12.5`), otherwise `d.ddde±XX`
with at least two exponent digits (`1e-05`, `1e+16`).

Each value gets a cell of WIDTH bytes, with its sign, its exponent and the
separator at fixed columns and its digits around a fixed point column, and
a keep row that selects its text, so one boolean selection over a table's
cells yields the CSV.  A `CsvText` makes its cells and a workspace of
uint64 rows once; every pass writes its intermediates there (`out=`), so a
warmed call allocates little and faults in no page.  Values on Ryū's rare
trailing-zero branch (every exact integer among them, so no cell holds
one), powers of two, |v| >= 2^50, subnormals and non-finite values take
repr one at a time; zeros are laid out as 0.0.
"""

import functools
from types import SimpleNamespace

import numpy as np

# Values per pass, about: a block of rows is cut into equal passes, each of
# ~200 NumPy calls, and the workspace holds one pass (~1 MB at 8,192).  A
# warmed 8-frame example3 block (24,576 values, one core, medians of 15)
# took 214 ns a value in passes of 8,192, 197 in passes of 16,384, 255 of
# 4,096 and 324 of 2,048, with 0 minor faults a call (2-vCPU VM, NumPy 2.4).
CHUNK = 8192

# Largest biased exponent on the array path: |v| < 2^50.  Below it Ryū's
# binary exponent e2 is at most -5, so only its e2 < 0 branch is needed, with
# its table of 5^i, and only vr can be on a trailing-zero case (tested
# below).  At most 16 digits precede the point, and exponents are negative.
_MAX_EXP = 1072
_POW5_BITS = 125
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
# Half of the last digit dropped: 5 * 10^(k-1); nothing rounds at k = 0.
_HALF = np.array([2 ** 64 - 1] + [5 * 10 ** k for k in range(19)], np.uint64)

# Cell layout: '-', up to 16 digits before the point column and 17 after it,
# the exponent (e-05, e-100) right-aligned in 5 columns, the separator.
_POINT = 17
_EXP = _POINT + 18
WIDTH = _EXP + 6


def _take(table, index, out):
    """table[index] into out; "clip" spares np.take a buffered bounds check."""
    return np.take(table, index, mode="clip", out=out)


def _put(cells, column, data):
    """cells[..., column:column + k] = data, (n, k) bytes: a copy per cell."""
    item = f"V{data.shape[-1]}"
    cells[..., column:column + data.shape[-1]].view(item)[..., 0] = data.view(
        item)[:, 0].reshape(cells.shape[:-1])


def _count(flag, out):
    """A boolean flag as 0/1 in out: an assignment casts in place."""
    out[...] = flag
    return out


@functools.cache
def _tables():
    """Per-exponent constants, digits and keep rows, built on first use."""
    exp = np.minimum(np.arange(2048), _MAX_EXP)   # by the raw exponent field
    e2 = np.maximum(exp, 1) - 1023 - 52 - 2           # Ryū's binary exponent
    q = ((-e2 * 732923) >> 20) - 1          # floor(log10(5^-e2)) - 1
    i = -e2 - q
    # 5^i cut to its top 125 bits, as four 32-bit limbs, for each i.
    pow5 = [1]
    for _ in range(i.max()):
        pow5.append(pow5[-1] * 5)
    cut = [p.bit_length() - _POW5_BITS for p in pow5]
    mul = [p >> c if c >= 0 else p << -c for p, c in zip(pow5, cut)]
    limbs = np.frombuffer(b"".join(m.to_bytes(16, "little") for m in mul),
                          "<u4").reshape(len(mul), -1).T[:, i]
    # vr = floor(4 m2 mul / 2^j), j = q - cut, is the 192-bit product
    # 2 m2 mul from bit 64 + shift on; vr is digits x 10^(q + e2).
    shift = (q - np.array(cut)[i] - 1 - 64).astype(np.uint64)
    # Point position of the binade's least value 2^e, floor(log10 2^e) + 1
    # (Ryū's log10Pow2 is exact here): a value of the binade has its point
    # there or one digit later.
    e = exp - 1023
    point = np.where(e >= 0, ((e * 78913) >> 18) + 1, -((-e * 78913) >> 18))
    # Four ASCII digits of each v < 10^4, first digit in the lowest byte.
    digit = np.arange(ord("0"), ord("9") + 1, dtype="<u4")
    quads = (digit[:, None, None, None] | digit[:, None, None] << 8
             | digit[:, None] << 16 | digit << 24).ravel()
    # Then the four columns before the point column of 0.0125, 0.00125 and
    # 0.000125 (whose point column holds a 0).
    quads = np.concatenate([quads, np.frombuffer(b"000.00.00.00", "<u4")])
    # The exponent of point position -k, right-aligned in five bytes.
    exps = "".join(f"e-{k + 1:02d}".rjust(5).ljust(8) for k in range(330))
    # keep[((sign * 3 + kind) * (_POINT + 1) + start) * (_EXP + 1) + stop]:
    # bytes start..stop-1 of a cell, the sign if set, the exponent of kind
    # 1 (e-05) or 2 (e-100) if any, and the separator; 1e-05 has no point.
    sign, kind, start, stop, col = np.ix_(range(2), range(3), range(
        _POINT + 1), range(_EXP + 1), range(WIDTH))
    tail = np.where(kind, _EXP + 2 - kind, WIDTH - 1)    # exponent, separator
    keep = ((col >= start) & (col < stop) | (col == 0) & (sign == 1)
            | (col >= tail))
    keep &= (col != _POINT) | (stop > _POINT + 1) | (kind == 0)
    return {"limbs": limbs.astype(np.uint64), "shift": shift,
            "zeros_mask": np.where(q < 63, (np.uint64(1) << q.astype(
                np.uint64)) - np.uint64(1), np.uint64(2 ** 64 - 1)),
            "point": point, "digits_below": point - (q + e2), "quads": quads,
            "exps": np.frombuffer(exps.encode("ascii"), "<u8"),
            "kind": np.digitize(np.arange(330), [4, 99]),   # e-05, e-100
            "keep": keep.reshape(-1, WIDTH)}


class _Work:
    """Buffers of a pass of up to `size` values, made once per table: a pass
    writes its intermediates there (`out=`) and allocates only lane lists, so
    it faults no page in afresh.  A ufunc that casts allocates a buffer."""

    U64 = "exp m2 c0 c1 c2 c3 lo mid hi nh k t".split()
    FLAGS = "go up down trailing slow integral fraction science".split()
    # int64 views of uint64 buffers that are free from where they are set.
    INTP = {"dropped": "c1", "length": "m2", "point": "c0", "before": "c3",
            "after": "hi", "cut": "nh", "start": "lo", "ti": "t", "later": "k"}

    def __init__(self, size):
        self.size, self.quads = size, np.empty((size, 4), "<u4")
        self.u64 = np.empty((len(self.U64), size), np.uint64)
        self.flags = np.empty((len(self.FLAGS), size), bool)

    def views(self, n):
        w = dict(zip(self.U64 + self.FLAGS, [*self.u64[:, :n],
                                             *self.flags[:, :n]]))
        w.update((key, w[row].view(np.intp)) for key, row in self.INTP.items())
        return SimpleNamespace(quads=self.quads[:n], **w)


def _product(n, limbs, lo, mid, hi, nh, k, t):
    """The 192-bit product n * mul into (lo, mid, hi), n < 2^54 and mul <
    2^125 in 32-bit limbs, summed by 32-bit columns; n, nh, k, t are reused."""
    c0, c1, c2, c3 = limbs
    low, s = 0xFFFFFFFF, hi
    np.right_shift(n, 32, out=nh)
    n &= low
    np.right_shift(np.multiply(n, c0, out=k), 32, out=s)
    np.bitwise_and(k, low, out=lo)
    np.multiply(n, c1, out=k)
    s += np.bitwise_and(k, low, out=t)
    s += np.multiply(nh, c0, out=t)
    lo |= np.left_shift(s, 32, out=t)
    s >>= 32
    s += np.right_shift(k, 32, out=t)
    np.multiply(n, c2, out=k)
    s += np.bitwise_and(k, low, out=t)
    s += np.multiply(nh, c1, out=t)
    np.bitwise_and(s, low, out=mid)
    s >>= 32
    s += np.right_shift(k, 32, out=t)
    s += np.multiply(n, c3, out=t)
    s += np.multiply(nh, c2, out=t)
    mid |= np.left_shift(s, 32, out=t)
    s >>= 32
    s += np.multiply(nh, c3, out=t)


def _shortest(vr, up, vm, w):
    """Ryū's common case: drop digits of vr while the interval (vm, up]
    still holds a shorter number, rounding by the last digit dropped.
    Leaves the digits in w.c2 and their number dropped in w.dropped."""
    down, dropped, scale, out = w.lo, w.dropped, w.mid, w.c2
    down[...], dropped[...] = vm, 0
    for _ in range(3):                # most values drop one to three
        up //= 10
        down //= 10
        dropped += _count(np.greater(up, down, out=w.go), w.ti)
    lanes = np.flatnonzero(w.go)
    up, down = up[lanes], down[lanes]
    while lanes.size:
        up, down = up // 10, down // 10
        go = np.flatnonzero(up > down)
        lanes, up, down = lanes[go], up[go], down[go]
        dropped[lanes] += 1
    np.floor_divide(vr, _take(_POW10, dropped, scale), out=out)
    vr -= np.multiply(out, scale, out=w.t)
    np.greater_equal(vr, _take(_HALF, dropped, w.t), out=w.go)
    w.go |= np.equal(np.floor_divide(vm, scale, out=vm), out, out=w.up)
    out += _count(w.go, w.t)


def _ryu(bits, w, tab):
    """Ryū's shortest digits (w.c2) of normal values below 2^50, their count
    (w.length), point (w.point: the value is 0.DIGITS x 10^point), exponent
    field (w.exp), and whether the value takes repr (w.trailing): it is on
    Ryū's trailing-zero branch, or a power of two."""
    at, m2 = w.exp.view(np.intp), w.m2
    np.bitwise_and(np.right_shift(bits, 52, out=w.exp), 0x7FF, out=w.exp)
    np.bitwise_and(bits, (1 << 52) - 1, out=m2)
    np.equal(m2, 0, out=w.up)                # a power of two, or zero
    m2 |= 1 << 52
    # Ryū's vrIsTrailingZeros: 4 m2 has at least q trailing zero bits.
    np.left_shift(m2, 2, out=w.t)
    w.t &= _take(tab["zeros_mask"], at, w.k)
    np.logical_or(np.equal(w.t, 0, out=w.trailing), w.up, out=w.trailing)
    # vr, vp and vm are 2 m2 mul, 2 m2 mul + mul and 2 m2 mul - mul (e2 <
    # 0), shifted.
    m2 <<= 1
    limbs = [_take(limb, at, c) for limb, c in zip(
        tab["limbs"], (w.c0, w.c1, w.c2, w.c3))]
    _product(m2, limbs, w.lo, w.mid, w.hi, w.nh, w.k, w.t)
    mul_lo, up_mid, mul_hi, up_hi = limbs
    mul_lo |= np.left_shift(up_mid, 32, out=w.t)
    mul_hi |= np.left_shift(up_hi, 32, out=w.t)
    np.greater(w.lo, np.invert(mul_lo, out=w.t), out=w.up)
    np.add(w.mid, mul_hi, out=up_mid)
    up_mid += _count(w.up, w.t)
    np.add(w.hi, _count(np.less(up_mid, w.mid, out=w.up), w.t), out=up_hi)
    down_mid, down_hi = m2, w.nh
    np.subtract(w.mid, mul_hi, out=down_mid)
    down_mid -= _count(np.less(w.lo, mul_lo, out=w.down), w.t)
    np.greater(down_mid, w.mid, out=w.down)
    np.subtract(w.hi, _count(w.down, w.t), out=down_hi)
    shift, unshift = _take(tab["shift"], at, w.k), mul_lo
    np.subtract(64, shift, out=unshift)
    for high, low in ((w.hi, w.mid), (up_hi, up_mid), (down_hi, down_mid)):
        high <<= unshift
        high |= np.right_shift(low, shift, out=w.t)
    _shortest(w.hi, up_hi, down_hi, w)
    # The point falls after the binade's least point, or one digit later.
    later = w.later
    np.subtract(_take(tab["digits_below"], at, w.length), w.dropped,
                out=w.length)
    np.greater_equal(w.c2, _take(_POW10, w.length, w.t), out=w.go)
    w.length += _count(w.go, later)
    _take(tab["point"], at, w.point)
    w.point += later


def _render(x, width, cells, column, w, tab, last=None):
    """Write the last `width` (4, 8, 12, 16 or 17) decimal digits of each x
    into cells[..., column:column + width], overwriting x; `last` is added
    to the quads index of the last four.  Groups gather in w.quads."""
    q, rest, groups = w.lo, w.mid, width // 4
    for group in range(groups - 1, -1, -1):             # last four first
        np.floor_divide(x, 10 ** 4, out=q)
        np.subtract(x, np.multiply(q, 10 ** 4, out=rest), out=rest)
        if last is not None and group == groups - 1:
            rest += last
        w.quads[:, group] = _take(tab["quads"], rest.view(np.intp),
                                  w.t.view("<u4")[:x.size])
        x, q = q, x
    _put(cells, column + width % 4, w.quads[:, :groups].view(np.uint8))
    if width % 4:
        cells[..., column] = np.add(x, ord("0"), out=q).reshape(
            cells.shape[:-1])


def _fill(values, cells, index, work):
    """Format a pass of values (rows, k) into cells (rows, k, WIDTH) and set
    their keep rows in index (rows, k), both views of the table's arrays."""
    tab, w, flat = _tables(), work.views(values.size), values.reshape(-1)
    _ryu(flat.view(np.uint64), w, tab)
    digits, length, point, t = w.c2, w.length, w.point, w.t
    before, after, cut, start, ti = w.before, w.after, w.cut, w.start, w.ti
    # Zeros, and the values repr takes: those flagged by _ryu, large or
    # non-finite values and subnormals (their binade spans decades).  They
    # are laid out as 0.0: digits 00, point 1.
    np.greater_equal(np.subtract(w.exp, 1, out=t), _MAX_EXP, out=w.slow)
    lane = np.flatnonzero(np.logical_or(w.slow, w.trailing, out=w.slow))
    digits[lane], length[lane], point[lane] = 0, 2, 1
    np.left_shift(flat.view(np.uint64), 1, out=t)
    np.greater(w.slow, np.equal(t, 0, out=w.up), out=w.slow)   # and not zero
    # 12.5 has 1 to 16 digits before the point, 0.00125 none; 1.25e-05 has
    # one.  a - lo as unsigned is below n when lo <= a < lo + n.  An exact
    # integer, such as 123.0, is on Ryū's trailing-zero branch, so a value
    # laid out here has at least one digit after its point.
    np.less(np.subtract(point, 1, out=ti).view(np.uint64), 16, out=w.integral)
    np.less(np.add(point, 3, out=ti).view(np.uint64), 4, out=w.fraction)
    np.equal(w.integral, w.fraction, out=w.science)     # neither of them
    np.multiply(point, _count(w.integral, before), out=before)
    before += _count(w.science, ti)
    np.subtract(length, before, out=after)
    # `whole` goes before the point (right-aligned up to the point column),
    # `digits` after it (left-aligned).
    whole = np.floor_divide(digits, _take(_POW10, after, t), out=w.k)
    digits -= np.multiply(whole, t, out=t)
    digits *= _take(_POW10, np.subtract(17, after, out=cut), t)
    top = int(whole.max(initial=0))
    width = next(n for n in (4, 8, 12, 16) if top < 10 ** n)
    # 0.125 takes its 0 from the padding of `whole`; 0.0125 to 0.000125 take
    # theirs, and the point, from quads past 10^4, with a 0 in the point
    # column.
    np.logical_and(w.fraction, np.less(point, 0, out=w.up), out=w.up)
    last = np.multiply(np.subtract(9999, point, out=cut), _count(w.up, ti),
                       out=cut)
    _render(whole, width, cells, _POINT - width, w, tab, last.view(np.uint64))
    _render(digits, 17, cells, _POINT + 1, w, tab)
    dot = np.left_shift(w.up.view(np.uint8), 1, out=w.down.view(np.uint8))
    cells[..., _POINT] = np.add(dot, ord("."), out=dot).reshape(index.shape)
    np.subtract(1, point, out=start)
    start *= _count(w.fraction, cut)
    np.subtract(_POINT, np.add(start, before, out=start), out=start)
    stop = np.add(after, _POINT + 1, out=after)
    # The exponent, point - 1, is negative since |v| < 2^50: look up -point.
    np.negative(point, out=cut)
    _put(cells, _EXP, _take(tab["exps"], cut, t).view(np.uint8).reshape(
        -1, 8)[:, :5])
    kind = _take(tab["kind"], cut, before)     # 0 unless in the exponent form
    key = np.multiply(_count(np.signbit(flat, out=w.up), cut), 3, out=cut)
    for size, part in ((1, kind), (_POINT + 1, start), (_EXP + 1, stop)):
        key *= size
        key += part
    lane = np.flatnonzero(w.slow)
    if lane.size:
        # At most 24 bytes: -2.2250738585072014e-308.
        texts = [repr(v) for v in flat[lane].tolist()]
        rows, cols = np.divmod(lane, cells.shape[1])
        cells[rows, cols, 1:25] = np.frombuffer("".join(
            text.ljust(24) for text in texts).encode("ascii"),
            np.uint8).reshape(-1, 24)
        key[lane] = [_EXP + 2 + len(text) for text in texts]  # 1 to its end
    index[...] = key.reshape(index.shape)


class CsvText:
    """CSV bytes of tables with a fixed number of rows and columns: a header
    line, then one line per row, values joined by commas, LF line endings.

    The cells hold up to `tables` tables, as many as fit in CHUNK values, so
    small tables share a pass.  `lead`, if given, is a first column that
    every table shares, formatted here once.  Cells, keep rows, text buffer
    and workspace are made here and reused by every call.
    """

    def __init__(self, rows, columns, tables=1, lead=None):
        self.rows, self.columns = rows, columns
        # A pass has a fixed cost, so small tables share one: an 8-frame
        # block of 64 points took 1.27 ms against 4.84 ms one table a pass.
        self.tables = max(1, min(tables, CHUNK // max(1, rows * columns)))
        first = 0 if lead is None else 1
        block, total = self.tables * rows, first + columns
        self.cells = np.zeros((block, total, WIDTH), dtype=np.uint8)
        self.cells[..., 0], self.cells[..., -1] = ord("-"), ord(",")
        self.cells[:, -1, -1] = ord("\n")
        self.index = np.empty((block, total), dtype=np.intp)
        self.keep = np.empty((rows * total, WIDTH), dtype=bool)
        self.values = np.empty((self.tables, rows, columns))
        self.text = np.empty(0, dtype=np.uint8)
        # Equal passes of whole rows, about CHUNK values each.
        passes = -(-block * columns // CHUNK) or 1
        self.work = _Work(-(-block // passes) * columns)
        if first:
            lead = np.tile(np.asarray(lead, np.float64), self.tables)
            self._fill(lead[:, None], slice(0, 1))

    def _fill(self, values, columns):
        step = max(1, self.work.size // values.shape[1])
        for start in range(0, len(values), step):
            rows = slice(start, min(start + step, len(values)))
            _fill(values[rows], self.cells[rows, columns],
                  self.index[rows, columns], self.work)

    def views(self, header, columns):
        """CSV texts of T tables: the header line, then the columns, each a
        (T, rows) array, after the lead column.  The texts are read-only
        memoryviews of one buffer that the next call overwrites."""
        header = np.frombuffer(header.encode("ascii") + b"\n", np.uint8)
        count, size = len(columns[0]), self.rows * self.cells.shape[1] * 25
        if self.text.size < count * (header.size + size):
            self.text = np.empty(count * (header.size + size), np.uint8)
        view, at, out = memoryview(self.text).toreadonly(), 0, []
        first = self.cells.shape[1] - self.columns
        for block in range(0, count, self.tables):
            values = self.values[:min(self.tables, count - block)]
            np.stack([c[block:block + len(values)] for c in columns], -1,
                     out=values)
            self._fill(values.reshape(-1, self.columns), slice(first, None))
            for k in range(len(values)):
                rows = slice(k * self.rows, (k + 1) * self.rows)
                np.take(_tables()["keep"], self.index[rows].reshape(-1),
                        axis=0, mode="clip", out=self.keep)
                kept = self.cells[rows].reshape(-1)[self.keep.reshape(-1)]
                self.text[at:at + header.size] = header
                at += header.size + kept.size
                self.text[at - kept.size:at] = kept
                out.append(view[at - kept.size - header.size:at])
        return out

