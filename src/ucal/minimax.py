"""Exact minimax regret of the binary squared-loss forecasting game.

With loss ||p - y||^2 over two outcomes, the optimal worst-case regret of a
deterministic forecaster admits an exact backward induction over count
states.  Let V[n1, n2, r] be the optimal remaining regret when the past
holds n1 outcomes of class 1 and n2 of class 2 with r rounds left
(n1 + n2 + r = T).  The base layer is

    V[n, T-n, 0] = 2T * (n/T) * (n/T - 1)   (= -2 * n1 * n2 / T),

and one backward step maximizes over the adversary's mixing weight q:

    sup_{q in [0,1]}  V2 + (V1 - V2) q - 2 (q^2 - q)
        = V2                                    if V1 - V2 < -2
        = (V1-V2)^2 / 8 + (V1+V2)/2 + 1/2       if -2 <= V1 - V2 <= 2
        = V1                                    if V1 - V2 > 2

with V1 = V[n1+1, n2, r-1] and V2 = V[n1, n2+1, r-1].  Each backward step
takes the middle branch as the new layer and measures max |V1 - V2|; only
when that gap exceeds 2 does it apply the clamped branches and count the
states they cover.  "The middle branch always applies" is thus verified at
runtime (``max_abs_gap <= 2``, ``outer_branch_states == 0``) rather than
assumed, and a layer that leaves the interior still gets the exact sup.

The table also collapses to closed-form sequences: with

    u[0] = v[0] = 0,
    u[r+1] = u[r] + (u[r] + 1/T)^2,
    v[r+1] = u[r]/2 + v[r] + (r+1)/T - 1/2,

every entry satisfies V[n1, n2, r] = (n1-n2)^2/2 * u[r] - 2 n1 n2 / T + v[r],
and the game value is v[T] = 1/2 * sum_r a[r] where a[r] = u[r] + 1/T obeys
a[r+1] = a[r] + a[r]^2 from a[0] = 1/T.  The increments are sandwiched as

    1 / (T - r + log T)  <=  a[r]  <=  1 / (T - r),

which pins the value between logarithmic bounds; ``check_a_bounds`` measures
any violation of the sandwich and ``value_lower_bound`` gives the resulting
floor (1/2) * log(T / (log T + 1) + 1) on the game value.

``write_sequences_csv`` dumps the sequences and both bounds as CSV, with the
bytes of ``"%d,%.12g,%.12g,%.12g,%.12g,%.12g" % row`` but without formatting
one value at a time.  The round index r is rendered as ``%.12g`` too, which
prints an integer below 10^12 as ``%d`` does.  A numpy kernel rounds each
float to twelve significant digits with one correctly rounded scaling by an
exact power of ten (error at most 2^-14 of the unit in the last digit), takes
the digits from two six-digit int32 halves of the significand, lays them out
in ``%g``'s fixed or exponent notation, and deletes NUL padding from a
position-major byte block.  A value it cannot certify -- zero, a non-finite
value, an exponent outside [-10, 32], or a scaled value within 10^-3 of a
rounding tie -- is formatted by ``'%.12g' % x`` itself, so the output never
rests on the float argument alone.

Past the three sequences, ``closed_form``, ``check_a_bounds`` and the dump
work ``CHUNK_ROWS`` entries at a time: v is built in place on the running
sums, the bounds exist one chunk at a time, and the writer renders every
chunk in one set of buffers allocated once per dump.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .core import validate_integer

DP_MAX_HORIZON = 4096

#: Largest horizon ``closed_form`` accepts.  It holds three float64 arrays of
#: about T entries (u, v and a; ~0.4 GB at 2^24) and one chunk besides; a
#: larger horizon is refused before anything is allocated.
CLOSED_FORM_MAX_HORIZON = 1 << 24

#: Entries per chunk: ``closed_form`` adds its linear term, ``check_a_bounds``
#: takes its maxima and ``write_sequences_csv`` renders its rows this many at
#: a time.
CHUNK_ROWS = 2048

#: Rows per string handed to ``fh.write`` by the dump: a piece of 24 bytes
#: per value stays below glibc's default 128 KiB mmap threshold, so its
#: strings reuse heap memory instead of being mapped and faulted in anew.
_TEXT_ROWS = 512

_POW10 = np.array([float(10 ** k) for k in range(23)])  # 10^0..10^22, each exact in float64
#: Byte slots of one rendered float: its sign, the "0.000" of fixed notation
#: below 1, thirteen for twelve digits and a point after any one of them, and
#: "e+dd".  The widest '%.12g' text, "-1.23456789012e-308", fits as well.
_FLOAT_SLOTS = 23
_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)[:, None, None]
_PREFIX_SLOT = np.arange(5, dtype=np.int8)[:, None, None]
_DIGIT = np.arange(12, dtype=np.int8)[:, None, None]
_MIDDLE_SLOT = np.arange(13, dtype=np.int8)[:, None, None]


@dataclass
class MinimaxTable:
    """Backward-induction result; layer r holds V[n1, T-r-n1, r] indexed by n1."""

    horizon: int
    value: float
    max_abs_gap: float        # max |V1 - V2| seen across all backward steps
    outer_branch_states: int  # states where a clamped branch applied (0 expected)
    layers: list | None = None

    def value_at(self, n1: int, n2: int, r: int) -> float:
        if self.layers is None:
            raise ValueError("table was computed without keep_layers=True")
        n1, n2, r = (validate_integer(c, name, 0) for c, name in ((n1, "n1"), (n2, "n2"), (r, "r")))
        if n1 + n2 + r != self.horizon:
            raise ValueError("state must satisfy n1 + n2 + r = T")
        return float(self.layers[r][n1])


def dp_value(horizon: int, keep_layers: bool = False) -> MinimaxTable:
    """Compute the game value by backward induction over O(T^2) states."""
    t = validate_integer(horizon, "horizon")
    if not 1 <= t <= DP_MAX_HORIZON:
        raise ValueError(f"horizon must lie in [1, {DP_MAX_HORIZON}]")
    n = np.arange(t + 1, dtype=float)
    layer = 2.0 * t * (n / t) * (n / t - 1.0)  # base: -2 n1 n2 / T
    layers = [layer] if keep_layers else None
    max_gap = 0.0
    outer = 0
    for _ in range(t):
        layer, gap, clamped = _backward_step(layer)
        max_gap = max(max_gap, gap)
        outer += clamped
        if keep_layers:
            layers.append(layer)
    return MinimaxTable(horizon=t, value=float(layer[0]), max_abs_gap=max_gap,
                        outer_branch_states=outer, layers=layers)


def _backward_step(layer: np.ndarray) -> tuple[np.ndarray, float, int]:
    """One DP step: (layer r-1) -> (layer r, max |V1 - V2|, clamped-branch state count)."""
    v1 = layer[1:]   # outcome-1 child
    v2 = layer[:-1]  # outcome-2 child
    d = v1 - v2
    gap = float(np.abs(d).max())
    # middle branch d^2/8 + (V1+V2)/2 + 1/2, in that order, built in place
    half_sum = v1 + v2
    half_sum *= 0.5
    nxt = d * d
    nxt *= 0.125
    nxt += half_sum
    nxt += 0.5
    if gap <= 2.0:
        return nxt, gap, 0
    clamped = int(np.count_nonzero(np.abs(d) > 2.0))
    return np.where(d < -2.0, v2, np.where(d > 2.0, v1, nxt)), gap, clamped


def optimal_q(v1: float, v2: float) -> float:
    """The adversary's optimal mixing weight given the two child values."""
    return float(np.clip((v1 - v2 + 2.0) / 4.0, 0.0, 1.0))


@dataclass
class ClosedFormSequences:
    """The sequences u, v (length T+1) and a = u + 1/T (length T); value = v[T]."""

    horizon: int
    u: np.ndarray
    v: np.ndarray
    a: np.ndarray
    value: float


def closed_form(horizon: int) -> ClosedFormSequences:
    """O(T) evaluation of the game value via the u/v recurrences."""
    t = validate_integer(horizon, "horizon", 1)
    if t > CLOSED_FORM_MAX_HORIZON:
        raise ValueError(f"closed form at T={t} is above the cap of "
                         f"{CLOSED_FORM_MAX_HORIZON} (2^24) rounds")
    inv_t = 1.0 / t
    # v unrolls to v_m = (1/2) sum_{s<m} u_s + m(m+1-T)/(2T); taking the
    # linear part as one exact-integer ratio and the u part with Kahan
    # compensation keeps every entry accurate to a few ulps even at T = 10^6,
    # where naive per-round accumulation drifts by ~1e-9.  Only the
    # sequential u recurrence and the Kahan sum run in Python.
    u_buf = array("d", [0.0])
    sums = array("d", [0.0])  # sums[m] = sum_{s<m} u_s
    u_append, sums_append = u_buf.append, sums.append
    u_r = 0.0
    sum_u = 0.0
    comp = 0.0
    for _ in range(t):
        a_r = u_r + inv_t
        y = u_r - comp
        tot = sum_u + y
        comp = (tot - sum_u) - y
        sum_u = tot
        sums_append(sum_u)
        u_r = u_r + a_r * a_r
        u_append(u_r)
    u = np.frombuffer(u_buf)
    v = np.frombuffer(sums)  # v is built in place on the sums
    v *= 0.5
    # m(m+1-T) <= T^2/4 <= 2^46 at the cap: exact in int64 and in float64
    for lo in range(0, t + 1, CHUNK_ROWS):
        m = np.arange(lo, min(lo + CHUNK_ROWS, t + 1), dtype=np.int64)
        linear = m + (1 - t)
        linear *= m
        v[lo:lo + m.size] += linear / (2.0 * t)
    a = u[:t] + inv_t
    return ClosedFormSequences(horizon=t, u=u, v=v, a=a, value=float(v[t]))


def check_a_bounds(horizon: int, seqs: ClosedFormSequences | None = None) -> tuple[float, float]:
    """Worst violation of 1/(T-r+log T) <= a[r] <= 1/(T-r) over r in [0, T).

    Returns (max_upper_violation, max_lower_violation), each clipped at 0;
    both are expected to vanish.  ``seqs``, if given, must be
    ``closed_form(horizon)``; otherwise it is computed here.  The bounds are
    built and maximized ``CHUNK_ROWS`` rounds at a time.
    """
    t = validate_integer(horizon, "horizon", 2)
    if seqs is None:
        seqs = closed_form(t)
    elif seqs.horizon != t:
        raise ValueError(f"sequences are for T={seqs.horizon}, not T={t}")
    bounds = np.empty((2, min(t, CHUNK_ROWS)))
    max_upper = max_lower = 0.0
    for lo in range(0, t, CHUNK_ROWS):
        a = seqs.a[lo:lo + CHUNK_ROWS]
        upper, lower = bounds[:, :a.size]
        _bounds(t, np.arange(lo, lo + a.size, dtype=float), upper, lower)
        np.subtract(a, upper, out=upper)
        np.subtract(lower, a, out=lower)
        max_upper = np.maximum(max_upper, upper.max(initial=0.0))
        max_lower = np.maximum(max_lower, lower.max(initial=0.0))
    return max(float(max_upper), 0.0), max(float(max_lower), 0.0)


def _bounds(t: int, r: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> None:
    """Write 1/(T-r) to ``upper`` and 1/(T-r+log T) to ``lower``."""
    np.subtract(t, r, out=upper)  # exact, like the Python int T - r
    np.add(upper, math.log(t), out=lower)
    np.divide(1.0, upper, out=upper)
    np.divide(1.0, lower, out=lower)


def write_sequences_csv(seqs: ClosedFormSequences, fh) -> None:
    """Write ``r,u_r,v_r,a_r,upper_bound,lower_bound`` rows for r in [0, T) to ``fh``.

    The bytes are those of ``"%d,%.12g,%.12g,%.12g,%.12g,%.12g\\n" % row``
    (``engine.format_float`` for the floats, and for r, which it prints as
    ``%d`` because r < T <= 2^24); the bounds are 1/(T-r) and 1/(T-r+log T).
    Rows are rendered ``CHUNK_ROWS`` at a time by one ``_CsvRows``, whose
    buffers are allocated once per dump (once more for a shorter last chunk)
    and reused, so memory stays O(chunk) in T and the writer does not
    allocate and free them chunk after chunk.  Each float is rounded by
    ``_round_g12``: one correctly rounded product or quotient with an exact
    power of ten scales it into [10^11, 10^12) with an error of at most 2^-14,
    and ``rint`` then gives the twelve digits exactly unless the scaled value
    lies within 10^-3 of a tie.  Such values, zeros, non-finite values and
    exponents outside [-10, 32] are formatted by ``'%.12g' % x`` itself.
    """
    t = seqs.horizon
    fh.write("r,u_r,v_r,a_r,upper_bound,lower_bound\n")
    rows = None
    for lo in range(0, t, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, t)
        if rows is None or rows.x.shape[1] != hi - lo:
            rows = _CsvRows(6, hi - lo)
        r, u, v, a, upper, lower = rows.x
        r[:] = np.arange(lo, hi)
        u[:] = seqs.u[lo:hi]
        v[:] = seqs.v[lo:hi]
        a[:] = seqs.a[lo:hi]
        _bounds(t, r, upper, lower)
        for text in rows.text():
            fh.write(text)


class _CsvRows:
    """CSV lines ``x[0][i],x[1][i],...`` of a (columns, rows) block ``x``, each value as ``'%.12g'``.

    Fill ``x`` and call ``text``; every buffer is allocated here and reused
    by each call.  The lines are built in a position-major (characters x
    rows) uint8 block, because numpy ops along a short per-line axis run line
    by line and ops along the long one do not.  Unused positions hold NUL and
    are deleted after one transpose.
    """

    def __init__(self, columns: int, rows: int):
        slots = _FLOAT_SLOTS + 1  # the float, then a comma or the newline
        self.x = np.empty((columns, rows))
        # Each position's row is 16 bytes longer than the chunk: at a power-of-two
        # stride the transpose reads a line's bytes from a few cache sets, ~3x slower.
        padded = np.empty((columns * slots, rows + 16), dtype=np.uint8)
        self.block = padded[:, :rows]
        cells = padded.reshape(columns, slots, -1)[:, :, :rows].transpose(1, 0, 2)
        cells[-1] = ord(",")
        self.block[-1] = ord("\n")
        self.floats = cells[:-1]
        self.work = _Work(self.x.shape)

    def text(self):
        """The lines, as strings of up to ``_TEXT_ROWS`` lines each."""
        _format_g12(self.x, self.floats, self.work)
        for lo in range(0, self.x.shape[1], _TEXT_ROWS):
            piece = self.block[:, lo:lo + _TEXT_ROWS].T.tobytes()
            yield piece.translate(None, b"\0").decode("ascii")


def _csv_rows(columns) -> str:
    """CSV lines ``columns[0][i],columns[1][i],...``, each value as ``'%.12g'``."""
    rows = _CsvRows(len(columns), columns[0].size)
    np.stack(columns, out=rows.x)
    return "".join(rows.text())


class _Work:
    """The scratch arrays of ``_round_g12`` and ``_format_g12`` for values of one shape."""

    def __init__(self, shape: tuple):
        self.ax, self.s, self.m, self.tmp = np.empty((4,) + shape)
        self.k, self.index = np.empty((2,) + shape, dtype=np.intp)
        self.halves, self.quotient, self.product = np.empty((3, 2) + shape, dtype=np.int32)
        self.certified, self.flag, self.carry, self.fixed, self.below_one, self.sci = np.empty(
            (6,) + shape, dtype=bool)
        self.exp10, self.last, self.whole, self.point, self.small, self.tens, self.ones = np.empty(
            (7,) + shape, dtype=np.int8)
        self.dot = np.empty(shape, dtype=np.uint8)
        self.digits = np.zeros((14,) + shape, dtype=np.uint8)  # D0..D11 in rows 1..12, NUL around
        self.mask = np.empty((13,) + shape, dtype=bool)
        self.ranks = np.empty((12,) + shape, dtype=np.int8)


def _round_g12(x: np.ndarray, work: _Work | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(m, exponent, certified)``: each x as m * 10^(exponent - 11), m in [10^11, 10^12).

    Where ``certified`` holds, m (an integral float64) is the correctly rounded
    twelve-digit significand that ``'%.12g'`` prints and ``exponent`` (int8)
    the power of ten of its first digit.  With k = 11 - floor(log10|x|), the
    scaled s = |x| * 10^k is one correctly rounded multiply or divide by an
    exact power 10^0..10^22, so |s - exact| <= 2^-14 on [10^11, 10^12); a
    floor of log10 that misses by one near a power of ten is corrected once
    from s.  Not certified: 0, inf and nan (their log10 is not finite),
    |k| > 21, an s that still lies outside [10^11, 10^12), and an s within
    10^-3 of a half-integer, where the error bound could not decide the
    rounding.  The three arrays are ``work``'s, a new one when it is None.
    """
    w = work or _Work(x.shape)
    ax, s, m, tmp, k, flag, certified = w.ax, w.s, w.m, w.tmp, w.k, w.flag, w.certified
    np.abs(x, out=ax)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log10(ax, out=tmp)
        np.floor(tmp, out=tmp)
        np.subtract(11.0, tmp, out=tmp)
        np.abs(tmp, out=s)
        np.less_equal(s, 21.0, out=certified)
    np.logical_not(certified, out=flag)
    np.copyto(ax, 1.0, where=flag)  # placeholders keep the arithmetic below finite
    np.copyto(tmp, 11.0, where=flag)
    np.copyto(k, tmp, casting="unsafe")
    _times_pow10(ax, k, s, w)
    np.less(s, 1e11, out=flag)
    k += flag
    np.greater_equal(s, 1e12, out=flag)
    k -= flag
    _times_pow10(ax, k, s, w)
    np.rint(s, out=m)
    np.greater_equal(s, 1e11, out=flag)
    certified &= flag
    np.less(s, 1e12, out=flag)
    certified &= flag
    np.subtract(s, m, out=tmp)
    np.abs(tmp, out=tmp)
    np.less_equal(tmp, 0.499, out=flag)
    certified &= flag
    np.equal(m, 1e12, out=w.carry)  # 999999999999.5 and up round to 10^12: one more digit
    np.copyto(m, 1e11, where=w.carry)
    np.subtract(11, k, out=k)
    k += w.carry
    np.copyto(w.exp10, k, casting="unsafe")
    return m, w.exp10, certified


def _times_pow10(ax: np.ndarray, k: np.ndarray, out: np.ndarray, w: _Work) -> None:
    """out = ax * 10^k, |k| <= 22, in one rounding: the other factor or divisor is 1."""
    # mode="clip" (k is in range anyway) lets take write to its out without a copy
    np.maximum(k, 0, out=w.index)
    np.take(_POW10, w.index, out=w.tmp, mode="clip")
    np.multiply(ax, w.tmp, out=out)
    np.negative(k, out=w.index)
    np.maximum(w.index, 0, out=w.index)
    np.take(_POW10, w.index, out=w.tmp, mode="clip")
    np.divide(out, w.tmp, out=out)


def _format_g12(x: np.ndarray, out: np.ndarray, w: _Work) -> None:
    """Write ``'%.12g' % v`` for each v of ``x`` into ``out``, NUL-padded.

    ``out`` is uint8 of shape ``(_FLOAT_SLOTS,) + x.shape``, one position per
    row.  Its slots hold the sign, the "0." and zeros of fixed notation below
    1 (exponent -4..-1), thirteen digit-or-point slots and the exponent suffix
    "e+dd" of exponent notation (exponent below -4 or above 11).  Digit j sits
    in slot j up to the point and in slot j + 1 after it, so no row shifts its
    digits; trailing zeros of the fraction, and a point with no digit after
    it, are NUL.  ``w`` holds the scratch arrays.
    """
    m, exp10, certified = _round_g12(x, w)
    digits, flag, mask, small = w.digits, w.flag, w.mask, w.small
    # the twelve digits of m = high * 10^6 + low, six from each int32 half;
    # floor(m / 10^6) is exact, as m / 10^6 lies at least 10^-6 below the next integer
    np.divide(m, 1e6, out=w.tmp)
    np.floor(w.tmp, out=w.tmp)
    halves, quotient = w.halves, w.quotient
    np.copyto(halves[0], w.tmp, casting="unsafe")
    np.multiply(w.tmp, 1e6, out=w.tmp)
    np.subtract(m, w.tmp, out=w.tmp)
    np.copyto(halves[1], w.tmp, casting="unsafe")
    rows = digits[1:13].reshape((2, 6) + x.shape)  # rows[h, j] holds digit 6h + j
    for j in range(5, -1, -1):
        np.floor_divide(halves, 10, out=quotient)
        np.multiply(quotient, 10, out=w.product)
        np.subtract(halves, w.product, out=rows[:, j], casting="unsafe")
        halves, quotient = quotient, halves
    last = w.last  # the last nonzero digit
    np.not_equal(digits[1:13], 0, out=mask[:12])
    np.multiply(mask[:12], _DIGIT, out=w.ranks)
    np.max(w.ranks, axis=0, out=last)
    digits[1:13] += ord("0")
    fixed, below_one, whole, point = w.fixed, w.below_one, w.whole, w.point
    np.greater_equal(exp10, -4, out=fixed)
    np.less(exp10, 12, out=flag)
    fixed &= flag
    np.less(exp10, 0, out=below_one)
    below_one &= fixed
    np.greater_equal(exp10, 0, out=flag)
    flag &= fixed
    np.multiply(exp10, flag, out=whole)  # the last digit before the point
    np.maximum(last, whole, out=small)
    np.less_equal(_DIGIT, small, out=mask[:12])
    digits[1:13] *= mask[:12]
    np.copyto(point, whole)  # the point follows this digit
    np.copyto(point, 12, where=below_one)
    sign, prefix, middle, suffix = out[0], out[1:6], out[6:19], out[19:]
    np.signbit(x, out=flag)
    np.multiply(flag, np.uint8(ord("-")), out=sign)
    np.subtract(1, exp10, out=small)  # the length of "0.000" taken below 1
    small *= below_one
    np.less(_PREFIX_SLOT, small, out=mask[:5])
    np.multiply(mask[:5], _PREFIX, out=prefix)
    np.copyto(middle, digits[:13])
    np.less_equal(_MIDDLE_SLOT, point, out=mask)
    np.copyto(middle, digits[1:], where=mask)
    np.greater(last, point, out=flag)
    np.multiply(flag, np.uint8(ord(".")), out=w.dot)
    np.add(point, 1, out=small)
    np.equal(_MIDDLE_SLOT, small, out=mask)
    np.copyto(middle, w.dot, where=mask)
    sci = w.sci
    np.logical_not(fixed, out=sci)
    np.multiply(sci, np.uint8(ord("e")), out=suffix[0])
    np.less(exp10, 0, out=flag)
    suffix[1] = ord("+")
    np.copyto(suffix[1], np.uint8(ord("-")), where=flag)
    suffix[1] *= sci
    tens, ones = w.tens, w.ones
    mag = np.abs(exp10, out=small)
    np.floor_divide(mag, 10, out=tens)
    np.multiply(tens, 10, out=ones)
    np.subtract(mag, ones, out=ones)
    tens += ord("0")
    ones += ord("0")
    np.multiply(tens, sci, out=suffix[2], casting="unsafe")
    np.multiply(ones, sci, out=suffix[3], casting="unsafe")
    np.logical_not(certified, out=flag)
    slow = np.unravel_index(np.flatnonzero(flag), x.shape)
    if slow[0].size:
        fmt = f"%-{_FLOAT_SLOTS}.12g"
        text = "".join([fmt % v for v in x[slow].tolist()]).replace(" ", "\0")
        out[(slice(None),) + slow] = np.frombuffer(
            text.encode("ascii"), dtype=np.uint8).reshape(-1, _FLOAT_SLOTS).T


def value_lower_bound(horizon: int) -> float:
    """(1/2) * log(T / (log T + 1) + 1), implied by the sandwich lower bound."""
    t = validate_integer(horizon, "horizon", 1)
    return 0.5 * math.log(t / (math.log(t) + 1.0) + 1.0)


def structural_identity_error(table: MinimaxTable) -> float:
    """Max over all states of |V[n1,n2,r] - ((n1-n2)^2/2 u[r] - 2 n1 n2/T + v[r])|."""
    if table.layers is None:
        raise ValueError("needs a table computed with keep_layers=True")
    t = table.horizon
    seqs = closed_form(t)
    worst = 0.0
    for r, layer in enumerate(table.layers):
        n1 = np.arange(t - r + 1, dtype=float)
        n2 = (t - r) - n1
        predicted = (n1 - n2) ** 2 / 2.0 * seqs.u[r] - 2.0 * n1 * n2 / t + seqs.v[r]
        worst = max(worst, float(np.abs(layer - predicted).max()))
    return worst
