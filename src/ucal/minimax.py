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
prints an integer below 10^12 as ``%d`` does.  A numpy kernel rounds each float to twelve significant
digits with one correctly rounded scaling by an exact power of ten (error at
most 2^-14 of the unit in the last digit), lays out the digits in ``%g``'s
fixed or exponent notation, and deletes NUL padding from a position-major
byte block.  A value it cannot certify -- zero, a non-finite value, an
exponent outside [-10, 32], or a scaled value within 10^-3 of a rounding
tie -- is formatted by ``'%.12g' % x`` itself, so the output never rests on
the float argument alone.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .core import validate_integer

DP_MAX_HORIZON = 4096

#: Largest horizon ``closed_form`` accepts.  Its sequences and temporaries
#: take about six float64 arrays of T entries at peak (~0.8 GB at 2^24);
#: a larger horizon is refused before anything is allocated.
CLOSED_FORM_MAX_HORIZON = 1 << 24

#: Rows rendered per ``write`` call by ``write_sequences_csv``.
CSV_CHUNK_ROWS = 4096

_POW10 = np.array([float(10 ** k) for k in range(23)])  # 10^0..10^22, each exact in float64
#: Byte slots of one rendered float: its sign, the "0.000" of fixed notation
#: below 1, thirteen for twelve digits and a point after any one of them, and
#: "e+dd".  The widest '%.12g' text, "-1.23456789012e-308", fits as well.
_FLOAT_SLOTS = 23
_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)[:, None, None]
_PREFIX_SLOT = np.arange(5, dtype=np.int8)[:, None, None]
_DIGIT = np.arange(12, dtype=np.uint8)[:, None, None]
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
        if n1 < 0 or n2 < 0 or n1 + n2 + r != self.horizon:
            raise ValueError("state must satisfy n1 + n2 + r = T with n1, n2 >= 0")
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
    # m(m+1-T) <= T^2/4 <= 2^46 at the cap: exact in int64 and in float64
    m = np.arange(t + 1, dtype=np.int64)
    linear = m + (1 - t)
    linear *= m
    v = np.frombuffer(sums) * 0.5
    v += linear / (2.0 * t)
    a = u[:t] + inv_t
    return ClosedFormSequences(horizon=t, u=u, v=v, a=a, value=float(v[t]))


def check_a_bounds(horizon: int, seqs: ClosedFormSequences | None = None) -> tuple[float, float]:
    """Worst violation of 1/(T-r+log T) <= a[r] <= 1/(T-r) over r in [0, T).

    Returns (max_upper_violation, max_lower_violation), each clipped at 0;
    both are expected to vanish.  ``seqs``, if given, must be
    ``closed_form(horizon)``; otherwise it is computed here.
    """
    t = validate_integer(horizon, "horizon", 2)
    if seqs is None:
        seqs = closed_form(t)
    elif seqs.horizon != t:
        raise ValueError(f"sequences are for T={seqs.horizon}, not T={t}")
    a = seqs.a
    r = np.arange(t, dtype=float)
    upper = 1.0 / (t - r)
    lower = 1.0 / (t - r + math.log(t))
    max_upper = float(np.max(a - upper, initial=0.0))
    max_lower = float(np.max(lower - a, initial=0.0))
    return max(max_upper, 0.0), max(max_lower, 0.0)


def write_sequences_csv(seqs: ClosedFormSequences, fh) -> None:
    """Write ``r,u_r,v_r,a_r,upper_bound,lower_bound`` rows for r in [0, T) to ``fh``.

    The bytes are those of ``"%d,%.12g,%.12g,%.12g,%.12g,%.12g\\n" % row``
    (``engine.format_float`` for the floats, and for r, which it prints as
    ``%d`` because r < T <= 2^24); the bounds are 1/(T-r) and 1/(T-r+log T).
    Rows are rendered ``CSV_CHUNK_ROWS`` at a time by ``_csv_rows``, so
    memory stays O(chunk) in T.  Each float is rounded by
    ``_round_g12``: one correctly rounded product or quotient with an exact
    power of ten scales it into [10^11, 10^12) with an error of at most 2^-14,
    and ``rint`` then gives the twelve digits exactly unless the scaled value
    lies within 10^-3 of a tie.  Such values, zeros, non-finite values and
    exponents outside [-10, 32] are formatted by ``'%.12g' % x`` itself.
    """
    t = seqs.horizon
    log_t = math.log(t)
    fh.write("r,u_r,v_r,a_r,upper_bound,lower_bound\n")
    for lo in range(0, t, CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, t)
        r = np.arange(lo, hi, dtype=float)
        left = t - r  # exact, like the Python int T - r
        fh.write(_csv_rows((r, seqs.u[lo:hi], seqs.v[lo:hi], seqs.a[lo:hi],
                            1.0 / left, 1.0 / (left + log_t))))


def _csv_rows(columns) -> str:
    """CSV lines ``columns[0][i],columns[1][i],...``, each value as ``'%.12g'``.

    The lines are built in a position-major (characters x rows) uint8 block,
    because numpy ops along a short per-line axis run line by line and ops
    along the long one do not.  Unused positions hold NUL and are deleted
    after one transpose.
    """
    slots = _FLOAT_SLOTS + 1  # the float, then a comma or the newline
    block = np.empty((len(columns) * slots, columns[0].size), dtype=np.uint8)
    cells = block.reshape(len(columns), slots, -1).transpose(1, 0, 2)
    cells[-1] = ord(",")
    block[-1] = ord("\n")
    _format_g12(np.stack(columns), cells[:-1])
    return block.T.tobytes().translate(None, b"\0").decode("ascii")


def _round_g12(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(m, exponent, certified)``: each x as m * 10^(exponent - 11), m in [10^11, 10^12).

    Where ``certified`` holds, m (int64) is the correctly rounded twelve-digit
    significand that ``'%.12g'`` prints and ``exponent`` (int8) the power of
    ten of its first digit.  With k = 11 - floor(log10|x|), the scaled
    s = |x| * 10^k is one correctly rounded multiply or divide by an exact
    power 10^0..10^22, so |s - exact| <= 2^-14 on [10^11, 10^12); a floor of
    log10 that misses by one near a power of ten is corrected once from s.
    Not certified: 0, inf and nan (their log10 is not finite), |k| > 21, an s
    that still lies outside [10^11, 10^12), and an s within 10^-3 of a
    half-integer, where the error bound could not decide the rounding.
    """
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 11.0 - np.floor(np.log10(ax))
        certified = np.abs(k) <= 21.0
    ax[~certified] = 1.0  # placeholders keep the arithmetic below finite
    k = np.where(certified, k, 11.0).astype(np.intp)
    s = _times_pow10(ax, k)
    k += s < 1e11
    k -= s >= 1e12
    s = _times_pow10(ax, k)
    m = np.rint(s)
    certified &= (s >= 1e11) & (s < 1e12) & (np.abs(s - m) <= 0.499)
    carry = m == 1e12  # 999999999999.5 and up round to 10^12: one more digit
    m[carry] = 1e11
    return m.astype(np.int64), (11 - k + carry).astype(np.int8), certified


def _times_pow10(ax: np.ndarray, k: np.ndarray) -> np.ndarray:
    """ax * 10^k, |k| <= 22, in one rounding: the other factor or divisor is 1."""
    return ax * _POW10[np.maximum(k, 0)] / _POW10[np.maximum(-k, 0)]


def _format_g12(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.12g' % v`` for each v of ``x`` into ``out``, NUL-padded.

    ``out`` is uint8 of shape ``(_FLOAT_SLOTS,) + x.shape``, one position per
    row.  Its slots hold the sign, the "0." and zeros of fixed notation below
    1 (exponent -4..-1), thirteen digit-or-point slots and the exponent suffix
    "e+dd" of exponent notation (exponent below -4 or above 11).  Digit j sits
    in slot j up to the point and in slot j + 1 after it, so no row shifts its
    digits; trailing zeros of the fraction, and a point with no digit after
    it, are NUL.
    """
    m, exp10, certified = _round_g12(x)
    digits = np.zeros((14,) + x.shape, dtype=np.uint8)  # D0..D11 in rows 1..12, NUL around
    for row in range(12, 0, -1):
        higher = m // 10
        digits[row] = m - 10 * higher
        m = higher
    last = ((digits[1:13] != 0) * _DIGIT).max(axis=0)  # the last nonzero digit
    digits[1:13] += ord("0")
    fixed = (exp10 >= -4) & (exp10 < 12)
    below_one = fixed & (exp10 < 0)
    whole = np.where(fixed & (exp10 >= 0), exp10, np.int8(0))  # the last digit before the point
    digits[1:13] *= _DIGIT <= np.maximum(last, whole)
    point = np.where(below_one, np.int8(12), whole)  # the point follows this digit
    sign, prefix, middle, suffix = out[0], out[1:6], out[6:19], out[19:]
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=sign)
    np.multiply(_PREFIX_SLOT < np.where(below_one, 1 - exp10, np.int8(0)), _PREFIX, out=prefix)
    np.copyto(middle, digits[:13])
    np.copyto(middle, digits[1:], where=_MIDDLE_SLOT <= point)
    np.copyto(middle, np.where(last > point, np.uint8(ord(".")), np.uint8(0)),
              where=_MIDDLE_SLOT == point + 1)
    sci = ~fixed
    mag = np.abs(exp10)
    suffix[0] = sci * np.uint8(ord("e"))
    suffix[1] = sci * np.where(exp10 < 0, np.uint8(ord("-")), np.uint8(ord("+")))
    suffix[2] = sci * (mag // 10 + ord("0"))
    suffix[3] = sci * (mag % 10 + ord("0"))
    slow = np.nonzero(~certified)
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
