r"""
Fourier data of harmonic Maass forms, and the concrete modular objects.

One type, HarmonicFourierData, models a harmonic form of integer weight
kappa truncated at an order:

    G(z) = sum a+(n) e(nz)  +  a-(0) y^(1-kappa)
           + sum_{n != 0} a-(n) E_kappa(4 pi n y) e(nz),

with y^(1-kappa) read as log(y) when kappa = 1.  A weakly holomorphic
q-series is the case a- = {}: the classical level-1 series E4, E6, the
discriminant cusp form, j and J = j - 744 are built that way, with exact
integer coefficients, beside the completed weight-2 Eisenstein series
E2*(z) = 1 - 24 sum sigma_1(n) q^n - 3/(pi y).  The antilinear operator
xi_kappa acts on the data by

    xi_kappa G = (1-kappa) conj(a-(0))
                 - sum_{n} (4 pi n)^(1-kappa) conj(a-(-n)) e(nz),

a weight 2-kappa q-series, returned as Fourier data again.

Every object is evaluated by one routine, _evaluate, with one tail rule.
Its a+ sum (_series) runs over one coefficient table per object and
precision (_table: a+ dense from its lowest index, as fixed-point integers
beside float magnitudes, and the nonzero a-); it stops where the terms
left fall 10 digits below the working precision, and sums every kept
index, principal part included, in one pass in fixed-point integers at
q = e(z), which libmp's fixed-point exp and cos/sin kernels read off z's
integers (_q): for real coefficients the three-term recurrence
b_k = a_k + 2 Re(q) b_{k+1} - |q|^2 b_{k+2}, otherwise Horner's rule.
eval_modular hands _evaluate the reduced point as reduce_to_fundamental's
exact fixed-point integers.  The a-(0) term and eval_modular's
weight-kappa cocycle join the same fixed-point pass, which is rounded to
an mpc once.  The reported tail adds to the dropped terms a geometric
bound for the terms past the order.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import (fzero, from_man_exp, ln2_fixed, mpf_log, pi_fixed, round_nearest,
                          to_fixed)
from mpmath.libmp.libelefun import cos_sin_basecase, exp_basecase

from .specfun import DEFAULT_PRECISION, e_kappa, _coerce, _workdps
from .qforms import divisor_sigma1, _divisors
from . import hyperbolic
from .hyperbolic import _fixed_point


# ---------------------------------------------------------------------------
# Fourier data, and the classical q-series as Fourier data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicFourierData:
    kappa: int
    a_plus: dict = field(default_factory=dict)    # n -> complex
    a_minus: dict = field(default_factory=dict)   # n -> complex (0 allowed)
    order: int = 64                               # a+ known for n <= order

    def __post_init__(self):
        # read-only copies: _table caches the coefficients per object
        for name in ("a_plus", "a_minus"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


def _series_mul(A, B, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(A[:order + 1]):
        for j, bj in enumerate(B[:order + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_inv(A, order):
    # inverse of a power series with A[0] = 1, exact arithmetic
    assert A[0] == 1
    out = [1] + [0] * order
    for n in range(1, order + 1):
        out[n] = -sum(A[k] * out[n - k] for k in range(1, min(n, len(A) - 1) + 1))
    return out


def build_standard_forms(order=64):
    """E4, E6, the cusp form Delta, j and J = j - 744 to the given order, as
    Fourier data with no a- part."""
    if order < 2:
        raise ValueError("order must be >= 2")
    e4 = [1] + [240 * sum(d ** 3 for d in _divisors(n)) for n in range(1, order + 1)]
    e6 = [1] + [-504 * sum(d ** 5 for d in _divisors(n)) for n in range(1, order + 1)]
    e4_3 = _series_mul(_series_mul(e4, e4, order), e4, order)
    e6_2 = _series_mul(e6, e6, order)
    delta_full = [(x - y) for x, y in zip(e4_3, e6_2)]
    assert delta_full[0] == 0
    delta = [v // 1728 for v in delta_full[1:]]          # Delta / q
    assert all(x % 1728 == 0 for x in delta_full[1:])
    inv_delta = _series_inv(delta, order)                # q / Delta
    jser = _series_mul(e4_3, inv_delta, order)           # j * q
    jc = {n - 1: jser[n] for n in range(order + 1)}
    return {
        "E4": HarmonicFourierData(4, {n: e4[n] for n in range(order + 1)}, {}, order),
        "E6": HarmonicFourierData(6, {n: e6[n] for n in range(order + 1)}, {}, order),
        "DeltaCusp": HarmonicFourierData(12, {n + 1: delta[n] for n in range(order)}, {},
                                         order),
        "j": HarmonicFourierData(0, jc, {}, order - 1),
        "J": HarmonicFourierData(0, {**jc, 0: jc[0] - 744}, {}, order - 1),
    }


# ---------------------------------------------------------------------------
# evaluation: every value goes through _evaluate and its a+ sum, _series
# ---------------------------------------------------------------------------

class TailBoundError(ArithmeticError):
    pass


SERIES_GUARD_BITS = 24     # fixed-point bits carried past mp.prec by _series
_LN2, _LN10 = math.log(2), math.log(10)


def _shift(v, n):
    """v 2^n for an integer v, truncated toward minus infinity."""
    return v << n if n >= 0 else v >> -n


def fixed_pair(c, bits):
    """(re, im) of a real or complex c as fixed-point integers with `bits`
    fractional bits: the pair format of the series and cocycle passes here
    and of the closed-cycle node geometry in `cycles`."""
    parts = c._mpc_ if isinstance(c, mpc) else (mpf(c)._mpf_, fzero)
    return tuple(to_fixed(x, bits) for x in parts)


def fine_pair(c, bits):
    """(fixed_pair(c, fine), fine) for fine = bits plus those by which the
    real or complex c lies below 1: the fractional bits that keep c to
    `bits` bits relative to |c|."""
    re, im = c._mpc_ if isinstance(c, mpc) else (mpf(c)._mpf_, fzero)
    if re[1] or im[1]:
        bits += max(0, -max(p[2] + p[3] for p in (re, im) if p[1]))
    return (to_fixed(re, bits), to_fixed(im, bits)), bits


def pair_to_mpc(acc, bits):
    """The fixed-point pair acc, with `bits` fractional bits, rounded to an mpc."""
    (re, im), prec = acc, mp.prec
    return mp.make_mpc((from_man_exp(re, -bits, prec, round_nearest),
                        from_man_exp(im, -bits, prec, round_nearest)))


def pair_mul_pow(acc, j, n, bits):
    """acc j^n for fixed-point pairs acc and j with `bits` fractional bits
    and an integer n >= 0, by n products."""
    (ar, ai), (jr, ji) = acc, j
    for _ in range(n):
        ar, ai = (ar * jr - ai * ji) >> bits, (ar * ji + ai * jr) >> bits
    return ar, ai


def fixed_exp(v, bits):
    """e^v for the fixed-point integer v with `bits` fractional bits, as
    (m, n) with e^v = m 2^(n - bits) and m in [2^bits, 2^(bits+1)):
    exp_basecase of what is left after removing n multiples of ln 2."""
    n, r = divmod(v, ln2_fixed(bits))
    return exp_basecase(r, bits), n


def _q(x, y, pbits, wp):
    """q = e(x + iy) for x and y fixed-point integers with pbits fractional
    bits, as (qr, qi, e) with q = (qr + i qi) 2^-e, to wp bits relative to
    |q|: e^(-2 pi y) by fixed_exp, with the bits 2 pi y has above 1 added,
    and cos and sin of 2 pi x by cos_sin_basecase on x mod 1 folded into
    its quarter turn, [0, pi/2)."""
    w = wp + max(y >> pbits, 1).bit_length() + 4
    m, n = fixed_exp(-((_shift(y, w - pbits) * pi_fixed(w)) >> w - 1), w)
    turn = _shift(x, wp - pbits) & ((1 << wp) - 1)
    c, s = cos_sin_basecase(((turn & ((1 << wp - 2) - 1)) * pi_fixed(wp)) >> wp - 1, wp)
    for _ in range(turn >> wp - 2):
        c, s = -s, c
    return m * c, m * s, w + wp - n


def _table(f):
    """f's coefficients, coerced once per object and working precision:
    (n0, bits, re, im, mags, top, minus, real, mixed, zero, last).  re, im
    and mags hold a+(n0 + k), dense from the lowest nonzero index n0
    (negative allowed) to the highest, as fixed-point integers with `bits`
    fractional bits and as float magnitudes; bits is mp.prec plus the
    guard, plus what |a+(n0)| lies below 1, so the rounding stays below the
    leading term's last bits.  top is the largest magnitude of positive
    index (_height_cut); minus is the sorted list of nonzero (n, a-(n));
    real says every a+ is real; mixed says n0 != 0 or an a-(n != 0) exists
    (_evaluate's mpc branch); zero lists a nonzero a-(0) as fixed_pair at
    bits; last is the largest of the last six magnitudes (the tail)."""
    tables = vars(f).setdefault("_tables", {})    # instance dict: the class is frozen
    if mp.prec not in tables:
        plus = {n: _coerce(c) for n, c in f.a_plus.items() if c}
        n0 = min(plus, default=0)
        bits = mp.prec + SERIES_GUARD_BITS + (max(0, -mpmath.mag(plus[n0])) if plus else 0)
        size = max(plus, default=n0 - 1) - n0 + 1
        re, im, mags = [0] * size, [0] * size, [0.0] * size
        for n, c in plus.items():
            re[n - n0], im[n - n0] = fixed_pair(c, bits)
            mags[n - n0] = float(abs(c))
        minus = sorted((n, _coerce(c)) for n, c in f.a_minus.items() if c)
        top = max(mags[max(0, 1 - n0):], default=0.0)
        tables[mp.prec] = (n0, bits, re, im, mags, top, minus, not any(im),
                           bool(n0) or any(n for n, _ in minus),
                           [fixed_pair(c, bits) for n, c in minus if not n],
                           max(mags[-6:], default=0.0))
    return tables[mp.prec]


def _height_cut(n0, mags, top, absq):
    """(keep, dropped) for a table's n0, float magnitudes and largest
    positive-index magnitude top, at |q| = absq: terms of positive index are
    dropped from the top down while the float sum of the dropped
    |a+(n)| |q|^n stays below 10^-(dps + 10), and keep counts those left.
    The walk starts at the first index n whose geometric tail
    top |q|^n / (1 - |q|) lies below 2^-100 of the cut, beside hi, that
    tail as a float bound for the skipped terms' sum.  Float rounding is
    monotone, so the full walk's sum lies between dropped and hi: once the
    two agree it is theirs, bit for bit; where they do not by the cut, the
    walk starts again from the top."""
    cut = 10.0 ** -(mp.dps + 10)
    keep, dropped, hi = len(mags), 0.0, 0.0
    if absq and top:
        n = math.ceil(((mp.dps + 10) * _LN10 + 100 * _LN2 - math.log1p(-absq) + math.log(top))
                      / -math.log(absq))
        if n - n0 < keep:
            keep = max(n - n0, 0)
            hi = (top * absq ** n / (1 - absq) * (1 + 2.0 ** -30)
                  + (top + 1) * len(mags) * 2.0 ** -1074)
    while True:
        while keep and n0 + keep - 1 > 0:
            term = mags[keep - 1] * absq ** (n0 + keep - 1)
            if hi + term >= cut:
                break
            keep, dropped, hi = keep - 1, dropped + term, hi + term
        if hi == dropped:
            return keep, dropped
        keep, dropped, hi = len(mags), 0.0, 0.0


def _series(table, z, absq):
    """(sum a+(n0 + k) q^k over table = _table(f) as a fixed-point
    pair with its bits, dropped sum, q as _q's (qr, qi, e)) at q = e(z) and
    absq = |q|, for z the fixed-point triple (x, y, pbits).  q is read
    off x and y 8 bits past the working precision (_q).  The terms that
    _height_cut keeps, principal part included, are summed in fixed-point
    integers: for a real table by the three-term recurrence
    b_k = a_k + 2 Re(q) b_{k+1} - |q|^2 b_{k+2}, whose sum is
    b_0 - b_1 conj(q), two products a term; otherwise by Horner's rule,
    four.
    """
    x, y, pbits = z
    n0, bits, re, im, mags, top, _, real, _, _, _ = table
    keep, dropped = _height_cut(n0, mags, top, absq)
    q = qr, qi, e = _q(x, y, pbits, mp.prec + 8)
    qr, qi = _shift(qr, bits - e), _shift(qi, bits - e)
    if real:
        t, s, b0, b1 = 2 * qr, (qr * qr + qi * qi) >> bits, 0, 0
        for k in range(keep - 1, -1, -1):
            b0, b1 = re[k] + ((t * b0 - s * b1) >> bits), b0
        return (b0 - ((b1 * qr) >> bits), (b1 * qi) >> bits), dropped, q
    ar = ai = 0
    for k in range(keep - 1, -1, -1):
        ar, ai = ((ar * qr - ai * qi) >> bits) + re[k], ((ar * qi + ai * qr) >> bits) + im[k]
    return (ar, ai), dropped, q


def _y_power(kappa, y, pbits, bits):
    """a-(0)'s mode y^(1-kappa) (log y where kappa = 1) at y = y 2^-pbits,
    as a fixed-point integer with `bits` fractional bits."""
    e = 1 - kappa
    if not e:
        return to_fixed(mpf_log(from_man_exp(y, -pbits), bits), bits)
    if e > 0:
        return _shift(y ** e, bits - e * pbits)
    return (1 << bits - e * pbits) // y ** -e


def _evaluate(f, z, prec, gamma=None):
    """(value, tail) of Fourier data f at z in H, at the working precision;
    z is a fixed-point triple (x, y, bits) as reduce_to_fundamental and
    hyperbolic._fixed_point return, and prec is passed on to E_kappa.

    The a+ sum (_series), the a-(0) term and, where gamma = ((a, b), (c, d))
    moved a point z0 to z, the factor (a - c z)^kappa = (c z0 + d)^-kappa
    giving f(z0) are carried in one fixed-point pass from z's integers and
    rounded to an mpc once.  Where n0 != 0 or an a-(n != 0) exists, q^n0
    and those a- modes are taken in mpc arithmetic at _series' q, which
    keeps its precision relative to |q|, and carried on in fixed point to
    their last bits.

    The tail is the a+ terms the height cut dropped, plus a bound for
    those past the order that lets the coefficients grow by up to a factor
    2 per index from the largest of the last six, times the cocycle's
    |a - c z|^kappa where gamma is given; where 2|q| >= 1 that bound does
    not converge and TailBoundError is raised.
    """
    x, y, pbits = z
    if y <= 0:
        raise ValueError("z must lie in the upper half-plane")
    zf = complex(x / (1 << pbits), y / (1 << pbits))
    absq = math.exp(-2 * math.pi * zf.imag)
    if 2 * absq >= 1:
        raise TailBoundError(
            "q-series tail does not converge at this height; "
            "reduce to the fundamental domain first")
    table = _table(f)
    n0, bits, _, _, _, _, minus, _, mixed, zero, last = table
    acc, dropped, q = _series(table, z, absq)
    if mixed:
        q, ym = pair_to_mpc(q[:2], q[2]), mpmath.ldexp(y, -pbits)
        modes = [c * e_kappa(f.kappa, 4 * mpmath.pi * n * ym, prec).value * q ** n
                 for n, c in minus if n]
        acc, bits = fine_pair(sum(modes, pair_to_mpc(acc, bits) * q ** n0), bits)
        zero = [fixed_pair(c, bits) for n, c in minus if not n]
    for pair in zero:      # a-(0) y^(1-kappa)
        mode = _y_power(f.kappa, y, pbits, bits)
        acc = [s + ((t * mode) >> bits) for s, t in zip(acc, pair)]
    tail = last * 2 * absq ** (f.order + 1) / (1 - 2 * absq) + dropped
    if gamma is not None:
        acc, bits = _cocycle(acc, bits, gamma, (x, y, pbits), f.kappa)
        tail *= abs(gamma[0][0] - gamma[1][0] * zf) ** f.kappa
    return pair_to_mpc(acc, bits), tail


def _cocycle(acc, bits, gamma, z, kappa):
    """(acc (a - c z)^kappa, its fractional bits) for the fixed-point pair
    acc with `bits` fractional bits, gamma = ((a, b), (c, d)) and z in F
    the fixed-point triple (x, y, pbits), where |a - c z| >= sqrt(3)/2.
    For kappa < 0 the factor can be tiny, so the pair first gains the bits
    by which it may lie below 1."""
    (a, _), (c, _) = gamma
    if not kappa or (not c and a ** kappa == 1):
        return acc, bits
    x, y, pbits = z
    j = (a << bits) - c * _shift(x, bits - pbits), -c * _shift(y, bits - pbits)
    if kappa < 0:
        extra = -kappa * (max(map(abs, j)).bit_length() - bits + 1)
        acc, (jr, ji), bits = [t << extra for t in acc], [t << extra for t in j], bits + extra
        norm = (jr * jr + ji * ji) >> bits
        j = (jr << bits) // norm, (-ji << bits) // norm
    return pair_mul_pow(acc, j, abs(kappa), bits), bits


def eval_qexp(f, z, prec=DEFAULT_PRECISION):
    """(value, tail) of Fourier data f at z itself, with no reduction.

    The tail bounds the a+ terms cut by height and those past the order;
    below y = ln 2 / 2 pi it cannot be bounded and TailBoundError suggests
    fundamental-domain reduction.
    """
    with _workdps(prec):
        return _evaluate(f, _fixed_point(*mpc(z)._mpc_), prec)


def eval_modular(f, z, prec=DEFAULT_PRECISION):
    """(value, tail) of genuinely modular Fourier data f, evaluated after
    moving z into F: f(z) = f(z*) (a - c z*)^kappa for gamma z = z*, taken
    in _evaluate's fixed-point pass from z*'s fixed-point integers as
    reduce_to_fundamental returns them (z* is never rounded to an mpc),
    the tail scaled by |a - c z*|^kappa.  Reduction, series and cocycle all
    run at prec's working precision."""
    with _workdps(prec):
        zstar, gamma = hyperbolic.reduce_to_fundamental(z)
        return _evaluate(f, zstar, prec, gamma)


def xi_symbolic(G, prec=DEFAULT_PRECISION):
    """xi_kappa G as Fourier data of weight 2 - kappa with no a- part, of
    order the largest index of its support."""
    with _workdps(prec):
        coeffs = {}
        zero = G.a_minus.get(0, 0)
        coeffs[0] = (1 - G.kappa) * mpmath.conj(_coerce(zero))
        for m, c in G.a_minus.items():
            if m == 0 or not c:
                continue
            n = -m
            val = -(4 * mpmath.pi * n) ** (1 - G.kappa) * mpmath.conj(_coerce(c))
            coeffs[n] = coeffs.get(n, 0) + val
        return HarmonicFourierData(2 - G.kappa, coeffs, {},
                                   max((n for n in coeffs if coeffs[n] != 0), default=0))


# ---------------------------------------------------------------------------
# Eisenstein objects
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def e2_star_data(order=64, prec=DEFAULT_PRECISION):
    """Fourier data of the completed weight-2 Eisenstein series, built once
    per order and precision and shared."""
    a_plus = {0: 1}
    for n in range(1, order + 1):
        a_plus[n] = -24 * divisor_sigma1(n)
    with _workdps(prec):
        am0 = mpf(-3) / mpmath.pi
    return HarmonicFourierData(2, a_plus, {0: am0}, order)


def e2_star_modular(z, order=64, prec=DEFAULT_PRECISION):
    """E2* evaluated through the fundamental domain (weight-2 cocycle)."""
    return eval_modular(e2_star_data(order, prec), z, prec)[0]
