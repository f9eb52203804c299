r"""
Exact-arithmetic engine for integral binary quadratic forms.

A form (a, b, c) means Q(x, y) = a x^2 + b xy + c y^2 with discriminant
b^2 - 4ac.  SL_2(Z) acts by substitution; reduction of definite forms
(the tests' reference: no package code calls it), the square normal form
from its one null vector, stabilizer orders from disc and content, class
enumeration for all three discriminant regimes (definite, indefinite
non-square, square, the indefinite classes as reduced forms on rho-cycles),
the Pell equation t^2 - D u^2 = 4 from the principal form's rho-cycle (one
walk, _cycle, serves both), the genus character attached to a fundamental
discriminant with the Kronecker symbol and the fundamental-discriminant
test it rests on, and Hurwitz class numbers all live here.  Everything is
exact integer / rational arithmetic, and the module imports neither mpmath
nor any other package module: the CLI's class-number, classes and chi load
it alone.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# forms and the SL2 action
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class QForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0 and self.b == 0 and self.c == 0:
            raise ValueError("the zero form is not allowed")

    @property
    def disc(self):
        return self.b * self.b - 4 * self.a * self.c

    @property
    def content(self):
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c))

    def __call__(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y

    def compose(self, M):
        """Q o M: substitute (x, y) -> M (x, y)^T.  Preserves disc for det 1."""
        (p, q), (r, s) = M
        a2 = self(p, r)
        c2 = self(q, s)
        b2 = 2 * self.a * p * q + self.b * (p * s + q * r) + 2 * self.c * r * s
        return QForm(a2, b2, c2)

    def neg(self):
        return QForm(-self.a, -self.b, -self.c)

    def __repr__(self):
        return f"QForm({self.a},{self.b},{self.c})"


IDENTITY = ((1, 0), (0, 1))


def mat_mul(M, N):
    (a, b), (c, d) = M
    (e, f), (g, h) = N
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mat_inv(M):
    (a, b), (c, d) = M
    det = a * d - b * c
    if det != 1:
        raise ValueError("expected det 1")
    return ((d, -b), (-c, a))


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _rho_step(Q):
    """One step (a,b,c) -> (c, b', *) along the rho-cycle of a reduced
    indefinite form, with its SL2 matrix: b' is the largest value
    <= floor(sqrt D) congruent to -b mod 2|c| (|c| < floor(sqrt D) holds on
    the cycle)."""
    ac = abs(Q.c)
    bp = -Q.b + 2 * ac * ((math.isqrt(Q.disc) + Q.b) // (2 * ac))
    m = (Q.b + bp) // (2 * Q.c)
    M = ((0, -1), (1, m))
    return Q.compose(M), M


def _cycle(Q):
    """The rho-cycle of a reduced indefinite form Q: (its forms, from Q on,
    and the product of the step matrices once around, Q o M = Q)."""
    forms, (cur, M) = [Q], _rho_step(Q)
    while cur != Q:
        if len(forms) > 100000:
            raise ArithmeticError("rho cycle did not close")
        forms.append(cur)
        cur, step = _rho_step(cur)
        M = mat_mul(M, step)
    return forms, M


def reduce(Q):
    """Gauss reduction of a definite form.  Returns (reduced form, M) with
    Q o M = reduced, the unique reduced representative (input with a < 0
    is negated first; the matrix then reduces -Q).  Indefinite forms are
    rejected: the ones in use come reduced from class_reps.
    """
    if Q.disc >= 0:
        raise ValueError("reduce expects a definite form (disc < 0)")
    if Q.a < 0:
        Q = Q.neg()
    M = IDENTITY
    S = ((0, -1), (1, 0))
    while True:
        # translate b into (-a, a]
        t = (Q.a - Q.b) // (2 * Q.a)
        if t:
            T = ((1, t), (0, 1))
            Q, M = Q.compose(T), mat_mul(M, T)
        if Q.c < Q.a or (Q.c == Q.a and Q.b < 0):
            Q, M = Q.compose(S), mat_mul(M, S)
            continue
        break
    return Q, M


def square_normalize(Q):
    """Bring a form of square discriminant f^2 > 0 to (0, f, c), 0 <= c < f.

    Returns (normal form, M) with Q o M equal to the normal form.  M's first
    column is the one primitive null vector (p, q), q >= 0, that gives the
    middle coefficient +f: the root (-b - f)/2a of Q(x, 1) when a != 0, else
    (1, 0) when b = f and (-c, b) when b = -f.
    """
    D = Q.disc
    f = math.isqrt(D)
    if D <= 0 or f * f != D:
        raise ValueError("square_normalize expects positive square discriminant")
    p, q = (-Q.b - f, 2 * Q.a) if Q.a else (1, 0) if Q.b == f else (-Q.c, Q.b)
    g = math.gcd(p, q) if q >= 0 else -math.gcd(p, q)
    p, q = p // g, q // g
    _, u, v = _xgcd(p, q)
    M = ((p, -v), (q, u))
    QM = Q.compose(M)
    assert QM.a == 0 and QM.b == f
    T = ((1, -(QM.c // f)), (0, 1))    # translate c into [0, f)
    return QM.compose(T), mat_mul(M, T)


def _xgcd(a, b):
    if a == 0:
        return (abs(b), 0, 1 if b > 0 else -1)
    g, x, y = _xgcd(b % a, a)
    return (g, y - (b // a) * x, x)


# ---------------------------------------------------------------------------
# class enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassList:
    disc: int
    reps: tuple
    regime: str

    def to_json(self):
        return {"disc": self.disc, "regime": self.regime,
                "reps": [[Q.a, Q.b, Q.c] for Q in self.reps]}


def class_reps(disc):
    """Gamma-inequivalence class representatives of discriminant disc.

    disc < 0: all reduced positive definite forms.  disc = f^2: the forms
    (0, f, c) with 0 <= c < f.  disc > 0 non-square: one reduced form per
    rho-cycle.  Imprimitive forms are included.
    """
    disc = int(disc)
    if disc == 0 or disc % 4 not in (0, 1):
        raise ValueError("disc must be a nonzero integer = 0, 1 mod 4")
    if disc < 0:
        reps = []
        amax = math.isqrt(-disc // 3) if disc <= -3 else 1
        for a in range(1, amax + 1):
            for b in range(-a + 1, a + 1):
                num = b * b - disc
                if num % (4 * a):
                    continue
                c = num // (4 * a)
                if c < a:
                    continue
                if a == c and b < 0:
                    continue
                reps.append(QForm(a, b, c))
        return ClassList(disc, tuple(sorted(reps)), "definite")
    f = math.isqrt(disc)
    if f * f == disc:
        return ClassList(disc, tuple(QForm(0, f, c) for c in range(f)), "square")
    # all reduced indefinite forms, grouped into rho-cycles
    pool = set()
    for b in range(1, f + 1):
        if (disc - b * b) % 4:
            continue
        m = (disc - b * b) // 4   # = |a c|, with a c < 0
        for a0 in _divisors(m):
            if (2 * a0 - b) ** 2 < disc < (2 * a0 + b) ** 2:
                c0 = m // a0
                pool.add(QForm(a0, b, -c0))
                pool.add(QForm(-a0, b, c0))
    reps = []
    seen = set()
    for Q in sorted(pool):
        if Q not in seen:
            cycle, _ = _cycle(Q)
            seen.update(cycle)
            reps.append(min(cycle))
    return ClassList(disc, tuple(sorted(reps)), "indefinite-nonsquare")


def _divisors(m):
    ds = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            ds.append(d)
            if d != m // d:
                ds.append(m // d)
        d += 1
    return sorted(ds)


# ---------------------------------------------------------------------------
# Pell
# ---------------------------------------------------------------------------

def pell_fundamental_4(D):
    """Minimal (t, u), t, u > 0, with t^2 - D u^2 = 4, D > 0 a non-square
    discriminant: the product of the rho steps once around the cycle of the
    reduced principal form R = (1, b, (b^2 - D)/4) is R's fundamental
    automorph +-[[(t - bu)/2, -cu], [u, (t + bu)/2]] (Buchmann and Vollmer,
    Binary Quadratic Forms, ch. 6)."""
    D = int(D)
    s0 = math.isqrt(D)
    if D <= 0 or s0 * s0 == D or D % 4 not in (0, 1):
        raise ValueError("needs a positive non-square discriminant D = 0, 1 mod 4")
    b = s0 - (D - s0) % 2     # b and D of one parity
    _, M = _cycle(QForm(1, b, (b * b - D) // 4))
    return abs(M[0][0] + M[1][1]), abs(M[1][0])


# ---------------------------------------------------------------------------
# Kronecker symbol, genus character, class numbers, sigma
# ---------------------------------------------------------------------------

def kronecker_symbol(delta, n):
    """The Kronecker symbol (delta/n), completely multiplicative in n."""
    delta = int(delta)
    n = int(n)
    if n == 0:
        return 1 if delta in (1, -1) else 0
    if n < 0:
        sign = -1 if delta < 0 else 1
        return sign * kronecker_symbol(delta, -n)
    result = 1
    # factor out 2
    while n % 2 == 0:
        n //= 2
        if delta % 2 == 0:
            return 0
        if delta % 8 in (3, 5):
            result = -result
    if delta % 2 == 0 and math.gcd(delta, n) > 1:
        return 0
    # Jacobi symbol (delta/n) for odd n > 0 by reciprocity
    a = delta % n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_fundamental_discriminant(delta):
    """1, squarefree = 1 mod 4, or 4m with m squarefree = 2,3 mod 4."""
    delta = int(delta)
    if delta == 0:
        return False
    if delta % 4 == 1:
        return _is_squarefree(delta)
    if delta % 4 == 0:
        m = delta // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


def _is_squarefree(n):
    return n != 0 and all(e == 1 for e in _factor(n).values())


def _factor(n):
    """{p: e} with |n| = prod p^e, n != 0, by trial division."""
    n, d, out = abs(n), 2, {}
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


@lru_cache(maxsize=256)
def _delta_primes(delta):
    """The primes of a fundamental discriminant delta, checked once per delta."""
    if not is_fundamental_discriminant(delta):
        raise ValueError("delta must be a fundamental discriminant")
    return tuple(_factor(delta))


def genus_char(delta, Q):
    """The genus character chi_delta(Q) = (delta/n) on represented values.

    Requires disc(Q) = |delta| * D with sgn(delta) D a discriminant.
    Returns 0 when gcd(a, b, c, delta) > 1.  Otherwise, for each prime p
    of delta one of Q(1,0), Q(0,1), Q(1,1) is prime to p (else p divides
    a, c and b); the CRT combination (x, y) of these points makes Q(x, y)
    a represented value coprime to delta (Cox, Primes of the Form
    x^2 + ny^2, Lemma 2.25).  Negative represented values go through the
    Kronecker symbol's sign convention, which gives
    chi(-Q) = sgn(delta) chi(Q).
    """
    delta = int(delta)
    primes, q = _delta_primes(delta), abs(delta)
    disc = Q.disc
    if disc % q:
        raise ValueError("disc(Q) must be divisible by |delta|")
    Dq = disc // q
    sD = Dq if delta > 0 else -Dq
    if sD % 4 not in (0, 1):
        raise ValueError("disc(Q)/|delta| violates the discriminant condition")
    if math.gcd(Q.content, q) > 1:
        return 0
    x = y = 0     # delta = 1 has no primes: (1/Q(0, 0)) = (1/0) = 1
    m = 1
    for p in primes:
        px, py = (1, 0) if Q.a % p else (0, 1) if Q.c % p else (1, 1)
        t = pow(m, -1, p)
        x += m * ((px - x) * t % p)
        y += m * ((py - y) * t % p)
        m *= p
    return kronecker_symbol(delta, Q(x, y))


def stabilizer_order(Q):
    """|stabilizer in PSL_2(Z)| of a positive definite form: 3 if
    disc = -3 g^2, 2 if disc = -4 g^2 and 1 otherwise, g the content.  A
    nontrivial stabilizer fixes the CM point, which is then equivalent to rho
    or i; the primitive forms of discriminants -3 and -4 make one class each,
    and g Q' has the stabilizer of Q'."""
    if Q.disc >= 0:
        raise ValueError("stabilizer_order expects a definite form")
    if Q.a < 0:
        raise ValueError("expects a positive definite form (a > 0)")
    d = -Q.disc // Q.content ** 2
    return 3 if d == 3 else 2 if d == 4 else 1


def hurwitz_class_number(D):
    """Hurwitz class number H(D) as an exact Fraction; H(0) = -1/12.

    Weighted count of positive definite classes of discriminant -D:
    weight 1/3 for the (a,a,a) shape, 1/2 for (a,0,a), 1 otherwise;
    H(D) = 0 unless D = 0, 3 mod 4.
    """
    D = int(D)
    if D < 0:
        raise ValueError("H(D) defined for D >= 0")
    if D == 0:
        return Fraction(-1, 12)
    if D % 4 not in (0, 3):
        return Fraction(0)
    acc = Fraction(0)
    for Q in class_reps(-D).reps:
        acc += Fraction(1, stabilizer_order(Q))
    return acc


def divisor_sigma1(n):
    """sigma_1(n) = sum of divisors."""
    n = int(n)
    if n <= 0:
        raise ValueError("divisor_sigma1 requires n >= 1")
    return sum(_divisors(n))
