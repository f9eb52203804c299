"""Binary quadratic form engine: reduction, classes, Pell solutions and the
automorphs built from them, characters, class numbers.  Oracles are
brute-force orbit searches and direct enumerations, independent of the
implementation's code paths."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from shintani import qforms as qf
from shintani.qforms import QForm
from shintani.specfun import is_fundamental_discriminant, kronecker_symbol


def random_sl2(rng, size=5, length=6):
    M = qf.IDENTITY
    for _ in range(rng.randint(1, length)):
        t = rng.randint(-size, size)
        M = qf.mat_mul(M, ((1, t), (0, 1)))
        if rng.random() < 0.6:
            M = qf.mat_mul(M, ((0, -1), (1, 0)))
    return M


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _is_reduced_definite(Q):
    # the textbook conditions -a < b <= a <= c, b >= 0 when a = c, which
    # reduce is checked against
    a, b, c = Q.a, Q.b, Q.c
    return -a < b <= a <= c and not (a == c and b < 0)


def test_reduce_trivial_fixed_points():
    for Q in (QForm(1, 0, 1), QForm(1, 1, 1)):
        R, M = qf.reduce(Q)
        assert R == Q and M == qf.IDENTITY


def test_reduce_definite_example_orbit_oracle():
    # brute-force orbit search over short SL2 words finds (1,0,2) from (3,10,9)
    Q = QForm(3, 10, 9)
    assert Q.disc == -8
    seen = {Q}
    frontier = [Q]
    gens = [((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, -1), (1, 0))]
    for _ in range(6):
        frontier = [P.compose(g) for P in frontier for g in gens]
        seen.update(frontier)
    reduced_in_orbit = {P for P in seen if _is_reduced_definite(P) and P.a > 0}
    assert reduced_in_orbit == {QForm(1, 0, 2)}
    R, M = qf.reduce(Q)
    assert R == QForm(1, 0, 2)
    assert Q.compose(M) == R


def test_reduce_transformation_matrix_contract():
    rng = random.Random(3)
    for _ in range(100):
        disc = rng.choice([-3, -4, -8, -15, -23, -56])
        base = rng.choice(qf.class_reps(disc).reps)
        Q = base.compose(random_sl2(rng))
        if Q.a < 0:
            Q = Q.neg()
        R, M = qf.reduce(Q)
        assert Q.compose(M) == R
        assert _is_reduced_definite(R)


def test_reduce_definite_lands_on_same_form():
    # reduce(random SL2 action) is the identical reduced representative
    rng = random.Random(9)
    for _ in range(200):
        R0 = rng.choice(qf.class_reps(rng.choice([-3, -4, -20, -23, -47])).reps)
        Q = R0.compose(random_sl2(rng))
        if Q.a < 0:
            Q = Q.neg()
        R, _ = qf.reduce(Q)
        assert R == R0


_DEFINITE = [d for d in range(-3, -400, -1) if d % 4 in (0, 1)]


@settings(max_examples=60)
@given(disc=st.sampled_from(_DEFINITE), index=st.integers(0, 63), sign=st.sampled_from([1, -1]),
       seed=st.integers(0, 2 ** 32))
def test_reduce_matrix_maps_the_form_to_its_reduced_form(disc, index, sign, seed):
    # reduce(Q) = (R, M): M in SL2(Z) with Q o M = R (-Q o M where Q.a < 0),
    # R reduced, and R the representative Q's orbit started from
    reps = qf.class_reps(disc).reps
    R0 = reps[index % len(reps)]
    Q = R0.compose(random_sl2(random.Random(seed)))
    Q = Q if sign > 0 else Q.neg()
    R, M = qf.reduce(Q)
    (p, q), (r, s) = M
    assert p * s - q * r == 1
    assert (Q if Q.a > 0 else Q.neg()).compose(M) == R
    assert _is_reduced_definite(R) and R == R0


def test_reduce_rejects_degenerate():
    # disc 0, and indefinite: reduce is for definite forms only
    for Q in (QForm(1, 2, 1), QForm(1, 1, -1)):
        with pytest.raises(ValueError):
            qf.reduce(Q)


# ---------------------------------------------------------------------------
# class enumeration
# ---------------------------------------------------------------------------

def test_class_reps_examples():
    assert qf.class_reps(-3).reps == (QForm(1, 1, 1),)
    assert qf.class_reps(9).reps == (QForm(0, 3, 0), QForm(0, 3, 1), QForm(0, 3, 2))
    assert set(qf.class_reps(-23).reps) == {QForm(1, 1, 6), QForm(2, 1, 3), QForm(2, -1, 3)}


def test_class_reps_rejects_bad_disc():
    for d in (0, -5, 7, -6):
        with pytest.raises(ValueError):
            qf.class_reps(d)


def test_class_reps_definite_covers_orbits():
    # sampling: any random form of the discriminant reduces into the list
    rng = random.Random(41)
    for disc in (-20, -23, -47, -71):
        reps = set(qf.class_reps(disc).reps)
        for _ in range(25):
            R0 = rng.choice(sorted(reps))
            Q = R0.compose(random_sl2(rng))
            if Q.a < 0:
                Q = Q.neg()
            R, _ = qf.reduce(Q)
            assert R in reps


def _equivalent(Q, R):
    """Whether some M in SL2(Z) has Q o M = R, by brute force, for positive
    definite Q and R of one discriminant -d: M's first column (p, r)
    represents R.a = Q(p, r) >= d r^2 / 4Q.a and >= d p^2 / 4Q.c, which
    bounds it, and given that column the second is fixed up to adding
    t (p, r), which moves the middle coefficient by 2 t R.a."""
    d = -Q.disc
    rmax, pmax = math.isqrt(4 * Q.a * R.a // d), math.isqrt(4 * Q.c * R.a // d)
    for r in range(-rmax, rmax + 1):
        for p in range(-pmax, pmax + 1):
            if math.gcd(p, r) != 1 or Q(p, r) != R.a:
                continue
            _, s, q = qf._xgcd(p, r)      # p s + r q = 1
            b = Q.compose(((p, -q), (r, s))).b
            if (R.b - b) % (2 * R.a) == 0:
                return True
    return False


@settings(max_examples=30)
@given(disc=st.sampled_from(_DEFINITE))
def test_class_reps_match_brute_force_equivalence_count(disc):
    # the forms (a, b, c) with |b| <= a <= c, a superset of the reduced ones,
    # fall into as many SL2(Z) classes under brute-force equivalence as
    # class_reps lists, one representative in each
    forms = [QForm(a, b, (b * b - disc) // (4 * a))
             for a in range(1, math.isqrt(-disc // 3) + 1) for b in range(-a, a + 1)
             if (b * b - disc) % (4 * a) == 0 and (b * b - disc) // (4 * a) >= a]
    classes = []
    for Q in forms:
        for cls in classes:
            if _equivalent(cls[0], Q):
                cls.append(Q)
                break
        else:
            classes.append([Q])
    reps = qf.class_reps(disc).reps
    assert len(classes) == len(reps)
    assert sorted(sum(R in cls for R in reps) for cls in classes) == [1] * len(classes)


def test_class_reps_indefinite_pairwise_inequivalent():
    for disc in (12, 21, 40, 60):
        reps = qf.class_reps(disc).reps
        # distinct cycles: rho-walk each rep, no overlap
        cycles = [set(qf._cycle(R)[0]) for R in reps]
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                assert not (cycles[i] & cycles[j])


def test_square_regime_residue_invariant():
    # (0, f, c) classes are distinguished by c mod f, and square_normalize
    # recovers the residue from any translate, with M in SL2(Z); the negation
    # (0, -f, -c) lands on c' = g (-c/g)^-1 mod f/g, g = gcd(c, f), which
    # -Q o ((-c/g, -v), (f/g, u)) reads when (-c/g) u + (f/g) v = 1
    rng = random.Random(99)
    for f in range(1, 13):
        for Q in qf.class_reps(f * f).reps:
            g = math.gcd(Q.c, f)
            N = QForm(0, f, g * pow(-Q.c // g, -1, f // g))
            for _ in range(3):
                QT = Q.compose(random_sl2(rng, size=3, length=4))
                for P, R in ((QT, Q), (QT.neg(), N)):
                    out, M = qf.square_normalize(P)
                    (p, q), (r, s) = M
                    assert out == R and P.compose(M) == R
                    assert p * s - q * r == 1 and math.gcd(p, r) == 1


# ---------------------------------------------------------------------------
# automorphs / Pell
# ---------------------------------------------------------------------------

def brute_force_automorphs(Q, bound=10):
    """All minimal-trace SL2 matrices with entries <= bound fixing Q,
    trace > 2 (a generator and its inverse)."""
    hits = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    if a * d - b * c != 1 or a + d <= 2:
                        continue
                    if Q.compose(((a, b), (c, d))) == Q:
                        hits.append(((a, b), (c, d)))
    tmin = min(M[0][0] + M[1][1] for M in hits)
    return {M for M in hits if M[0][0] + M[1][1] == tmin}


def automorph(Q):
    # [[(t - bu)/2, -cu], [au, (t + bu)/2]] for Q/g and the least solution of
    # t^2 - (disc/g^2) u^2 = 4, g the content: the stabilizer generator whose
    # translation length 2 log eps_Q closed_cycle_integral integrates over
    g = Q.content
    t, u = qf.pell_fundamental_4(Q.disc // (g * g))
    a, b, c = Q.a // g, Q.b // g, Q.c // g
    return (((t - b * u) // 2, -c * u), (a * u, (t + b * u) // 2))


def test_automorph_examples_brute_force():
    # the brute-force orbit search cannot tell a generator from its inverse;
    # the Pell solution picks the t, u > 0 branch
    assert automorph(QForm(1, 0, -3)) == ((2, 3), (1, 2))
    assert automorph(QForm(1, 0, -3)) in brute_force_automorphs(QForm(1, 0, -3))
    assert automorph(QForm(1, 1, -1)) == ((1, 1), (1, 2))
    assert automorph(QForm(1, 1, -1)) in brute_force_automorphs(QForm(1, 1, -1))


def test_automorph_imprimitive_forms():
    # a multiple g Q of a primitive form has Q's stabilizer, not a power of it
    assert automorph(QForm(-4, 4, 2)) in brute_force_automorphs(QForm(-4, 4, 2))
    for disc in (5, 8, 12, 13, 21, 33):
        for Q in qf.class_reps(disc).reps:
            M = automorph(Q)
            for g in (2, 3):
                gQ = QForm(g * Q.a, g * Q.b, g * Q.c)
                assert automorph(gQ) == M
                assert gQ.compose(M) == gQ


def test_automorph_fixes_random_indefinite_forms():
    rng = random.Random(7)
    count = 0
    while count < 50:
        a = rng.randint(-6, 6)
        b = rng.randint(-6, 6)
        c = rng.randint(-6, 6)
        if a == 0 or c == 0:
            continue
        Q = QForm(a, b, c) if (a, b, c) != (0, 0, 0) else QForm(1, 0, -2)
        D = Q.disc
        if D <= 0 or D > 200 or math.isqrt(D) ** 2 == D:
            continue
        M = automorph(Q)
        assert Q.compose(M) == Q
        count += 1


def test_automorph_trace_and_powers():
    for disc in (12, 21, 40, 145):
        for Q in qf.class_reps(disc).reps:
            M = automorph(Q)
            assert M[0][0] + M[1][1] > 2
            powers = {qf.IDENTITY}
            cur = qf.IDENTITY
            for _ in range(5):
                cur = qf.mat_mul(cur, M)
                assert cur not in powers
                powers.add(cur)


def test_pell_matches_brute_force():
    for D in range(5, 61):
        if D % 4 not in (0, 1) or math.isqrt(D) ** 2 == D:
            continue
        t, u = qf.pell_fundamental_4(D)
        assert t * t - D * u * u == 4 and t > 0 and u > 0
        # brute force the minimal solution
        uu = 1
        while True:
            tt2 = 4 + D * uu * uu
            tt = math.isqrt(tt2)
            if tt * tt == tt2:
                break
            uu += 1
        assert (t, u) == (tt, uu), D


def test_pell_large_entry():
    t, u = qf.pell_fundamental_4(61)
    assert t * t - 61 * u * u == 4
    assert (t, u) == (1523, 195)


def _is_pell_trace(D, t):
    v2, r = divmod(t * t - 4, D)
    return t > 2 and r == 0 and math.isqrt(v2) ** 2 == v2


def test_pell_solutions_are_fundamental():
    # every solution of t^2 - D u^2 = 4 is a power of the fundamental one,
    # eps = (t + u sqrt D)/2, and any solution has eps >= phi^2 (phi the
    # golden ratio); so eps is fundamental iff it is no m-th power for a
    # prime m <= log eps / log phi, i.e. iff the integer nearest
    # 2 cosh(log eps / m) is no solution's trace.  Brute force over u cannot
    # reach these t, which run to hundreds of digits.
    Ds = [D for D in range(5, 2001) if D % 4 in (0, 1) and math.isqrt(D) ** 2 != D]
    assert len(Ds) == 956
    log_phi = math.log((1 + math.sqrt(5)) / 2)
    for D in Ds:
        t, u = qf.pell_fundamental_4(D)
        assert t > 0 and u > 0 and t * t - D * u * u == 4, D
        with mpmath.workdps(len(str(t)) + 20):
            log_eps = mpmath.log((t + u * mpmath.sqrt(D)) / 2)
            for m in range(2, int(log_eps / log_phi) + 1):
                if all(m % p for p in range(2, math.isqrt(m) + 1)):
                    root = int(mpmath.nint(2 * mpmath.cosh(log_eps / m)))
                    assert not _is_pell_trace(D, root), (D, m)


def test_pell_rejects_non_discriminants():
    # the principal form needs D = 0, 1 mod 4
    for D in (2, 3, 6, 7, 10, 11, 14, 15, 0, -4, 16, 25):
        with pytest.raises(ValueError):
            qf.pell_fundamental_4(D)


# ---------------------------------------------------------------------------
# genus character
# ---------------------------------------------------------------------------

def _genus_char_search(delta, Q, radius=50):
    # oracle: (delta/n) for the first represented n != 0 coprime to delta
    # in a growing coordinate box, independent of genus_char's CRT point
    if math.gcd(Q.content, abs(delta)) > 1:
        return 0
    for r in range(1, radius + 1):
        for x in range(-r, r + 1):
            for y in range(-r, r + 1):
                if max(abs(x), abs(y)) != r:
                    continue
                n = Q(x, y)
                if n != 0 and math.gcd(n, delta) == 1:
                    return kronecker_symbol(delta, n)
    raise AssertionError(f"no value of {Q} coprime to {delta} within radius {radius}")


def test_genus_char_principal_delta():
    rng = random.Random(13)
    for _ in range(20):
        Q = QForm(rng.randint(1, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        if Q.disc % 4 in (0, 1) and Q.disc != 0:
            assert qf.genus_char(1, Q) == 1


def test_genus_char_example():
    assert qf.genus_char(-3, QForm(1, 0, 3)) == 1


def test_genus_char_well_defined_on_represented_values():
    # the first several coprime represented values give identical symbols
    rng = random.Random(4)
    for Q in qf.class_reps(-16).reps + qf.class_reps(-32).reps + \
            qf.class_reps(12).reps + qf.class_reps(28).reps:
        chi = qf.genus_char(-4, Q)
        if chi == 0:
            continue
        values = []
        for x in range(-8, 9):
            for y in range(-8, 9):
                n = Q(x, y)
                if n != 0 and math.gcd(abs(n), 4) == 1:
                    values.append(kronecker_symbol(-4, n))
        assert len(set(values[:10])) == 1
        assert values[0] == chi


# fundamental discriminants with up to four prime factors; the radicals of
# the last four exceed 50, so the CRT point can leave the search's box
_GENUS_DELTAS = [-3, -4, -7, 5, -420, -1155, 105, 1365]


def test_genus_char_gamma_invariance():
    rng = random.Random(23)
    for _ in range(200):
        delta = rng.choice(_GENUS_DELTAS)
        D = rng.choice([1, -1, 2, -2, 3, -3, 4, -4])
        sD = D if delta > 0 else -D
        if sD % 4 not in (0, 1) or D == 0:
            continue
        disc = abs(delta) * D
        if disc == 0 or disc % 4 not in (0, 1):
            continue
        try:
            reps = qf.class_reps(disc).reps
        except ValueError:
            continue
        if not reps:
            continue
        Q = rng.choice(reps)
        gamma = random_sl2(rng)
        assert qf.genus_char(delta, Q) == qf.genus_char(delta, Q.compose(gamma))


@settings(max_examples=300)
@given(delta=st.sampled_from(_GENUS_DELTAS), sD=st.integers(-16, 16),
       rng=st.randoms(use_true_random=False))
def test_genus_char_matches_search_on_gamma_images(delta, sD, rng):
    # genus_char is SL2(Z)-invariant and agrees with the box search on
    # random images of class representatives of either sign
    if sD == 0 or sD % 4 not in (0, 1):
        return
    Q = rng.choice(qf.class_reps(abs(delta) * (sD if delta > 0 else -sD)).reps)
    Q = Q.neg() if rng.random() < 0.5 else Q
    QM = Q.compose(random_sl2(rng))
    chi = qf.genus_char(delta, QM)
    assert chi == _genus_char_search(delta, QM) == qf.genus_char(delta, Q)


def test_genus_char_matches_search_on_class_grid():
    # every class representative and its negative, fundamental |delta| <= 200,
    # disc |delta| D with 1 <= D < 40
    count = 0
    for delta in range(-200, 201):
        if not is_fundamental_discriminant(delta):
            continue
        for D in range(1, 40):
            if (D if delta > 0 else -D) % 4 not in (0, 1):
                continue
            for Q in qf.class_reps(abs(delta) * D).reps:
                for R in (Q, Q.neg()):
                    assert qf.genus_char(delta, R) == _genus_char_search(delta, R), (delta, R)
                    count += 1
    assert count == 32942


def test_genus_char_content_condition():
    assert qf.genus_char(-3, QForm(0, 3, 0)) == 0
    assert qf.genus_char(-3, QForm(3, 3, 3)) == 0


def test_genus_char_rejects_bad_disc():
    with pytest.raises(ValueError):
        qf.genus_char(-3, QForm(1, 0, 1))   # disc -4 not divisible by 3


def test_genus_char_rejects_non_fundamental_delta_every_call():
    # the check is memoized per delta with the primes, and a rejected delta
    # is not: every call raises, also after an accepted one
    assert qf.genus_char(-4, QForm(1, 0, 1)) == qf.genus_char(-4, QForm(1, 0, 1)) == 1
    for delta in (-12, -12, 8, 0):
        with pytest.raises(ValueError):
            qf.genus_char(delta, QForm(1, 0, 3))


# ---------------------------------------------------------------------------
# class numbers and sigma
# ---------------------------------------------------------------------------

def test_stabilizer_orders():
    assert qf.stabilizer_order(QForm(1, 0, 1)) == 2
    assert qf.stabilizer_order(QForm(1, 1, 1)) == 3
    assert qf.stabilizer_order(QForm(1, 1, 6)) == 1
    assert qf.stabilizer_order(QForm(2, 2, 2)) == 3
    with pytest.raises(ValueError):
        qf.stabilizer_order(QForm(1, 0, -1))
    # every class of |D| <= 300, imprimitive ones included, under seeded SL2
    # words, against the oracle: reduce, then the (a, a, a) and (a, 0, a)
    # shapes of the reduced forms fixed by rho and i
    rng = random.Random(17)
    for disc in _DEFINITE[:_DEFINITE.index(-300) + 1]:
        for R0 in qf.class_reps(disc).reps:
            for _ in range(3):
                Q = R0.compose(random_sl2(rng))
                R, _ = qf.reduce(Q)
                order = 3 if R.a == R.b == R.c else 2 if R.b == 0 and R.a == R.c else 1
                assert qf.stabilizer_order(Q) == order


def test_hurwitz_class_number_values():
    assert qf.hurwitz_class_number(0) == Fraction(-1, 12)
    assert qf.hurwitz_class_number(3) == Fraction(1, 3)
    assert qf.hurwitz_class_number(4) == Fraction(1, 2)
    assert qf.hurwitz_class_number(23) == 3
    assert qf.hurwitz_class_number(1) == 0
    assert qf.hurwitz_class_number(2) == 0


def test_weighted_reps_equal_class_number():
    for D in range(3, 201):
        if D % 4 not in (0, 3):
            continue
        acc = sum(Fraction(1, qf.stabilizer_order(Q))
                  for Q in qf.class_reps(-D).reps)
        assert acc == qf.hurwitz_class_number(D)


def test_divisor_sigma1():
    assert qf.divisor_sigma1(1) == 1
    assert qf.divisor_sigma1(6) == 12
    # trial-division oracle
    n = 100
    assert qf.divisor_sigma1(n) == sum(d for d in range(1, n + 1) if n % d == 0) == 217
    with pytest.raises(ValueError):
        qf.divisor_sigma1(0)


def test_reduce_rejects_square_disc():
    with pytest.raises(ValueError):
        qf.reduce(QForm(0, 3, 1))


def test_classlist_json_roundtrip():
    cl = qf.class_reps(12)
    d = cl.to_json()
    back = qf.ClassList(d["disc"], tuple(QForm(*t) for t in d["reps"]), d["regime"])
    assert back == cl
