"""Special-function contracts, checked against independent quadrature and
series oracles."""

import ast
import collections
import dataclasses
import itertools
import math
import pathlib
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from shintani import specfun as sf
from shintani.qforms import hurwitz_class_number

PREC = sf.DEFAULT_PRECISION


# ---------------------------------------------------------------------------
# incomplete gamma
# ---------------------------------------------------------------------------

def test_gamma_upper_trivial():
    assert abs(sf.gamma_upper(1, 0).value - 1) < 1e-25
    assert abs(sf.gamma_upper(2, 0).value - 1) < 1e-25


def test_gamma_upper_quadrature_oracle():
    # adaptive quadrature of int_1^oo e^-t t^2 dt
    oracle = mpmath.quad(lambda t: mpmath.e ** (-t) * t * t, [1, mpmath.inf])
    got = sf.gamma_upper(3, 1)
    assert abs(got.value - oracle) < 1e-25
    assert abs(got.value - 5 / mpmath.e) < 1e-25


def test_gamma_upper_recurrence():
    # Gamma(s+1, y) = s Gamma(s, y) + y^s e^-y
    rng = random.Random(5)
    for _ in range(60):
        s = rng.randint(1, 8)
        y = mpf(rng.uniform(-10, 10))
        lhs = sf.gamma_upper(s + 1, y).value
        rhs = s * sf.gamma_upper(s, y).value + y ** s * mpmath.e ** (-y)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_gamma_upper_rejects_bad_s():
    with pytest.raises(ValueError):
        sf.gamma_upper(0, 1)


# ---------------------------------------------------------------------------
# exponential integral, through E_1(y) = -Ei(y)
# ---------------------------------------------------------------------------

def test_ei_negative_quadrature_oracle():
    # Ei(-1) = -int_1^oo e^-t/t dt
    oracle = -mpmath.quad(lambda t: mpmath.e ** (-t) / t, [1, mpmath.inf])
    assert abs(-sf.e_kappa(1, -1).value - oracle) < 1e-25
    assert abs(-sf.e_kappa(1, -10).value - mpf("-4.15696892968532438e-6")) < 1e-18


def test_ei_principal_value_oracle():
    # principal-value oracle at y = 1 via the exact-rational series
    # gamma + log y + sum y^m/(m m!) (all terms positive, no PV subtlety left)
    acc = Fraction(0)
    fact = 1
    for m in range(1, 60):
        fact *= m
        acc += Fraction(1, m * fact)
    oracle = mpmath.euler + mpf(acc.numerator) / acc.denominator
    assert abs(-sf.e_kappa(1, 1).value - oracle) < 1e-25


# ---------------------------------------------------------------------------
# E_kappa
# ---------------------------------------------------------------------------

def test_e_kappa_trivial_kappa0():
    got = sf.e_kappa(0, mpf("1.7")).value
    assert abs(got - mpmath.e ** mpf("1.7")) < 1e-24


def test_e_kappa_k2_branch():
    # kappa = 2, y = -1: -(e^-1 (-1)^-1 - Ei(-1)) = e^-1 + Ei(-1)
    expect = mpmath.e ** mpf(-1) + mpmath.ei(-1)
    assert abs(sf.e_kappa(2, -1).value - expect) < 1e-24
    assert abs(expect - mpf("0.148495506775922")) < 1e-14


def _central_derivative(f, y, h):
    d1 = (f(y + h) - f(y - h)) / (2 * h)
    d2 = (f(y + h / 2) - f(y - h / 2)) / h
    return (4 * d2 - d1) / 3


def test_e_kappa_is_antiderivative():
    # d/dy E_kappa(y) = e^y (-y)^(-kappa), Richardson central differences
    rng = random.Random(11)
    f = {}
    for kappa in range(-3, 7):
        fn = lambda y, kk=kappa: sf.e_kappa(kk, y).value
        for _ in range(20):
            y = mpf(rng.uniform(-5, 5))
            if abs(y) < 0.3:
                continue
            d = _central_derivative(fn, y, mpf("1e-5"))
            expect = mpmath.e ** y * (-y) ** (-kappa)
            assert abs(d - expect) <= 1e-7 * (1 + abs(expect)), (kappa, float(y))


def _e_kappa_reference(kappa, y):
    """E_kappa(y) at 150 digits by the closed forms: the finite sum
    (-kappa)! e^y sum_{j <= -kappa} (-y)^j/j! for kappa <= 0, and
    ((-1)^(kappa+1)/(kappa-1)!) (e^y sum_{j <= kappa-2} j!/y^(j+1) - Ei(y))
    for kappa > 0."""
    with mp.workdps(150):
        y = mpf(y)
        if kappa <= 0:
            return mpmath.factorial(-kappa) * mpmath.exp(y) * mpmath.fsum(
                (-y) ** j / mpmath.factorial(j) for j in range(1 - kappa))
        acc = mpmath.fsum(mpmath.factorial(j) / y ** (j + 1) for j in range(kappa - 1))
        return (-1) ** (kappa + 1) / mpmath.factorial(kappa - 1) * (
            mpmath.exp(y) * acc - mpmath.ei(y))


def test_e_kappa_accuracy_against_closed_forms():
    # E_kappa at Precision(30) keeps its working digits where the closed
    # form cancels (kappa >= 3, |y| large: up to 16 of 40 digits lost)
    for kappa in range(-3, 9):
        for y in (0.003, 0.5, 7, 37.7, 80, 500):
            for y in (y, -y):
                got = sf.e_kappa(kappa, y, sf.Precision(30)).value
                want = _e_kappa_reference(kappa, y)
                with mp.workdps(150):
                    err = abs(got - want) / abs(want)
                assert err <= mpf("1e-36"), (kappa, y, mpmath.nstr(err, 3))


def test_e_kappa_rejects_zero():
    with pytest.raises(ValueError):
        sf.e_kappa(3, 0)


# ---------------------------------------------------------------------------
# Hurwitz zeta at negative integers / Bernoulli polynomials
# ---------------------------------------------------------------------------

def test_hurwitz_zeta_negative_integers_exact_bernoulli():
    # dirichlet_L is mpmath.dirichlet, a sum of zeta(s, r/|delta|); the exact
    # route uses zeta(-j, rho) = -B_{j+1}(rho)/(j+1)
    deltas = [d for d in range(-40, 41) if sf.is_fundamental_discriminant(d)]
    assert len(deltas) == 27
    with mp.workdps(40):   # values reach 1e8; compare beyond 1e-25 absolute
        for delta in deltas:
            for s in range(0, -7, -1):
                got = sf.dirichlet_L(delta, s).value
                expect = sf.dirichlet_L_exact_nonpositive(delta, s)
                assert abs(got - mpf(expect.numerator) / expect.denominator) < 1e-25, \
                    (delta, s)


def test_bernoulli_poly_exact():
    assert sf.bernoulli_poly(1, Fraction(0)) == Fraction(-1, 2)
    assert sf.bernoulli_poly(1, Fraction(1, 4)) == Fraction(1, 4) - Fraction(1, 2)
    # generating-function oracle: te^(xt)/(e^t - 1) expanded symbolically
    # via the defining recurrence sum_{j<n} C(n,j) B_j(x) = n x^(n-1)
    for n in range(1, 9):
        x = Fraction(2, 7)
        lhs = sum(math.comb(n, j) * sf.bernoulli_poly(j, x) for j in range(n))
        assert lhs == n * x ** (n - 1)
    assert sf.bernoulli_poly(2, 0) == Fraction(1, 6)


def test_bernoulli_reflection():
    for n in range(11):
        for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
            assert sf.bernoulli_poly(n, 1 - x) == (-1) ** n * sf.bernoulli_poly(n, x)


@given(st.integers(-2 ** 300, 2 ** 300), st.integers(1, 2 ** 80), st.sampled_from([53, 136]))
@example(1493937883599806829401912377, 423938503, 53)
@example(-55840510052184681615741117487302922813146448845175844, 1017594733, 136)
def test_coerce_rounds_a_fraction_to_nearest(p, q, prec):
    # within half a unit in the last place of the exact value, however wide
    # the numerator: rounding it first and then the quotient can miss by
    # about a unit, and so can rounding toward zero (mpmathify)
    x = Fraction(p, q)
    with mp.workprec(prec):
        sign, man, exp, bc = sf._coerce(x)._mpf_
    assert abs((-1) ** sign * man * Fraction(2) ** exp - x) <= Fraction(2) ** (exp + bc - prec - 1)


# ---------------------------------------------------------------------------
# Kronecker symbol and L-series
# ---------------------------------------------------------------------------

def _residue_character(delta, n):
    # brute-force quadratic-residue character mod |delta| for odd prime |delta|
    q = abs(delta)
    r = n % q
    if r == 0:
        return 0
    return 1 if any((x * x - r) % q == 0 for x in range(1, q)) else -1


def test_kronecker_principal():
    assert all(sf.kronecker_symbol(1, n) == 1 for n in range(1, 50))


def test_kronecker_minus4_minus3():
    assert sf.kronecker_symbol(-4, 3) == -1
    # (-3/n) has period 3 with values (1, -1, 0); brute-force QR oracle
    for n in range(1, 40):
        expect = _residue_character(-3, n)
        assert sf.kronecker_symbol(-3, n) == expect


def test_kronecker_complete_multiplicativity():
    rng = random.Random(17)
    deltas = [-3, -4, 5, -8, 12, 13, -20, 21]
    for _ in range(500):
        d = rng.choice(deltas)
        m = rng.randint(-60, 60)
        n = rng.randint(-60, 60)
        assert sf.kronecker_symbol(d, m * n) == \
            sf.kronecker_symbol(d, m) * sf.kronecker_symbol(d, n)


def test_dirichlet_L_at_zero():
    assert abs(sf.dirichlet_L(-4, 0).value - mpf("0.5")) < 1e-28
    assert sf.dirichlet_L_exact_nonpositive(-4, 0) == Fraction(1, 2)


def test_dirichlet_L_at_one_accelerated_oracle():
    # averaged partial sums of sum (delta/n)/n as an independent check
    got = sf.dirichlet_L(-3, 1).value
    assert abs(got - mpmath.pi / (3 * mpmath.sqrt(3))) < 1e-25
    with mp.workdps(40):
        def full_period_partial(M):
            return sum(mpf(sf.kronecker_symbol(-3, n)) / n
                       for n in range(1, 3 * M + 1))
        S1 = full_period_partial(10000)
        S2 = full_period_partial(20000)
        extrapolated = 2 * S2 - S1   # kills the 1/M term of the tail
    assert abs(got - extrapolated) < 1e-8


NEGATIVE_FUNDAMENTALS = [d for d in range(-3, -10001, -1) if sf.is_fundamental_discriminant(d)]


@settings(max_examples=20)
@given(d=st.sampled_from(NEGATIVE_FUNDAMENTALS))
@example(d=-3)
@example(d=-4)
def test_class_number_formula(d):
    # L_d(0) = H(|d|) exactly (Bernoulli numbers), and sqrt|d| L_d(1)/pi
    # = H(|d|) at the working precision, for fundamental d < 0, |d| <= 10^4
    H = hurwitz_class_number(-d)
    assert sf.dirichlet_L_exact_nonpositive(d, 0) == H
    with mp.workdps(40):
        L1 = mpmath.sqrt(-d) * sf.dirichlet_L(d, 1).value / mpmath.pi
        assert abs(L1 - mpf(H.numerator) / H.denominator) <= mpf("1e-25")


def test_dirichlet_L_pole_rejected():
    with pytest.raises(ValueError):
        sf.dirichlet_L(1, 1)
    with pytest.raises(ValueError):
        sf.dirichlet_L(-7, 2)
    with pytest.raises(ValueError):
        sf.dirichlet_L(8, 1.5)


def test_dirichlet_L_rejects_nonfundamental():
    with pytest.raises(ValueError):
        sf.dirichlet_L(-12, 0)


def test_fundamental_discriminants():
    fundamentals = {1, 5, 8, 12, 13, 17, 21, 24,
                    -3, -4, -7, -8, -11, -15, -19, -20, -23, -24}
    for d in range(-25, 26):
        assert sf.is_fundamental_discriminant(d) == (d in fundamentals), d


# ---------------------------------------------------------------------------
# reach
# ---------------------------------------------------------------------------

PKG = pathlib.Path(sf.__file__).parent
TESTS = pathlib.Path(__file__).parent


def _references(module, path, tree):
    """Names of `module`'s functions referenced in one module of the package,
    not counting a function's references to itself."""
    own = path.name == f"{module}.py"
    names = {}      # local name -> name in `module`
    modules = set()  # local names bound to `module`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                if node.module == module or (node.module or "").endswith(f".{module}"):
                    names[a.asname or a.name] = a.name
                elif a.name == module:
                    modules.add(a.asname or a.name)
    found = set()
    for stmt in tree.body:
        owner = stmt.name if own and isinstance(stmt, ast.FunctionDef) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id if own else names.get(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                name = node.attr
            else:
                continue
            if name and name != owner:
                found.add(name)
    return found


def _attributes(node, owners=()):
    """Attribute names read under node, not counting a method's reads of its
    own name."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            found |= _attributes(child, owners + (child.name,))
            continue
        if isinstance(child, ast.Attribute) and child.attr not in owners:
            found.add(child.attr)
        found |= _attributes(child, owners)
    return found


def _unreached():
    """(module, name) for every public function of the package that nothing
    in the package references, and (module, "Class.attr") for every public
    method or property whose attribute name nothing in the package reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PKG.glob("*.py")}
    attrs = set().union(*(_attributes(tree) for tree in trees.values()))
    out = set()
    for module, tree in trees.items():
        used = set().union(*(_references(module, PKG / f"{m}.py", t) for m, t in trees.items()))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") \
                    and node.name not in used:
                out.add((module, node.name))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out |= {(module, f"{node.name}.{fn.name}") for fn in node.body
                        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                        and fn.name not in attrs}
    return out


# Names that only tests and the benchmark reach, each checked against a
# second route by the named test.  e2_star_modular is the benchmark's
# evaluator, checked against the brute-force E2* sum; apply_moebius as the
# reference for the word reduce_to_fundamental returns; act_on_form by
# p_{gamma z}(Q) = p_z(gamma^-1 Q); phi_sh0_lattice
# against phi_sh0's kernel normalization; lift_constant_term against the
# -H(|delta|) constant of the Eisenstein lift; reduce, which no package code
# needs (stabilizer orders come from disc and content, square forms from
# their one null vector), as the tests' map from a form to its class,
# against a brute-force orbit search.  The last three are the
# acceptance criteria's entry points: the alternative representation
# against the regularized definition (criterion 5), the lemma integrals'
# quadrature against their closed forms (criterion 7), and the binomial
# identity's two sides against each other (criterion 8).
ORACLES = {
    ("forms", "e2_star_modular"): ("test_forms.py", "test_e2_star_data_matches_direct"),
    ("hyperbolic", "apply_moebius"): ("test_hyperbolic.py", "test_reduce_to_fundamental_random"),
    ("hyperbolic", "act_on_form"): ("test_hyperbolic.py", "test_transformation_rules"),
    ("thetacore", "phi_sh0_lattice"): ("test_thetacore.py",
                                       "test_normalization_dictionary_measured"),
    ("thetacore", "lift_constant_term"): ("test_thetacore.py", "test_lift_constant_term_values"),
    ("qforms", "reduce"): ("test_qforms.py", "test_reduce_definite_example_orbit_oracle"),
    ("cycles", "reg_cycle_integral_alt"): ("test_acceptance.py",
                                           "test_criterion_05_regularized_well_defined"),
    ("cycles", "lemma_integral_checks"): ("test_acceptance.py",
                                          "test_criterion_07_lemma_integrals"),
    ("cycles", "combinatorial_identity_sides"): ("test_acceptance.py",
                                                 "test_criterion_08_combinatorial_identity"),
}


def _check_reached(modules):
    """The unreached names of `modules` are exactly their ORACLES entries,
    and each entry's second-route test exists."""
    assert {u for u in _unreached() if u[0] in modules} == \
        {o for o in ORACLES if o[0] in modules}
    for (module, _), (path, test) in ORACLES.items():
        if module in modules:
            tests = ast.parse((TESTS / path).read_text())
            assert test in {node.name for node in tests.body
                            if isinstance(node, ast.FunctionDef)}


def test_package_public_names_are_reached():
    # every public function, method and property of the package is reached
    # from the package itself, or is an oracle with its second-route test
    _check_reached({path.stem for path in PKG.glob("*.py")})


def test_specfun_public_functions_are_called():
    # specfun has no oracles: all of it is reached from the package
    _check_reached({"specfun"})


def test_thetacore_public_functions_are_called():
    _check_reached({"thetacore"})


def test_forms_and_hyperbolic_public_functions_are_called():
    _check_reached({"forms", "hyperbolic"})


# Options that only tests set, each with the test that sets it: base_angle is
# the one handle on base-point independence, each rule's nmax on its
# non-convergence error, by_D on the theta series' per-D coefficients.
TEST_OPTIONS = {
    ("cycles", "closed_cycle_integral", "base_angle"):
        ("test_cycles.py", "test_closed_integral_base_point_invariance"),
    ("quadrature", "integrate_cc_doubling", "nmax"):
        ("test_quadrature.py", "test_clenshaw_curtis_raises_past_nmax"),
    ("quadrature", "integrate_periodic_doubling", "nmax"):
        ("test_quadrature.py", "test_periodic_trapezoid_raises_past_nmax"),
    ("thetacore", "theta_truncated", "by_D"):
        ("test_thetacore.py", "test_theta_coefficient_extraction_two_paths"),
}


def _unpassed(defining, calling):
    """(module, function, parameter) for every defaulted parameter of a
    public module-level function in the trees `defining` ({module: tree})
    that no call in the trees `calling` passes, by keyword or by position
    (calls are matched by the function's name; a *args or **kwargs passes
    nothing)."""
    passed = collections.defaultdict(set)
    for node in (n for tree in calling for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            positional = itertools.takewhile(lambda a: not isinstance(a, ast.Starred), node.args)
            passed[name] |= {i for i, _ in enumerate(positional)} | \
                {kw.arg for kw in node.keywords if kw.arg}
    out = set()
    for module, tree in defining.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            options = [(a.arg, i) for i, a in enumerate(args[first:], first)]
            options += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                        if d is not None]
            out |= {(module, fn.name, arg) for arg, i in options
                    if not {arg, i} & passed[fn.name]}
    return out


def test_package_options_are_set():
    # every defaulted parameter of a public package function is passed by
    # some call in the package or the benchmark, or is an option only a
    # test sets, listed with that test; the ORACLES entry points are exempt
    assert _unpassed({"m": ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass")},
                     [ast.parse("f(0, 1)\nm.f(d=1)\nf(*x, **y)")]) == \
        {("m", "f", "c"), ("m", "f", "e")}
    trees = {path.stem: ast.parse(path.read_text()) for path in PKG.glob("*.py")}
    bench = [ast.parse(path.read_text()) for path in (TESTS.parent / "perfbench").glob("*.py")]
    assert bench
    assert {u for u in _unpassed(trees, list(trees.values()) + bench)
            if u[:2] not in ORACLES} == set(TEST_OPTIONS)
    for path, test in TEST_OPTIONS.values():
        tests = ast.parse((TESTS / path).read_text())
        assert test in {node.name for node in tests.body if isinstance(node, ast.FunctionDef)}


# ---------------------------------------------------------------------------
# precision guard
# ---------------------------------------------------------------------------

def _prec_functions():
    """(module, name) for every public module-level function of the package
    that takes a `prec` parameter."""
    out = set()
    for path in PKG.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") \
                    and "prec" in {a.arg for a in node.args.args + node.args.kwonlyargs}:
                out.add((path.stem, node.name))
    return out


def _assigns_precision(source):
    """(line, name) of every store to an attribute prec, dps, _prec or _dps
    in the source: plain, augmented and annotated assignments and loop,
    with and tuple targets."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and node.attr in ("prec", "dps", "_prec", "_dps")]


def test_package_never_assigns_mp_precision():
    # _workdps hands out one shared no-op scope where the ambient precision
    # is its target already; that is exact only while no package code sets
    # mp.prec or mp.dps itself (a real scope would restore them on exit)
    assert _assigns_precision("mp.dps = 5\nmpmath.mp.prec += 1\n(a, mp._dps) = 1, 2") == \
        [(1, "dps"), (2, "prec"), (3, "_dps")]
    assert _assigns_precision("with mp.workdps(5):\n    x = mp.prec + mp.dps") == []
    for path in PKG.glob("*.py"):
        assert _assigns_precision(path.read_text()) == [], path.name


def _mpmathify_uses(source):
    """Lines that name mpmathify: a call by any path, a bare reference or
    an import, aliased or not."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Name) and node.id == "mpmathify"
                   or isinstance(node, ast.Attribute) and node.attr == "mpmathify"
                   or isinstance(node, (ast.Import, ast.ImportFrom))
                   and any(a.name.split(".")[-1] == "mpmathify" for a in node.names)})


def test_package_converts_exact_values_one_way():
    # specfun._coerce is the one exact-to-mpmath conversion (it rounds a
    # Fraction to nearest; mpmathify rounds it toward zero)
    assert _mpmathify_uses("x = mpmath.mpmathify(a)\nfrom mpmath import mpmathify as m\n"
                           "f = mp.mpmathify\ny = mpmathify(b)\nz = mpf(c)  # mpmathify") == \
        [1, 2, 3, 4]
    for path in PKG.glob("*.py"):
        assert _mpmathify_uses(path.read_text()) == [], path.name


def _eager(nodes):
    """The statements that run when a module loads: all but function bodies."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _eager(ast.iter_child_nodes(node))


def _import_closure(sources, module):
    """The outside top-level packages that loading package module `module`
    imports: its own load-time imports, the package __init__'s, and those of
    every package module they import, transitively.  `sources` maps each
    package module's stem to its source."""
    seen, todo, outside = set(), [module, "__init__"], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in _eager(ast.parse(sources[name]).body):
            if isinstance(node, ast.Import):
                outside |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                outside.add(node.module.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                todo += [node.module] if node.module else \
                    [a.name for a in node.names if a.name in sources]
    return outside


def test_exact_and_float_modules_never_import_mpmath():
    # qforms (class-number, classes, chi) and lift (lift-coeff) must load
    # without mpmath, and so must the CLI module before a command picks its
    # own imports: none imports it at load time, directly or through a
    # package module
    assert _import_closure({"__init__": "import dataclasses",
                            "a": "from . import b, Name\nfrom .c import x",
                            "b": "def f():\n    import numpy",
                            "c": "try:\n    from mpmath.libmp import y\nexcept ImportError:\n"
                                 "    pass"}, "a") == {"dataclasses", "mpmath"}
    sources = {path.stem: path.read_text() for path in PKG.glob("*.py")}
    assert "mpmath" in _import_closure(sources, "thetacore")
    for module in ("qforms", "lift", "cli"):
        assert "mpmath" not in _import_closure(sources, module), module


GUARD_PREC = sf.Precision(40)


def _guard_cases():
    """One call per prec-taking function, at GUARD_PREC, on inputs that
    are exact at any ambient precision (ints, Fractions, floats, complex)."""
    from shintani import cmtraces as cm, cycles as cy, forms as fo, thetacore as th
    from shintani.qforms import QForm
    P = GUARD_PREC
    G = fo.e2_star_data(16, P)
    H = fo.HarmonicFourierData(2, {0: 1, 1: -24}, {0: Fraction(1, 3), -1: 0.5}, 1)
    J = fo.build_standard_forms(32)["J"]
    ev = lambda z: fo.eval_modular(G, z, P)[0]
    ctx, Q, z = th.ThetaContext(-3, 0, 0.1 + 0.8j), QForm(1, 1, -2), 0.2 + 1.1j

    def steps():
        return [(r.identity_id, r.target, r.computed, r.abs_error)
                for step in cm.identity_steps([3], P).values() for r in step(-3)]

    return {
        ("specfun", "gamma_upper"): lambda: sf.gamma_upper(3, 0.7, P),
        ("specfun", "e_kappa"): lambda: (sf.e_kappa(3, 1.3, P), sf.e_kappa(-1, 0.6, P)),
        ("specfun", "dirichlet_L"): lambda: (sf.dirichlet_L(-4, 1, P),
                                            sf.dirichlet_L(-3, -1, P)),
        ("forms", "eval_qexp"): lambda: fo.eval_qexp(H, 0.1 + 0.9j, P),
        ("forms", "eval_modular"): lambda: fo.eval_modular(G, 0.3 + 0.05j, P),
        ("forms", "xi_symbolic"): lambda: fo.xi_symbolic(H, P),
        ("forms", "e2_star_data"): lambda: fo.e2_star_data.__wrapped__(16, P),
        ("forms", "e2_star_modular"): lambda: fo.e2_star_modular(0.3 + 0.05j, 16, P),
        ("cycles", "closed_cycle_integral"): lambda: cy.closed_cycle_integral(
            ev, QForm(1, 1, -1), 0, prec=P),
        ("cycles", "reg_cycle_integral"): lambda: cy.reg_cycle_integral(
            G, QForm(0, 1, 0), 0, prec=P, evaluator=ev),
        ("cycles", "reg_cycle_integral_alt"): lambda: cy.reg_cycle_integral_alt(
            G, QForm(0, 1, 0), 0, prec=P, evaluator=ev),
        ("cycles", "bernoulli_height_integral"): lambda: cy.bernoulli_height_integral(
            2, 1, 0.5, P),
        ("cycles", "polygamma_height_integral"): lambda: cy.polygamma_height_integral(
            1, 1, 0.5, P),
        ("cycles", "lemma_integral_checks"): lambda: cy.lemma_integral_checks(
            1, 1, (1,), P),
        ("cycles", "trace_cycle"): lambda: cy.trace_cycle(G, -3, 4, 0, prec=P),
        ("cycles", "l_star_value"): lambda: cy.l_star_value(G, -3, 0, prec=P),
        ("cycles", "sigma_exp_sum"): lambda: cy.sigma_exp_sum(-4, P),
        ("cmtraces", "trace_cm"): lambda: cm.trace_cm(J, -3, -4, P),
        ("cmtraces", "f_series"): lambda: cm.f_series(-3, 4, P),
        ("cmtraces", "identity_steps"): steps,
        ("thetacore", "eta"): lambda: th.eta(ctx, Q, z, "recursion", P),
        ("thetacore", "xi_eta_closed"): lambda: th.xi_eta_closed(ctx, Q, z, P),
        ("thetacore", "lift_constant_term"): lambda: th.lift_constant_term(-3, 0, 1, P),
        ("thetacore", "phi_sh0"): lambda: th.phi_sh0(ctx, Q, z, "preimage", P),
        ("thetacore", "phi_sh0_lattice"): lambda: th.phi_sh0_lattice((1, 1, -2), 0.8, z, 0, P),
    }


def _bits(v):
    """v with every mpf and mpc replaced by its raw tuple and every float by
    its hex form, through containers and dataclasses."""
    if isinstance(v, (mpf, mpmath.mpc)):
        return v._mpf_ if isinstance(v, mpf) else v._mpc_
    if isinstance(v, float):
        return v.hex()
    if dataclasses.is_dataclass(v):
        v = {f.name: getattr(v, f.name) for f in dataclasses.fields(v)}
    if isinstance(v, dict):
        return {k: _bits(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_bits(x) for x in v]
    return v


def test_prec_functions_ignore_ambient_precision():
    # every public function with a prec parameter computes at prec alone:
    # called under ambient mp.dps 15 and 60, and at its own working
    # precision, where _workdps' scope is the shared no-op, it returns the
    # same bits and leaves mp.dps and mp.prec as it found them.  The case
    # table covers exactly the functions the AST finds, so a new one cannot
    # skip the guard
    from mpmath.libmp import dps_to_prec
    cases = _guard_cases()
    assert set(cases) == _prec_functions()
    for key, call in cases.items():
        runs = []
        for dps in (15, 60, GUARD_PREC.working_digits + 10):
            with mp.workdps(dps):
                runs.append(_bits(call()))
                assert (mp.dps, mp.prec) == (dps, dps_to_prec(dps)), key
        assert runs[0] == runs[1] == runs[2], key


def test_workdps_ignores_one_bit_of_ambient_precision():
    # an ambient mp.prec one bit off _workdps' target reads as the same dps;
    # the target is still set in bits, so eval_modular and gamma_upper return
    # the same bits from all three
    from mpmath.libmp import dps_to_prec
    from shintani import forms as fo
    P = sf.Precision(30)
    G = fo.e2_star_data(16, P)
    bits = dps_to_prec(40)
    runs = []
    for prec in (bits - 1, bits, bits + 1):
        with mp.workprec(prec):
            assert mp.dps == 40
            runs.append(_bits((fo.eval_modular(G, 0.3 + 0.05j, P), sf.gamma_upper(3, 0.7, P))))
            with sf._workdps(P):
                assert mp.prec == bits
            assert mp.prec == prec
    assert runs[0] == runs[1] == runs[2]


def test_tol_past_float_range():
    # the float tolerance turns subnormal and then 0 past about 610 digits:
    # from 600 digits _tol is an mpf, and a nested trapezoid rule at 700
    # digits stops at it; below, the float is unchanged
    from shintani.quadrature import integrate_periodic_doubling
    from test_quadrature import progression
    assert sf._tol(sf.Precision(599), 3) == 10.0 ** -(599 / 2 + 3)
    P = sf.Precision(700)
    tol = sf._tol(P, 3)
    assert 0 < tol < mpf(10) ** -352
    with sf._workdps(P):
        val, err, n = integrate_periodic_doubling(
            progression(lambda t: mpmath.exp(mpmath.cos(t))), 0, 2 * mpmath.pi, tol)
        exact = 2 * mpmath.pi * mpmath.besseli(0, 1)
        assert abs(val - exact) <= err and err < mpf(10) ** -700, (n, float(err))


def test_kernels_without_prec_follow_the_caller():
    # the other half of the split: the quadrature rules, the reduction
    # (whose tie width must stay at the caller's precision) and the finite
    # differences take no prec and compute at the caller's mp.dps
    from shintani import hyperbolic as hy, quadrature as qu, thetacore as th
    from test_quadrature import progression
    cases = {
        ("quadrature", "integrate_cc_doubling"):
            lambda: qu.integrate_cc_doubling(mpmath.exp, 0, 1, 1e-10)[0],
        ("quadrature", "integrate_periodic_doubling"):
            lambda: qu.integrate_periodic_doubling(
                progression(lambda t: mpmath.exp(mpmath.cos(t))), 0, 2 * mpmath.pi, 1e-10)[0],
        ("hyperbolic", "reduce_to_fundamental"): lambda: hy.reduce_to_fundamental(0.3 + 0.05j)[0],
        ("thetacore", "fd_operators"): lambda: th.fd_operators(mpmath.exp, 2, 0.3 + 1.1j)[1],
    }
    assert not set(cases) & _prec_functions()
    for key, call in cases.items():
        runs = []
        for dps in (15, 60):
            with mp.workdps(dps):
                runs.append(_bits(call()))
        assert runs[0] != runs[1], key
