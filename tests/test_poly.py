import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedosov.poly import MAX_EXP, ExponentOverflow, XPoly, _mono_derivative
from fedosov.quantize import _diff_x


def test_xpoly_basic_ring_ops():
    x1 = XPoly.variable(2, 1)
    x2 = XPoly.variable(2, 2)
    p = x1 * x1 + x2.scale(3)
    q = p - p
    assert q.is_zero()
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    assert p.degree() == 2
    assert XPoly.zero(2).degree() == -1


def test_xpoly_no_zero_coefficients_stored():
    p = XPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (1, 0) in p.terms and (0, 1) not in p.terms
    s = p + XPoly(2, {(1, 0): Fraction(-1)})
    assert s.terms == {}


def test_xpoly_diff():
    p = XPoly.monomial(2, (2, 1), Fraction(3, 2))
    assert p.diff(1) == XPoly.monomial(2, (1, 1), 3)
    assert p.diff(2) == XPoly.monomial(2, (2, 0), Fraction(3, 2))
    assert p.diff(1).diff(2) == p.diff(2).diff(1)


def test_mono_derivative_matches_iterated_diff():
    degs = [(a, b) for a in range(5) for b in range(5 - a)]
    for alpha in degs:
        for beta in degs:
            p = XPoly.monomial(2, beta)
            for i, a in enumerate(alpha):
                for _ in range(a):
                    p = p.diff(i + 1)
            d = _mono_derivative(alpha, beta)
            if all(a <= b for a, b in zip(alpha, beta)):
                assert p == XPoly.monomial(2, d[1], d[0])
            else:
                assert d is None and p.is_zero()


def test_xpoly_eval_rational():
    p = XPoly(2, {(3, 0): Fraction(1), (1, 0): Fraction(2)})
    assert p.eval_rational((2, 5)) == 8 + 4


def test_xpoly_substitute_linear():
    p = XPoly.monomial(2, (1, 1), 1)  # x1 x2
    m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]  # swap
    assert p.substitute_linear(m) == p
    q = XPoly.variable(2, 1)
    assert q.substitute_linear(m) == XPoly.variable(2, 2)


@pytest.mark.parametrize("dim", [2, 4])
def test_xpoly_substitute_linear_matches_repeated_products(dim):
    rng = random.Random(dim)

    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for _ in range(40):
        m = [[frac() for _ in range(dim)] for _ in range(dim)]
        p = XPoly(dim, {tuple(rng.randint(0, 3) for _ in range(dim)): frac()
                        for _ in range(3)})
        want = XPoly.zero(dim)
        for e, c in p.terms.items():
            term = XPoly.const(dim, c)
            for i, n in enumerate(e):
                row = XPoly(dim, {tuple(int(j == k) for k in range(dim)): m[i][j]
                                  for j in range(dim)})
                for _ in range(n):
                    term = term * row
            want = want + term
        assert p.substitute_linear(m) == want


# -- XPoly against a reference dict-of-Fraction polynomial ------------------------

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=80)
fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
scalars = st.one_of(st.integers(-6, 6), fractions)


def ref_polys(dim):
    """{exponent tuple: Fraction} with zero coefficients dropped; exponents
    small, or at the top of the packed field."""
    exp = st.one_of(st.integers(0, 3), st.integers(MAX_EXP - 2, MAX_EXP))
    return st.dictionaries(st.tuples(*[exp] * dim), fractions, max_size=4).map(
        lambda d: {e: c for e, c in d.items() if c})


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_diff(p, i):
    out = {}
    for e, c in p.items():
        if e[i - 1]:
            out[e[:i - 1] + (e[i - 1] - 1,) + e[i:]] = c * e[i - 1]
    return out


def fits(p):
    return all(k <= MAX_EXP for e in p for k in e)


def check(got, want):
    """got is the XPoly of want: same view, equal to the XPoly built from
    want, with the same hash."""
    assert got.terms == want
    built = XPoly(got.nvars, want)
    assert got == built and hash(got) == hash(built)
    assert bool(got) == bool(want)


@pytest.mark.parametrize("dim", [2, 4])
@PROPS
@given(data=st.data())
def test_xpoly_ring_ops_match_reference(dim, data):
    p, q = data.draw(ref_polys(dim)), data.draw(ref_polys(dim))
    P, Q = XPoly(dim, p), XPoly(dim, q)
    check(P, p)
    check(XPoly(dim, P.terms), p)
    check(P + Q, ref_add(p, q))
    check(P - Q, ref_add(p, q, -1))
    check(-P, ref_add({}, p, -1))
    check(P - P, {})
    assert P - P == XPoly.zero(dim) and hash(P - P) == hash(XPoly.zero(dim))
    prod = ref_mul(p, q)
    if fits(prod):
        check(P * Q, prod)
        check(Q * P, prod)
    else:
        with pytest.raises(ExponentOverflow):
            P * Q


@pytest.mark.parametrize("dim", [2, 4])
@PROPS
@given(data=st.data())
def test_xpoly_scale_and_diff_match_reference(dim, data):
    p, c = data.draw(ref_polys(dim)), data.draw(scalars)
    P = XPoly(dim, p)
    want = {e: v * c for e, v in p.items() if c}
    check(P.scale(c), want)
    check(P * c, want)
    check(c * P, want)
    for i in range(1, dim + 1):
        check(P.diff(i), ref_diff(p, i))
    mu = data.draw(st.tuples(*[st.integers(0, 3)] * dim))
    want = p
    for i, k in enumerate(mu, 1):
        for _ in range(k):
            want = ref_diff(want, i)
    check(_diff_x(P, mu), want)


@pytest.mark.parametrize("dim", [2, 4])
@PROPS
@given(data=st.data())
def test_xpoly_substitute_linear_matches_reference(dim, data):
    p = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * dim), fractions,
                                  max_size=3))
    m = data.draw(st.lists(st.lists(fractions, min_size=dim, max_size=dim),
                           min_size=dim, max_size=dim))
    want = {}
    for e, c in p.items():
        term = {(0,) * dim: c}
        for i, n in enumerate(e):
            row = {tuple(int(j == k) for k in range(dim)): m[i][j] for j in range(dim)}
            for _ in range(n):
                term = ref_mul(term, row)
        want = ref_add(want, term)
    check(XPoly(dim, p).substitute_linear(m), want)


@pytest.mark.parametrize("dim", [2, 4])
def test_xpoly_exponent_beyond_the_field_raises(dim):
    top = [0] * dim
    for i in range(dim):
        e = top[:i] + [MAX_EXP] + top[i + 1:]
        x_i = XPoly.monomial(dim, e, Fraction(1, 3))
        with pytest.raises(ExponentOverflow):
            XPoly.monomial(dim, top[:i] + [MAX_EXP + 1] + top[i + 1:])
        with pytest.raises(ExponentOverflow):
            x_i * XPoly.variable(dim, i + 1)
        # a full field does not carry into its neighbours
        for j in range(dim):
            if j != i:
                got = x_i * XPoly.variable(dim, j + 1)
                want = list(e)
                want[j] += 1
                assert got.terms == {tuple(want): Fraction(1, 3)}
    with pytest.raises(ValueError):
        XPoly.monomial(dim, [-1] + top[1:])
