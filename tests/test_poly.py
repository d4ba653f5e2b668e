import random
from fractions import Fraction

import pytest

from fedosov.poly import HbarScalar, XPoly, _mono_derivative


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


def test_hbar_scalar_laurent():
    a = HbarScalar({-1: Fraction(1, 2), 2: Fraction(3)})
    b = HbarScalar({1: Fraction(2)})
    assert (a * b).terms == {0: Fraction(1), 3: Fraction(6)}
    assert a.min_exp == -1
    assert (a - a).is_zero()
    assert a.truncate(2).terms == {-1: Fraction(1, 2)}  # weight 2k <= 2


def test_hbar_scalar_rejects_garbage():
    with pytest.raises(TypeError):
        HbarScalar({0: 1.5})
