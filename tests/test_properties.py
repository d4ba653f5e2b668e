"""Property tests of identities the seeded suites sample: star
associativity and tau horizontality on the built-in curved chart, cup
associativity, the Hodge identity, d o d = 0 for both Hochschild
differentials, D o D = 0 for the extended Fedosov differential, and GL
functoriality of the transport of every transported
type, at orders <= 4.  Examples are
derandomized so every run draws the same inputs."""

import functools
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedosov.cochains import (FiberwiseCochain, cup, fedosov_d_cochain, hochschild_d,
                              transport_cochain, transport_form, transport_weyl)
from fedosov.poly import XPoly
from fedosov.quantize import StarProduct, solve_r, tau
from fedosov.verify import _deep_connection, builtin_curved_data
from fedosov.weyl import (FormWeyl, WeylElement, _matmul, _matrix_inverse, delta,
                          delta_inv, fedosov_D, sigma_project)
from fedosov.weylhh import (BarChain, KoszulChain, PsiElement, WeylCochain, WeylContext,
                            WSeries, _subsets, gl_transport, gl_transport_context,
                            hh_hochschild_d)

DIM = 2
ORDER = 4
CURVED = builtin_curved_data(ORDER)
LOW = 2  # d o d = 0 is drawn at this order and computed at LOW + 2
LOW_CTX = WeylContext.standard(DIM, LOW + 2)
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])

fractions = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
xpolys = st.dictionaries(exps, fractions, min_size=1, max_size=2).map(
    lambda terms: XPoly(DIM, terms))
subsets = st.sampled_from([(), (1,), (2,), (1, 2)])
low_parts = st.sampled_from([(m, p) for m in (0, 1) for p in product(range(3), repeat=DIM)
                             if 2 * m + sum(p) <= LOW])


def _x_polys(max_hbar):
    """y-free Weyl elements: hbar-polynomials in x."""
    keys = st.tuples(st.integers(0, max_hbar), st.just((0, 0)))
    return st.dictionaries(keys, xpolys, max_size=2).map(
        lambda terms: WeylElement(DIM, ORDER, terms))


def _forms(order):
    keys = st.tuples(st.integers(0, 1), exps)
    weyls = st.dictionaries(keys, xpolys, min_size=1, max_size=3).map(
        lambda terms: WeylElement(DIM, order, terms))
    return st.dictionaries(subsets, weyls, max_size=3).map(
        lambda comps: FormWeyl(DIM, order, comps))


def _cochains(arity, work):
    alphas = st.tuples(*[exps] * arity)
    keys = st.tuples(subsets, st.integers(0, 1), exps, alphas)
    return st.dictionaries(keys, xpolys, min_size=1, max_size=2).map(
        lambda terms: FiberwiseCochain(DIM, work, arity, terms))


def _low_cochains(arity):
    """Cochains of weight <= LOW, slot degrees up to 2 per coordinate,
    carried to LOW + 2 as the suites do."""
    keys = st.tuples(subsets, low_parts, st.tuples(*[exps] * arity)).map(
        lambda t: (t[0],) + t[1] + (t[2],))
    return st.dictionaries(keys, xpolys, min_size=1, max_size=2).map(
        lambda terms: FiberwiseCochain(DIM, LOW, arity, terms).truncate(LOW + 2))


def _low_wcochains(arity):
    keys = st.tuples(low_parts, st.tuples(*[exps] * arity)).map(
        lambda t: t[0] + (t[1],))
    return st.dictionaries(keys, fractions, min_size=1, max_size=3).map(
        lambda terms: WeylCochain(DIM, arity, terms))


@SETTINGS
@given(_x_polys(1), _x_polys(1), _x_polys(0))
def test_star_associativity_on_curved_chart(a, b, c):
    sp = StarProduct(CURVED)
    assert sp(sp(a, b), c) == sp(a, sp(b, c))


@functools.cache
def _curved_with_r(order):
    data = builtin_curved_data(order)
    return data, solve_r(data)


@SETTINGS
@given(st.sampled_from((3, 4)), _x_polys(2))
def test_tau_is_horizontal(order, a):
    """sigma(tau a) = a and D tau a = 0 at the order, for y-free a with
    hbar powers >= 0."""
    data, r = _curved_with_r(order)
    a = a.truncate(order)
    t = tau(a, data, r)
    assert sigma_project(t).truncate(order) == a
    assert fedosov_D(t, data.chart, r).truncate(order).is_zero()


@SETTINGS
@given(_cochains(1, ORDER + 2), _cochains(0, ORDER + 2), _cochains(1, ORDER + 2))
def test_cup_associativity(A, B, C):
    chart = CURVED.chart
    assert (cup(cup(A, B, chart), C, chart).truncate(ORDER)
            == cup(A, cup(B, C, chart), chart).truncate(ORDER))


@SETTINGS
@given(_forms(ORDER))
def test_hodge_identity(a):
    # delta_inv raises the weight by one, so a is carried above its order
    a = a.truncate(ORDER + 2)
    got = FormWeyl.from_weyl(sigma_project(a)) + delta(delta_inv(a)) + delta_inv(delta(a))
    assert got == a


@SETTINGS
@given(st.integers(0, 2).flatmap(_low_cochains))
def test_hochschild_d_squares_to_zero(P):
    chart = CURVED.chart
    assert hochschild_d(hochschild_d(P, chart), chart).truncate(LOW).is_zero()


@functools.cache
def _deep_r(order):
    return _deep_connection(builtin_curved_data(order))[0]


@SETTINGS
@given(st.integers(0, 2).flatmap(lambda k: _cochains(k, ORDER)))
def test_fedosov_d_cochain_squares_to_zero(P):
    # drawn at the order and carried two levels above it: D consumes slot
    # degree, so D o D at the order needs the terms above it exact
    P = P.truncate(ORDER + 2)
    chart, r = CURVED.chart, _deep_r(ORDER)
    D = fedosov_d_cochain
    assert D(D(P, chart, r), chart, r).truncate(ORDER).is_zero()


@SETTINGS
@given(st.integers(0, 2).flatmap(_low_wcochains))
def test_weyl_hochschild_d_squares_to_zero(a):
    d = hh_hochschild_d
    assert d(LOW_CTX, d(LOW_CTX, a)).normalize(LOW).is_zero()


# -- GL functoriality of the transports ----------------------------------------------

CTX = WeylContext.standard(DIM, ORDER)
IDENTITY = [[Fraction(int(i == j)) for j in range(DIM)] for i in range(DIM)]


def _invertible(g):
    try:
        _matrix_inverse(g)
    except ValueError:
        return False
    return True


entries = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
gls = st.lists(st.lists(entries, min_size=DIM, max_size=DIM),
               min_size=DIM, max_size=DIM).filter(_invertible)
hbars = st.integers(0, 1)


def _sums(keys, coeffs, build):
    return st.dictionaries(keys, coeffs, min_size=1, max_size=2).map(build)


# one strategy per transported type, each drawing small sums
TRANSPORTED = {
    "weyl": _sums(st.tuples(hbars, exps), xpolys,
                  lambda terms: WeylElement(DIM, ORDER, terms)),
    "form": _forms(ORDER),
    "cochain": st.integers(0, 2).flatmap(lambda k: _cochains(k, ORDER)),
    "wseries": _sums(st.tuples(hbars, exps), fractions, lambda terms: WSeries(DIM, terms)),
    "bar": st.integers(0, 1).flatmap(lambda m: _sums(
        st.tuples(hbars, st.tuples(*[exps] * (m + 2))), fractions,
        lambda terms: BarChain(DIM, m, terms))),
    "koszul": st.integers(0, 2).flatmap(lambda m: _sums(
        st.tuples(hbars, exps, exps, st.sampled_from(_subsets(DIM, m))), fractions,
        lambda terms: KoszulChain(DIM, m, terms))),
    "psi": _sums(st.tuples(hbars, exps, subsets), fractions,
                 lambda terms: PsiElement(DIM, terms)),
    "wcochain": st.integers(0, 2).flatmap(_low_wcochains),
}


def _push(ctx, g, x):
    """x pushed along g by the transport of its type."""
    ginv = _matrix_inverse(g)
    if isinstance(x, WeylElement):
        return transport_weyl(x, ginv)
    if isinstance(x, FormWeyl):
        return transport_form(x, ginv)
    if isinstance(x, FiberwiseCochain):
        return transport_cochain(x, g, ginv)
    return gl_transport(ctx, g, x)


@pytest.mark.parametrize("kind", TRANSPORTED)
@settings(SETTINGS, max_examples=30)
@given(data=st.data())
def test_transport_is_functorial(kind, data):
    x, g, g2 = data.draw(TRANSPORTED[kind]), data.draw(gls), data.draw(gls)
    assert _push(gl_transport_context(CTX, g), g2, _push(CTX, g, x)) == \
        _push(CTX, _matmul(g2, g), x)


@pytest.mark.parametrize("kind", TRANSPORTED)
@settings(SETTINGS, max_examples=30)
@given(data=st.data())
def test_transport_along_the_identity_is_the_identity(kind, data):
    x = data.draw(TRANSPORTED[kind])
    assert _push(CTX, IDENTITY, x) == x
