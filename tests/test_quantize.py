import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fedosov import io as fio
from fedosov.poly import XPoly
from fedosov.quantize import (FedosovData, GaugeOperator, StarProduct,
                              apply_gauge, curvature_residual, fedosov_class,
                              solve_r, star, tau)
from fedosov.verify import (builtin_curved_data, builtin_flat_data,
                            rand_fraction, rand_poly_in_x)
from fedosov.weyl import (FormWeyl, SymplecticChart, WeylElement, commutator_over_hbar,
                          delta_inv, fedosov_D, moyal_product, nabla, sigma_project)

DIM, N = 2, 6
FLAT_DATA = builtin_flat_data(DIM, N)
CURVED_DATA = builtin_curved_data(N)
OMEGA_DATA = FedosovData(SymplecticChart.standard_flat(DIM),
                         {1: {(1, 2): XPoly.const(DIM, 1)}}, N)
CURVED_OMEGA_FILE = Path(__file__).resolve().parents[1] / "bench" / "data" / "curved_omega.json"


def x(i, order=N):
    return WeylElement.x_variable(DIM, order, i)


def xmono(exps, c=1, order=N):
    return WeylElement.from_xpoly(XPoly.monomial(DIM, exps, c), order)


# -- solve_r -----------------------------------------------------------------

def test_solve_r_flat_is_zero():
    assert solve_r(FLAT_DATA).is_zero()


def test_solve_r_flat_with_omega():
    r = solve_r(OMEGA_DATA)
    assert not r.is_zero()
    assert r.filtration_degree() >= 3
    assert r.exterior_degrees() == [1]
    assert delta_inv(r).is_zero()
    # the first iterate delta_inv(-Omega) is the leading part of r
    lead = delta_inv(-OMEGA_DATA.omega_form(r.order))
    diff = r - lead
    assert diff.is_zero() or diff.filtration_degree() > lead.filtration_degree()
    assert curvature_residual(OMEGA_DATA, r).is_zero()


def test_solve_r_curved_residual_zero():
    r = solve_r(CURVED_DATA)
    assert curvature_residual(CURVED_DATA, r).is_zero()
    assert delta_inv(r).is_zero()


def test_fedosov_D_nilpotent_given_solved_r():
    from fedosov.verify import rand_form

    r = solve_r(CURVED_DATA)
    rng = random.Random(7)
    for _ in range(10):
        a = rand_form(rng, DIM, N).truncate(N + 2)
        dd = fedosov_D(fedosov_D(a, CURVED_DATA.chart, r), CURVED_DATA.chart, r)
        assert dd.truncate(N).is_zero()


def test_horizontality_of_tau():
    for data in (FLAT_DATA, CURVED_DATA, OMEGA_DATA):
        r = solve_r(data)
        a = xmono((2, 1), Fraction(3, 2))
        t = tau(a, data, r)
        assert sigma_project(t) == a
        assert fedosov_D(t, data.chart, r).truncate(N).is_zero()


# -- tau ----------------------------------------------------------------------

def test_tau_flat_examples():
    r0 = solve_r(FLAT_DATA)
    t = tau(x(1), FLAT_DATA, r0)
    want = (x(1, t.order) + WeylElement.y_variable(DIM, t.order, 1))
    assert t == want
    assert tau(WeylElement.const(DIM, N, 1), FLAT_DATA, r0) == \
        WeylElement.const(DIM, t.order, 1)
    sq = tau(xmono((2, 0)), FLAT_DATA, r0)
    want = WeylElement(DIM, sq.order, {
        (0, (0, 0)): XPoly.monomial(DIM, (2, 0), 1),
        (0, (1, 0)): XPoly.monomial(DIM, (1, 0), 2),
        (0, (2, 0)): XPoly.const(DIM, 1)})
    assert sq == want


def test_tau_is_hbar_linear():
    r = solve_r(CURVED_DATA)
    a = xmono((1, 1))
    b = xmono((0, 2), Fraction(1, 3))
    lhs = tau(a.hbar_shift(1) + b, CURVED_DATA, r)
    rhs = tau(a, CURVED_DATA, r).hbar_shift(1) + tau(b, CURVED_DATA, r)
    assert lhs == rhs


def test_tau_runs_negative_hbar_powers_to_the_fixed_point():
    """hbar^-k x^e starts at weight -2k: the recursion needs 2k more passes
    than an hbar-free input, and hbar^k tau(hbar^-k a) = tau(a) at the
    working order."""
    data = builtin_curved_data(4)
    r = solve_r(data)
    a = xmono((1, 1), order=4) + xmono((2, 0), Fraction(2, 3), order=4).hbar_shift(1)
    for k in (1, 2):
        t = tau(a.hbar_shift(-k), data, r)
        assert sigma_project(t) == a.hbar_shift(-k).truncate(t.order)
        assert t.hbar_shift(k) == tau(a, data, r)


def test_tau_rejects_y_dependence():
    r = solve_r(FLAT_DATA)
    with pytest.raises(ValueError):
        tau(WeylElement.y_variable(DIM, N, 1), FLAT_DATA, r)


# -- star -------------------------------------------------------------------

def test_star_flat_example():
    sp = StarProduct(FLAT_DATA)
    got = sp(x(1), x(2))
    want = WeylElement(DIM, N, {(0, (0, 0)): XPoly.monomial(DIM, (1, 1), 1),
                                (1, (0, 0)): XPoly.const(DIM, Fraction(1, 2))})
    assert got == want
    assert sp(x(1), x(2)) - sp(x(2), x(1)) == \
        WeylElement.const(DIM, N, 1).hbar_shift(1)


def test_star_unital():
    sp = StarProduct(CURVED_DATA)
    one = WeylElement.const(DIM, N, 1)
    a = xmono((2, 1), Fraction(5, 4))
    assert sp(a, one) == a
    assert sp(one, a) == a


def test_star_first_order_commutator_is_poisson():
    rng = random.Random(9)
    for data in (FLAT_DATA, CURVED_DATA):
        sp = StarProduct(data)
        for _ in range(5):
            a = rand_poly_in_x(rng, DIM, N, 3)
            b = rand_poly_in_x(rng, DIM, N, 3)
            comm = sp(a, b) - sp(b, a)
            # hbar {a,b} with the chart Poisson tensor
            pb = WeylElement.zero(DIM, N)
            for i in range(1, DIM + 1):
                for j in range(1, DIM + 1):
                    om = data.chart.omega_upper[i - 1][j - 1]
                    if om.is_zero():
                        continue
                    for (k1, p1), c1 in a.terms.items():
                        for (k2, p2), c2 in b.terms.items():
                            term = om * c1.diff(i) * c2.diff(j)
                            pb = pb + WeylElement(
                                DIM, N, {(k1 + k2 + 1, (0,) * DIM): term})
            diff = comm - pb
            assert all(k >= 2 for (k, _) in diff.terms)


def test_star_associativity_seeded():
    rng = random.Random(1)
    sp = StarProduct(CURVED_DATA)
    for _ in range(5):
        a, b, c = (rand_poly_in_x(rng, DIM, N, 3) for _ in range(3))
        assert sp(sp(a, b), c) == sp(a, sp(b, c))


def _laurent_poly(rng, order, hbar_powers):
    """A seeded x-polynomial of x-degree <= 3 with one term per hbar power."""
    monos = [(i, j) for i in range(4) for j in range(4 - i)]
    return WeylElement(DIM, order, {
        (k, (0, 0)): XPoly.monomial(DIM, rng.choice(monos), rand_fraction(rng))
        for k in hbar_powers})


def _curved_omega_data(order):
    data = fio.fedosov_data_from_json(json.loads(CURVED_OMEGA_FILE.read_text()))
    data.order = order
    return data


@pytest.mark.parametrize("order", [4, 8])
@pytest.mark.parametrize("make_data", [builtin_curved_data, _curved_omega_data],
                         ids=["builtin_curved", "curved_omega"])
def test_star_product_memo_matches_star(make_data, order):
    """One StarProduct, reused across repeated and interleaved calls,
    agrees exactly with the uncached star on hbar-Laurent inputs."""
    data = make_data(order)
    sp = StarProduct(data)
    rng = random.Random(order)
    args = [_laurent_poly(rng, order, ks)
            for ks in [(-2, 0, 1), (-1, 2), (0,), (-2, -1, 2)]]
    pairs = [(0, 1), (2, 3), (1, 0), (0, 1), (3, 2), (1, 3)]
    for i, j in pairs:
        assert sp(args[i], args[j]) == star(args[i], args[j], data, sp.r)


@pytest.mark.parametrize("a_text,b_text", [
    ("hbar^-2 x1 x2", "x1"), ("hbar^-2 x1^2", "x2^2"),
    ("hbar^-1 x1^2", "hbar^-1 x2^2"), ("hbar^-2 x1", "x2")])
def test_star_with_negative_hbar_powers_matches_a_deeper_product(a_text, b_text):
    """Negative hbar powers summing to -2 or less: star and StarProduct
    match the product run at order + 8, truncated to the order."""
    order = 4
    data = _curved_omega_data(order)
    deep = FedosovData(data.chart, data.omega_series, order + 8)
    r = solve_r(deep)
    a, b = (fio.parse_poly(text, DIM, order) for text in (a_text, b_text))
    want = sigma_project(moyal_product(tau(a, deep, r), tau(b, deep, r),
                                       deep.chart)).truncate(order)
    assert star(a, b, data) == want
    assert StarProduct(data)(a, b) == want


def test_star_product_rejects_y_dependence():
    sp = StarProduct(CURVED_DATA)
    y = WeylElement.y_variable(DIM, N, 1)
    with pytest.raises(ValueError):
        sp(y, x(1))
    with pytest.raises(ValueError):
        sp(x(1), y)



@pytest.fixture(scope="module")
def curved_omega_r12():
    """The curved data file at order 12 with its connection."""
    data = _curved_omega_data(12)
    return data, solve_r(data)


def test_star_product_tau_is_exact_at_the_order(curved_omega_r12):
    """StarProduct.tau on seeded y-free inputs with hbar powers -3..2 is the
    order-12 lift truncated to order 4: at order 12, the lift of hbar^k is
    exact to 14 + 2k >= 8."""
    order = 4
    sp = StarProduct(_curved_omega_data(order))
    deep, r = curved_omega_r12
    rng = random.Random(5)
    for ks in [(-3,), (-2,), (-1,), (0,), (2,), (-3, 0, 2), (-2, -1, 1)]:
        a = _laurent_poly(rng, order, ks)
        assert sp.tau(a).truncate(order) == tau(a, deep, r).truncate(order)


# -- tau is the arity-0 cochain lift ---------------------------------------------

def _ref_tau(a, data, r):
    """The horizontal-lift loop on forms that tau ran before it became the
    arity-0 case of the cochain lift's fixed point, written out."""
    work = data.order + 2
    total = inc = FormWeyl.from_weyl(a.truncate(work))
    for _ in range(work + 2 + 2 * max(0, -(a.min_hbar() or 0))):
        inc = delta_inv(nabla(inc, data.chart) + commutator_over_hbar(r, inc, data.chart))
        if inc.is_zero():
            return total.component(())
        total = total + inc
    raise RuntimeError("horizontal-lift recursion failed to stabilize")


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("make_data", [builtin_curved_data, _curved_omega_data],
                         ids=["builtin_curved", "curved_omega"])
def test_tau_matches_the_form_loop(make_data, order):
    """Seeded y-free inputs with hbar powers -2..2, alone and mixed."""
    data = make_data(order)
    r = solve_r(data)
    rng = random.Random(order)
    for ks in [(-2,), (-1,), (0,), (1,), (2,), (-2, 0, 1), (-1, 2), (-2, -1, 2)]:
        a = _laurent_poly(rng, order + 2, ks) + _laurent_poly(rng, order + 2, ks)
        assert tau(a, data, r) == _ref_tau(a, data, r)

# -- the characteristic class -------------------------------------------------

def test_fedosov_class_flat():
    cls = fedosov_class(FLAT_DATA)
    assert set(cls) == {-1}
    assert cls[-1] == {(1, 2): XPoly.const(DIM, 1)}  # -omega_{12} = 1


def test_fedosov_class_with_omega():
    cls = fedosov_class(OMEGA_DATA)
    assert cls[0] == {(1, 2): XPoly.const(DIM, 1)}
    # hbar * class + omega = Omega exactly
    n = DIM
    for k, form in cls.items():
        for (i, j), p in form.items():
            target = OMEGA_DATA.omega_series.get(k + 1, {}).get((i, j), XPoly.zero(n))
            omega_part = OMEGA_DATA.chart.omega_lower[i - 1][j - 1] if k == -1 \
                else XPoly.zero(n)
            assert p + omega_part == target if k == -1 else p == target


def test_data_validation_rejects_nonclosed_omega():
    # omega_1 = x1 dx1 dx2 is not closed in dim 4 (depends on x3 there);
    # in dim 2 every 2-form is closed, so test hbar-power validation instead
    bad = FedosovData(SymplecticChart.standard_flat(DIM),
                      {0: {(1, 2): XPoly.const(DIM, 1)}}, N)
    with pytest.raises(ValueError, match="hbar powers"):
        bad.validate()


def test_data_validation_rejects_nonclosed_omega_dim4():
    chart = SymplecticChart.standard_flat(4)
    omega = {1: {(1, 2): XPoly.variable(4, 3)}}
    bad = FedosovData(chart, omega, N)
    with pytest.raises(ValueError, match="not closed"):
        bad.validate()


# -- gauge equivalence ---------------------------------------------------------

def test_gauge_identity_is_noop():
    sp = StarProduct(FLAT_DATA)
    g = apply_gauge(sp, GaugeOperator.identity(DIM))
    a, b = xmono((2, 0)), xmono((1, 1))
    assert g(a, b) == sp(a, b)


def test_gauge_inverse_roundtrip():
    Q = GaugeOperator(DIM, {1: {(1, 0): XPoly.variable(DIM, 2)},
                            2: {(0, 2): XPoly.const(DIM, 1)}})
    f = xmono((2, 2), Fraction(7, 3)) + xmono((1, 0)).hbar_shift(1)
    assert Q.apply_inverse(Q.apply(f)) == f
    assert Q.apply(Q.apply_inverse(f)) == f


def test_gauge_inverse_roundtrip_runs_the_series_to_the_end():
    """Q = id + hbar d/dx1 on hbar^-k x1^9: (id - Q)^j f survives the
    truncation up to j = k + N // 2, beyond N // 2 + 2 once k >= 3."""
    Q = GaugeOperator(DIM, {1: {(1, 0): XPoly.const(DIM, 1)}})
    for k in range(5):
        f = xmono((9, 0)).hbar_shift(-k)
        assert Q.apply(Q.apply_inverse(f)) == f
        assert Q.apply_inverse(Q.apply(f)) == f


def test_gauge_rejects_nonpositive_powers():
    with pytest.raises(ValueError):
        GaugeOperator(DIM, {0: {(1, 0): XPoly.const(DIM, 1)}})


@pytest.mark.parametrize("mu", [(1, 0, 2), (-1, 0), (1,)])
def test_gauge_rejects_malformed_multi_indices(mu):
    with pytest.raises(ValueError):
        GaugeOperator(DIM, {1: {mu: XPoly.const(DIM, 1)}})


def test_gauged_product_properties():
    sp = StarProduct(FLAT_DATA)
    Q = GaugeOperator(DIM, {1: {(1, 0): XPoly.const(DIM, 1)}})
    g = apply_gauge(sp, Q)
    x1 = x(1)
    # differs from the base product (here at order hbar^2)
    got = g(x1, x1)
    assert got != sp(x1, x1)
    assert got == sp(x1, x1) + WeylElement.const(DIM, N, 1).hbar_shift(2)
    # commutators agree mod hbar^2
    rng = random.Random(2)
    for _ in range(5):
        a = rand_poly_in_x(rng, DIM, N, 2)
        b = rand_poly_in_x(rng, DIM, N, 2)
        diff = (g(a, b) - g(b, a)) - (sp(a, b) - sp(b, a))
        assert all(k >= 2 for (k, _) in diff.terms)
    # associativity survives the gauge
    for _ in range(5):
        a, b, c = (rand_poly_in_x(rng, DIM, N, 2) for _ in range(3))
        assert g(g(a, b), c) == g(a, g(b, c))


def test_gauge_composition_functorial():
    sp = StarProduct(FLAT_DATA)
    Q1 = GaugeOperator(DIM, {1: {(1, 0): XPoly.variable(DIM, 2)}})
    Q2 = GaugeOperator(DIM, {1: {(0, 1): XPoly.const(DIM, 1)},
                             2: {(2, 0): XPoly.const(DIM, 1)}})
    nested = apply_gauge(apply_gauge(sp, Q1), Q2)
    composed = apply_gauge(sp, Q1.compose(Q2))
    rng = random.Random(3)
    for _ in range(5):
        a = rand_poly_in_x(rng, DIM, N, 2)
        b = rand_poly_in_x(rng, DIM, N, 2)
        assert nested(a, b) == composed(a, b)


def test_gauge_compose_matches_application_order():
    Q1 = GaugeOperator(DIM, {1: {(1, 0): XPoly.variable(DIM, 1)}})
    Q2 = GaugeOperator(DIM, {1: {(0, 1): XPoly.const(DIM, 2)}})
    f = xmono((2, 1))
    assert Q1.compose(Q2).apply(f) == Q1.apply(Q2.apply(f))


def test_gauge_compose_second_order_left_factor():
    """hbar x2 d1^2 after hbar x1^2 d2: d1^2 (x1^2 d2 f) has the Leibniz
    cross term 2 * 2 x1 d1 d2 f, where a first-order left factor has
    only coefficient 1."""
    Q1 = GaugeOperator(DIM, {1: {(2, 0): XPoly.variable(DIM, 2)}})
    Q2 = GaugeOperator(DIM, {1: {(0, 1): XPoly.monomial(DIM, (2, 0))}})
    for f in (xmono((3, 2)), xmono((1, 1), Fraction(5, 2)) + xmono((4, 1)).hbar_shift(-1)):
        assert Q1.compose(Q2).apply(f) == Q1.apply(Q2.apply(f))
