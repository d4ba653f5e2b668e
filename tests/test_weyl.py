import math
import random
from fractions import Fraction

import pytest

from fedosov.poly import XPoly
from fedosov.verify import builtin_curved_data, rand_form
from fedosov.weyl import (ChartValidationError, FormWeyl, SymplecticChart,
                          WeylElement, commutator_over_hbar, curvature_R,
                          delta, delta_inv, fedosov_D, filtration_degree,
                          graded_commutator, is_central, moyal_product,
                          nabla, sigma_project, weyl_curvature_class)

DIM, N = 2, 8
FLAT = SymplecticChart.standard_flat(DIM)
CURVED = builtin_curved_data(N).chart


def y(i, order=N):
    return WeylElement.y_variable(DIM, order, i)


def x(i, order=N):
    return WeylElement.x_variable(DIM, order, i)


def const(c, order=N):
    return WeylElement.const(DIM, order, c)


# -- the Moyal-type product --------------------------------------------------

def test_moyal_y1_y2():
    got = moyal_product(y(1), y(2), FLAT)
    want = WeylElement(DIM, N, {(0, (1, 1)): XPoly.const(DIM, 1),
                                (1, (0, 0)): XPoly.const(DIM, Fraction(1, 2))})
    assert got == want


def test_moyal_unit():
    a = WeylElement(DIM, N, {(1, (2, 1)): XPoly.variable(DIM, 1),
                             (0, (0, 0)): XPoly.const(DIM, 7)})
    assert moyal_product(const(1), a, FLAT) == a
    assert moyal_product(a, const(1), FLAT) == a


def test_moyal_commutator_is_hbar():
    comm = moyal_product(y(1), y(2), FLAT) - moyal_product(y(2), y(1), FLAT)
    assert comm == const(1).hbar_shift(1)


def test_moyal_accepts_constant_theta():
    theta = [[0, Fraction(2)], [Fraction(-2), 0]]
    got = moyal_product(y(1), y(2), theta)
    assert got.terms[(1, (0, 0))] == XPoly.const(DIM, 1)


def test_moyal_rejects_nonantisymmetric():
    theta = [[0, Fraction(1)], [Fraction(1), 0]]
    with pytest.raises(ValueError):
        moyal_product(y(1), y(2), theta)


def test_moyal_hbar_lower_bound():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_form(rng, DIM, 6)
        b = rand_form(rng, DIM, 6)
        p = moyal_product(a, b, FLAT)
        mins = [w.min_hbar() for w in p.components.values() if not w.is_zero()]
        if not mins:
            continue
        amin = min((w.min_hbar() for w in a.components.values()), default=0)
        bmin = min((w.min_hbar() for w in b.components.values()), default=0)
        assert min(mins) >= amin + bmin


def test_moyal_associative_x_dependent_omega():
    # any antisymmetric polynomial tensor gives an associative fiberwise
    # product (x is a parameter of the fiber)
    omega = [[XPoly.zero(DIM), XPoly.const(DIM, 1) + XPoly.variable(DIM, 1)],
             [XPoly.const(DIM, -1) - XPoly.variable(DIM, 1), XPoly.zero(DIM)]]
    rng = random.Random(5)
    for _ in range(5):
        a, b, c = (rand_form(rng, DIM, 6) for _ in range(3))
        lhs = moyal_product(moyal_product(a, b, omega), c, omega)
        rhs = moyal_product(a, moyal_product(b, c, omega), omega)
        assert lhs == rhs


def test_moyal_dim4():
    flat4 = SymplecticChart.standard_flat(4)
    flat4.validate()
    a = WeylElement.y_variable(4, 6, 3)
    b = WeylElement.y_variable(4, 6, 4)
    comm = moyal_product(a, b, flat4) - moyal_product(b, a, flat4)
    assert comm == WeylElement.const(4, 6, 1).hbar_shift(1)


# -- filtration ----------------------------------------------------------------

def test_filtration_degree_examples():
    assert filtration_degree(const(1).hbar_shift(1)) == 2
    assert filtration_degree(
        WeylElement(DIM, N, {(0, (1, 1)): XPoly.const(DIM, 1)})) == 2
    assert filtration_degree(y(1).hbar_shift(-1)) == -1
    assert filtration_degree(WeylElement.zero(DIM, N)) == math.inf


def test_truncation_drops_heavy_terms():
    w = WeylElement(DIM, 4, {(2, (1, 0)): XPoly.const(DIM, 1)})  # weight 5 > 4
    assert w.is_zero()


# -- delta, delta_inv, sigma ---------------------------------------------------

def test_delta_examples():
    y1y2 = FormWeyl.from_weyl(WeylElement(DIM, N, {(0, (1, 1)): XPoly.const(DIM, 1)}))
    d = delta(y1y2)
    assert d.component((1,)) == WeylElement(DIM, N, {(0, (0, 1)): XPoly.const(DIM, 1)})
    assert d.component((2,)) == WeylElement(DIM, N, {(0, (1, 0)): XPoly.const(DIM, 1)})
    assert delta(FormWeyl.from_weyl(x(1))).is_zero()
    # y^1 dx^2 -> dx^1 dx^2
    a = FormWeyl.from_component((2,), y(1))
    assert delta(a) == FormWeyl.from_component((1, 2), const(1))


def test_delta_inv_examples():
    dx1 = FormWeyl.from_component((1,), const(1))
    assert delta_inv(dx1) == FormWeyl.from_weyl(y(1))
    assert delta_inv(FormWeyl.from_weyl(y(1))).is_zero()
    a = FormWeyl.from_component((2,), y(1))
    want = FormWeyl.from_weyl(
        WeylElement(DIM, N, {(0, (1, 1)): XPoly.const(DIM, Fraction(1, 2))}))
    assert delta_inv(a) == want


def test_sigma_examples():
    a = FormWeyl.from_weyl(x(1) + y(1))
    assert sigma_project(a) == x(1)
    assert sigma_project(FormWeyl.from_component((1,), y(2))).is_zero()
    b = FormWeyl.from_weyl(
        const(1) + WeylElement(DIM, N, {(-1, (1, 1)): XPoly.const(DIM, 1)}))
    assert sigma_project(b) == const(1)


def test_hodge_identity_random():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_form(rng, DIM, 6).truncate(8)
        got = (FormWeyl.from_weyl(sigma_project(a)) + delta(delta_inv(a))
               + delta_inv(delta(a)))
        assert got == a
        assert delta(delta(a)).is_zero()
        assert delta_inv(delta_inv(a)).is_zero()


def test_delta_cohomology_vanishes_in_positive_degree():
    rng = random.Random(13)
    for _ in range(10):
        raw = rand_form(rng, DIM, 6).truncate(8)
        # produce a closed positive-degree form as delta of something
        a = delta(raw)
        assert delta(a).is_zero()
        positive = FormWeyl(DIM, a.order,
                            {S: w for S, w in a.components.items() if S})
        assert delta(delta_inv(positive)) == positive


# -- nabla and curvature ---------------------------------------------------

def test_nabla_examples():
    assert nabla(FormWeyl.from_weyl(x(1)), FLAT) == FormWeyl.from_component((1,), const(1))
    assert nabla(FormWeyl.from_weyl(y(1)), FLAT).is_zero()
    # Gamma^1_{11} = x^2 as a formal input
    chart = SymplecticChart(DIM, FLAT.omega_lower, FLAT.omega_upper,
                            {(1, 1, 1): XPoly.variable(DIM, 2)})
    got = nabla(FormWeyl.from_weyl(y(1)), chart)
    want = FormWeyl.from_component(
        (1,), WeylElement(DIM, N, {(0, (1, 0)): XPoly.variable(DIM, 2).scale(-1)}))
    assert got == want


def test_nabla_delta_anticommute():
    rng = random.Random(17)
    for _ in range(15):
        a = rand_form(rng, DIM, 6).truncate(8)
        assert (nabla(delta(a), CURVED) + delta(nabla(a, CURVED))).is_zero()


def test_curvature_flat_is_zero():
    assert curvature_R(FLAT, N).is_zero()


def test_curvature_bianchi():
    R = curvature_R(CURVED, N)
    assert not R.is_zero()
    assert delta(R).is_zero()
    assert nabla(R, CURVED).is_zero()


def test_nabla_squared_is_curvature_commutator():
    rng = random.Random(19)
    R = curvature_R(CURVED, 8)
    for _ in range(15):
        a = rand_form(rng, DIM, 6).truncate(8)
        lhs = nabla(nabla(a, CURVED), CURVED).truncate(6)
        rhs = commutator_over_hbar(R, a, CURVED).truncate(6)
        assert lhs == rhs


def test_derivation_properties_of_product():
    rng = random.Random(23)
    for _ in range(10):
        q = rng.choice([0, 1, 2])
        a = rand_form(rng, DIM, 6).homogeneous(q).truncate(8)
        b = rand_form(rng, DIM, 6).truncate(8)
        lhs = delta(moyal_product(a, b, CURVED)).truncate(6)
        t = moyal_product(a, delta(b), CURVED)
        rhs = (moyal_product(delta(a), b, CURVED)
               + (t if q % 2 == 0 else -t)).truncate(6)
        assert lhs == rhs
        lhs = nabla(moyal_product(a, b, CURVED), CURVED).truncate(6)
        t = moyal_product(a, nabla(b, CURVED), CURVED)
        rhs = (moyal_product(nabla(a, CURVED), b, CURVED)
               + (t if q % 2 == 0 else -t)).truncate(6)
        assert lhs == rhs


# -- Fedosov differential and curvature class ------------------------------

def test_fedosov_D_flat_examples():
    r0 = FormWeyl.zero(DIM, N)
    assert fedosov_D(FormWeyl.from_weyl(x(1)), FLAT, r0) == \
        FormWeyl.from_component((1,), const(1))
    assert fedosov_D(FormWeyl.from_weyl(y(1)), FLAT, r0) == \
        FormWeyl.from_component((1,), const(-1))


def test_fedosov_D_rejects_bad_r():
    two_form = FormWeyl.from_component((1, 2), y(1))
    with pytest.raises(ValueError):
        fedosov_D(FormWeyl.from_weyl(y(1)), FLAT, two_form)
    light = FormWeyl.from_component((1,), y(1))  # weight 1 < 3
    with pytest.raises(ValueError):
        fedosov_D(FormWeyl.from_weyl(y(1)), FLAT, light)


def test_curvature_class_flat_zero():
    assert weyl_curvature_class(FLAT, FormWeyl.zero(DIM, N), N).is_zero()


def test_curvature_class_negative_control():
    # a handcrafted non-solution r gives a y-dependent, non-central class
    r = FormWeyl.from_component(
        (2,), WeylElement(DIM, N, {(0, (3, 0)): XPoly.const(DIM, 1)}))
    cls = weyl_curvature_class(FLAT, r, N)
    assert not cls.is_zero()
    assert not is_central(cls)


def test_graded_commutator_sign():
    a = FormWeyl.from_component((1,), y(1))
    b = FormWeyl.from_component((2,), y(2))
    # odd-odd: [a,b] = a o b + b o a
    got = graded_commutator(a, b, FLAT)
    want = moyal_product(a, b, FLAT) + moyal_product(b, a, FLAT)
    assert got == want


def _two_product_commutator(a, b, chart):
    """a o b - (-)^{q_a q_b} b o a, written out with two products."""
    out = moyal_product(a, b, chart)
    for qa in a.exterior_degrees():
        for qb in b.exterior_degrees():
            term = moyal_product(b.homogeneous(qb), a.homogeneous(qa), chart)
            out = out - term if (qa * qb) % 2 == 0 else out + term
    return out


X_OMEGA = [[XPoly.zero(DIM), XPoly.const(DIM, 1) + XPoly.variable(DIM, 1)],
           [XPoly.const(DIM, -1) - XPoly.variable(DIM, 1), XPoly.zero(DIM)]]


# "None": these cases run without an x-degree cap, as their ids have
# always said; the ids are kept so the case names stay stable.
@pytest.mark.parametrize("chart", [CURVED, X_OMEGA],
                         ids=["None-curved", "None-x-omega"])
def test_graded_commutator_is_two_products(chart):
    # the one-pass commutator keeps the odd pairing orders of a o b only
    rng = random.Random(41)
    for _ in range(8):
        a, b = rand_form(rng, DIM, 6), rand_form(rng, DIM, 6)
        assert graded_commutator(a, b, chart) == _two_product_commutator(a, b, chart)
        odd = a.homogeneous(1)
        if not odd.is_zero():
            aa = graded_commutator(odd, odd, chart)
            assert aa == _two_product_commutator(odd, odd, chart)
            assert aa == moyal_product(odd, odd, chart).scale(2)


# -- chart validation -------------------------------------------------------

def test_chart_validation_catches_torsion():
    bad = SymplecticChart(DIM, FLAT.omega_lower, FLAT.omega_upper,
                          {(1, 1, 2): XPoly.variable(DIM, 1)})
    with pytest.raises(ChartValidationError, match="torsion"):
        bad.validate()


def test_chart_validation_catches_incompatible_connection():
    bad = SymplecticChart(DIM, FLAT.omega_lower, FLAT.omega_upper,
                          {(1, 1, 1): XPoly.variable(DIM, 1)})
    with pytest.raises(ChartValidationError, match="nabla"):
        bad.validate()


def test_chart_validation_catches_non_inverse_pair():
    lower = [[XPoly.zero(DIM), XPoly.const(DIM, 2)],
             [XPoly.const(DIM, -2), XPoly.zero(DIM)]]
    bad = SymplecticChart(DIM, lower, FLAT.omega_upper, {})
    with pytest.raises(ChartValidationError, match="delta"):
        bad.validate()


def test_curved_chart_is_valid():
    CURVED.validate()


def test_moyal_dimension_mismatch_error():
    a = WeylElement.y_variable(2, 6, 1)
    b = WeylElement.y_variable(4, 6, 1)
    with pytest.raises(ValueError, match="dim and order"):
        moyal_product(a, b, SymplecticChart.standard_flat(2))


def test_fedosov_D_graded_derivation():
    from fedosov.quantize import FedosovData, solve_r

    rng = random.Random(29)
    data = FedosovData(CURVED, {}, 6)
    r = solve_r(data)
    for _ in range(6):
        q = rng.choice([0, 1, 2])
        a = rand_form(rng, DIM, 6).homogeneous(q).truncate(8)
        b = rand_form(rng, DIM, 6).truncate(8)
        lhs = fedosov_D(moyal_product(a, b, CURVED), CURVED, r).truncate(6)
        t = moyal_product(a, fedosov_D(b, CURVED, r), CURVED)
        rhs = (moyal_product(fedosov_D(a, CURVED, r), b, CURVED)
               + (t if q % 2 == 0 else -t)).truncate(6)
        assert lhs == rhs
