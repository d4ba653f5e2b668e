"""Property tests of identities the seeded suites sample: star
associativity and tau horizontality on the built-in curved chart, cup
associativity, the cup derivation rule, the bracket form of the
Hochschild d, beta(A1 cup A2) = beta(A1) * beta(A2), the Hodge identity,
d o d = 0 for both Hochschild differentials, D o D = 0 for the extended
Fedosov differential, GL functoriality of the transport of every
transported type, and the three identities of the Weyl cochain homotopy
(chi, rho-hat and the GL homotopy square), at orders <= 4.  Examples are
derandomized so every run draws the same inputs."""

import functools
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from fedosov import io as fio
from fedosov.cochains import (FiberwiseCochain, _mu_terms, cup, fedosov_d_cochain,
                              gerstenhaber, hochschild_d, horizontal_lift_cochain,
                              product_cochain, to_local_operator, transport_cochain,
                              transport_form, transport_weyl)
from fedosov.poly import XPoly
from fedosov.quantize import StarProduct, solve_r, tau
from fedosov.verify import (CHI_WINDOW_FACTOR, _deep_connection, _signed, builtin_curved_data,
                            rand_cochain)
from fedosov.weyl import (FormWeyl, WeylElement, _matmul, _matrix_inverse, delta,
                          delta_inv, fedosov_D, sigma_project)
from fedosov.weylhh import (BarChain, KoszulChain, PsiElement, WeylCochain, WeylContext,
                            _subsets, bar_to_koszul, cochain_from_values,
                            cochain_homotopy, eval_on_bar, gerstenhaber_w, gl_transport,
                            gl_transport_context, hh_hochschild_d, koszul_to_bar, rho_hat)

DIM = 2
ORDER = 4
CURVED_OMEGA_FILE = Path(__file__).resolve().parents[1] / "bench" / "data" / "curved_omega.json"
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


def _homogeneous_cochains(arity, q):
    """Cochains of exterior degree q only, held at ORDER + 2."""
    keys = st.tuples(st.sampled_from(_subsets(DIM, q)), st.integers(0, 1), exps,
                     st.tuples(*[exps] * arity))
    return st.dictionaries(keys, xpolys, min_size=1, max_size=2).map(
        lambda terms: FiberwiseCochain(DIM, ORDER + 2, arity, terms))


CUP_SETTINGS = settings(SETTINGS, max_examples=12)


@CUP_SETTINGS
@given(st.integers(1, 2), st.integers(0, 1), st.integers(0, 1), st.data())
def test_cup_derivation_rule(ka, qa, qb, data):
    """d(A cup B) = (-)^{q_B} dA cup B + (-)^{k_A + q_A} A cup dB, the
    cup and the product cochain inside d both on the pairing kernel."""
    A = data.draw(_homogeneous_cochains(ka, qa))
    B = data.draw(_homogeneous_cochains(1, qb))
    chart, d = CURVED.chart, hochschild_d
    lhs = d(cup(A, B, chart), chart)
    rhs = _signed(cup(d(A, chart), B, chart), qb) + _signed(cup(A, d(B, chart), chart), ka + qa)
    assert lhs.truncate(ORDER) == rhs.truncate(ORDER)


@CUP_SETTINGS
@given(st.integers(0, 2).flatmap(lambda k: _cochains(k, ORDER + 2)))
def test_hochschild_d_is_the_bracket_with_the_product(P):
    """dP = sum_q (-)^{q + k + 1} [mu, P_q], mu the product cochain."""
    chart = CURVED.chart
    mu = product_cochain(chart, DIM, ORDER + 2, ORDER + 1)
    rhs = FiberwiseCochain.zero(DIM, ORDER + 2, P.arity + 1, P.cap)
    for q in P.exterior_degrees():
        rhs = rhs + _signed(gerstenhaber(mu, P.homogeneous_q(q)), q + P.arity + 1)
    assert hochschild_d(P, chart).truncate(ORDER) == rhs.truncate(ORDER)


@CUP_SETTINGS
@given(st.integers(1, 2), st.integers(1, 2), st.data())
def test_bracket_derivation_rule(ka, kb, data):
    """d[A, B] = (-)^{k_B - 1}[dA, B] + [A, dB] on dx-free cochains."""
    A = data.draw(_homogeneous_cochains(ka, 0))
    B = data.draw(_homogeneous_cochains(kb, 0))
    chart, d = CURVED.chart, hochschild_d
    lhs = d(gerstenhaber(A, B), chart)
    rhs = _signed(gerstenhaber(d(A, chart), B), kb - 1) + gerstenhaber(A, d(B, chart))
    assert lhs.truncate(ORDER) == rhs.truncate(ORDER)


def _wcochains(arity):
    """Weyl cochains of weight <= ORDER with hbar powers -1..1."""
    parts = st.sampled_from([(m, p) for m in (-1, 0, 1) for p in product(range(5), repeat=DIM)
                             if 2 * m + sum(p) <= ORDER])
    keys = st.tuples(parts, st.tuples(*[exps] * arity)).map(lambda t: t[0] + (t[1],))
    return st.dictionaries(keys, fractions, min_size=1, max_size=2).map(
        lambda terms: WeylCochain(DIM, arity, terms))


@CUP_SETTINGS
@given(st.integers(0, 2).flatmap(_wcochains))
def test_weyl_hochschild_d_is_the_bracket_with_the_product(a):
    """d a = (-)^{k+1} [mu, a] with mu from the table hochschild_d reads,
    held deep enough for the hbar^-1 terms."""
    mu = WeylCochain(DIM, 2, _mu_terms(CTX.theta, ORDER + 2))
    rhs = _signed(gerstenhaber_w(mu, a), a.arity + 1)
    assert hh_hochschild_d(CTX, a, ORDER) == rhs.normalize(ORDER)


# beta(A1 cup A2) = beta(A1) * beta(A2) at the star product's order BETA_N
BETA_N = 2


@functools.cache
def _beta_cups():
    """beta(A1 cup A2) and beta(A1) cup beta(A2) on curved_omega.json at
    BETA_N with its deeper connection, A1 and A2 of arity 1 lifted from
    seeds drawn as suite_beta draws them."""
    data = fio.fedosov_data_from_json(json.loads(CURVED_OMEGA_FILE.read_text()))
    data.order = BETA_N
    r, sp = _deep_connection(data)
    rng = random.Random(0)
    lifted = []
    for _ in range(2):
        seed = rand_cochain(rng, DIM, BETA_N, 1, qs=(0,), ydeg=0, acap=2, nterms=3,
                            work=BETA_N + 2)
        assert not seed.is_zero()
        lifted.append(horizontal_lift_cochain(seed, data.chart, r))
    E1, E2 = (to_local_operator(A, sp, validate=False) for A in lifted)
    return to_local_operator(cup(*lifted, data.chart), sp, validate=False), E1.cup(E2)


def _beta_args(hbar_pairs):
    """Two y-free arguments hbar^k1 p1 and hbar^k2 p2, p1 and p2 polynomials
    in x."""
    return st.tuples(hbar_pairs, xpolys, xpolys).map(
        lambda t: [WeylElement(DIM, BETA_N, {(k, (0, 0)): p}) for k, p in zip(t[0], t[1:])])


@settings(SETTINGS, max_examples=10)
@given(_beta_args(st.tuples(st.integers(0, 1), st.integers(0, 1))))
def test_beta_of_a_cup_is_the_star_product_of_betas(args):
    beta_of_cup, cup_of_betas = _beta_cups()
    assert beta_of_cup(*args) == cup_of_betas(*args)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "with negative hbar powers on one side, the other side of the cup runs "
    "on a deeper instance, 2 neg orders deeper, and both that value and "
    "beta(A1 cup A2) are cut at the cochains' order BETA_N + 2, short of the "
    "BETA_N + 2 + 2 neg they need (ROADMAP item 14)"))
@settings(SETTINGS, max_examples=10, phases=(Phase.explicit, Phase.generate))
@given(_beta_args(st.sampled_from([(k1, k2) for k1 in range(-2, 2) for k2 in range(-2, 2)
                                   if max(0, -k1) + max(0, -k2) <= 2])))
def test_beta_of_a_cup_for_negative_hbar_arguments(args):
    # hbar powers -2..1 whose negative parts sum to <= 2, which keeps the
    # deeper star products at BETA_N + 4
    beta_of_cup, cup_of_betas = _beta_cups()
    assert beta_of_cup(*args) == cup_of_betas(*args)


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
    # an element of W: a WeylElement with Fraction coefficients
    "wseries": _sums(st.tuples(hbars, exps), fractions,
                     lambda terms: WeylElement(DIM, None, terms)),
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
    """x pushed along g by the transport of its type; a WeylElement moves
    with its chart's x when it has XPoly coefficients, and by gl_transport
    as an element of W when they are Fractions."""
    ginv = _matrix_inverse(g)
    if isinstance(x, WeylElement) and any(isinstance(c, XPoly) for c in x.terms.values()):
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


# -- the cochain homotopy of the Weyl algebra -----------------------------------------
#
# Inputs of weight <= ORDER with slot degrees in the window; as in the chi
# suite, the maps run two filtration levels above ORDER (psi_h lowers the
# weight by one) and the two sides are compared on the window at ORDER.

WINDOW = 2
REC = CHI_WINDOW_FACTOR * WINDOW
WORK = ORDER + 2
WORK_CTX = WeylContext.standard(DIM, WORK)
window_slots = st.sampled_from([e for e in product(range(WINDOW + 1), repeat=DIM)
                                if sum(e) <= WINDOW])
weighted_parts = st.sampled_from([(m, p) for m in (0, 1)
                                  for p in product(range(ORDER + 1), repeat=DIM)
                                  if 2 * m + sum(p) <= ORDER])


def _window_wcochains(arity):
    keys = st.tuples(weighted_parts, st.tuples(*[window_slots] * arity)).map(
        lambda t: t[0] + (t[1],))
    return st.dictionaries(keys, fractions, min_size=1, max_size=2).map(
        lambda terms: WeylCochain(DIM, arity, terms))


window_wcochains = st.integers(1, 2).flatmap(_window_wcochains)


def _on_window(x):
    return x.restrict(WINDOW).normalize(ORDER)


@SETTINGS
@given(window_wcochains)
def test_chi_contracts_the_hochschild_complex(a):
    d, chi = hh_hochschild_d, cochain_homotopy
    got = d(WORK_CTX, chi(WORK_CTX, a, REC, WORK), WORK) + \
        chi(WORK_CTX, d(WORK_CTX, a), WINDOW, WORK)
    assert _on_window(got) == _on_window(a)


@SETTINGS
@given(window_wcochains)
def test_rho_hat_is_a_homotopy_from_lambda_nu_to_the_identity(a):
    # a - a(lambda nu) = d rho_hat(a) + rho_hat(d a)
    def via_koszul(betas):
        chain = koszul_to_bar(WORK_CTX, bar_to_koszul(WORK_CTX, BarChain.interior(DIM, betas)))
        return eval_on_bar(WORK_CTX, a, chain)

    d = hh_hochschild_d
    a_ln = cochain_from_values(WORK_CTX, via_koszul, a.arity, WINDOW, WORK)
    rhs = d(WORK_CTX, rho_hat(WORK_CTX, a, REC, WORK), WORK) + \
        rho_hat(WORK_CTX, d(WORK_CTX, a), WINDOW, WORK)
    assert _on_window(a - a_ln) == _on_window(rhs)


@SETTINGS
@given(window_wcochains, gls)
def test_chi_commutes_with_gl_transport(a, g):
    ctx2 = gl_transport_context(WORK_CTX, g)
    left = gl_transport(WORK_CTX, g, cochain_homotopy(WORK_CTX, a, REC, WORK))
    right = cochain_homotopy(ctx2, gl_transport(WORK_CTX, g, a), REC, WORK)
    assert _on_window(left) == _on_window(right)
