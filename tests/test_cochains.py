import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fedosov import cochains
from fedosov import io as fio
from fedosov.cochains import (FiberwiseCochain, cochain_eval, cup,
                              delta_cochain, delta_inv_cochain, embed_forms,
                              fedosov_d_cochain, gerstenhaber, hochschild_d,
                              horizontal_lift_cochain, insert, nabla_cochain,
                              product_cochain, sigma_cochain,
                              to_local_operator, transfer_exactness,
                              transport_cochain, transport_weyl)
from fedosov.poly import XPoly
from fedosov.quantize import FedosovData, StarProduct, solve_r, tau
from fedosov.verify import (_deep_connection, builtin_curved_data, builtin_flat_data,
                            rand_cochain, rand_poly_in_x)
from fedosov.weyl import (FormWeyl, SymplecticChart, WeylElement, as_form,
                          fedosov_D, moyal_product)

DIM, N = 2, 6
WORK = N + 2
FLAT = SymplecticChart.standard_flat(DIM)
CURVED_DATA = builtin_curved_data(N)
CURVED = CURVED_DATA.chart
CURVED_OMEGA_FILE = Path(__file__).resolve().parents[1] / "bench" / "data" / "curved_omega.json"


def y_mono(p, c=1, k=0, order=WORK):
    return WeylElement(DIM, order, {(k, tuple(p)): XPoly.const(DIM, c)})


@pytest.fixture(scope="module")
def solved_r():
    # two levels deeper than the working order, for the commutator action
    return solve_r(FedosovData(CURVED, {}, N + 2), validate=False)


# -- evaluation ---------------------------------------------------------------

def test_eval_single_derivative():
    P = FiberwiseCochain.single_slot(DIM, WORK, (1, 0))
    got = cochain_eval(P, [y_mono((1, 1))])
    assert got == as_form(y_mono((0, 1)))


def test_eval_identity_cochain():
    P = FiberwiseCochain.identity(DIM, WORK)
    a = y_mono((2, 1), Fraction(3, 7), k=1)
    assert cochain_eval(P, [a]) == as_form(a)


def test_eval_product_cochain_matches_moyal():
    mu = product_cochain(CURVED, DIM, WORK, WORK)
    a, b = y_mono((1, 0)), y_mono((0, 1))
    assert cochain_eval(mu, [a, b]) == as_form(moyal_product(a, b, CURVED))


def test_eval_arity_mismatch():
    P = FiberwiseCochain.identity(DIM, WORK)
    with pytest.raises(ValueError):
        cochain_eval(P, [])


# -- cup product ---------------------------------------------------------------

def test_cup_of_identities_is_multiplication():
    ident = FiberwiseCochain.identity(DIM, WORK)
    mu = product_cochain(CURVED, DIM, WORK, WORK)
    assert cup(ident, ident, CURVED) == mu


def test_cup_with_unit_cochain():
    one = FiberwiseCochain.from_form(
        FormWeyl.from_weyl(WeylElement.const(DIM, WORK, 1)))
    rng = random.Random(1)
    P = rand_cochain(rng, DIM, N, 2, work=WORK)
    assert cup(P, one, CURVED) == P
    assert cup(one, P, CURVED) == P


def test_cup_associativity_random():
    rng = random.Random(2)
    for _ in range(4):
        A = rand_cochain(rng, DIM, N, 1, nterms=3, work=WORK)
        B = rand_cochain(rng, DIM, N, 1, nterms=3, work=WORK)
        C = rand_cochain(rng, DIM, N, 2, nterms=3, work=WORK)
        lhs = cup(cup(A, B, CURVED), C, CURVED).truncate(N)
        rhs = cup(A, cup(B, C, CURVED), CURVED).truncate(N)
        assert lhs == rhs


# -- Gerstenhaber bracket -------------------------------------------------------

def test_bracket_of_derivations_is_commutator():
    # D1 = d/dy1, D2 = y^1 d/dy2: [D1, D2] = d/dy2 as operators
    D1 = FiberwiseCochain.single_slot(DIM, WORK, (1, 0))
    D2 = FiberwiseCochain(DIM, WORK, 1,
                          {((), 0, (1, 0), ((0, 1),)): XPoly.const(DIM, 1)})
    got = gerstenhaber(D1, D2)
    assert got == FiberwiseCochain.single_slot(DIM, WORK, (0, 1))


def test_bracket_of_multiplication_with_itself_vanishes():
    mu = product_cochain(CURVED, DIM, WORK, WORK)
    assert gerstenhaber(mu, mu).truncate(N).is_zero()


def test_bracket_antisymmetry():
    rng = random.Random(3)
    for _ in range(5):
        A = rand_cochain(rng, DIM, N, rng.choice([1, 2]), nterms=3, work=WORK)
        B = rand_cochain(rng, DIM, N, rng.choice([1, 2]), nterms=3, work=WORK)
        k1, k2 = A.arity - 1, B.arity - 1
        rhs = gerstenhaber(B, A)
        rhs = rhs if (k1 * k2) % 2 else -rhs
        assert gerstenhaber(A, B) == rhs


def test_bracket_of_unequal_orders_is_antisymmetric():
    # A is known to WORK + 2 and B to WORK, so both halves of [A, B] are
    # formed to WORK, whichever factor comes first
    rng = random.Random(23)
    for _ in range(4):
        A = rand_cochain(rng, DIM, WORK + 2, rng.choice([1, 2]), nterms=3)
        B = rand_cochain(rng, DIM, WORK, rng.choice([1, 2]), nterms=3)
        k1, k2 = A.arity - 1, B.arity - 1
        rhs = gerstenhaber(B, A)
        rhs = rhs if (k1 * k2) % 2 else -rhs
        got = gerstenhaber(A, B)
        assert got.order == rhs.order == WORK
        assert got == rhs


def test_bracket_jacobi_arity_signs():
    rng = random.Random(4)
    for _ in range(4):
        A = rand_cochain(rng, DIM, N, rng.choice([1, 2]), nterms=2, work=WORK)
        B = rand_cochain(rng, DIM, N, rng.choice([1, 2]), nterms=2, work=WORK)
        C = rand_cochain(rng, DIM, N, 1, nterms=2, work=WORK)
        e1, e2 = A.arity - 1, B.arity - 1
        lhs = gerstenhaber(A, gerstenhaber(B, C))
        t = gerstenhaber(B, gerstenhaber(A, C))
        rhs = gerstenhaber(gerstenhaber(A, B), C) + (t if (e1 * e2) % 2 == 0 else -t)
        assert lhs == rhs


# -- Hochschild differential -----------------------------------------------------

def test_hochschild_d_on_zero_cochain():
    # P = y^1: (dP)(b) = b o y1 - y1 o b; on b = y^2 the value is -hbar
    P = FiberwiseCochain.from_form(as_form(y_mono((1, 0))))
    dP = hochschild_d(P, FLAT)
    val = cochain_eval(dP, [y_mono((0, 1))])
    assert val == as_form(WeylElement.const(DIM, WORK, -1).hbar_shift(1))


def test_hochschild_d_of_multiplication_vanishes():
    mu = product_cochain(CURVED, DIM, WORK, WORK)
    assert hochschild_d(mu, CURVED).truncate(N).is_zero()


def test_hochschild_d_squares_to_zero():
    rng = random.Random(5)
    for k in (0, 1, 2):
        P = rand_cochain(rng, DIM, N, k, work=WORK)
        assert hochschild_d(hochschild_d(P, CURVED), CURVED).truncate(N).is_zero()


def test_hochschild_d_builds_each_product_cochain_once(monkeypatch):
    """hochschild_d reads mu from the one module table, which builds each
    (omega, weight) once whichever form of omega is passed, and whose mu
    gives what one built afresh gives."""
    class Counted(dict):
        builds = 0

        def __setitem__(self, key, value):
            self.builds += 1
            super().__setitem__(key, value)

    table = Counted()
    monkeypatch.setattr(cochains, "_MU_TABLE", table)
    P = rand_cochain(random.Random(11), DIM, N, 1, work=WORK)
    first = hochschild_d(P, CURVED)
    assert table.builds == 1
    assert hochschild_d(P, CURVED) == first
    assert hochschild_d(P, CURVED.omega_upper) == first
    assert table.builds == len(table) == 1
    monkeypatch.setattr(cochains, "_MU_TABLE", {})
    assert hochschild_d(P, CURVED) == first


def test_cup_derivation_rule():
    # d(A cup B) = (-)^{q_B} dA cup B + (-)^{k_A+q_A} A cup dB
    rng = random.Random(6)
    for _ in range(4):
        qa, qb = rng.choice([0, 1]), rng.choice([0, 1])
        A = rand_cochain(rng, DIM, N, rng.choice([1, 2]), qs=(qa,), nterms=3,
                         work=WORK)
        B = rand_cochain(rng, DIM, N, 1, qs=(qb,), nterms=3, work=WORK)
        lhs = hochschild_d(cup(A, B, CURVED), CURVED)
        s = cup(hochschild_d(A, CURVED), B, CURVED)
        t = cup(A, hochschild_d(B, CURVED), CURVED)
        rhs = (s if qb % 2 == 0 else -s) + (t if (A.arity + qa) % 2 == 0 else -t)
        assert lhs.truncate(N) == rhs.truncate(N)


def test_bracket_derivation_rule_fiberwise():
    # d[A,B] = (-)^{k_B-1}[dA,B] + [A,dB] on dx-free cochains
    rng = random.Random(7)
    for _ in range(4):
        A = rand_cochain(rng, DIM, N, rng.choice([1, 2]), qs=(0,), nterms=3,
                         work=WORK)
        B = rand_cochain(rng, DIM, N, rng.choice([1, 2]), qs=(0,), nterms=3,
                         work=WORK)
        lhs = hochschild_d(gerstenhaber(A, B), CURVED)
        s = gerstenhaber(hochschild_d(A, CURVED), B)
        rhs = (s if (B.arity - 1) % 2 == 0 else -s) \
            + gerstenhaber(A, hochschild_d(B, CURVED))
        assert lhs.truncate(N) == rhs.truncate(N)


# -- delta, nabla, sigma on cochains ---------------------------------------------

def test_cochain_hodge():
    rng = random.Random(8)
    for k in (0, 1, 2):
        P = rand_cochain(rng, DIM, N, k, work=WORK)
        got = (sigma_cochain(P) + delta_cochain(delta_inv_cochain(P))
               + delta_inv_cochain(delta_cochain(P)))
        assert got == P
        assert delta_cochain(delta_cochain(P)).is_zero()
        assert (nabla_cochain(delta_cochain(P), CURVED)
                + delta_cochain(nabla_cochain(P, CURVED))).is_zero()


# -- the extended Fedosov differential --------------------------------------------

def test_extend_D_restricts_to_fedosov_D(solved_r):
    rng = random.Random(9)
    for _ in range(4):
        P = rand_cochain(rng, DIM, N, 0, work=WORK)
        lhs = fedosov_d_cochain(P, CURVED, solved_r)
        rhs = FiberwiseCochain.from_form(fedosov_D(P.to_form(), CURVED, solved_r))
        assert lhs == rhs


def test_extend_D_kills_multiplication(solved_r):
    mu = product_cochain(CURVED, DIM, WORK, WORK)
    assert fedosov_d_cochain(mu, CURVED, solved_r).truncate(N).is_zero()


def test_extend_D_squares_to_zero(solved_r):
    rng = random.Random(10)
    for k in (0, 1, 2):
        P = rand_cochain(rng, DIM, N, k, work=WORK)
        DD = fedosov_d_cochain(fedosov_d_cochain(P, CURVED, solved_r),
                               CURVED, solved_r)
        assert DD.truncate(N).is_zero()


def test_extend_D_anticommutes_with_hochschild(solved_r):
    rng = random.Random(11)
    for k in (0, 1):
        P = rand_cochain(rng, DIM, N, k, work=WORK)
        got = (fedosov_d_cochain(hochschild_d(P, CURVED), CURVED, solved_r)
               + hochschild_d(fedosov_d_cochain(P, CURVED, solved_r), CURVED))
        assert got.truncate(N).is_zero()


def test_extend_D_evaluation_formula(solved_r):
    # (D P)(a..) = D(P(a..)) - (-)^q sum_s P(.., D a_s, ..)
    rng = random.Random(12)
    for k in (1, 2):
        P = rand_cochain(rng, DIM, N, k, qs=(0,), work=WORK)
        DP = fedosov_d_cochain(P, CURVED, solved_r)
        args = [rand_poly_in_x(rng, DIM, N, 2).truncate(WORK)
                + y_mono((1, 1), Fraction(1, 2)) for _ in range(k)]
        lhs = cochain_eval(DP, args)
        rhs = fedosov_D(cochain_eval(P, args), CURVED, solved_r)
        for s in range(k):
            repl = list(args)
            repl[s] = fedosov_D(args[s], CURVED, solved_r)
            rhs = rhs - cochain_eval(P, repl)
        assert lhs.truncate(N) == rhs.truncate(N)


def test_extend_D_bracket_formula(solved_r):
    # D P = nabla P - delta P + (1/hbar)[dr, P]_G on exterior degree 0
    dr = hochschild_d(FiberwiseCochain.from_form(solved_r), CURVED)
    rng = random.Random(13)
    for k in (0, 1):
        P = rand_cochain(rng, DIM, N, k, qs=(0,), work=WORK)
        lhs = fedosov_d_cochain(P, CURVED, solved_r)
        rhs = (nabla_cochain(P, CURVED) - delta_cochain(P)
               + gerstenhaber(dr, P).hbar_shift(-1))
        assert lhs.truncate(N - 1) == rhs.truncate(N - 1)



def _K_r_by_cup_and_insert(P, chart, r):
    """(1/hbar) K_r(P) written out with the public cup and insert:
    K_r(P) = r cup P - (-)^q P cup r - (-)^q sum_s (P o_s L_r - P o_s R_r)."""
    work = P.order + 2
    rc = FiberwiseCochain.from_form(r.truncate(work), P.cap)
    ident = FiberwiseCochain.identity(DIM, work, P.cap)
    L, R = cup(rc, ident, chart), cup(ident, rc, chart)
    out = FiberwiseCochain.zero(DIM, P.order, P.arity, P.cap)
    for q in P.exterior_degrees():
        Pq = P.homogeneous_q(q).truncate(work)
        sign = 1 if q % 2 else -1
        K = cup(rc, Pq, chart) + cup(Pq, rc, chart).scale(sign)
        for s in range(P.arity):
            K = K + (insert(Pq, s, L) - insert(Pq, s, R)).scale(sign)
        out = out + K.hbar_shift(-1).truncate(P.order, P.cap)
    return out


def test_extend_D_is_cup_insert_formula(solved_r):
    # the commutator action runs one odd pairing pass per product pair
    rng = random.Random(14)
    for k in (0, 1, 2):
        for qs in ((0,), (1,), (0, 1)):
            P = FiberwiseCochain.zero(DIM, WORK, k)
            while P.is_zero():
                P = rand_cochain(rng, DIM, N, k, qs=qs, nterms=3, work=WORK)
            want = (nabla_cochain(P, CURVED) - delta_cochain(P)
                    + _K_r_by_cup_and_insert(P, CURVED, solved_r))
            assert fedosov_d_cochain(P, CURVED, solved_r) == want


def test_extend_D_rejects_non_one_form_r(solved_r):
    P = rand_cochain(random.Random(15), DIM, N, 1, work=WORK)
    with pytest.raises(ValueError, match="1-form"):
        fedosov_d_cochain(P, CURVED, solved_r + as_form(y_mono((2, 1))))


# every use of r refuses a 1-form of filtration weight < 3
LIGHT_USES = {
    "tau": lambda r: tau(WeylElement.x_variable(DIM, N, 1), CURVED_DATA, r),
    "horizontal_lift_cochain": lambda r: horizontal_lift_cochain(
        FiberwiseCochain.identity(DIM, WORK), CURVED, r),
    "transfer_exactness": lambda r: transfer_exactness(
        FiberwiseCochain.from_form(FormWeyl.from_component((1,), y_mono((0, 0)))),
        CURVED, r, validate=False),
    "fedosov_d_cochain": lambda r: fedosov_d_cochain(
        FiberwiseCochain.identity(DIM, WORK), CURVED, r),
}


@pytest.mark.parametrize("use", LIGHT_USES)
def test_light_r_is_refused_by_every_use(use, solved_r):
    light = FormWeyl.from_component((1,), y_mono((1, 1)))  # weight 2
    with pytest.raises(ValueError, match="filtration weight"):
        LIGHT_USES[use](solved_r + light)


# -- embedding of scalar forms ------------------------------------------------

def test_embed_unit():
    one = embed_forms(as_form(WeylElement.const(DIM, WORK, 1)))
    rng = random.Random(14)
    P = rand_cochain(rng, DIM, N, 1, work=WORK)
    assert cup(one, P, CURVED) == P


def test_embed_closed_form_is_D_closed_flat():
    r0 = FormWeyl.zero(DIM, WORK)
    dx1 = FormWeyl.from_component((1,), WeylElement.const(DIM, WORK, 1))
    assert fedosov_d_cochain(embed_forms(dx1), FLAT, r0).truncate(N).is_zero()


def test_embed_is_wedge_to_cup_morphism():
    u = FormWeyl(DIM, WORK, {
        (1,): WeylElement.from_xpoly(XPoly.variable(DIM, 2), WORK),
        (): WeylElement.from_xpoly(XPoly.monomial(DIM, (1, 1), Fraction(1, 2)), WORK)})
    v = FormWeyl(DIM, WORK, {
        (2,): WeylElement.from_xpoly(XPoly.const(DIM, 3), WORK, 1)})
    lhs = embed_forms(moyal_product(u, v, CURVED))
    rhs = cup(embed_forms(u), embed_forms(v), CURVED)
    assert lhs == rhs


def test_embed_rejects_y_dependence():
    with pytest.raises(ValueError):
        embed_forms(as_form(y_mono((1, 0))))


# -- the lift to D-closed cochains ------------------------------------------------

def test_lift_fixes_multiplication(solved_r):
    mu = product_cochain(CURVED, DIM, WORK, WORK)
    assert horizontal_lift_cochain(mu, CURVED, solved_r) == mu


def test_lift_fixes_constants(solved_r):
    c = FiberwiseCochain.from_form(
        as_form(WeylElement.const(DIM, WORK, Fraction(5, 3))))
    assert horizontal_lift_cochain(c, CURVED, solved_r) == c


def test_lift_properties(solved_r):
    rng = random.Random(15)
    for k in (1, 2):
        P = rand_cochain(rng, DIM, N, k, qs=(0,), ydeg=0, nterms=3, work=WORK)
        A = horizontal_lift_cochain(P, CURVED, solved_r)
        assert sigma_cochain(A) == P
        assert fedosov_d_cochain(A, CURVED, solved_r).truncate(N).is_zero()


def test_lift_runs_negative_hbar_powers_to_the_fixed_point(solved_r):
    """An hbar^-1 seed starts at weight -2 and needs two more passes than
    an hbar-free one; hbar A(hbar^-1 P) = A(P) at the working order."""
    P = FiberwiseCochain(DIM, WORK, 1, {
        ((), 0, (0, 0), ((1, 0),)): XPoly.monomial(DIM, (1, 1)),
        ((), 1, (0, 0), ((0, 2),)): XPoly.const(DIM, Fraction(2, 3))})
    A = horizontal_lift_cochain(P.hbar_shift(-1), CURVED, solved_r)
    assert sigma_cochain(A) == P.hbar_shift(-1)
    assert A.hbar_shift(1) == horizontal_lift_cochain(P, CURVED, solved_r)


def test_lift_flat_slot_cochain():
    r0 = FormWeyl.zero(DIM, WORK)
    P = FiberwiseCochain.single_slot(DIM, WORK, (1, 0))
    assert horizontal_lift_cochain(P, FLAT, r0) == P


def test_lift_rejects_bad_input(solved_r):
    bad_q = FiberwiseCochain(DIM, WORK, 0,
                             {((1,), 0, (0, 0), ()): XPoly.const(DIM, 1)})
    with pytest.raises(ValueError):
        horizontal_lift_cochain(bad_q, CURVED, solved_r)
    not_closed = FiberwiseCochain.from_form(as_form(y_mono((1, 0))))
    with pytest.raises(ValueError):
        horizontal_lift_cochain(not_closed, CURVED, solved_r)


# -- local operators --------------------------------------------------------------

def test_beta_of_multiplication_is_star(solved_r):
    sp = StarProduct(CURVED_DATA, solved_r.truncate(N + 2))
    mu = product_cochain(CURVED, DIM, WORK, WORK)
    E = to_local_operator(mu, sp, validate=False)
    for e1 in range(3):
        for e2 in range(2):
            a = WeylElement.from_xpoly(XPoly.monomial(DIM, (e1, e2), 1), N)
            b = WeylElement.from_xpoly(XPoly.monomial(DIM, (e2, 1), 1), N)
            assert E(a, b) == sp(a, b)


@pytest.mark.parametrize("a, b", [("hbar^-2 x1 x2", "x1"), ("hbar^-2 x1^2", "x2^2"),
                                  ("hbar^-3 x1 x2^2", "x1^2")])
def test_beta_of_multiplication_is_star_for_negative_hbar_powers(a, b):
    """Every argument is lifted at the depth the whole tuple needs."""
    data = fio.fedosov_data_from_json(json.loads(CURVED_OMEGA_FILE.read_text()))
    data.order = 4
    _, sp = _deep_connection(data)
    E = to_local_operator(product_cochain(data.chart, DIM, 6, 6), sp, validate=False)
    a, b = (fio.parse_poly(t, DIM, 4) for t in (a, b))
    assert E(a, b) == sp(a, b)


def test_cup_of_local_operators_for_negative_hbar_powers():
    """(E cup E)(a, b, c, d) = (a * b) * (c * d) with E = beta(mu): each side
    is evaluated deep enough for the other side's negative hbar powers, and
    mu is held at order 10 >= N + 2 + 2 neg(other side)."""
    data = fio.fedosov_data_from_json(json.loads(CURVED_OMEGA_FILE.read_text()))
    data.order = 4
    _, sp = _deep_connection(data)
    E = to_local_operator(product_cochain(data.chart, DIM, 10, 10), sp, validate=False)
    ref = StarProduct(FedosovData(data.chart, data.omega_series, 10))
    for args in [("x1", "x2", "hbar^-2 x1 x2", "x1"), ("hbar^-2 x1", "x2", "x1", "x2^2"),
                 ("x1 x2", "x1^2", "hbar^-1 x2", "hbar^-1 x1"), ("x1", "x2", "x1", "x2")]:
        a, b, c, d = (fio.parse_poly(t, DIM, 10) for t in args)
        want = ref(ref(a, b), ref(c, d)).truncate(4)
        assert E.cup(E)(*(x.truncate(4) for x in (a, b, c, d))) == want, args


def _beta_of_slot_lift(order, alpha, text):
    """beta(A)(a) on curved_omega.json at the order, A the lift of the
    seed d^alpha held at order + 2."""
    data = fio.fedosov_data_from_json(json.loads(CURVED_OMEGA_FILE.read_text()))
    data.order = order
    r, sp = _deep_connection(data)
    A = horizontal_lift_cochain(FiberwiseCochain.single_slot(DIM, order + 2, alpha),
                                data.chart, r)
    return to_local_operator(A, sp, validate=False)(fio.parse_poly(text, DIM, order))


@pytest.mark.parametrize("order, alpha, text", [
    (4, (3, 0), "x1^3*x2"), (3, (4, 0), "x1^4*x2"), (2, (2, 0), "hbar^-1*x1^2"),
    (3, (2, 1), "hbar^-1*x1^2*x2"), (2, (0, 2), "hbar^-2*x2^3")])
def test_beta_lifts_arguments_deep_enough_for_the_slots(order, alpha, text):
    """The slot derivative d^alpha reads y^alpha of the lifted argument, so
    the lift runs |alpha| + 2 neg - 2 orders deeper than the contract
    order; beta(A)(a) equals the value computed 4 orders deeper."""
    got = _beta_of_slot_lift(order, alpha, text)
    assert got == _beta_of_slot_lift(order + 4, alpha, text).truncate(order)
    if alpha == (3, 0):
        want = fio.parse_poly("6 x2 - 33/4 x1^2 x2 - 9/2 hbar x2 + 99/16 hbar x1^2 x2"
                              " - 3/16 hbar^2 x2 + 33/128 hbar^2 x1^2 x2", DIM, order)
        assert got == want


def test_beta_of_unit_cochain(solved_r):
    sp = StarProduct(CURVED_DATA, solved_r.truncate(N + 2))
    one = FiberwiseCochain.from_form(
        as_form(WeylElement.const(DIM, WORK, 1)))
    E = to_local_operator(one, sp, validate=False)
    assert E() == WeylElement.const(DIM, N, 1)


def test_beta_flat_slot_cochain_is_x_derivative():
    flat_data = builtin_flat_data(DIM, N)
    r0 = solve_r(flat_data)
    sp = StarProduct(flat_data, r0)
    P = FiberwiseCochain.single_slot(DIM, WORK, (1, 0))
    E = to_local_operator(P, sp, validate=False)
    rng = random.Random(16)
    for _ in range(5):
        a = rand_poly_in_x(rng, DIM, N, 3)
        want = WeylElement(DIM, N, {k: c.diff(1) for k, c in a.terms.items()})
        assert E(a) == want


def test_beta_coefficient_extraction():
    flat_data = builtin_flat_data(DIM, N)
    sp = StarProduct(flat_data)
    mu = product_cochain(FLAT, DIM, WORK, WORK)
    E = to_local_operator(mu, sp, validate=False)
    coeffs = E.coefficients(2)
    zero2 = ((0, 0), (0, 0))
    # leading coefficient of the star product is the pointwise product
    assert coeffs[zero2] == WeylElement.const(DIM, N, 1)
    # the hbar/2 omega^{12} d1 (x) d2 bidifferential term
    key = (((1, 0), (0, 1)))
    assert coeffs[key] == WeylElement.const(DIM, N, Fraction(1, 2)).hbar_shift(1)


def test_beta_validates_closedness(solved_r):
    sp = StarProduct(CURVED_DATA, solved_r.truncate(N + 2))
    not_closed = FiberwiseCochain.single_slot(DIM, N + 2, (1, 0))
    with pytest.raises(ValueError):
        to_local_operator(not_closed, sp)


# -- exactness witnesses ------------------------------------------------------------

def test_transfer_zero(solved_r):
    z = FiberwiseCochain.zero(DIM, WORK, 1)
    assert transfer_exactness(z, CURVED, solved_r, validate=False).is_zero()


def test_transfer_roundtrip(solved_r):
    rng = random.Random(17)
    for k in (0, 1):
        Q0 = rand_cochain(rng, DIM, N, k, nterms=3, work=WORK)
        P = fedosov_d_cochain(Q0, CURVED, solved_r)
        if P.is_zero():
            continue
        Q = transfer_exactness(P, CURVED, solved_r, validate=False)
        assert fedosov_d_cochain(Q, CURVED, solved_r).truncate(N) == P.truncate(N)
        # the witness vanishes at y = 0
        assert all(any(p) for (_, _, p, _) in Q.terms)


def test_transfer_flat_delta_example():
    r0 = FormWeyl.zero(DIM, WORK)
    P0 = FiberwiseCochain.from_form(as_form(y_mono((1, 0))))
    P = fedosov_d_cochain(P0, FLAT, r0)
    Q = transfer_exactness(P, FLAT, r0, validate=False)
    assert fedosov_d_cochain(Q, FLAT, r0).truncate(N) == P.truncate(N)


def test_transfer_rejects_degree_zero(solved_r):
    P = FiberwiseCochain.from_form(as_form(y_mono((1, 0))))
    with pytest.raises(ValueError):
        transfer_exactness(P, CURVED, solved_r)


def test_transfer_rejects_input_closed_only_at_low_weight(solved_r):
    """D(hbar^3 y1 dx2) = hbar^3 dx1 dx2 + (higher weight): D-closed below
    weight 6 = order - 2, but not at the order - 1 the check reads."""
    P = FiberwiseCochain(DIM, WORK, 0, {((2,), 3, (1, 0), ()): XPoly.const(DIM, 1)})
    D = fedosov_d_cochain(P, CURVED, solved_r)
    assert D.truncate(P.order - 3).is_zero() and not D.truncate(P.order - 1).is_zero()
    with pytest.raises(ValueError):
        transfer_exactness(P, CURVED, solved_r)


# -- linear transport ------------------------------------------------------------

def test_transport_cochain_functorial():
    from fedosov.weylhh import _matrix_inverse

    rng = random.Random(18)
    P = rand_cochain(rng, DIM, N, 1, nterms=3, work=WORK)
    g = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(1, 2)]]
    ginv = _matrix_inverse(g)
    back = transport_cochain(transport_cochain(P, g, ginv), ginv, g)
    assert back == P


def test_transport_weyl_respects_star_flat():
    from fedosov.weylhh import _matrix_inverse

    data = builtin_flat_data(DIM, N)
    sp = StarProduct(data)
    g = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1, 2)]]  # symplectic
    ginv = _matrix_inverse(g)
    rng = random.Random(19)
    for _ in range(4):
        a = rand_poly_in_x(rng, DIM, N, 2)
        b = rand_poly_in_x(rng, DIM, N, 2)
        assert transport_weyl(sp(a, b), ginv) == \
            sp(transport_weyl(a, ginv), transport_weyl(b, ginv))


def test_evaluator_is_hbar_multilinear(solved_r):
    sp = StarProduct(CURVED_DATA, solved_r.truncate(N + 2))
    mu = product_cochain(CURVED, DIM, WORK, WORK)
    E = to_local_operator(mu, sp, validate=False)
    rng = random.Random(23)
    a = rand_poly_in_x(rng, DIM, N, 2)
    b = rand_poly_in_x(rng, DIM, N, 2)
    c = rand_poly_in_x(rng, DIM, N, 2)
    lhs = E(a.hbar_shift(1) + b.scale(Fraction(2, 3)), c)
    rhs = E(a, c).hbar_shift(1) + E(b, c).scale(Fraction(2, 3))
    assert lhs == rhs


def test_fiberwise_acyclicity_via_constant_theta_homotopy():
    """Positive-arity cocycles of the fiberwise Hochschild differential are
    reduced slice-wise (per dx component and x-monomial) through the
    constant-theta cochain homotopy."""
    from fedosov.weylhh import WeylCochain, WeylContext, cochain_homotopy

    ctx = WeylContext.standard(DIM, N)
    rng = random.Random(24)
    for trial in range(3):
        arity = rng.choice([0, 1])
        b = rand_cochain(rng, DIM, N, arity, ydeg=2, acap=1, nterms=3, work=N)
        a = hochschild_d(b, FLAT)   # a closed cochain of arity >= 1
        if a.is_zero():
            continue
        # slice into constant-theta cochains per (dx subset, x exponent)
        slices = {}
        for (S, m, p, alphas), c in a.terms.items():
            for e, coeff in c.terms.items():
                slices.setdefault((S, e), {})[(m, p, alphas)] = coeff
        witness_terms = {}
        for (S, e), terms in slices.items():
            sl = WeylCochain(DIM, a.arity, terms)
            sign = -1 if len(S) % 2 else 1
            w = cochain_homotopy(ctx, sl, 4, N)
            for (m, p, alphas), coeff in w.terms.items():
                key = (S, m, p, alphas)
                prev = witness_terms.get(key, XPoly.zero(DIM))
                s2 = prev + XPoly.monomial(DIM, e, coeff).scale(sign)
                witness_terms[key] = s2
        witness = FiberwiseCochain(DIM, N, a.arity - 1,
                                   {k: v for k, v in witness_terms.items()
                                    if not v.is_zero()}, cap=N)
        got = hochschild_d(witness, FLAT).restrict_slots(2).truncate(N)
        want = a.restrict_slots(2).truncate(N)
        assert got == want


def test_constant_theta_kernels_agree():
    """On dx-free cochains with constant coefficients the fiberwise cochain
    algebra over a constant theta is the Weyl-algebra cochain algebra."""
    from fedosov.cochains import insert
    from fedosov.verify import rand_wcochain
    from fedosov.weylhh import (WeylContext, cochain_cup, cochain_insert,
                                gerstenhaber_w, hh_hochschild_d)

    ctx = WeylContext.standard(DIM, N)

    def fiberwise(terms):
        return {((),) + k: XPoly.const(DIM, c) for k, c in terms.items()}

    def same(P, a):
        return P.terms == fiberwise(a.restrict(N).normalize(N).terms)

    rng = random.Random(11)
    for _ in range(15):
        a = rand_wcochain(rng, ctx, rng.choice([1, 2]), nterms=3)
        b = rand_wcochain(rng, ctx, rng.choice([1, 2]), nterms=3)
        A = FiberwiseCochain(DIM, N, a.arity, fiberwise(a.terms))
        B = FiberwiseCochain(DIM, N, b.arity, fiberwise(b.terms))
        assert same(cup(A, B, ctx.theta), cochain_cup(ctx, a, b))
        for i in range(a.arity):
            assert same(insert(A, i, B), cochain_insert(a, i, b))
        assert same(gerstenhaber(A, B), gerstenhaber_w(a, b))
        assert same(hochschild_d(A, ctx.theta), hh_hochschild_d(ctx, a))
        args = [rand_wcochain(rng, ctx, 0, nterms=4).as_wseries()
                for _ in range(a.arity)]
        got = cochain_eval(A, [WeylElement(DIM, N, {k: XPoly.const(DIM, c)
                                                    for k, c in w.terms.items()})
                               for w in args])
        want = a.eval(args, N)
        assert got.component(()).terms == {k: XPoly.const(DIM, c)
                                           for k, c in want.terms.items()}
        assert set(got.components) <= {()}


def test_hochschild_d_with_negative_hbar_powers():
    """mu must keep the pairings an hbar^-1 term still needs at the order."""
    from fedosov.verify import rand_wcochain
    from fedosov.weylhh import WeylContext, hh_hochschild_d

    ctx = WeylContext.standard(DIM, N)
    rng = random.Random(5)
    for _ in range(20):
        a = rand_wcochain(rng, ctx, rng.choice([1, 2]), hmin=-1, hmax=0)
        A = FiberwiseCochain(DIM, N, a.arity, {((),) + k: XPoly.const(DIM, c)
                                               for k, c in a.terms.items()})
        want = hh_hochschild_d(ctx, a).restrict(N).normalize(N)
        assert hochschild_d(A, ctx.theta).terms == {
            ((),) + k: XPoly.const(DIM, c) for k, c in want.terms.items()}


@pytest.mark.parametrize("world", ["fiberwise", "weyl"])
def test_hochschild_d_widens_mu_for_negative_hbar(world):
    """d of one term hbar^k y^p d^alpha, k = -4..-1, at orders 0-4 equals d
    computed 12 orders deeper and truncated: an hbar^k term meets the
    pairings of mu up to weight order - 2k."""
    from fedosov.weylhh import WeylCochain, WeylContext, hh_hochschild_d

    ctx = WeylContext.standard(DIM, N)
    for k in range(-4, 0):
        for order in range(5):
            for p in [(0, 0), (1, 0), (0, order - 2 * k)]:
                key = (k, p, ((1, 1),))
                if world == "weyl":
                    a = WeylCochain(DIM, 1, {key: Fraction(1)})
                    want = hh_hochschild_d(ctx, a, order + 12).normalize(order)
                    assert hh_hochschild_d(ctx, a, order) == want, (k, order, p)
                else:
                    terms = {((),) + key: XPoly.const(DIM, 1)}
                    P = FiberwiseCochain(DIM, order, 1, terms)
                    deep = FiberwiseCochain(DIM, order + 12, 1, terms)
                    want = hochschild_d(deep, CURVED).truncate(order)
                    assert hochschild_d(P, CURVED) == want, (k, order, p)
