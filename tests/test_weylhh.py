import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from fedosov import weylhh
from fedosov.cochains import _multidegrees
from fedosov.poly import XPoly, _acc, _mono_derivative
from fedosov.verify import (rand_bar, rand_fraction, rand_gl, rand_koszul,
                            rand_psi, rand_wcochain)
from fedosov.weyl import WeylElement, vec_add, vec_sub
from fedosov.weylhh import (BarChain, KoszulChain, MonomialEvaluator, PsiElement,
                            WeylCochain, WeylContext, _collect_subst,
                            bar_aug, bar_d, bar_h, bar_homotopy, bar_to_koszul,
                            cochain_from_values, cochain_homotopy, eval_on_bar,
                            eval_psi_on_koszul, gl_push_theta,
                            gl_transport, gl_transport_context,
                            hh_hochschild_d, hh_reduce, koszul_aug, koszul_d,
                            koszul_h, koszul_to_bar, lambda_hat, nu_hat, psi_d,
                            psi_h, rho_hat)

N = 6
CTX = WeylContext.standard(2, N)


def frac(a, b=1):
    return Fraction(a, b)


def _mono(dim, p, c=1, k=0):
    """c hbar^k y^p, an element of W."""
    return WeylElement(dim, None, {(k, tuple(p)): Fraction(c)})


def _weyl_mul(ctx, a, b):
    """The theta-Weyl product of two elements of W, term by term over
    ctx.mono_product: the reference product of the bimodule tests."""
    terms = {}
    for (k1, p1), c1 in a.terms.items():
        for (k2, p2), c2 in b.terms.items():
            for (t, p), cp in ctx.mono_product(p1, p2).items():
                _acc(terms, (k1 + k2 + t, p), c1 * c2 * cp)
    return WeylElement(a.dim, None, terms)


# -- the Weyl product ---------------------------------------------------------

def test_wseries_product():
    y1, y2 = _mono(2, (1, 0)), _mono(2, (0, 1))
    got = _weyl_mul(CTX, y1, y2)
    assert got.terms == {(0, (1, 1)): frac(1), (1, (0, 0)): frac(1, 2)}
    comm = got - _weyl_mul(CTX, y2, y1)
    assert comm.terms == {(1, (0, 0)): frac(1)}


# -- bar resolution -----------------------------------------------------------

def test_bar_d_on_unit():
    one = BarChain(2, 1, {(0, ((0, 0), (0, 0), (0, 0))): frac(1)})
    assert bar_d(CTX, one).is_zero()


def test_bar_d_middle_copy():
    b = BarChain.interior(2, [(1, 0)])
    got = bar_d(CTX, b)
    assert got.terms == {(0, ((1, 0), (0, 0))): frac(1),
                         (0, ((0, 0), (1, 0))): frac(-1)}


def test_bar_d_squares_to_zero():
    rng = random.Random(1)
    for _ in range(6):
        b = rand_bar(rng, CTX, 3)
        assert bar_d(CTX, bar_d(CTX, b)).is_zero()


def test_bar_h_examples():
    one = BarChain(2, 0, {(0, ((0, 0), (0, 0))): frac(1)})
    lifted = bar_h(one)
    assert lifted.m == 1 and lifted.terms == {(0, ((0, 0), (0, 0), (0, 0))): frac(1)}
    w = _mono(2, (1, 1), 3)
    assert bar_h(w).terms == {(0, ((0, 0), (1, 1))): frac(3)}


def test_bar_contracting_identity_degreewise():
    rng = random.Random(2)
    for m in (0, 1, 2, 3):
        for _ in range(4):
            b = rand_bar(rng, CTX, m)
            tail = bar_aug(CTX, b) if m == 0 else bar_d(CTX, b)
            assert bar_d(CTX, bar_h(b)) + bar_h(tail) == b


def test_bar_aug_is_weyl_product():
    b = BarChain(2, 0, {(0, ((1, 0), (0, 1))): frac(1)})
    assert bar_aug(CTX, b).terms == {(0, (1, 1)): frac(1), (1, (0, 0)): frac(1, 2)}


# -- Koszul resolution ----------------------------------------------------------

def test_koszul_d_generator():
    got = koszul_d(CTX, KoszulChain.generator(2, (1,)))
    assert got.terms == {(0, (1, 0), (0, 0), ()): frac(1),
                         (0, (0, 0), (1, 0), ()): frac(-1)}


def test_koszul_d_squares_to_zero():
    assert koszul_d(CTX, koszul_d(CTX, KoszulChain.generator(2, (1, 2)))).is_zero()
    rng = random.Random(3)
    for _ in range(6):
        a = rand_koszul(rng, CTX, 2)
        assert koszul_d(CTX, koszul_d(CTX, a)).is_zero()


def test_koszul_h_examples():
    one = KoszulChain(2, 0, {(0, (0, 0), (0, 0), ()): frac(1)})
    assert koszul_h(CTX, one).is_zero()
    y1 = KoszulChain(2, 0, {(0, (1, 0), (0, 0), ()): frac(1)})
    assert koszul_h(CTX, y1).terms == {(0, (0, 0), (0, 0), (1,)): frac(1)}


def test_koszul_contracting_identity_degreewise():
    rng = random.Random(4)
    for m in (0, 1, 2):
        for _ in range(5):
            a = rand_koszul(rng, CTX, m)
            tail = koszul_aug(CTX, a) if m == 0 else koszul_d(CTX, a)
            assert koszul_d(CTX, koszul_h(CTX, a)) + koszul_h(CTX, tail) == a


# -- comparison maps -------------------------------------------------------------

def test_lambda_base_and_generator():
    a = KoszulChain(2, 0, {(1, (2, 0), (0, 1), ()): frac(5)})
    lam = koszul_to_bar(CTX, a)
    assert lam.terms == {(1, ((2, 0), (0, 1))): frac(5)}
    lam1 = koszul_to_bar(CTX, KoszulChain.generator(2, (1,)))
    assert lam1.terms == {(0, ((0, 0), (1, 0), (0, 0))): frac(1),
                          (0, ((0, 0), (0, 0), (1, 0))): frac(-1)}


def test_nu_base_case():
    b = BarChain(2, 0, {(0, ((1, 1), (2, 0))): frac(3)})
    nu = bar_to_koszul(CTX, b)
    assert nu.terms == {(0, (1, 1), (2, 0), ()): frac(3)}


def test_comparison_chain_maps():
    rng = random.Random(5)
    for m in (1, 2):
        for _ in range(5):
            a = rand_koszul(rng, CTX, m)
            assert bar_d(CTX, koszul_to_bar(CTX, a)) == \
                koszul_to_bar(CTX, koszul_d(CTX, a))
            b = rand_bar(rng, CTX, m)
            assert koszul_d(CTX, bar_to_koszul(CTX, b)) == \
                bar_to_koszul(CTX, bar_d(CTX, b))


def test_nu_lambda_is_identity_on_koszul_generators():
    for T in ((1,), (2,), (1, 2)):
        k = KoszulChain.generator(2, T)
        assert bar_to_koszul(CTX, koszul_to_bar(CTX, k)) == k


def test_rho_identity():
    rng = random.Random(6)
    assert bar_homotopy(CTX, BarChain(2, 0, {(0, ((1, 0), (0, 1))): frac(1)})).is_zero()
    for m in (1, 2):
        for _ in range(5):
            b = rand_bar(rng, CTX, m)
            lhs = b - koszul_to_bar(CTX, bar_to_koszul(CTX, b))
            rhs = bar_d(CTX, bar_homotopy(CTX, b)) \
                + bar_homotopy(CTX, bar_d(CTX, b))
            assert lhs == rhs


def test_rho_identity_on_lambda_image():
    rng = random.Random(7)
    for _ in range(4):
        kappa = rand_koszul(rng, CTX, 1)
        b = koszul_to_bar(CTX, kappa)
        lhs = b - koszul_to_bar(CTX, bar_to_koszul(CTX, b))
        rhs = bar_d(CTX, bar_homotopy(CTX, b)) + bar_homotopy(CTX, bar_d(CTX, b))
        assert lhs == rhs


def _ref_sandwich(ctx, k, left, val, right, c):
    """hbar^k c  y^left o val o y^right on a BarChain or KoszulChain val, one
    term at a time, the outer factors multiplied by _weyl_mul."""
    out = val._empty()
    for key, cv in val.terms.items():
        if isinstance(val, BarChain):
            kv, ps = key
            first, last = ps[0], ps[-1]
        else:
            kv, first, last, T = key
        firsts = _weyl_mul(ctx, _mono(ctx.dim, left), _mono(ctx.dim, first)).terms
        lasts = _weyl_mul(ctx, _mono(ctx.dim, last), _mono(ctx.dim, right)).terms
        for (t1, q1), c1 in firsts.items():
            for (t2, q2), c2 in lasts.items():
                kk = k + kv + t1 + t2
                key2 = ((kk, (q1,) + ps[1:-1] + (q2,)) if isinstance(val, BarChain)
                        else (kk, q1, q2, T))
                out = out + val._with({key2: c * cv * c1 * c2})
    return out


def _ref_product(ctx, k, p1, p2, c):
    return _weyl_mul(ctx, _mono(ctx.dim, p1, c, k), _mono(ctx.dim, p2))


def _outer_factors_nontrivial(ps_pairs):
    return any(any(p1) and any(p2) for p1, p2 in ps_pairs)


def test_bimodule_maps_match_term_by_term_products():
    rng = random.Random(8)
    for m in (0, 1, 2):
        a = rand_koszul(rng, CTX, m, nterms=6)
        assert _outer_factors_nontrivial((p1, p2) for (_, p1, p2, _) in a.terms)
        want = BarChain(2, m)
        for (k, p1, p2, T), c in a.terms.items():
            gen = koszul_to_bar(CTX, KoszulChain.generator(2, T))
            want = want + _ref_sandwich(CTX, k, p1, gen, p2, c)
        assert koszul_to_bar(CTX, a) == want
    for m in (1, 2):
        b = rand_bar(rng, CTX, m, nterms=6)
        assert _outer_factors_nontrivial((ps[0], ps[-1]) for (_, ps) in b.terms)
        want_nu, want_rho = KoszulChain(2, m), BarChain(2, m + 1)
        for (k, ps), c in b.terms.items():
            g = BarChain.interior(2, ps[1:-1])
            want_nu = want_nu + _ref_sandwich(CTX, k, ps[0], bar_to_koszul(CTX, g), ps[-1], c)
            want_rho = want_rho + _ref_sandwich(CTX, k, ps[0], bar_homotopy(CTX, g),
                                                ps[-1], c)
        assert bar_to_koszul(CTX, b) == want_nu
        assert bar_homotopy(CTX, b) == want_rho
    b, a = rand_bar(rng, CTX, 0, nterms=6), rand_koszul(rng, CTX, 0, nterms=6)
    assert _outer_factors_nontrivial(ps for (_, ps) in b.terms)
    assert _outer_factors_nontrivial((p1, p2) for (_, p1, p2, _) in a.terms)
    want = WeylElement(2, None)
    for (k, (p1, p2)), c in b.terms.items():
        want = want + _ref_product(CTX, k, p1, p2, c)
    assert bar_aug(CTX, b) == want
    want = WeylElement(2, None)
    for (k, p1, p2, _), c in a.terms.items():
        want = want + _ref_product(CTX, k, p1, p2, c)
    assert koszul_aug(CTX, a) == want


# -- reduced complex ---------------------------------------------------------------

def test_psi_d_examples():
    a = PsiElement(2, {(-1, (0, 1), ()): frac(1)})
    assert psi_d(CTX, a).terms == {(0, (0, 0), (1,)): frac(1)}
    b = PsiElement(2, {(0, (1, 0), ()): frac(1)})
    assert psi_d(CTX, b).terms == {(1, (0, 0), (2,)): frac(-1)}
    c = PsiElement(2, {(0, (0, 0), (1,)): frac(1)})
    assert psi_d(CTX, c).is_zero()


def test_psi_h_examples():
    c = PsiElement(2, {(0, (0, 0), (1,)): frac(1)})
    assert psi_h(CTX, c).terms == {(-1, (0, 1), ()): frac(1)}
    one = PsiElement(2, {(0, (0, 0), ()): frac(1)})
    assert psi_h(CTX, one).is_zero()


def test_psi_homotopy_identity():
    rng = random.Random(8)
    for _ in range(25):
        a = rand_psi(rng, CTX)
        const = a.constant_part()
        z = PsiElement(2, {(k, p, ()): c for (k, p), c in const.terms.items()})
        got = z + psi_d(CTX, psi_h(CTX, a)) + psi_h(CTX, psi_d(CTX, a))
        assert got == a
        assert psi_d(CTX, psi_d(CTX, a)).is_zero()


# -- Weyl cochains and duality ----------------------------------------------------

def test_cochain_eval_and_reconstruction_roundtrip():
    rng = random.Random(9)
    for q in (1, 2):
        a = rand_wcochain(rng, CTX, q, ydeg=2, acap=2, nterms=4)

        def fn(betas, a=a):
            return a.eval([_mono(2, b) for b in betas], N)

        back = cochain_from_values(CTX, fn, q, 3, N)
        assert back.restrict(2).normalize(N) == a.restrict(2).normalize(N)


def test_hochschild_duality_with_bar():
    rng = random.Random(10)
    for q in (0, 1, 2):
        a = rand_wcochain(rng, CTX, q, nterms=4)
        da = hh_hochschild_d(CTX, a)
        b = rand_bar(rng, CTX, q + 1, nterms=3)
        assert eval_on_bar(CTX, da, b) == eval_on_bar(CTX, a, bar_d(CTX, b))


def test_hochschild_d_squares_to_zero():
    rng = random.Random(11)
    for q in (0, 1):
        a = rand_wcochain(rng, CTX, q, nterms=4)
        assert hh_hochschild_d(CTX, hh_hochschild_d(CTX, a)).is_zero()


def test_lambda_hat_chain_map():
    rng = random.Random(12)
    for q in (0, 1):
        a = rand_wcochain(rng, CTX, q, nterms=4)
        assert psi_d(CTX, lambda_hat(CTX, a)) == \
            lambda_hat(CTX, hh_hochschild_d(CTX, a))


def test_rho_hat_identity():
    rng = random.Random(13)
    for q in (1, 2):
        a = rand_wcochain(rng, CTX, q, nterms=4)

        def fn(betas, a=a):
            chain = koszul_to_bar(CTX, bar_to_koszul(
                CTX, BarChain.interior(2, betas)))
            return eval_on_bar(CTX, a, chain)

        a_ln = cochain_from_values(CTX, fn, q, 2, N)
        lhs = (a - a_ln).restrict(2).normalize(N)
        d_rha = hh_hochschild_d(CTX, rho_hat(CTX, a, 4, N), N)
        rh_da = rho_hat(CTX, hh_hochschild_d(CTX, a), 2, N)
        rhs = (d_rha + rh_da).restrict(2).normalize(N)
        assert lhs == rhs


def test_chi_homotopy_identity():
    rng = random.Random(14)
    for q in (1, 2):
        for _ in range(3):
            a = rand_wcochain(rng, CTX, q, nterms=5)
            chi_a = cochain_homotopy(CTX, a, 4, N)
            d_chi = hh_hochschild_d(CTX, chi_a, N)
            chi_d = cochain_homotopy(CTX, hh_hochschild_d(CTX, a), 2, N)
            got = (d_chi + chi_d).restrict(2).normalize(N)
            assert got == a.restrict(2).normalize(N)


def test_chi_of_exact_zero_cochain():
    # chi(d y^1) = y^1 + central constant
    y1 = WeylCochain(2, 0, {(0, (1, 0), ()): frac(1)})
    a = hh_hochschild_d(CTX, y1)
    assert a.terms == {(1, (0, 0), ((0, 1),)): frac(-1)}
    chi_a = cochain_homotopy(CTX, a, 4, N)
    diff = chi_a - y1
    assert all(p == (0, 0) for (_, p, _) in diff.terms)


def test_chi_of_zero():
    z = WeylCochain(2, 1, {})
    assert cochain_homotopy(CTX, z, 4, N).is_zero()


def test_chi_requires_positive_arity():
    with pytest.raises(ValueError):
        cochain_homotopy(CTX, WeylCochain(2, 0, {}), 4, N)


# -- the dual maps against term-by-term evaluation ------------------------------
#
# References built on plain WeylCochain.eval, one bar term at a time, with no
# value kept between evaluations.

def _ref_eval_on_bar(ctx, a, b, order):
    total = WeylElement(ctx.dim, None)
    for (k, ps), c in b.terms.items():
        val = a.eval([_mono(ctx.dim, p) for p in ps[1:-1]])
        val = _weyl_mul(ctx, _mono(ctx.dim, ps[0], c, k), val)
        total = total + _weyl_mul(ctx, val, _mono(ctx.dim, ps[-1]))
    return total.truncate(order)


def _ref_lambda_hat(ctx, a, order):
    out = PsiElement(ctx.dim)
    for T in combinations(range(1, ctx.dim + 1), a.arity):
        chain = koszul_to_bar(ctx, KoszulChain.generator(ctx.dim, T))
        val = _ref_eval_on_bar(ctx, a, chain, order)
        out = out + PsiElement(ctx.dim, {(k, p, T): c for (k, p), c in val.terms.items()})
    return out


def _ref_rho_hat(ctx, a, rec_cap, order):
    def fn(betas):
        chain = bar_homotopy(ctx, BarChain.interior(ctx.dim, betas))
        return _ref_eval_on_bar(ctx, a, chain, order)

    return cochain_from_values(ctx, fn, a.arity - 1, rec_cap, order)


def _ref_cochain_homotopy(ctx, a, rec_cap, order):
    f = psi_h(ctx, _ref_lambda_hat(ctx, a, order))
    return (nu_hat(ctx, f, a.arity - 1, rec_cap, order)
            + _ref_rho_hat(ctx, a, rec_cap, order))


def _assert_dual_maps_match_reference(ctx, a, rec_cap, b):
    order = ctx.order
    assert eval_on_bar(ctx, a, b, order) == _ref_eval_on_bar(ctx, a, b, order)
    assert lambda_hat(ctx, a, order) == _ref_lambda_hat(ctx, a, order)
    assert rho_hat(ctx, a, rec_cap, order) == _ref_rho_hat(ctx, a, rec_cap, order)
    assert cochain_homotopy(ctx, a, rec_cap, order) == \
        _ref_cochain_homotopy(ctx, a, rec_cap, order)


def _matching_bar(rng, a, nterms):
    """A bar chain whose middle slots lie above the slots of a's terms, so
    that most of its terms evaluate to nonzero values."""
    terms = {}
    keys = sorted(a.terms)
    for _ in range(nterms):
        _, _, alphas = rng.choice(keys)
        outer = [tuple(rng.randint(0, 1) for _ in range(2)) for _ in range(2)]
        betas = tuple(tuple(x + rng.randint(0, 1) for x in al) for al in alphas)
        terms[(rng.randint(-1, 1), (outer[0],) + betas + (outer[1],))] = rand_fraction(rng)
    return BarChain(2, a.arity, terms)


@pytest.mark.parametrize("arity,order,seed", [(1, 6, 40), (1, 6, 41), (2, 6, 42),
                                              (2, 6, 43), (3, 4, 44)])
def test_dual_maps_match_term_by_term_evaluation(arity, order, seed):
    ctx = WeylContext.standard(2, order)
    rng = random.Random(seed)
    a = rand_wcochain(rng, ctx, arity, ydeg=2, nterms=20, hmin=-1)
    a = a + WeylCochain(2, arity, {(-1, (1, 2), ((1, 0),) * arity): frac(-3, 7)})
    _assert_dual_maps_match_reference(ctx, a, 3, _matching_bar(rng, a, 8))


def test_dual_maps_keep_no_values_between_calls():
    # same keys, other coefficients: a value kept from the first cochain's
    # call would show in the second's
    ctx = WeylContext.standard(2, N)
    rng = random.Random(45)
    a1 = rand_wcochain(rng, ctx, 2, ydeg=2, nterms=20, hmin=-1)
    a2 = WeylCochain(2, 2, {key: c + 1 for key, c in a1.terms.items()})
    b = _matching_bar(rng, a1, 8)
    for a in (a1, a2):
        _assert_dual_maps_match_reference(ctx, a, 3, b)


# -- the dual maps against the bodies they replaced -----------------------------
#
# rho_hat and nu_hat read the cached generator images, MonomialEvaluator
# visits only the slot groups whose first slot lies below the tuple's, and
# koszul_h reads its t-integrals from a module table.  The references are the
# bodies these replaced: the tuple values through bar_homotopy and
# bar_to_koszul of BarChain.interior, a scan of every term, and the t-integral
# taken term by term of the expansion.

def _ref_rho_hat_via_chains(ctx, a, rec_cap, order):
    def fn(betas):
        chain = bar_homotopy(ctx, BarChain.interior(ctx.dim, betas))
        return eval_on_bar(ctx, a, chain, order)

    return cochain_from_values(ctx, fn, a.arity - 1, rec_cap, order)


def _ref_nu_hat_via_chains(ctx, f, arity, rec_cap, order):
    def fn(betas):
        chain = bar_to_koszul(ctx, BarChain.interior(ctx.dim, betas))
        return eval_psi_on_koszul(ctx, f, chain, order)

    return cochain_from_values(ctx, fn, arity, rec_cap, order)


def _ref_full_scan(a, betas):
    out = {}
    for (k, p, alphas), c in a.terms.items():
        f, shift = 1, (0,) * a.dim
        for al, be in zip(alphas, betas):
            d = _mono_derivative(al, be)
            if d is None:
                break
            f *= d[0]
            shift = vec_add(shift, d[1])
        else:
            _acc(out, (k, vec_add(p, shift)), c * f)
    return WeylElement(a.dim, None, out)


def _ref_collect_subst(out, dim, k, p1, p2, T, coeff, base_tpow):
    combos = [((), 0, Fraction(1))]  # (v-tuple, t-degree, coeff)
    for c_idx in range(dim):
        p = p1[c_idx]
        nxt = []
        for v_t, tdeg, cf in combos:
            for u in range(p + 1):
                for v in range(u + 1):
                    cc = cf * comb(p, u) * comb(u, v) * (-1 if (u - v) % 2 else 1)
                    nxt.append((v_t + (v,), tdeg + u, cc))
        combos = nxt
    for v_t, tdeg, cf in combos:
        if not cf:
            continue
        d = base_tpow + tdeg
        newp2 = vec_add(p2, vec_sub(p1, v_t))
        _acc(out, (k, v_t, newp2, T), coeff * cf * Fraction(1, d + 1))


@pytest.mark.parametrize("transported", [False, True], ids=["standard", "transported"])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_dual_maps_match_the_replaced_bodies(arity, transported):
    rng = random.Random(60 + arity)
    ctx = WeylContext.standard(2, N)
    if transported:
        ctx = gl_transport_context(ctx, rand_gl(rng, 2))
    a = rand_wcochain(rng, ctx, arity, ydeg=2, acap=1, nterms=8, hmin=-1) + WeylCochain(
        2, arity, {(k, p, ((0, 1),) + ((1, 0),) * (arity - 1)): frac(k - 3, 7)
                   for k, p in ((-1, (1, 2)), (0, (0, 1)), (1, (1, 1)))})
    f = rand_psi(rng, ctx, nterms=12)
    rec_cap = 2
    tuples = list(product(_multidegrees(2, 3), repeat=arity))
    # the first pass runs each map on a cold context, before its reference
    for _ in ("cold", "warm"):
        assert nu_hat(ctx, f, arity - 1, rec_cap, N) == \
            _ref_nu_hat_via_chains(ctx, f, arity - 1, rec_cap, N)
        assert rho_hat(ctx, a, rec_cap, N) == _ref_rho_hat_via_chains(ctx, a, rec_cap, N)
        ev = MonomialEvaluator(a)
        for betas in tuples + tuples:
            assert ev(betas) == _ref_full_scan(a, betas)


def test_t_integral_table_matches_the_per_term_integral(monkeypatch):
    # every p1 meets every base_tpow, in a cold table and then a warm one;
    # the expansion does not depend on theta, so one table serves every context
    monkeypatch.setattr(weylhh, "_SUBST_CACHE", {})
    for _ in ("cold", "warm"):
        for p1 in _multidegrees(2, 4):
            for base_tpow in range(4):
                got, want = {}, {}
                _collect_subst(got, 1, p1, (1, 0), (2,), frac(3, 5), base_tpow)
                _ref_collect_subst(want, 2, 1, p1, (1, 0), (2,), frac(3, 5), base_tpow)
                assert got == want


# -- cohomology reduction -----------------------------------------------------------

def test_hh_reduce_central():
    c = WeylCochain(2, 0, {(0, (0, 0), ()): frac(3), (-1, (0, 0), ()): frac(1, 2)})
    got = hh_reduce(CTX, c)
    assert got == WeylElement(2, None, {(0, (0, 0)): frac(3), (-1, (0, 0)): frac(1, 2)})


def test_hh_reduce_rejects_noncocycle():
    y1 = WeylCochain(2, 0, {(0, (1, 0), ()): frac(1)})
    with pytest.raises(ValueError):
        hh_reduce(CTX, y1)


def test_hh_reduce_witness():
    rng = random.Random(15)
    b = rand_wcochain(rng, CTX, 0, nterms=3)
    a = hh_hochschild_d(CTX, b)  # a 1-cocycle
    w = hh_reduce(CTX, a, rec_cap=4)
    assert hh_hochschild_d(CTX, w).restrict(2).normalize(N) == \
        a.restrict(2).normalize(N)


# -- GL transport ---------------------------------------------------------------------

def test_transport_functorial_and_algebraic():
    rng = random.Random(16)
    g1, g2 = rand_gl(rng, 2), rand_gl(rng, 2)
    comp = [[sum(g2[i][k] * g1[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    w = WeylElement(2, None, {(0, (2, 1)): frac(3, 2), (1, (1, 0)): frac(-2)})
    assert gl_transport(CTX, g2, gl_transport(CTX, g1, w)) == \
        gl_transport(CTX, comp, w)
    ctx2 = gl_transport_context(CTX, g1)
    a, b = _mono(2, (1, 1)), _mono(2, (2, 0))
    lhs = gl_transport(CTX, g1, _weyl_mul(CTX, a, b))
    rhs = _weyl_mul(ctx2, gl_transport(CTX, g1, a), gl_transport(CTX, g1, b))
    assert lhs == rhs


def test_transport_refuses_a_chart_section():
    section = WeylElement(2, N, {(0, (1, 0)): XPoly.variable(2, 1)})
    with pytest.raises(TypeError):
        gl_transport(CTX, [[frac(2), frac(0)], [frac(0), frac(1, 2)]], section)


def test_transport_identity():
    ident = [[frac(1), frac(0)], [frac(0), frac(1)]]
    rng = random.Random(17)
    a = rand_wcochain(rng, CTX, 1, nterms=3)
    assert gl_transport(CTX, ident, a) == a


def test_symplectic_diag_preserves_theta():
    g = [[frac(2), frac(0)], [frac(0), frac(1, 2)]]
    assert gl_push_theta(g, CTX.theta) == CTX.theta


def test_transports_intertwine_differentials():
    rng = random.Random(18)
    g = rand_gl(rng, 2)
    ctx2 = gl_transport_context(CTX, g)
    b = BarChain.interior(2, [(1, 1), (0, 2)])
    assert gl_transport(CTX, g, bar_d(CTX, b)) == bar_d(ctx2, gl_transport(CTX, g, b))
    kz = KoszulChain(2, 1, {(0, (1, 0), (0, 1), (1,)): frac(1),
                            (0, (0, 0), (2, 0), (2,)): frac(-2)})
    assert gl_transport(CTX, g, koszul_d(CTX, kz)) == \
        koszul_d(ctx2, gl_transport(CTX, g, kz))
    ps = PsiElement(2, {(0, (1, 1), (1,)): frac(2), (-1, (0, 1), (1, 2)): frac(1, 3)})
    assert gl_transport(CTX, g, psi_d(CTX, ps)) == \
        psi_d(ctx2, gl_transport(CTX, g, ps))


def test_homotopy_square_commutes():
    rng = random.Random(19)
    for _ in range(3):
        g = rand_gl(rng, 2)
        ctx2 = gl_transport_context(CTX, g)
        a = rand_wcochain(rng, CTX, rng.choice([1, 2]), ydeg=2, nterms=4)
        left = gl_transport(CTX, g, cochain_homotopy(CTX, a, 4, N))
        right = cochain_homotopy(ctx2, gl_transport(CTX, g, a), 4, N)
        assert left.restrict(2).normalize(N) == right.restrict(2).normalize(N)
