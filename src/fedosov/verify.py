"""Seeded verification suites for the algebraic identities.

Every suite draws its inputs from a seeded PRNG with small rational
coefficients (numerators and denominators bounded by 9), runs a list of
exact checks, and reports one entry per check.  Failures carry a serialized
counterexample.

Working order: identities that compose a weight-lowering operator (delta,
or the slot-consuming commutator action on cochains) after a product are
computed a few filtration levels above the requested order and compared at
the requested order; random inputs are always generated within the
requested order.  This makes every reported identity exact, not
approximate.

Every generator sums its terms through one sampler, _rand_terms, which draws
a key per term (None drops the draw) and then its coefficient, so each
generator consumes the PRNG in one fixed order.  SUITES is the one table of
suites: a name maps to its function, whether it takes a data file, and the
keywords that the --caps letters set.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import partial
from itertools import chain

from . import io as fio
from . import weylhh as hh
from .cochains import (FiberwiseCochain, _multidegrees, cochain_eval, cup,
                       fedosov_d_cochain, gerstenhaber, hochschild_d,
                       horizontal_lift_cochain, product_cochain,
                       to_local_operator, transfer_exactness,
                       transport_cochain, transport_weyl)
from .poly import XPoly, _acc
from .quantize import (FedosovData, StarProduct, _diff_x, curvature_residual,
                       solve_r, tau)
from .weyl import (FormWeyl, SymplecticChart, WeylElement, _matmul, _matrix_inverse,
                   curvature_R, delta, delta_inv, fedosov_D, graded_commutator,
                   nabla, sigma_project)

CHI_WINDOW_FACTOR = 2  # reconstruction cap ahead of a following differential


class Check:
    __slots__ = ("id", "ok", "witness", "elapsed")

    def __init__(self, check_id, ok, witness=None, elapsed=0.0):
        self.id = check_id
        self.ok = bool(ok)
        self.witness = witness
        self.elapsed = elapsed


def _run(checks, check_id, fn):
    t0 = time.perf_counter()
    try:
        witness = fn()
        ok = witness is None
    except Exception as exc:  # propagate as failure with diagnostic
        ok, witness = False, f"exception: {exc}"
    checks.append(Check(check_id, ok, witness, time.perf_counter() - t0))


# ---------------------------------------------------------------------------
# seeded generators


def rand_fraction(rng):
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))


def _rand_terms(rng, nterms, key, coeff=rand_fraction):
    """The sum of nterms seeded draws, {key: coefficient}: key(rng) draws a
    term's key, or None to drop the draw, and coeff(rng) then draws its
    coefficient."""
    terms = {}
    for _ in range(nterms):
        k = key(rng)
        if k is not None:
            _acc(terms, k, coeff(rng))
    return terms


def _rand_exps(rng, dim, cap):
    return tuple(rng.randint(0, cap) for _ in range(dim))


def _rand_cochain_key(rng, dim, order, hmax, ydeg, arity, acap, hmin=0):
    """(k, p, alphas) of a cochain term with |p| <= ydeg, 2k + |p| <= order
    and every |alpha| <= acap, or None."""
    k, p = rng.randint(hmin, hmax), _rand_exps(rng, dim, ydeg)
    if sum(p) > ydeg or 2 * k + sum(p) > order:
        return None
    alphas = tuple(_rand_exps(rng, dim, acap) for _ in range(arity))
    return None if any(sum(al) > acap for al in alphas) else (k, p, alphas)


def rand_xpoly(rng, dim, deg=2, nterms=2):
    def key(rng):
        e = _rand_exps(rng, dim, deg)
        return None if sum(e) > deg else e

    return XPoly(dim, _rand_terms(rng, nterms, key))


def rand_weyl(rng, dim, order, nterms=6, hmin=0, hmax=2, xdeg=2):
    def key(rng):
        k, p = rng.randint(hmin, hmax), _rand_exps(rng, dim, 2)
        return None if 2 * k + sum(p) > order else (k, p)

    return WeylElement(dim, order, _rand_terms(
        rng, nterms, key, lambda rng: rand_xpoly(rng, dim, xdeg)))


def rand_form(rng, dim, order, nterms=6):
    return FormWeyl(dim, order, _rand_terms(
        rng, nterms, lambda rng: rng.choice(hh._subsets(dim)),
        lambda rng: rand_weyl(rng, dim, order, nterms=2)))


def rand_poly_in_x(rng, dim, order, deg=3, nterms=3, hmax=0):
    def key(rng):
        k, e = rng.randint(0, hmax), _rand_exps(rng, dim, deg)
        return None if sum(e) > deg else (k, e)

    polys = {}
    for (k, e), c in _rand_terms(rng, nterms, key).items():
        polys.setdefault((k, (0,) * dim), {})[e] = c
    return WeylElement(dim, order, {k: XPoly(dim, t) for k, t in polys.items()})


def rand_cochain(rng, dim, order, arity, qs=(0, 1), ydeg=3, acap=2, nterms=4,
                 work=None):
    def key(rng):
        S = rng.choice(hh._subsets(dim, rng.choice(qs)))
        rest = _rand_cochain_key(rng, dim, order, 1, ydeg, arity, acap)
        return None if rest is None else (S,) + rest

    P = FiberwiseCochain(dim, order, arity, _rand_terms(
        rng, nterms, key, lambda rng: rand_xpoly(rng, dim, 1)))
    return P if work is None else P.truncate(work)


def rand_wcochain(rng, ctx, arity, ydeg=3, acap=2, nterms=5, hmin=0, hmax=1):
    return hh.WeylCochain(ctx.dim, arity, _rand_terms(
        rng, nterms, lambda rng: _rand_cochain_key(
            rng, ctx.dim, ctx.order, hmax, ydeg, arity, acap, hmin)))


def rand_bar(rng, ctx, m, maxdeg=2, nterms=4):
    def key(rng):
        k = rng.randint(0, 1)
        ps = tuple(_rand_exps(rng, ctx.dim, maxdeg) for _ in range(m + 2))
        return None if 2 * k + sum(map(sum, ps)) > ctx.order else (k, ps)

    return hh.BarChain(ctx.dim, m, _rand_terms(rng, nterms, key))


def rand_koszul(rng, ctx, m, maxdeg=2, nterms=4):
    def key(rng):
        k = rng.randint(0, 1)
        p1, p2 = _rand_exps(rng, ctx.dim, maxdeg), _rand_exps(rng, ctx.dim, maxdeg)
        if 2 * k + sum(p1) + sum(p2) > ctx.order:
            return None
        return (k, p1, p2, rng.choice(hh._subsets(ctx.dim, m)))

    return hh.KoszulChain(ctx.dim, m, _rand_terms(rng, nterms, key))


def rand_psi(rng, ctx, maxdeg=3, nterms=8):
    def key(rng):
        k, p = rng.randint(-1, 2), _rand_exps(rng, ctx.dim, maxdeg)
        return None if sum(p) > maxdeg else (k, p, rng.choice(hh._subsets(ctx.dim)))

    return hh.PsiElement(ctx.dim, _rand_terms(rng, nterms, key))


def rand_gl(rng, dim):
    while True:
        g = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
             for _ in range(dim)]
        try:
            _matrix_inverse(g)
            return g
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# builtin charts


def builtin_flat_data(dim=2, order=6) -> FedosovData:
    return FedosovData(SymplecticChart.standard_flat(dim), {}, order)


def builtin_curved_data(order=6) -> FedosovData:
    """dim 2, constant standard omega, Gamma^2_{11} = x^2 (degree-1,
    torsion-free, symplectic, non-flat)."""
    flat = SymplecticChart.standard_flat(2)
    chart = SymplecticChart(2, flat.omega_lower, flat.omega_upper,
                            {(2, 1, 1): XPoly.variable(2, 2)})
    return FedosovData(chart, {}, order)


def _builtin_data(dim, order):
    """The curved chart in dim 2, the flat one in higher dims."""
    return builtin_curved_data(order) if dim == 2 else builtin_flat_data(dim, order)


def _deep_connection(data):
    """r two levels deeper than the order, for the slot consumption margin of
    the commutator action on cochains, and the star product of data over it."""
    deep = data.order + 2
    r = solve_r(FedosovData(data.chart, data.omega_series, deep), validate=False)
    return r, StarProduct(data, r.truncate(deep))


def _serialized(x):
    """The counterexample of a failing check, usually a difference lhs - rhs,
    in the io formats: text for Weyl sections and forms, canonical JSON for
    chains and cochains."""
    if isinstance(x, WeylElement):
        return fio.weyl_text(x)
    if isinstance(x, FormWeyl):
        return fio.form_text(x)
    return fio.dumps_canonical(fio.to_json(x))


def _equal(lhs, rhs):
    """None when lhs == rhs, else the serialized difference."""
    return None if lhs == rhs else _serialized(lhs - rhs)


def _vanishes(x):
    """None when x is zero, else x serialized."""
    return None if x.is_zero() else _serialized(x)


def _signed(x, e):
    """(-1)^e x."""
    return -x if e % 2 else x


def _first(witnesses):
    """The first witness of a failing comparison, or None; lazy, so that a
    generator of comparisons stops drawing at the first failure."""
    return next((w for w in witnesses if w), None)


# ---------------------------------------------------------------------------
# suites


def suite_hodge(dim=2, order=6, seed=0, samples=10):
    """Hodge identity, nilpotence of delta and delta_inv, anticommutation
    with nabla, and the curvature identity, on seeded random inputs."""
    rng = random.Random(seed)
    work = order + 2
    checks = []
    chart = _builtin_data(dim, order).chart
    R = curvature_R(chart, work)
    for i in range(samples):
        a = rand_form(rng, dim, order).truncate(work)

        def hodge(a=a):
            got = (FormWeyl.from_weyl(sigma_project(a)) + delta(delta_inv(a))
                   + delta_inv(delta(a)))
            return _equal(got, a)

        _run(checks, f"hodge-{i}", hodge)
        _run(checks, f"delta-nilpotent-{i}", lambda a=a: _vanishes(delta(delta(a))))
        _run(checks, f"delta-inv-nilpotent-{i}",
             lambda a=a: _vanishes(delta_inv(delta_inv(a))))
        _run(checks, f"nabla-delta-anticommute-{i}",
             lambda a=a: _vanishes(nabla(delta(a), chart) + delta(nabla(a, chart))))

        def curv(a=a):
            lhs = nabla(nabla(a, chart), chart).truncate(order)
            rhs = graded_commutator(R, a, chart).hbar_shift(-1).truncate(order)
            return _equal(lhs, rhs)

        _run(checks, f"curvature-{i}", curv)
    return checks


def suite_dsquare(data: FedosovData, seed=0, samples=20):
    """solve_r residual, normalization, and nilpotence of the Fedosov
    differential on seeded random form-valued inputs."""
    rng = random.Random(seed)
    checks = []
    data.validate()
    chart, order = data.chart, data.order
    r = solve_r(data, validate=False)
    _run(checks, "residual-zero", lambda: _vanishes(curvature_residual(data, r)))
    _run(checks, "delta-inv-r-zero", lambda: _vanishes(delta_inv(r)))
    work = order + 2
    for i in range(samples):
        a = rand_form(rng, data.chart.dim, order, nterms=5).truncate(work)

        def dsq(a=a):
            return _vanishes(fedosov_D(fedosov_D(a, chart, r), chart, r).truncate(order))

        _run(checks, f"D-squared-{i}", dsq)
    for i in range(3):
        f = rand_poly_in_x(rng, chart.dim, order)

        def horiz(f=f):
            t = tau(f, data, r)
            return (_equal(sigma_project(t), f)
                    or _vanishes(fedosov_D(t, chart, r).truncate(order)))

        _run(checks, f"tau-horizontal-{i}", horiz)
    return checks


def suite_assoc(data: FedosovData, seed=0, samples=20, deg=3):
    """Star-product associativity and unitality on seeded polynomial triples."""
    rng = random.Random(seed)
    checks = []
    data.validate()
    sp = StarProduct(data)
    dim, order = data.chart.dim, data.order
    one = WeylElement.const(dim, order, 1)
    for i in range(samples):
        a, b, c = (rand_poly_in_x(rng, dim, order, deg) for _ in range(3))

        def assoc(a=a, b=b, c=c):
            return _equal(sp(sp(a, b), c), sp(a, sp(b, c)))

        _run(checks, f"assoc-{i}", assoc)
        _run(checks, f"unital-{i}",
             lambda a=a: _equal(sp(a, one), a.truncate(order))
             or _equal(sp(one, a), a.truncate(order)))
    return checks


def suite_cochain(dim=2, order=6, seed=0, samples=20, acap=2, ydeg=3):
    """Fiberwise Hochschild cochain algebra: d^2 = 0, the bracket form of d,
    cup associativity, both derivation rules, graded antisymmetry and the
    Jacobi identity."""
    rng = random.Random(seed)
    checks = []
    chart = _builtin_data(dim, order).chart
    work = order + 2
    t_max = order + 1
    mu = product_cochain(chart, dim, work, t_max)
    draw = partial(rand_cochain, rng, dim, order, ydeg=2, acap=acap, nterms=3, work=work)
    for i in range(samples):
        k = rng.choice([0, 1, 2])
        P = rand_cochain(rng, dim, order, k, ydeg=ydeg, acap=acap, work=work)
        _run(checks, f"dd-zero-{i}", lambda P=P: _vanishes(
            hochschild_d(hochschild_d(P, chart), chart).truncate(order)))

        def pa(P=P, k=k):
            lhs = hochschild_d(P, chart)
            rhs = FiberwiseCochain.zero(dim, work, k + 1, P.cap)
            for q in P.exterior_degrees():
                rhs = rhs + _signed(gerstenhaber(mu, P.homogeneous_q(q)), q + k + 1)
            return _equal(lhs.truncate(order), rhs.truncate(order))

        _run(checks, f"pa-consistency-{i}", pa)
    for i in range(max(3, samples // 4)):
        qa, qb = rng.choice([0, 1]), rng.choice([0, 1])
        A = draw(rng.choice([1, 2]), qs=(qa,))
        B = draw(1, qs=(qb,))
        C = draw(1, nterms=2)
        _run(checks, f"cup-assoc-{i}",
             lambda A=A, B=B, C=C: _equal(
                 cup(cup(A, B, chart), C, chart).truncate(order),
                 cup(A, cup(B, C, chart), chart).truncate(order)))

        def cup_der(A=A, B=B, qa=qa, qb=qb):
            # d(A cup B) = (-)^{q_B} dA cup B + (-)^{k_A + q_A} A cup dB
            lhs = hochschild_d(cup(A, B, chart), chart)
            rhs = _signed(cup(hochschild_d(A, chart), B, chart), qb) \
                + _signed(cup(A, hochschild_d(B, chart), chart), A.arity + qa)
            return _equal(lhs.truncate(order), rhs.truncate(order))

        _run(checks, f"cup-derivation-{i}", cup_der)

        # the bracket-derivation rule in its fiberwise (dx-free) setting; the
        # dressing d[A,B] = (-)^{k_B-1}[dA,B] + [A,dB] is forced by the
        # bracket form of d together with the Jacobi identity, and is the
        # printed rule applied to the transposed bracket
        A0 = draw(rng.choice([1, 2]), qs=(0,))
        B0 = draw(rng.choice([1, 2]), qs=(0,))

        def g_der(A=A0, B=B0):
            lhs = hochschild_d(gerstenhaber(A, B), chart)
            rhs = _signed(gerstenhaber(hochschild_d(A, chart), B), B.arity - 1) \
                + gerstenhaber(A, hochschild_d(B, chart))
            return _equal(lhs.truncate(order), rhs.truncate(order))

        _run(checks, f"bracket-derivation-{i}", g_der)

        def antisym(A=A, B=B):
            rhs = _signed(gerstenhaber(B, A), (A.arity - 1) * (B.arity - 1) + 1)
            return _equal(gerstenhaber(A, B), rhs)

        _run(checks, f"antisymmetry-{i}", antisym)

        def jacobi(A=A, B=B, C=C):
            lhs = gerstenhaber(A, gerstenhaber(B, C))
            rhs = gerstenhaber(gerstenhaber(A, B), C) + _signed(
                gerstenhaber(B, gerstenhaber(A, C)), (A.arity - 1) * (B.arity - 1))
            return _equal(lhs, rhs)

        _run(checks, f"jacobi-{i}", jacobi)
    return checks


def suite_beta(data: FedosovData, seed=0, samples=10):
    """The projection to local operators: mult maps to the star product, the
    cup morphism property and the tau-intertwining identity."""
    rng = random.Random(seed)
    checks = []
    data.validate()
    dim, order = data.chart.dim, data.order
    work = order + 2
    chart = data.chart
    r, sp = _deep_connection(data)
    mu = product_cochain(chart, dim, work, work)
    E_mu = to_local_operator(mu, sp, validate=False)

    pad = (0,) * (dim - 2)
    pairs = [(WeylElement.from_xpoly(XPoly.monomial(dim, (e1, e2) + pad, 1), order),
              WeylElement.from_xpoly(XPoly.monomial(dim, pad + (e2, e1), 1), order))
             for e1 in range(3) for e2 in range(3)]
    _run(checks, "mult-maps-to-star",
         lambda: _first(_equal(E_mu(a, b), sp(a, b)) for a, b in pairs))

    lifted = []
    for i in range(samples):
        k = 1 + (i % 2)
        seedc = rand_cochain(rng, dim, order, k, qs=(0,), ydeg=0, acap=2,
                             nterms=3, work=work)
        if seedc.is_zero():
            continue
        A = horizontal_lift_cochain(seedc, chart, r)
        lifted.append(A)

        def ogo(A=A, k=k):
            Ev = to_local_operator(A, sp, validate=False)
            args = [rand_poly_in_x(rng, dim, order, 2, nterms=2) for _ in range(k)]
            lhs = sp.tau(Ev(*args))
            rhs = cochain_eval(A, [sp.tau(x) for x in args]).component(())
            return _equal(lhs.truncate(order), rhs.truncate(order))

        _run(checks, f"ogo-{i}", ogo)
    for i in range(len(lifted) - 1):
        A1, A2 = lifted[i], lifted[i + 1]
        if A1.arity + A2.arity > 3:
            continue

        def cup_morphism(A1=A1, A2=A2):
            E1 = to_local_operator(A1, sp, validate=False)
            E2 = to_local_operator(A2, sp, validate=False)
            E12 = to_local_operator(cup(A1, A2, chart), sp, validate=False)
            cupE = E1.cup(E2)
            draws = ([rand_poly_in_x(rng, dim, order, 1, nterms=2)
                      for _ in range(E12.arity)] for _ in range(3))
            return _first(_equal(E12(*args), cupE(*args)) for args in draws)

        _run(checks, f"cup-morphism-{i}", cup_morphism)
    return checks


def suite_leading_symbol(dim=2, order=6, seed=0, kmax=2):
    """On flat data the lift of a function is its fiberwise Taylor expansion:
    d^mu_y tau(a)|_{y=0} = d^mu_x a for |mu| <= kmax."""
    rng = random.Random(seed)
    checks = []
    data = builtin_flat_data(dim, order)
    r = solve_r(data, validate=False)
    for i in range(5):
        a = rand_poly_in_x(rng, dim, order, 3)
        t = tau(a, data, r)

        def leading(a=a, t=t):
            for mu in _multidegrees(dim, kmax):
                lhs = t.diff_y_multi(mu).at_y_zero()
                rhs = WeylElement(dim, order, {key: _diff_x(c, mu)
                                               for key, c in a.terms.items()})
                if lhs != rhs:
                    return f"mu={mu}: {_serialized(lhs - rhs)}"
            return None

        _run(checks, f"leading-symbol-{i}", leading)
    return checks


def suite_transfer(data: FedosovData, seed=0, samples=10):
    """Exactness witnesses: for P = D(Q0) of positive exterior degree,
    transfer returns Q with D Q = P.  A sample with D(Q0) = 0 records no
    check."""
    rng = random.Random(seed)
    checks = []
    data.validate()
    dim, order = data.chart.dim, data.order
    work = order + 2
    chart = data.chart
    r, _ = _deep_connection(data)
    for i in range(samples):
        k = rng.choice([0, 1])
        Q0 = rand_cochain(rng, dim, order, k, qs=(0, 1), nterms=3, work=work)
        P = fedosov_d_cochain(Q0, chart, r)
        if P.is_zero():
            continue

        def roundtrip(P=P):
            Q = transfer_exactness(P, chart, r, validate=False)
            DQ = fedosov_d_cochain(Q, chart, r)
            at_y0 = Q._with({k: c for k, c in Q.terms.items() if not any(k[2])})
            return _equal(DQ.truncate(order), P.truncate(order)) or _vanishes(at_y0)

        _run(checks, f"transfer-{i}", roundtrip)
    return checks


def suite_barkoszul(dim=2, order=6, seed=0, samples=10):
    """Bar and Koszul resolutions: differentials square to zero, contracting
    identities degreewise, the comparison maps are chain maps, and both
    homotopy properties hold."""
    rng = random.Random(seed)
    checks = []
    ctx = hh.WeylContext.standard(dim, order)
    for m in (2, 3):
        b = rand_bar(rng, ctx, m)
        _run(checks, f"bar-d-squared-m{m}",
             lambda b=b: _vanishes(hh.bar_d(ctx, hh.bar_d(ctx, b))))
    for m in (2,) if dim == 2 else (2, 3):
        a = rand_koszul(rng, ctx, m)
        _run(checks, f"koszul-d-squared-m{m}",
             lambda a=a: _vanishes(hh.koszul_d(ctx, hh.koszul_d(ctx, a))))

    def contracting(x, m, d, h, aug):
        # d h x + h (the augmentation of x in degree 0, else d x) = x
        return _equal(d(ctx, h(x)) + h(aug(ctx, x) if m == 0 else d(ctx, x)), x)

    for m in (0, 1, 2, 3):
        b = rand_bar(rng, ctx, m)
        _run(checks, f"bar-contracting-m{m}",
             lambda b=b, m=m: contracting(b, m, hh.bar_d, hh.bar_h, hh.bar_aug))
    for m in (0, 1, 2):
        a = rand_koszul(rng, ctx, m)
        _run(checks, f"koszul-contracting-m{m}", lambda a=a, m=m: contracting(
            a, m, hh.koszul_d, partial(hh.koszul_h, ctx), hh.koszul_aug))
    for i in range(samples):
        m = rng.choice([1, 2])
        a = rand_koszul(rng, ctx, m)
        b = rand_bar(rng, ctx, m)
        _run(checks, f"lambda-chain-map-{i}",
             lambda a=a: _equal(hh.bar_d(ctx, hh.koszul_to_bar(ctx, a)),
                                hh.koszul_to_bar(ctx, hh.koszul_d(ctx, a))))
        _run(checks, f"nu-chain-map-{i}",
             lambda b=b: _equal(hh.koszul_d(ctx, hh.bar_to_koszul(ctx, b)),
                                hh.bar_to_koszul(ctx, hh.bar_d(ctx, b))))

        def rho_prop(b=b):
            lhs = b - hh.koszul_to_bar(ctx, hh.bar_to_koszul(ctx, b))
            rhs = hh.bar_d(ctx, hh.bar_homotopy(ctx, b)) \
                + hh.bar_homotopy(ctx, hh.bar_d(ctx, b))
            return _equal(lhs, rhs)

        _run(checks, f"rho-identity-{i}", rho_prop)
    for i in range(samples):
        q = rng.choice([1, 2])
        a = rand_wcochain(rng, ctx, q, nterms=4)

        def rho_hat_prop(a=a, q=q):
            window = 2
            rec = CHI_WINDOW_FACTOR * window

            def fn(betas, a=a):
                ch = hh.koszul_to_bar(ctx, hh.bar_to_koszul(
                    ctx, hh.BarChain.interior(ctx.dim, betas)))
                return hh.eval_on_bar(ctx, a, ch)

            a_ln = hh.cochain_from_values(ctx, fn, q, window, order)
            rh_da = hh.rho_hat(ctx, hh.hh_hochschild_d(ctx, a), window, order)
            d_rha = hh.hh_hochschild_d(ctx, hh.rho_hat(ctx, a, rec, order), order)
            lhs = (a - a_ln).restrict(window).normalize(order)
            rhs = (d_rha + rh_da).restrict(window).normalize(order)
            return _equal(lhs, rhs)

        _run(checks, f"rho-hat-identity-{i}", rho_hat_prop)
    return checks


def suite_psi(dim=2, order=6, seed=0, samples=50):
    """The reduced complex on psi variables: differential, homotopy, and the
    worked example pair."""
    rng = random.Random(seed)
    checks = []
    ctx = hh.WeylContext.standard(dim, order)

    def worked():
        # psi_d(y^2/hbar) = psi_1 and psi_h(psi_1) = y^2/hbar
        a = hh.PsiElement(2, {(-1, (0, 1), ()): Fraction(1)})
        b = hh.PsiElement(2, {(0, (0, 0), (1,)): Fraction(1)})
        return _equal(hh.psi_d(ctx, a), b) or _equal(hh.psi_h(ctx, b), a)

    _run(checks, "worked-example", worked)
    for i in range(samples):
        a = rand_psi(rng, ctx)

        def homot(a=a):
            z = hh.PsiElement(ctx.dim, {(k, p, ()): c
                                        for (k, p), c in a.constant_part().terms.items()})
            got = z + hh.psi_d(ctx, hh.psi_h(ctx, a)) + hh.psi_h(ctx, hh.psi_d(ctx, a))
            return _equal(got, a)

        _run(checks, f"psi-homotopy-{i}", homot)
        _run(checks, f"psi-d-squared-{i}",
             lambda a=a: _vanishes(hh.psi_d(ctx, hh.psi_d(ctx, a))))
    return checks


def suite_chi(dim=2, order=6, seed=0, samples=10, window=2, ydeg=3):
    """The cochain homotopy: a = (d chi + chi d) a for arity 1 and 2, and the
    characterization of 0-cocycles as central elements.  Inputs are drawn at
    the order; chi and d run two filtration levels above it, so that a term
    at the boundary weight keeps the part of its differential beyond the
    order (d of 3 hbar y1^2 has weight 5 at order 4)."""
    rng = random.Random(seed)
    checks = []
    ctx = hh.WeylContext.standard(dim, order)
    work = order + 2
    wctx = hh.WeylContext.standard(dim, work)
    rec = CHI_WINDOW_FACTOR * window
    for i in range(samples):
        q = 1 + (i % 2)
        a = rand_wcochain(rng, ctx, q, ydeg=ydeg, acap=window, nterms=5)

        def chi_identity(a=a):
            chi_a = hh.cochain_homotopy(wctx, a, rec, work)
            d_chi = hh.hh_hochschild_d(wctx, chi_a, work)
            chi_d = hh.cochain_homotopy(wctx, hh.hh_hochschild_d(wctx, a), window, work)
            got = (d_chi + chi_d).restrict(window).normalize(order)
            want = a.restrict(window).normalize(order)
            return _equal(got, want)

        _run(checks, f"chi-identity-{i}", chi_identity)

    def zero_cocycles():
        y1 = hh.WeylCochain(ctx.dim, 0, {(0, (1,) + (0,) * (ctx.dim - 1), ()): Fraction(1)})
        for w in chain((rand_wcochain(rng, ctx, 0) for _ in range(10)), [y1]):
            if hh.hh_hochschild_d(wctx, w).is_zero() and not w.as_wseries().is_y_free():
                return f"closed but not central: {_serialized(w)}"
        central = hh.WeylCochain(ctx.dim, 0, {(-1, (0,) * ctx.dim, ()): Fraction(2)})
        return _vanishes(hh.hh_hochschild_d(ctx, central))

    _run(checks, "zero-cocycles-central", zero_cocycles)
    return checks


def suite_equivariance(dim=2, order=6, seed=0, samples=5):
    """GL transport: the homotopy square commutes for seeded invertible g,
    and the flat star product / projections commute with linear symplectic
    transformations."""
    rng = random.Random(seed)
    checks = []
    ctx = hh.WeylContext.standard(dim, order)
    flat = builtin_flat_data(dim, order)
    # g0 acts on each pair (x_{2b-1}, x_{2b}) of the standard omega by a
    # block of det 1, so it is symplectic
    block = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1, 2)]]
    g0 = [[block[i % 2][j % 2] if i // 2 == j // 2 else Fraction(0)
           for j in range(dim)] for i in range(dim)]
    g0inv = _matrix_inverse(g0)
    for i in range(samples):
        g = rand_gl(rng, dim)
        ctx2 = hh.gl_transport_context(ctx, g)
        q = rng.choice([1, 2])
        a = rand_wcochain(rng, ctx, q, ydeg=2, nterms=4)

        def square(g=g, ctx2=ctx2, a=a):
            left = hh.gl_transport(ctx, g, hh.cochain_homotopy(ctx, a, 4, order))
            right = hh.cochain_homotopy(ctx2, hh.gl_transport(ctx, g, a), 4, order)
            return _equal(left.restrict(2).normalize(order),
                          right.restrict(2).normalize(order))

        _run(checks, f"homotopy-square-{i}", square)

        def functorial(g=g, a=a):
            g2 = rand_gl(rng, dim)
            lhs = hh.gl_transport(hh.gl_transport_context(ctx, g), g2,
                                  hh.gl_transport(ctx, g, a))
            rhs = hh.gl_transport(ctx, _matmul(g2, g), a)
            return _equal(lhs, rhs)

        _run(checks, f"functorial-{i}", functorial)

    # flat-chart symplectic push-forward: star and the projections commute
    def star_square():
        sp = StarProduct(flat)
        rng2 = random.Random(seed + 1)
        pairs = ((rand_poly_in_x(rng2, dim, order, 2), rand_poly_in_x(rng2, dim, order, 2))
                 for _ in range(3))
        return _first(_equal(transport_weyl(sp(a, b), g0inv),
                             sp(transport_weyl(a, g0inv), transport_weyl(b, g0inv)))
                      for a, b in pairs)

    _run(checks, "flat-star-equivariance", star_square)

    def beta_square():
        work = order + 2
        r, sp = _deep_connection(flat)
        rng2 = random.Random(seed + 2)
        for _ in range(2):
            seedc = rand_cochain(rng2, dim, order, 1, qs=(0,), ydeg=0, acap=2,
                                 nterms=2, work=work)
            if seedc.is_zero():
                continue
            A = horizontal_lift_cochain(seedc, flat.chart, r)
            Ag = transport_cochain(A, g0, g0inv)
            E = to_local_operator(A, sp, validate=False)
            Eg = to_local_operator(Ag, sp, validate=False)
            # push-forward of the operator applied to x:
            # (g_* E)(x) = g_*(E(g^{-1}_* x));  g^{-1}_* substitutes by g
            xs = (rand_poly_in_x(rng2, dim, order, 2) for _ in range(3))
            diff = _first(_equal(transport_weyl(E(transport_weyl(x, g0)), g0inv), Eg(x))
                          for x in xs)
            if diff:
                return diff
        return None

    _run(checks, "flat-beta-equivariance", beta_square)
    return checks


# name -> (suite, whether it takes a data file, {cap letter: keyword});
# a cap left out of --caps keeps the default of the suite's signature
SUITES = {
    "hodge": (suite_hodge, False, {}),
    "dsquare": (suite_dsquare, True, {}),
    "assoc": (suite_assoc, True, {}),
    "cochain": (suite_cochain, False, {"y": "ydeg", "a": "acap"}),
    "beta": (suite_beta, True, {}),
    "transfer": (suite_transfer, True, {}),
    "barkoszul": (suite_barkoszul, False, {}),
    "psi": (suite_psi, False, {}),
    "chi": (suite_chi, False, {"y": "ydeg", "a": "window"}),
    "equivariance": (suite_equivariance, False, {}),
    "leading-symbol": (suite_leading_symbol, False, {}),
}


def parse_caps(text):
    """Parse a caps flag like "y:3" or "y:3,a:2"."""
    caps = {}
    for bit in text.split(",") if text else ():
        name, _, value = bit.partition(":")
        name = name.strip()
        if name not in ("y", "a") or not value.strip().isdigit():
            raise ValueError(f"bad caps entry {bit!r}; expected y:<n> or a:<n>")
        if name in caps:
            raise ValueError(f"caps entry {name!r} given twice")
        caps[name] = int(value)
    return caps


def _call(name, data, dim, order, seed, caps):
    fn, takes_data, keywords = SUITES[name]
    kw = {keywords[c]: v for c, v in caps.items() if c in keywords}
    if takes_data:
        return fn(data, seed=seed, **kw)
    return fn(dim=dim, order=order, seed=seed, **kw)


def run_suite(name, data=None, dim=2, order=6, seed=0, caps=None):
    """The checks of one suite, or of every suite for "all", where the ids
    carry the suite name and the data suites run on the built-in chart of
    dimension dim (see _builtin_data) unless data is given."""
    caps = caps or {}
    if name == "all":
        data = _builtin_data(dim, order) if data is None else data
        checks = []
        for sub in SUITES:
            for c in _call(sub, data, dim, order, seed, caps):
                c.id = f"{sub}/{c.id}"
                checks.append(c)
        return checks
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    _, takes_data, keywords = SUITES[name]
    if caps and not keywords:
        readers = sorted(n for n, (_, _, kw) in SUITES.items() if kw)
        raise ValueError(f"suite {name!r} has no generation caps; only "
                         f"{' and '.join(readers)} (and all) read them")
    if takes_data and data is None:
        raise ValueError(f"suite {name!r} requires a Fedosov data file")
    return _call(name, data, dim, order, seed, caps)
