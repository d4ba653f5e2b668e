"""The Moyal pairing kernel against recursions written out on their own: the
plain Weyl product loop (with its commutator variant), the
monomial product of the constant-theta Weyl algebra, and the closed form of
the product cochain.  The flat integer kernel and the flat lift sum of
StarProduct are also compared with the object kernel and the per-term lift
sum they replaced, written out below."""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, inf
from pathlib import Path

import pytest
from test_verify import _x_dependent_omega_chart

from fedosov import cochains, weylhh
from fedosov import io as fio
from fedosov.poly import MAX_EXP, ExponentOverflow, XPoly, _acc, _unflat
from fedosov.quantize import WORK_HEADROOM, StarProduct
from fedosov.verify import builtin_curved_data, rand_fraction, rand_weyl, rand_xpoly
from fedosov.weyl import (FormWeyl, WeylElement, _derive_targets, _pair_terms,
                          _pairing_levels, merge_subsets, moyal_product, vec_add)

DIM = 2
CURVED = builtin_curved_data(6).chart
X_OMEGA = [[XPoly.zero(DIM), XPoly.const(DIM, 1) + XPoly.variable(DIM, 1)],
           [XPoly.const(DIM, -1) - XPoly.variable(DIM, 1), XPoly.zero(DIM)]]
THETA4 = [[0, 1, 2, -1], [-1, 0, Fraction(1, 2), 3],
          [-2, Fraction(-1, 2), 0, 1], [1, -3, -1, 0]]


def _ref_moyal_weyl(a, b, omega, odd_only):
    """exp((hbar/2) omega^{ij} d/dy^i d/dz^j) a(y) b(z) |_{z=y} pairing step
    by pairing step; with odd_only the odd orders only, doubled."""
    dim, order = a.dim, a.order
    state = {}
    for (k1, p1), c1 in a.terms.items():
        for (k2, p2), c2 in b.terms.items():
            if 2 * (k1 + k2) + sum(p1) + sum(p2) <= order:
                key = (k1 + k2, p1, p2)
                state[key] = state.get(key, XPoly.zero(dim)) + c1 * c2
    out = {}
    t = 0
    while state:
        if not odd_only or t % 2:
            for (k, pa, pb), c in state.items():
                key = (k, vec_add(pa, pb))
                out[key] = out.get(key, XPoly.zero(dim)) + c
        t += 1
        den = t if odd_only and t == 1 else 2 * t
        nxt = {}
        for (k, pa, pb), c in state.items():
            for i in range(dim):
                for j in range(dim):
                    if not pa[i] or not pb[j] or omega[i][j].is_zero():
                        continue
                    add = (omega[i][j] * c).scale(Fraction(pa[i] * pb[j], den))
                    key = (k + 1, pa[:i] + (pa[i] - 1,) + pa[i + 1:],
                           pb[:j] + (pb[j] - 1,) + pb[j + 1:])
                    nxt[key] = nxt.get(key, XPoly.zero(dim)) + add
        state = {key: c for key, c in nxt.items() if not c.is_zero()}
    return WeylElement(dim, order, out)


def _ref_moyal(a, b, omega, commutator):
    """Blockwise: (u dx^S) o (v dx^T) = (u o v) dx^S dx^T."""
    out = FormWeyl.zero(a.dim, a.order)
    for S, u in a.components.items():
        for T, v in b.components.items():
            merged = merge_subsets(S, T)
            if merged is None:
                continue
            w = _ref_moyal_weyl(u, v, omega, commutator)
            out = out + FormWeyl.from_component(merged[1], w.scale(merged[0]))
    return out


def _form(rng, order):
    """A form whose coefficients reach x-degree 3."""
    comps = {}
    for S in rng.sample([(), (1,), (2,), (1, 2)], 2):
        w = rand_weyl(rng, DIM, order, nterms=3, xdeg=3)
        if not w.is_zero():
            comps[S] = w
    return FormWeyl(DIM, order, comps)


# "None": these cases run without an x-degree cap, as their ids have
# always said; the ids are kept so the case names stay stable.
@pytest.mark.parametrize("chart", [CURVED, X_OMEGA],
                         ids=["None-curved", "None-x-omega"])
@pytest.mark.parametrize("commutator", [False, True])
def test_moyal_product_matches_reference_loop(chart, commutator):
    omega = CURVED.omega_upper if chart is CURVED else X_OMEGA
    rng = random.Random(17)
    x_dependent = 0
    for _ in range(8):
        a, b = _form(rng, 6), _form(rng, 6)
        want = _ref_moyal(a, b, omega, commutator)
        assert moyal_product(a, b, chart, commutator=commutator) == want
        u, v = a.component(()), b.component(())
        assert (moyal_product(u, v, chart, commutator=commutator)
                == _ref_moyal_weyl(u, v, omega, commutator))
        x_dependent += any(c.degree() > 0 for w in want.components.values()
                           for c in w.terms.values())
    # the hbar^0 products (kept by the product, not the commutator) carry
    # x-dependent coefficients
    assert x_dependent or commutator


def _ref_mono_product(theta, p, q):
    dim = len(theta)
    out = {}
    state = {(p, q): Fraction(1)}
    t = 0
    while state:
        for (pa, pb), c in state.items():
            key = (t, vec_add(pa, pb))
            out[key] = out.get(key, 0) + c
        t += 1
        nxt = {}
        for (pa, pb), c in state.items():
            for i in range(dim):
                for j in range(dim):
                    if pa[i] and pb[j] and theta[i][j]:
                        key = (pa[:i] + (pa[i] - 1,) + pa[i + 1:],
                               pb[:j] + (pb[j] - 1,) + pb[j + 1:])
                        nxt[key] = nxt.get(key, 0) + c * theta[i][j] * Fraction(
                            pa[i] * pb[j], 2 * t)
        state = {key: c for key, c in nxt.items() if c}
    return {key: c for key, c in out.items() if c}


def _monomials(dim, max_deg):
    out = []
    for d in range(max_deg + 1):
        for idx in combinations_with_replacement(range(dim), d):
            out.append(tuple(idx.count(i) for i in range(dim)))
    return out


@pytest.mark.parametrize("dim", [2, 4])
def test_mono_product_matches_reference_loop(dim):
    ctx = (weylhh.WeylContext.standard(2, 6) if dim == 2
           else weylhh.WeylContext(THETA4, 6))
    monos = _monomials(dim, 3)
    for p, q in product(monos, monos):
        assert ctx.mono_product(p, q) == _ref_mono_product(ctx.theta, p, q)


def _closed_product(omega, dim, t_max, one):
    """sum_t (hbar/2)^t/t! omega^{i1 j1}..omega^{it jt} d^t (x) d^t over all
    index sequences, as {(t, 0, (alpha, beta)): coeff}."""
    zero = (0,) * dim
    out = {}
    for t in range(t_max + 1):
        scale = Fraction(1, 2 ** t * factorial(t))
        for idx in product(range(dim), repeat=2 * t):
            c = one
            for i, j in zip(idx[:t], idx[t:]):
                c = c * omega[i][j]
            if not c:
                continue
            al = tuple(idx[:t].count(i) for i in range(dim))
            be = tuple(idx[t:].count(i) for i in range(dim))
            key = (t, zero, (al, be))
            out[key] = out[key] + c * scale if key in out else c * scale
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("order,t_max,cap", [(6, 3, None), (8, 7, None),
                                             (8, 2, None), (6, 4, 2)])
def test_fiberwise_product_cochain_closed_form(order, t_max, cap):
    for omega in (CURVED.omega_upper, X_OMEGA):
        want = _closed_product(omega, DIM, t_max, XPoly.const(DIM, 1))
        want = cochains.FiberwiseCochain(
            DIM, order, 2, {((),) + key: c for key, c in want.items()}, cap)
        got = cochains.product_cochain(omega, DIM, order, t_max, cap)
        assert got == want and got.cap == want.cap


@pytest.mark.parametrize("dim,t_max", [(2, 0), (2, 4), (4, 3)])
def test_weyl_product_cochain_closed_form(dim, t_max):
    """The shared mu builder on a constant theta: the closed form, with
    Fraction coefficients."""
    ctx = (weylhh.WeylContext.standard(2, 6) if dim == 2
           else weylhh.WeylContext(THETA4, 6))
    want = _closed_product(ctx.theta, dim, t_max, Fraction(1))
    got = cochains._mu_terms(ctx.theta, 2 * t_max)
    assert got == want
    assert all(type(c) is Fraction for c in got.values())


# ---------------------------------------------------------------------------
# the flat kernel against the object kernel it replaced

CURVED_OMEGA = fio.fedosov_data_from_json(json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "data" / "curved_omega.json").read_text()))
X4 = _x_dependent_omega_chart()


def _ref_pairing_levels(terms1, terms2, omega, order, odd_only=False):
    """The kernel on coefficient objects, as it was: every pairing step
    multiplies an XPoly or Fraction by omega^{ij} f / (2t) and accumulates
    it with _acc.  Yields (t, {(m, p1, alphas1, p2, alphas2): coeff})."""
    dim = len(omega)
    pairs = [(i, j, omega[i][j]) for i in range(dim) for j in range(dim)
             if omega[i][j]]
    state = {}
    for (m1, p1, al1), c1 in terms1.items():
        w1 = 2 * m1 + sum(p1)
        for (m2, p2, al2), c2 in terms2.items():
            if w1 + 2 * m2 + sum(p2) <= order:
                _acc(state, (m1 + m2, p1, al1, p2, al2), c1 * c2)
    seen = {}
    t = 0
    while state:
        if t % 2 or not odd_only:
            yield t, state
        t += 1
        den = t if odd_only and t == 1 else 2 * t
        weights = {}
        nxt = {}
        for (m, q1, b1, q2, b2), c in state.items():
            room = order - 2 * m - sum(q1) - sum(q2)
            left = _derive_targets(seen, q1, b1, room > 0)
            right = _derive_targets(seen, q2, b2, room > 0)
            for i, j, om in pairs:
                for q1n, b1n, f1, l1 in left[i]:
                    for q2n, b2n, f2, l2 in right[j]:
                        if l1 + l2 > room:
                            continue
                        wkey = (i, j, f1 * f2)
                        wt = weights.get(wkey)
                        if wt is None:
                            wt = weights[wkey] = om * Fraction(f1 * f2, den)
                        _acc(nxt, (m + 1, q1n, b1n, q2n, b2n), wt * c)
        state = nxt


def _ref_pair_terms(terms1, terms2, omega, order, odd_only=False):
    out = {}
    for _, state in _ref_pairing_levels(terms1, terms2, omega, order, odd_only):
        for (m, q1, b1, q2, b2), c in state.items():
            _acc(out, (m, vec_add(q1, q2), b1 + b2), c)
    return out


def _ref_lift(sp, a):
    """StarProduct._lift as it was: one XPoly.scale and one _acc per term."""
    terms = {}
    for (k, _), c in a.terms.items():
        for e, coeff in c.terms.items():
            for (m, p), v in sp._monomial_lift(e).terms.items():
                _acc(terms, (m + k, p), v.scale(coeff))
    return WeylElement(a.dim, sp.data.order + WORK_HEADROOM, terms)


def _levels_as_objects(nvars, levels):
    """The flat levels as [(t, {(m, p1, alphas1, p2, alphas2): coeff})]."""
    out = []
    for t, den, state in levels:
        nums = {}
        for key, c in state.items():
            nums.setdefault(key[:5], {})[key[5]] = c
        values = {key: _unflat(nvars, num, den) for key, num in nums.items()}
        out.append((t, {key: c for key, c in values.items() if c}))
    return out


def _rand_dx_free(rng, dim, nterms, arity, coeff):
    """A seeded dx-free term dict {(m, p, alphas): coeff}: hbar powers -2..1,
    |p| <= 3 and slot degrees <= 1 per coordinate."""
    terms = {}
    for _ in range(nterms):
        p = [0] * dim
        for _ in range(rng.randint(0, 3)):
            p[rng.randrange(dim)] += 1
        p = tuple(p)
        alphas = tuple(tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(arity))
        terms[(rng.randint(-2, 1), p, alphas)] = coeff(rng)
    return terms


def _order_and_arities(rng, i):
    """Orders 4, 6 and inf in turn, with 0-2 and 0-1 slots; at order inf
    both factors are slot-free, since a slot can take a derivative at any
    pairing step and only the order stops that."""
    order = (4, 6, inf)[i % 3]
    if order == inf:
        return order, 0, 0
    return order, rng.randint(0, 2), rng.randint(0, 1)


def _assert_kernels_agree(t1, t2, omega, order, odd_only):
    want = list(_ref_pairing_levels(t1, t2, omega, order, odd_only))
    assert _levels_as_objects(*_pairing_levels(t1, t2, omega, order, odd_only)) == want
    assert _pair_terms(t1, t2, omega, order, odd_only) == _ref_pair_terms(
        t1, t2, omega, order, odd_only)
    return want


@pytest.mark.parametrize("chart", [CURVED, CURVED_OMEGA.chart, X4],
                         ids=["curved", "curved-omega-json", "x-dependent-dim4"])
def test_flat_kernel_matches_the_object_kernel_on_xpoly_coefficients(chart):
    dim = chart.dim
    rng = random.Random(24)
    levels = 0
    for i in range(6):
        order, a1, a2 = _order_and_arities(rng, i)
        nterms = 3
        t1 = _rand_dx_free(rng, dim, nterms, a1, lambda rng: rand_xpoly(rng, dim, 2, 3))
        t2 = _rand_dx_free(rng, dim, nterms, a2, lambda rng: rand_xpoly(rng, dim, 2, 3))
        for odd_only in (False, True):
            levels += len(_assert_kernels_agree(t1, t2, chart.omega_upper, order, odd_only))
    assert levels > 12


def test_flat_kernel_matches_the_object_kernel_on_an_int_factor():
    """The _R_TABLES fill: an XPoly factor against the int 1, odd orders."""
    rng = random.Random(7)
    for chart in (CURVED, CURVED_OMEGA.chart):
        for _ in range(4):
            t1 = _rand_dx_free(rng, 2, 4, 0, lambda rng: rand_xpoly(rng, 2, 2, 2))
            p = (rng.randint(0, 3), rng.randint(0, 2))
            alphas = (tuple(rng.randint(0, 1) for _ in range(2)),)
            for room in (3, 5, 8):
                _assert_kernels_agree(t1, {(0, p, alphas): 1}, chart.omega_upper, room, True)


@pytest.mark.parametrize("transported", [False, True], ids=["standard", "gl-transported"])
def test_flat_kernel_matches_the_object_kernel_on_fraction_coefficients(transported):
    ctx = weylhh.WeylContext.standard(2, 6)
    if transported:
        ctx = weylhh.gl_transport_context(ctx, [[Fraction(2), Fraction(1, 3)],
                                                [Fraction(-1), Fraction(1, 2)]])
    rng = random.Random(31)
    for i in range(8):
        order, a1, a2 = _order_and_arities(rng, i)
        t1 = _rand_dx_free(rng, 2, 3, a1, rand_fraction)
        t2 = _rand_dx_free(rng, 2, 3, a2, rand_fraction)
        for odd_only in (False, True):
            _assert_kernels_agree(t1, t2, ctx.theta, order, odd_only)
        # the one-term levels that koszul_h reads: c y1^p1 against y2^p2
        (k, p1, _), c = next(iter(t1.items()))
        p2 = next(iter(t2))[1]
        _assert_kernels_agree({(k, p1, ()): c}, {(0, p2, ()): 1}, ctx.theta, inf, False)


def test_a_pairing_level_beyond_the_packed_field_raises():
    """Level 0 of x1^MAX_EXP y1 against y2 fits; omega^{12} = 1 + x1 lifts
    level 1 past the field."""
    one = XPoly.const(DIM, 1)
    t2 = {(0, (0, 1), ()): one}
    for e, overflows in ((MAX_EXP - 1, False), (MAX_EXP, True)):
        t1 = {(0, (1, 0), ()): XPoly.monomial(DIM, (e, 0))}
        nvars, levels = _pairing_levels(t1, {(0, (0, 0), ()): one}, X_OMEGA, inf)
        assert len(levels) == 1
        if overflows:
            with pytest.raises(ExponentOverflow):
                _pairing_levels(t1, t2, X_OMEGA, inf)
        else:
            assert len(_pairing_levels(t1, t2, X_OMEGA, inf)[1]) == 2


@pytest.mark.parametrize("data", [builtin_curved_data(4), CURVED_OMEGA],
                         ids=["curved", "curved-omega-json"])
def test_flat_lift_sum_matches_the_per_term_sum(data):
    data = type(data)(data.chart, data.omega_series, 4)
    sp = StarProduct(data)
    rng = random.Random(5)
    zero = (0, 0)
    for _ in range(6):
        # several x-monomials per hbar power, with unlike denominators, so
        # that the lifts of different monomials meet on the same keys
        a = WeylElement(2, 4, {(k, zero): rand_xpoly(rng, 2, 2, 3)
                               for k in rng.sample(range(-2, 2), 2)})
        assert sp._lift(a) == _ref_lift(sp, a)
