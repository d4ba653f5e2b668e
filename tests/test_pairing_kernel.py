"""The Moyal pairing kernel against recursions written out on their own: the
plain Weyl product loop (with its commutator variant), the
monomial product of the constant-theta Weyl algebra, and the closed form of
the product cochain."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

import pytest

from fedosov import cochains, weylhh
from fedosov.poly import XPoly
from fedosov.verify import builtin_curved_data, rand_weyl
from fedosov.weyl import (FormWeyl, WeylElement, merge_subsets, moyal_product,
                          vec_add)

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
    ctx = (weylhh.WeylContext.standard(2, 6) if dim == 2
           else weylhh.WeylContext(THETA4, 6))
    want = _closed_product(ctx.theta, dim, t_max, Fraction(1))
    assert weylhh.product_cochain(ctx, t_max).terms == want
