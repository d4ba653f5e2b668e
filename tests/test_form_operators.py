"""Forms are the arity-0 cochains.  delta, delta_inv, nabla, the dx-block
product and linear transport of form-valued sections are checked against
their loops written out on their own, and against the cochain operators on
the arity-0 cochain of the form; the substitution transport of Weyl cochains
is checked against their reconstruction from transported values, and that of
bar, Koszul and psi chains against its loops written out per type."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from test_verify import _x_dependent_omega_chart

from fedosov import cochains, weylhh
from fedosov import io as fio
from fedosov.cochains import (FiberwiseCochain, _multidegrees, _r_cup_commutator, cup,
                              delta_cochain, delta_inv_cochain, nabla_cochain,
                              sigma_cochain, transport_cochain, transport_form,
                              transport_weyl)
from fedosov.poly import XPoly
from fedosov.quantize import FedosovData, solve_r
from fedosov.verify import (_rand_terms, builtin_curved_data, rand_bar, rand_form, rand_gl,
                            rand_koszul, rand_psi, rand_wcochain, rand_weyl, rand_xpoly)
from fedosov.weyl import (FormWeyl, SymplecticChart, WeylElement, _fiber_product,
                          _matrix_inverse, _pair_terms, as_form, contract_index,
                          curvature_R, delta, delta_inv, graded_commutator, is_central,
                          merge_subsets, moyal_product, nabla, omega_matrix, prepend_index,
                          sigma_project, unit_vec, vec_add, vec_sub)

DIM, N = 2, 6
CURVED = builtin_curved_data(N).chart
X1, X2 = XPoly.variable(DIM, 1), XPoly.variable(DIM, 2)
# a formula check needs no symplectic chart: Christoffel symbols on every
# index pattern, symmetric in the lower pair
DENSE_GAMMA = {(2, 1, 1): X2, (1, 1, 2): X1 + XPoly.const(DIM, 1),
               (1, 2, 1): X1 + XPoly.const(DIM, 1), (2, 2, 2): X1 * X2,
               (1, 2, 2): XPoly.const(DIM, Fraction(-1, 3))}


CHARTS = [CURVED, SymplecticChart(DIM, CURVED.omega_lower, CURVED.omega_upper,
                                  DENSE_GAMMA)]
CHART_IDS = ["curved", "dense"]
G = [[Fraction(2), Fraction(1, 3)], [Fraction(-1), Fraction(1, 2)]]
GINV = _matrix_inverse(G)


def _forms(seed, count=8, order=N):
    """Seeded forms with coefficients up to x-degree 3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        comps = {}
        for S in rng.sample([(), (1,), (2,), (1, 2)], 2):
            w = rand_weyl(rng, DIM, order, nterms=4, xdeg=3)
            if not w.is_zero():
                comps[S] = w
        out.append(FormWeyl(DIM, order, comps))
    return out


def _component(S, terms, f):
    return FormWeyl.from_component(S, WeylElement(f.dim, f.order, terms))


# -- the loops of the form operators, written out --------------------------------

def _ref_delta(f):
    """dx^i d/dy^i, component by component."""
    out = FormWeyl.zero(f.dim, f.order)
    for S, w in f.components.items():
        for i in range(1, f.dim + 1):
            ins = prepend_index(i, S)
            if ins is None:
                continue
            terms = {(k, vec_sub(p, unit_vec(f.dim, i))): c.scale(ins[0] * p[i - 1])
                     for (k, p), c in w.terms.items() if p[i - 1]}
            out = out + _component(ins[1], terms, f)
    return out


def _ref_delta_inv(f):
    """y^k i(d/dx^k), each term divided by its y-degree plus form degree."""
    out = FormWeyl.zero(f.dim, f.order)
    for S, w in f.components.items():
        for (k, p), c in w.terms.items():
            for idx in S:
                sign, S2 = contract_index(idx, S)
                p2 = vec_add(p, unit_vec(f.dim, idx))
                out = out + _component(
                    S2, {(k, p2): c.scale(Fraction(sign, sum(p) + len(S)))}, f)
    return out


def _ref_nabla(f, chart):
    """dx^i d/dx^i - dx^i Gamma^j_{ik} y^k d/dy^j."""
    out = FormWeyl.zero(f.dim, f.order)
    for S, w in f.components.items():
        for i in range(1, f.dim + 1):
            ins = prepend_index(i, S)
            if ins is None:
                continue
            sign, S2 = ins
            for (k, p), c in w.terms.items():
                out = out + _component(
                    S2, {(k, p): c.diff(i).scale(sign)}, f)
                for (j, ii, kk), g in chart.christoffel.items():
                    if ii != i or not p[j - 1]:
                        continue
                    p2 = vec_add(vec_sub(p, unit_vec(f.dim, j)), unit_vec(f.dim, kk))
                    add = (g * c).scale(-sign * p[j - 1])
                    out = out + _component(S2, {(k, p2): add}, f)
    return out


def _ref_blocks(a, b, chart, commutator):
    """(u dx^S) o (v dx^T) = (u o v) dx^S dx^T, block pair by block pair,
    u o v by the pairing kernel."""
    out = FormWeyl.zero(a.dim, a.order)
    for S, u in a.components.items():
        tu = {(k, p, ()): c for (k, p), c in u.terms.items()}
        for T, v in b.components.items():
            merged = merge_subsets(S, T)
            if merged is None:
                continue
            tv = {(k, p, ()): c for (k, p), c in v.terms.items()}
            uv = _pair_terms(tu, tv, chart.omega_upper, a.order,
                             odd_only=commutator)
            w = WeylElement(a.dim, a.order, {(m, p): c for (m, p, _), c in uv.items()})
            out = out + FormWeyl.from_component(merged[1], w.scale(merged[0]))
    return out


def _ref_subst(p, M):
    """prod_i (sum_j M[i][j] y_j)^{p_i} as {multidegree: Fraction}."""
    acc = {(0,) * len(p): Fraction(1)}
    for i, n in enumerate(p):
        for _ in range(n):
            nxt = {}
            for mono, c in acc.items():
                for j, f in enumerate(M[i]):
                    if f:
                        key = vec_add(mono, unit_vec(len(p), j + 1))
                        nxt[key] = nxt.get(key, 0) + c * f
            acc = nxt
    return acc


def _ref_subst_subset(S, M):
    """prod_{i in S} (sum_j M[i][j] dx^j), each dx^j wedged from the right."""
    acc = {(): Fraction(1)}
    for i in S:
        nxt = {}
        for mono, c in acc.items():
            for j in range(1, len(M) + 1):
                f = M[i - 1][j - 1]
                if f and j not in mono:
                    sign = -1 if sum(1 for t in mono if t > j) % 2 else 1
                    key = tuple(sorted(mono + (j,)))
                    nxt[key] = nxt.get(key, 0) + c * f * sign
        acc = nxt
    return acc


def _ref_transport_weyl(w, ginv):
    out = WeylElement.zero(w.dim, w.order)
    for (m, p), c in w.terms.items():
        cx = c.substitute_linear(ginv)
        for mono, f in _ref_subst(p, ginv).items():
            out = out + WeylElement(w.dim, w.order, {(m, mono): cx.scale(f)})
    return out


def _ref_transport_form(f, ginv):
    out = FormWeyl.zero(f.dim, f.order)
    for S, w in f.components.items():
        tw = _ref_transport_weyl(w, ginv)
        for S2, c in _ref_subst_subset(S, ginv).items():
            out = out + FormWeyl.from_component(S2, tw.scale(c))
    return out


def _ref_wseries_transport(w, M):
    out = {}
    for (k, p), c in w.terms.items():
        for mono, f in _ref_subst(p, M).items():
            out[(k, mono)] = out.get((k, mono), 0) + c * f
    return WeylElement(w.dim, None, out)


def _ref_gl_transport(ctx, g, a):
    """g_* a rebuilt from its values: (g_* a)(b..) = g_*(a(g^{-1}_* b..)),
    with g^{-1}_* the substitution by g."""
    ginv = _matrix_inverse(g)

    def fn(betas):
        args = [_ref_wseries_transport(WeylElement(ctx.dim, None, {(0, b): Fraction(1)}), g)
                for b in betas]
        return _ref_wseries_transport(a.eval(args), ginv).truncate(ctx.order)

    rec_cap = max((max((sum(al) for al in alphas), default=0)
                   for (_, _, alphas) in a.terms), default=0)
    return weylhh.cochain_from_values(weylhh.gl_transport_context(ctx, g), fn,
                                      a.arity, rec_cap, ctx.order)


def _ref_bar_transport(b, ginv):
    """Every tensor copy substituted by ginv."""
    out = {}
    for (k, ps), c in b.terms.items():
        images = {(): c}
        for p in ps:
            images = {done + (mono,): f * fm for done, f in images.items()
                      for mono, fm in _ref_subst(p, ginv).items()}
        for done, f in images.items():
            out[(k, done)] = out.get((k, done), 0) + f
    return weylhh.BarChain(b.dim, b.m, out)


def _ref_koszul_transport(kz, ginv):
    """y1, y2 and the C set substituted by ginv."""
    out = {}
    for (k, p1, p2, T), c in kz.terms.items():
        for m1, f1 in _ref_subst(p1, ginv).items():
            for m2, f2 in _ref_subst(p2, ginv).items():
                for T2, f3 in _ref_subst_subset(T, ginv).items():
                    key = (k, m1, m2, T2)
                    out[key] = out.get(key, 0) + c * f1 * f2 * f3
    return weylhh.KoszulChain(kz.dim, kz.m, out)


def _ref_psi_transport(a, g):
    """y substituted by g^{-1}; the psi_i are dual to the C^i, so the psi set
    goes by g transposed."""
    gt = [[g[j][i] for j in range(len(g))] for i in range(len(g))]
    out = {}
    for (k, p, T), c in a.terms.items():
        for mono, f1 in _ref_subst(p, _matrix_inverse(g)).items():
            for T2, f2 in _ref_subst_subset(T, gt).items():
                out[(k, mono, T2)] = out.get((k, mono, T2), 0) + c * f1 * f2
    return weylhh.PsiElement(a.dim, out)


# -- the operators against the written-out loops ---------------------------------

def test_delta_and_delta_inv_match_reference_loops():
    for f in _forms(1):
        assert delta(f) == _ref_delta(f)
        assert delta_inv(f) == _ref_delta_inv(f)


@pytest.mark.parametrize("chart", CHARTS, ids=CHART_IDS)
def test_nabla_matches_reference_loop(chart):
    for f in _forms(2):
        assert nabla(f, chart) == _ref_nabla(f, chart)
        w = f.component(())
        assert nabla(w, chart) == _ref_nabla(as_form(w), chart)


@pytest.mark.parametrize("chart", CHARTS[:1], ids=CHART_IDS[:1])
@pytest.mark.parametrize("commutator", [False, True])
def test_moyal_blocks_match_reference_loop(chart, commutator):
    forms = _forms(3)
    for a, b in zip(forms[::2], forms[1::2]):
        assert moyal_product(a, b, chart, commutator=commutator) == \
            _ref_blocks(a, b, chart, commutator)


def test_transport_matches_reference_loops():
    for f in _forms(4):
        assert transport_form(f, GINV) == _ref_transport_form(f, GINV)
        w = f.component(())
        assert transport_weyl(w, GINV) == _ref_transport_weyl(w, GINV)


@pytest.mark.parametrize("dim", [2, 4])
def test_gl_transport_matches_reference(dim):
    ctx = weylhh.WeylContext.standard(dim, 5 if dim == 4 else N)
    rng = random.Random(5 + dim)
    for arity in range(3 if dim == 2 else 2):
        for _ in range(4 if dim == 2 else 2):
            g = rand_gl(rng, dim)
            a = rand_wcochain(rng, ctx, arity, ydeg=3, acap=2)
            assert weylhh.gl_transport(ctx, g, a) == _ref_gl_transport(ctx, g, a)
            if arity == 0:
                w = a.as_wseries()
                assert weylhh.gl_transport(ctx, g, w) == \
                    _ref_wseries_transport(w, _matrix_inverse(g))


@pytest.mark.parametrize("dim", [2, 4])
def test_gl_transport_of_chains_matches_reference(dim):
    ctx = weylhh.WeylContext.standard(dim, N)
    rng = random.Random(30 + dim)
    maxdeg = 2 if dim == 2 else 1
    drawn = set()
    for m in range(3):
        g = rand_gl(rng, dim)
        ginv = _matrix_inverse(g)
        b = rand_bar(rng, ctx, m, maxdeg=maxdeg, nterms=6)
        kz = rand_koszul(rng, ctx, m, maxdeg=maxdeg, nterms=6)
        ps = rand_psi(rng, ctx, maxdeg=maxdeg + 1, nterms=6)
        assert weylhh.gl_transport(ctx, g, b) == _ref_bar_transport(b, ginv)
        assert weylhh.gl_transport(ctx, g, kz) == _ref_koszul_transport(kz, ginv)
        assert weylhh.gl_transport(ctx, g, ps) == _ref_psi_transport(ps, g)
        drawn |= {type(x) for x in (b, kz, ps) if not x.is_zero()}
    assert len(drawn) == 3


# -- the linear structure and the component view of the flat term dict -----------

SUBSETS = [(), (1,), (2,), (1, 2)]


def _ref_components(f):
    """{S: WeylElement} read off the stored terms {(S, m, p, ()): XPoly}."""
    comps = {}
    for (S, m, p, alphas), c in f.terms.items():
        assert alphas == () and c
        comps.setdefault(S, {})[(m, p)] = c
    return {S: WeylElement(f.dim, f.order, t) for S, t in comps.items()}


def _nonzero(comps):
    return {S: w for S, w in comps.items() if not w.is_zero()}


def _ref_sum(a, b, order, sign=1):
    zero = WeylElement.zero(DIM, order)
    return _nonzero({S: a.get(S, zero) + b.get(S, zero).scale(sign) for S in set(a) | set(b)})


def _reference_forms(order):
    """Seeded random forms, with forms of the curved chart: its curvature,
    nabla of a random form and the central Omega of its Fedosov data."""
    rng = random.Random(40 + order)
    forms = [rand_form(rng, DIM, order) for _ in range(6)]
    forms += [curvature_R(CURVED, order), nabla(forms[0], CURVED),
              builtin_curved_data(order).omega_form(order), FormWeyl.zero(DIM, order)]
    return forms


@pytest.mark.parametrize("order", [4, 6])
def test_form_arithmetic_matches_componentwise_reference(order):
    forms = _reference_forms(order)
    assert any(f.is_zero() for f in forms) and any(is_central(f) for f in forms) \
        and not all(is_central(f) for f in forms)
    for f, g in zip(forms, forms[1:] + forms[:1]):
        rf, rg = _ref_components(f), _ref_components(g)
        assert f.components == rf
        assert FormWeyl(DIM, order, f.components) == f
        for S in SUBSETS:
            assert f.component(S) == rf.get(S, WeylElement.zero(DIM, order))
            assert f.component(S).order == order
        assert (f + g).components == _ref_sum(rf, rg, order)
        assert (f - g).components == _ref_sum(rf, rg, order, -1)
        assert (-f).components == {S: -w for S, w in rf.items()}
        for c in (Fraction(-2, 3), 0):
            assert f.scale(c).components == _nonzero({S: w.scale(c) for S, w in rf.items()})
        for j in (-1, 1):
            assert f.hbar_shift(j).components == \
                _nonzero({S: w.hbar_shift(j) for S, w in rf.items()})
        for o in (order - 2, order + 2):
            t = f.truncate(o)
            assert t.order == o
            assert t.components == _nonzero({S: w.truncate(o) for S, w in rf.items()})
        for q in range(DIM + 1):
            assert f.homogeneous(q).components == {S: w for S, w in rf.items()
                                                   if len(S) == q}
        assert f.exterior_degrees() == sorted({len(S) for S in rf})
        assert f.filtration_degree() == min((w.filtration_degree() for w in rf.values()),
                                            default=float("inf"))
        assert is_central(f) == all(w.is_y_free() for w in rf.values())
        assert f.is_zero() == (not rf)


# -- forms as arity-0 cochains -----------------------------------------------------

def _cochain(f):
    return FiberwiseCochain.from_form(f)


def test_form_operators_agree_with_cochain_operators():
    for f in _forms(6):
        P = _cochain(f)
        assert P.to_form() == f
        assert _cochain(delta(f)) == delta_cochain(P)
        assert _cochain(delta_inv(f)) == delta_inv_cochain(P)
        assert _cochain(as_form(sigma_project(f))) == sigma_cochain(P)
        assert _cochain(transport_form(f, GINV)) == transport_cochain(P, G, GINV)


@pytest.mark.parametrize("chart", CHARTS, ids=CHART_IDS)
def test_nabla_agrees_with_cochain_nabla(chart):
    for f in _forms(7):
        assert _cochain(nabla(f, chart)) == nabla_cochain(_cochain(f), chart)


@pytest.mark.parametrize("chart", CHARTS[:1], ids=CHART_IDS[:1])
def test_moyal_product_is_arity_zero_cup(chart):
    """The product and the commutator with a 1-form agree on forms and on
    their arity-0 cochains."""
    forms = _forms(3)
    for a, b in zip(forms[::2], forms[1::2]):
        assert _cochain(moyal_product(a, b, chart)) == cup(_cochain(a), _cochain(b), chart)
        r = a.homogeneous(1)
        assert _cochain(graded_commutator(r, b, chart)) == \
            _r_cup_commutator(_cochain(r), _cochain(b), chart, N)


def _ref_r_cup_commutator(rc, X, chart, order):
    """The commutator with r by the pairing kernel on every (r term, X term)
    pair, as computed before the table of _r_cup_commutator."""
    return FiberwiseCochain(X.dim, order, X.arity,
                            _fiber_product(rc.terms, X.terms, omega_matrix(chart, X.dim),
                                           order, odd_only=True),
                            max(rc.cap, X.cap))


def _r_chart(name):
    """A chart and its solved r, carried two levels above the data order."""
    if name == "curved":
        data = builtin_curved_data(4)
    elif name == "curved_omega":
        path = Path(__file__).resolve().parents[1] / "bench" / "data" / "curved_omega.json"
        data = fio.fedosov_data_from_json(json.loads(path.read_text()))
        data.order = 4
    else:
        data = FedosovData(_x_dependent_omega_chart(), {}, 2)
    return data.chart, solve_r(data, validate=False)


def _laurent_cochains(seed, dim, order):
    """Seeded cochains of each arity 0-2 and exterior degree 0-2, with hbar
    powers -2..1."""
    rng = random.Random(seed)
    ys, slots = _multidegrees(dim, 3), _multidegrees(dim, 2)
    out = []
    for arity in range(3):
        for q in range(3):
            def key(rng):
                m, p = rng.randint(-2, 1), rng.choice(ys)
                alphas = tuple(rng.choice(slots) for _ in range(arity))
                S = rng.choice(weylhh._subsets(dim, q))
                return None if 2 * m + sum(p) > order else (S, m, p, alphas)
            out.append(FiberwiseCochain(dim, order, arity, _rand_terms(
                rng, 6, key, lambda rng: rand_xpoly(rng, dim, 1))))
    return out


@pytest.mark.parametrize("name", ["curved", "curved_omega", "x_dependent_omega"])
def test_r_commutator_table_matches_the_kernel(name, monkeypatch):
    """The tabulated commutator with r equals the pairing kernel run on every
    (r term, X term) pair, on a cold table and on one warmed by other
    cochains, for hbar powers -2..1, exterior degrees 0-2 and arities 0-2."""
    monkeypatch.setattr(cochains, "_R_TABLES", {})
    chart, r = _r_chart(name)
    rc = FiberwiseCochain.from_form(r)
    Xs = _laurent_cochains(11, r.dim, r.order)
    assert {m for X in Xs for (_, m, _, _) in X.terms} == {-2, -1, 0, 1}
    want = [_ref_r_cup_commutator(rc, X, chart, r.order) for X in Xs]
    assert any(not w.is_zero() for w in want)
    for X, w in zip(Xs, want):
        cochains._R_TABLES.clear()
        assert _r_cup_commutator(rc, X, chart, r.order) == w
    for _ in range(2):  # the second pass reads a table filled by every X
        assert [_r_cup_commutator(rc, X, chart, r.order) for X in Xs] == want
    assert len(cochains._R_TABLES) == 1


def test_r_commutator_table_is_keyed_by_r(monkeypatch):
    """r and 2r read different tables, so their commutators differ by exactly
    the factor 2."""
    monkeypatch.setattr(cochains, "_R_TABLES", {})
    chart, r = _r_chart("curved")
    rc, rc2 = FiberwiseCochain.from_form(r), FiberwiseCochain.from_form(r.scale(2))
    for X in _laurent_cochains(12, r.dim, r.order):
        once = _r_cup_commutator(rc, X, chart, r.order)
        assert _r_cup_commutator(rc2, X, chart, r.order) == once.scale(2)
    assert len(cochains._R_TABLES) == 2
