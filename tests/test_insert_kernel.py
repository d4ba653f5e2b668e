"""The insertion kernel, the Hochschild d and the Gerstenhaber bracket
against loops written out on their own: the insertion loop before it
skipped terms beyond the order (one coefficient object per term), the
Hochschild d as its 2 + k insertions summed one by one with their signs,
and the bracket as a signed sum of public-style insertions of two cochain
objects.  On seeded form-valued cochains with XPoly coefficients (dx parts,
negative hbar powers, the curved chart and an x-dependent dim-4 chart) and
on Weyl cochains with Fraction coefficients."""

import random
from fractions import Fraction
from itertools import combinations
from math import inf

import pytest
from test_verify import _x_dependent_omega_chart

from fedosov import cochains
from fedosov.cochains import (FiberwiseCochain, _insert_terms, _mu_terms, _slot_splits,
                              gerstenhaber, hochschild_d, insert)
from fedosov.poly import MAX_EXP, ExponentOverflow, XPoly, _acc, _add_terms, _mono_derivative
from fedosov.verify import builtin_curved_data, rand_fraction, rand_xpoly
from fedosov.weyl import _blocks, _pairwise, omega_matrix, vec_add
from fedosov.weylhh import (WeylCochain, WeylContext, cochain_insert, gerstenhaber_w,
                            hh_hochschild_d)

DIM, N = 2, 6
CHART = builtin_curved_data(N).chart
X4 = _x_dependent_omega_chart()


# ---------------------------------------------------------------------------
# the written-out references


def _ref_insert_terms(terms1, i, terms2, order):
    """The kernel loop before the split-level skip: every split of every
    pair that can reach the order, its coefficient always scaled."""
    out = {}
    for (m1, p1, al1), c1 in terms1.items():
        alpha = al1[i]
        asize = sum(alpha)
        base_w = 2 * m1 + sum(p1)
        for (m2, p2, al2), c2 in terms2.items():
            # minimal achievable output weight for this pair
            if base_w + 2 * m2 + max(0, sum(p2) - asize) > order:
                continue
            base = c1 * c2
            nslots = len(al2)
            for g0, slots, f in _slot_splits(alpha, nslots):
                d = _mono_derivative(g0, p2)
                if d is None:
                    continue
                new_alphas = tuple(vec_add(al2[s], slots[s]) for s in range(nslots))
                key = (m1 + m2, vec_add(p1, d[1]), al1[:i] + new_alphas + al1[i + 1:])
                _acc(out, key, base * (f * d[0]))
    return out


def _ref_hochschild_terms(terms, k, omega, order):
    """The 2 + k insertions of mu and P, each a term dict of its own, summed
    one by one with their signs."""
    lowest = min((key[0] for key in terms), default=0)
    mu = _mu_terms(omega, order - 2 * min(0, lowest))
    out = _ref_insert_terms(mu, 1, terms, order)
    _add_terms(out, _ref_insert_terms(mu, 0, terms, order), (-1) ** (k + 1))
    for j in range(k):
        _add_terms(out, _ref_insert_terms(terms, j, mu, order), (-1) ** (j + 1))
    return out


def _ref_bracket(ins, P1, P2, zero):
    """[P1, P2]_G = sum_i (-)^{i k2'} P1 o_i P2 - (-)^{k1' k2'} (1 <-> 2),
    k' = arity - 1, as a sum of cochain objects."""
    k1, k2 = P1.arity - 1, P2.arity - 1
    out = zero
    for i in range(P1.arity):
        term = ins(P1, i, P2)
        out = out - term if (i * k2) % 2 else out + term
    for j in range(P2.arity):
        term = ins(P2, j, P1)
        out = out - term if (k1 * k2 + j * k1) % 2 == 0 else out + term
    return out


def _ref_insert(P1, i, P2):
    out = _pairwise(P1.terms, P2.terms, lambda b1, b2: _ref_insert_terms(b1, i, b2, P1.order))
    return FiberwiseCochain(P1.dim, P1.order, P1.arity + P2.arity - 1, out,
                            max(P1.cap, P2.cap))


def _ref_gerstenhaber(P1, P2):
    """The bracket at the lower order, to which both halves are known."""
    zero = FiberwiseCochain.zero(P1.dim, P1.order, P1.arity + P2.arity - 1,
                                 max(P1.cap, P2.cap))
    return _ref_bracket(_ref_insert, P1, P2, zero).truncate(min(P1.order, P2.order))


def _ref_hochschild_d(P, chart):
    omega = omega_matrix(chart, P.dim)
    out = {}
    for S, block in _blocks(P.terms).items():
        _add_terms(out, _ref_hochschild_terms(block, P.arity, omega, P.order),
                   (-1) ** len(S), (S,))
    return FiberwiseCochain(P.dim, P.order, P.arity + 1, out, P.cap)


def _ref_cochain_insert(a, i, b):
    return WeylCochain(a.dim, a.arity + b.arity - 1, _ref_insert_terms(a.terms, i, b.terms, inf))


def _ref_gerstenhaber_w(a, b):
    return _ref_bracket(_ref_cochain_insert, a, b, WeylCochain(a.dim, a.arity + b.arity - 1))


def _ref_hh_hochschild_d(ctx, a):
    return WeylCochain(ctx.dim, a.arity + 1,
                       _ref_hochschild_terms(a.terms, a.arity, ctx.theta, ctx.order), ctx.order)


# ---------------------------------------------------------------------------
# seeded inputs


def _weight(key):
    return 2 * key[0] + sum(key[1])


def _multi(rng, top, dim=DIM):
    while True:
        v = tuple(rng.randint(0, top) for _ in range(dim))
        if sum(v) <= top:
            return v


def _fiberwise(rng, arity, nterms=3, hbar=(-1, 2), dim=DIM, order=N, top=3):
    """dx blocks of every size, hbar powers in the range hbar, y-degree and
    slot sizes up to top."""
    subsets = [S for q in range(3) for S in combinations(range(1, dim + 1), q)]
    terms = {}
    for _ in range(nterms):
        key = (rng.choice(subsets), rng.randint(*hbar), _multi(rng, top, dim),
               tuple(_multi(rng, top, dim) for _ in range(arity)))
        _acc(terms, key, rand_xpoly(rng, dim, 2))
    return FiberwiseCochain(dim, order, arity, terms)


def _weyl(rng, arity, nterms=3, hbar=(-1, 2)):
    terms = {}
    for _ in range(nterms):
        _acc(terms, (rng.randint(*hbar), _multi(rng, 3),
                     tuple(_multi(rng, 3) for _ in range(arity))), rand_fraction(rng))
    return WeylCochain(DIM, arity, terms)


def _pairs(make, seed, count):
    rng = random.Random(seed)
    return [(make(rng, rng.randint(1, 3)), make(rng, rng.randint(0, 3)))
            for _ in range(count)]


def _all_fractions(a):
    return all(type(c) is Fraction for c in a.terms.values())


# ---------------------------------------------------------------------------
# the kernel and the operations against the references


@pytest.mark.parametrize("order", [-1, 0, 3, N, inf])
def test_kernel_matches_reference_truncated_at_order(order):
    """Every block pair and slot: equal to the reference below the order,
    nothing above it."""
    for P1, P2 in _pairs(_fiberwise, 1, 12):
        for b1 in _blocks(P1.terms).values():
            for b2 in _blocks(P2.terms).values():
                for i in range(P1.arity):
                    got = _insert_terms(b1, i, b2, order)
                    want = _ref_insert_terms(b1, i, b2, order)
                    assert all(_weight(key) <= order for key in got)
                    assert got == {k: c for k, c in want.items() if _weight(k) <= order}
    for a, b in _pairs(_weyl, 2, 12):
        for i in range(a.arity):
            assert _insert_terms(a.terms, i, b.terms, inf) == _ref_insert_terms(
                a.terms, i, b.terms, inf)


def test_fiberwise_operations_match_reference():
    for P1, P2 in _pairs(_fiberwise, 3, 20):
        for i in range(P1.arity):
            assert insert(P1, i, P2) == _ref_insert(P1, i, P2)
        assert gerstenhaber(P1, P2) == _ref_gerstenhaber(P1, P2)
        assert hochschild_d(P1, CHART) == _ref_hochschild_d(P1, CHART)


def test_weyl_operations_match_reference():
    ctx = WeylContext.standard(DIM, N)
    for a, b in _pairs(_weyl, 4, 10):
        for i in range(a.arity):
            assert cochain_insert(a, i, b) == _ref_cochain_insert(a, i, b)
        assert gerstenhaber_w(a, b) == _ref_gerstenhaber_w(a, b)
        assert hh_hochschild_d(ctx, a) == _ref_hh_hochschild_d(ctx, a)


@pytest.mark.parametrize("chart,order,top,nterms", [(CHART, N, 3, 3), (X4, 4, 1, 4)],
                         ids=["curved", "x-dependent-dim4"])
def test_d_and_bracket_match_references_with_dx_parts_and_negative_hbar(chart, order, top,
                                                                        nterms):
    """Cochains with dx parts of exterior degree 0, 1 and 2 and hbar powers
    -2..1, brackets of factors of unequal order included."""
    rng = random.Random(27)
    dim, seen, nonzero = chart.dim, set(), 0
    for _ in range(10):
        P1 = _fiberwise(rng, rng.randint(1, 2), nterms, (-2, 1), dim, order, top)
        P2 = _fiberwise(rng, rng.randint(0, 2), nterms, (-2, 1), dim,
                        order - rng.randint(0, 1), top)
        seen.update(len(S) for S, *_ in P1.terms)
        assert hochschild_d(P1, chart) == _ref_hochschild_d(P1, chart)
        got = gerstenhaber(P1, P2)
        assert got == _ref_gerstenhaber(P1, P2)
        assert gerstenhaber(P2, P1) == _ref_gerstenhaber(P2, P1)
        nonzero += bool(got.terms)
    assert seen == {0, 1, 2} and nonzero >= 5


def test_weyl_operations_keep_fraction_coefficients():
    """hh_hochschild_d and gerstenhaber_w on Fraction cochains with hbar
    powers -2..1: equal to the references, every output coefficient a
    Fraction (never an XPoly or an int), as the weyl-homotopy digests
    hash."""
    ctx = WeylContext.standard(DIM, 4)
    rng = random.Random(28)
    nonzero = 0
    for _ in range(8):
        a = _weyl(rng, rng.randint(1, 2), 3, (-2, 1))
        b = _weyl(rng, rng.randint(0, 2), 3, (-2, 1))
        for got, want in ((hh_hochschild_d(ctx, a), _ref_hh_hochschild_d(ctx, a)),
                          (gerstenhaber_w(a, b), _ref_gerstenhaber_w(a, b)),
                          (cochain_insert(a, 0, b), _ref_cochain_insert(a, 0, b))):
            assert got == want and _all_fractions(got)
            nonzero += bool(got.terms)
    assert nonzero > 12


# ---------------------------------------------------------------------------
# the split table, the guard check


class _RecordingTable(dict):
    """A split table that records each lookup."""

    def __init__(self):
        super().__init__()
        self.looked_up = []

    def get(self, key, default=None):
        self.looked_up.append(key)
        return super().get(key, default)


ONE = Fraction(1)
T1 = {(0, (0, 0), ((1, 0),)): ONE}
T2 = {(1, (3, 0), ((0, 0),)): ONE}  # weight 5, at best 4 after d/dy^1


def test_pair_beyond_the_order_looks_up_no_splits(monkeypatch):
    """A pair is skipped when even its largest y-part share of the slot
    derivative, min(|alpha|, |p2|), leaves it beyond the order: it looks
    up no split and fills no entry."""
    table = _RecordingTable()
    monkeypatch.setattr(cochains, "_SURVIVORS", table)
    assert _insert_terms(T1, 0, T2, 3) == {} and not table.looked_up and not table
    assert _insert_terms(T1, 0, T2, 4) == {(1, (2, 0), ((0, 0),)): Fraction(3)}
    # alpha, p2, one inserted slot, need = w - order = 1
    assert table.looked_up == [((1, 0), (3, 0), 1, 1)]
    assert table == {((1, 0), (3, 0), 1, 1): [(3, (2, 0), ((0, 0),))]}


@pytest.mark.parametrize("orders", [(4, 5), (5, 4)], ids=["need-1-first", "need-0-first"])
def test_split_table_keeps_each_need(monkeypatch, orders):
    """One pair at two orders: the split to the slot survives at order 5
    (need 0) only, whichever order fills the table first."""
    monkeypatch.setattr(cochains, "_SURVIVORS", {})
    for order in orders:
        want = {k: c for k, c in _ref_insert_terms(T1, 0, T2, order).items()
                if _weight(k) <= order}
        assert _insert_terms(T1, 0, T2, order) == want
        assert len(want) == order - 3


def test_an_insertion_beyond_the_packed_field_raises():
    """x1 inserted into a slot of x1^e fits for e < MAX_EXP; at MAX_EXP the
    product sets a guard bit, through the kernel and through the bracket."""
    zero = (0, 0)
    x1 = XPoly.variable(DIM, 1)
    for e, overflows in ((MAX_EXP - 1, False), (MAX_EXP, True)):
        t1 = {(0, zero, (zero,)): XPoly.monomial(DIM, (e, 0))}
        t2 = {(0, zero, ()): x1}
        P1 = FiberwiseCochain(DIM, N, 1, {((),) + k: c for k, c in t1.items()})
        P2 = FiberwiseCochain(DIM, N, 0, {((),) + k: c for k, c in t2.items()})
        if overflows:
            with pytest.raises(ExponentOverflow):
                _insert_terms(t1, 0, t2, inf)
            with pytest.raises(ExponentOverflow):
                gerstenhaber(P1, P2)
        else:
            assert _insert_terms(t1, 0, t2, inf) == {
                (0, zero, ()): XPoly.monomial(DIM, (e + 1, 0))}
            assert gerstenhaber(P1, P2) == _ref_gerstenhaber(P1, P2)
