"""The insertion kernel against its loop before it skipped terms beyond the
order: on seeded form-valued cochains with XPoly coefficients and on Weyl
cochains with Fraction coefficients, through the kernel itself and through
the public insertion, bracket and Hochschild d of both cochain types."""

import random
from fractions import Fraction
from itertools import combinations
from math import inf

import pytest

from fedosov import cochains, weylhh
from fedosov.cochains import (FiberwiseCochain, _insert_terms, _slot_splits,
                              gerstenhaber, hochschild_d, insert)
from fedosov.poly import _acc, _mono_derivative
from fedosov.verify import builtin_curved_data, rand_fraction, rand_xpoly
from fedosov.weyl import _blocks, vec_add
from fedosov.weylhh import (WeylCochain, WeylContext, cochain_insert, gerstenhaber_w,
                            hh_hochschild_d)

DIM, N = 2, 6
CHART = builtin_curved_data(N).chart
SUBSETS = [S for q in range(DIM + 1) for S in combinations(range(1, DIM + 1), q)]


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
            for pieces, f in _slot_splits(alpha, nslots):
                d = _mono_derivative(pieces[0], p2)
                if d is None:
                    continue
                new_alphas = tuple(vec_add(al2[s], pieces[s + 1])
                                   for s in range(nslots))
                key = (m1 + m2, vec_add(p1, d[1]), al1[:i] + new_alphas + al1[i + 1:])
                _acc(out, key, base * (f * d[0]))
    return out


def _weight(key):
    return 2 * key[0] + sum(key[1])


def _multi(rng, top):
    while True:
        v = tuple(rng.randint(0, top) for _ in range(DIM))
        if sum(v) <= top:
            return v


def _fiberwise(rng, arity, nterms=3):
    """dx blocks, hbar powers -1..2, y-degree and slot sizes up to 3."""
    terms = {}
    for _ in range(nterms):
        key = (rng.choice(SUBSETS), rng.randint(-1, 2), _multi(rng, 3),
               tuple(_multi(rng, 3) for _ in range(arity)))
        _acc(terms, key, rand_xpoly(rng, DIM, 2))
    return FiberwiseCochain(DIM, N, arity, terms)


def _weyl(rng, arity, nterms=3):
    terms = {}
    for _ in range(nterms):
        _acc(terms, (rng.randint(-1, 2), _multi(rng, 3),
                     tuple(_multi(rng, 3) for _ in range(arity))), rand_fraction(rng))
    return WeylCochain(DIM, arity, terms)


def _pairs(make, seed, count):
    rng = random.Random(seed)
    return [(make(rng, rng.randint(1, 3)), make(rng, rng.randint(0, 3)))
            for _ in range(count)]


@pytest.fixture
def reference(monkeypatch):
    """Run a callable with the reference loop in place of the kernel, in
    every module that calls it."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(cochains, "_insert_terms", _ref_insert_terms)
            m.setattr(weylhh, "_insert_terms", _ref_insert_terms)
            return fn(*args)
    return run


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


def test_fiberwise_operations_match_reference(reference):
    for P1, P2 in _pairs(_fiberwise, 3, 20):
        for i in range(P1.arity):
            assert insert(P1, i, P2) == reference(insert, P1, i, P2)
        assert gerstenhaber(P1, P2) == reference(gerstenhaber, P1, P2)
        assert hochschild_d(P1, CHART) == reference(hochschild_d, P1, CHART)


def test_weyl_operations_match_reference(reference):
    ctx = WeylContext.standard(DIM, N)
    for a, b in _pairs(_weyl, 4, 10):
        for i in range(a.arity):
            assert cochain_insert(a, i, b) == reference(cochain_insert, a, i, b)
        assert gerstenhaber_w(a, b) == reference(gerstenhaber_w, a, b)
        assert hh_hochschild_d(ctx, a) == reference(hh_hochschild_d, ctx, a)


def test_pair_beyond_the_order_looks_up_no_splits(monkeypatch):
    """A pair is skipped when even its largest y-part share of the slot
    derivative, min(|alpha|, |p2|), leaves it beyond the order."""
    looked_up = []

    def splits(alpha, nslots):
        looked_up.append((alpha, nslots))
        return _slot_splits(alpha, nslots)

    monkeypatch.setattr(cochains, "_slot_splits", splits)
    one = Fraction(1)
    t1 = {(0, (0, 0), ((1, 0),)): one}
    t2 = {(1, (3, 0), ((0, 0),)): one}  # weight 5, at best 4 after d/dy^1
    assert _insert_terms(t1, 0, t2, 3) == {} and not looked_up
    assert _insert_terms(t1, 0, t2, 4) == {(1, (2, 0), ((0, 0),)): Fraction(3)}
    assert looked_up == [((1, 0), 1)]
