"""Reference tests for the copy, the equality and the filtration that the
sparse types share.  Each reference below is a per-type body written out
as it stood in its class before SparseTerms held one `_empty` and one
`==`, and the graded types one truncation, hbar shift and weight query;
the shared methods must agree with it on seeded values, negative hbar
powers and zero values included.  A comparison runs only where the type
had that body of its own.

A row is labelled by the kind of value it draws: a type's name, or, for
the Fraction ring, the name of the class that held it before WeylElement
took both rings: "WSeries" for an element of W (a WeylElement with
Fraction coefficients) and "HbarScalar" for a y-free one, a value in
C((hbar))."""

import random
from fractions import Fraction
from math import inf

import pytest

from fedosov.cochains import FiberwiseCochain
from fedosov.poly import XPoly
from fedosov.quantize import GaugeOperator
from fedosov.verify import rand_cochain, rand_fraction, rand_wcochain, rand_weyl
from fedosov.weyl import FormWeyl, WeylElement
from fedosov.weylhh import BarChain, KoszulChain, PsiElement, WeylCochain, WeylContext

DIM, ORDER = 2, 6
CTX = WeylContext.standard(DIM, ORDER)


def _state(x):
    """Type, header slots and terms: everything a value holds."""
    return type(x), {name: getattr(x, name) for name in type(x).__slots__}


# -- the per-type bodies ------------------------------------------------------

def _weyl_hbar_shift(a, j):
    return WeylElement(a.dim, a.order, {(k + j, p): c for (k, p), c in a.terms.items()})


def _weyl_is_y_free(a):
    return all(not any(p) for (_, p) in a.terms)


def _weyl_min_hbar(a):
    return min((k for (k, _) in a.terms), default=None)


def _weyl_filtration_degree(a):
    if not a.terms:
        return inf
    return min(2 * k + sum(p) for (k, p) in a.terms)


def _form_hbar_shift(f, j):
    return FormWeyl.from_terms(f.dim, f.order, {
        (S, m + j, p, al): c for (S, m, p, al), c in f.terms.items()})


def _form_filtration_degree(f):
    return min((2 * m + sum(p) for (_, m, p, _) in f.terms), default=inf)


def _cochain_hbar_shift(P, j):
    return FiberwiseCochain(
        P.dim, P.order, P.arity,
        {(S, m + j, p, al): c for (S, m, p, al), c in P.terms.items()}, P.cap)


def _cochain_min_term_weight(P):
    return min((2 * m + sum(p) for (_, m, p, _) in P.terms), default=0)


def _wcochain_min_term_weight(a):
    return min((2 * k + sum(p) for (k, p, _) in a.terms), default=0)


def _series_truncate(a, n):
    """The clip of an element of W, written out; one of order None keeps no
    order, and its constructor then keeps every term."""
    return WeylElement(a.dim, None if a.order is None else n,
                       {(k, p): c for (k, p), c in a.terms.items() if 2 * k + sum(p) <= n})


def _scalar_truncate(a, n):
    """A Laurent polynomial in hbar keeps the powers k with 2k <= n."""
    return WeylElement(a.dim, a.order, {(k, p): c for (k, p), c in a.terms.items()
                                        if 2 * k <= n})


EMPTY = {
    "HbarScalar": lambda a: WeylElement(a.dim, a.order),
    "WeylElement": lambda a: WeylElement(a.dim, a.order),
    "FormWeyl": lambda f: FormWeyl(f.dim, f.order),
    "FiberwiseCochain": lambda P: FiberwiseCochain(P.dim, P.order, P.arity, None, P.cap),
    "WSeries": lambda a: WeylElement(a.dim, a.order),
    "BarChain": lambda b: BarChain(b.dim, b.m),
    "KoszulChain": lambda k: KoszulChain(k.dim, k.m),
    "PsiElement": lambda a: PsiElement(a.dim),
    "WeylCochain": lambda a: WeylCochain(a.dim, a.arity),
    "GaugeOperator": lambda q: GaugeOperator(q.dim),
}

TRUNCATE = {
    "WeylElement": lambda a, n: WeylElement(a.dim, n, a.terms),
    "FormWeyl": lambda f, n: FormWeyl.from_terms(f.dim, n, f.terms),
    "FiberwiseCochain": lambda P, n: FiberwiseCochain(P.dim, n, P.arity, P.terms, P.cap),
    "WSeries": _series_truncate,
    "HbarScalar": _scalar_truncate,
}

HBAR_SHIFT = {"WeylElement": _weyl_hbar_shift, "FormWeyl": _form_hbar_shift,
              "FiberwiseCochain": _cochain_hbar_shift, "WSeries": _weyl_hbar_shift}
IS_Y_FREE = {"WeylElement": _weyl_is_y_free, "WSeries": _weyl_is_y_free}
MIN_HBAR = {"WeylElement": _weyl_min_hbar, "WSeries": _weyl_min_hbar,
            "HbarScalar": _weyl_min_hbar}
FILTRATION_DEGREE = {"WeylElement": _weyl_filtration_degree,
                     "FormWeyl": _form_filtration_degree,
                     "WSeries": _weyl_filtration_degree}
# compared with filtration_degree under min(0, .): a zero value reads 0
# here and +inf there
MIN_TERM_WEIGHT = {"FiberwiseCochain": _cochain_min_term_weight,
                   "WeylCochain": _wcochain_min_term_weight}


def _eq_terms(cls):
    return lambda a, b: isinstance(b, cls) and a.terms == b.terms


def _eq_header(cls, name):
    return lambda a, b: (isinstance(b, cls) and getattr(a, name) == getattr(b, name)
                         and a.terms == b.terms)


EQ = {
    WeylElement: _eq_header(WeylElement, "dim"),
    FormWeyl: _eq_header(FormWeyl, "dim"),
    FiberwiseCochain: _eq_header(FiberwiseCochain, "arity"),
    GaugeOperator: _eq_terms(GaugeOperator),
    BarChain: _eq_header(BarChain, "m"),
    KoszulChain: _eq_header(KoszulChain, "m"),
    PsiElement: _eq_terms(PsiElement),
    WeylCochain: _eq_header(WeylCochain, "arity"),
}


# -- seeded values ------------------------------------------------------------

def _lowered(terms, at, rng):
    """terms with the hbar power at key position at lowered by 0..3."""
    return {key[:at] + (key[at] - rng.randint(0, 3),) + key[at + 1:]: c
            for key, c in terms.items()}


def _labelled(values):
    """(kind, value) for each value: its type's name."""
    return [(type(x).__name__, x) for x in values]


def _graded_values(seed):
    """Seeded (kind, value) pairs of the four graded types, elements of W
    among them, with hbar powers down to -3, y-free ones among them, and
    each kind's zero."""
    rng = random.Random(seed)
    out = []
    for ydeg in (2, 0):
        w = rand_weyl(rng, DIM, ORDER, hmin=-3, hmax=2)
        if not ydeg:
            w = w.at_y_zero()
        out.append(w)
        out.append(FormWeyl(DIM, ORDER, {
            S: rand_weyl(rng, DIM, ORDER, nterms=3, hmin=-2, hmax=2)
            for S in [(), (1,), (1, 2)][:rng.randint(1, 3)]}))
        for arity in (0, 1, 2):
            P = rand_cochain(rng, DIM, ORDER, arity, ydeg=ydeg, nterms=5)
            out.append(FiberwiseCochain(DIM, ORDER, arity, _lowered(P.terms, 1, rng),
                                        cap=rng.choice([None, 3])))
            out.append(rand_wcochain(rng, CTX, arity, ydeg=ydeg, hmin=-3, hmax=2))
    out = _labelled(out)
    for ydeg in (2, 0):
        series = rand_wcochain(rng, CTX, 0, ydeg=ydeg, hmin=-3, hmax=2).as_wseries()
        out += [("WSeries", series), ("WSeries", WeylElement(DIM, ORDER, series.terms))]
    return out + [(kind, x.scale(0)) for kind, x in out]


def _other_values(seed):
    """Seeded (kind, value) pairs of the four types without a filtration, and
    of Laurent polynomials in hbar."""
    rng = random.Random(seed)

    def frac():
        return rand_fraction(rng)

    out = [("HbarScalar", WeylElement(DIM, None, {(k, (0, 0)): frac() for k in range(-2, 2)}))]
    out += _labelled([
        BarChain(DIM, 1, {(0, ((1, 0), (0, 1), (0, 0))): frac()}),
        KoszulChain(DIM, 1, {(1, (0, 1), (1, 0), (2,)): frac()}),
        PsiElement(DIM, {(-1, (1, 1), (1,)): frac()}),
        GaugeOperator(DIM, {1: {(1, 0): XPoly.const(DIM, frac())}}),
    ])
    return out + [(kind, x.scale(0)) for kind, x in out]


def _values(pairs):
    return [x for _, x in pairs]


def _zeros_of_another_dim():
    """Zero values in dim 4, next to the dim-2 zeros of the seeded values."""
    return [WeylElement(4, ORDER), WeylElement(4, None), FormWeyl(4, ORDER),
            FiberwiseCochain(4, ORDER, 1), BarChain(4, 1), KoszulChain(4, 1),
            PsiElement(4), WeylCochain(4, 1), GaugeOperator(4)]


SEEDS = range(4)


def _cases(table):
    return [pytest.param(seed, kind, id=f"{kind}-{seed}") for kind in table for seed in SEEDS]


def _of(kind, seed):
    values = [x for k, x in _graded_values(seed) + _other_values(seed) if k == kind]
    assert values
    return values


def test_seeded_values_cover_negative_hbar_and_zero():
    values = _values(_graded_values(0))
    assert {type(x) for x in values} == {WeylElement, FormWeyl, FiberwiseCochain,
                                          WeylCochain}
    assert {type(c) for x in values if type(x) is WeylElement
            for c in x.terms.values()} == {XPoly, Fraction}
    assert any(x.is_zero() for x in values)
    powers = {key[1] if isinstance(x, (FormWeyl, FiberwiseCochain)) else key[0]
              for x in values for key in x.terms}
    assert min(powers) <= -3 and max(powers) >= 1


# -- the copy ---------------------------------------------------------------

@pytest.mark.parametrize("seed,kind", _cases(EMPTY))
def test_empty_matches_the_per_type_body(seed, kind):
    for x in _of(kind, seed):
        assert _state(x._empty()) == _state(EMPTY[kind](x))


@pytest.mark.parametrize("seed,kind", _cases(EMPTY))
def test_with_keeps_every_header_slot(seed, kind):
    for x in _of(kind, seed):
        terms = dict(list(x.terms.items())[:1])
        typ, state = _state(x._with(terms))
        assert typ is type(x) and state.pop("terms") is terms
        assert state == {k: v for k, v in _state(x)[1].items() if k != "terms"}


def test_cochain_copies_keep_the_cap():
    P = FiberwiseCochain(DIM, ORDER, 1, {((), 0, (1, 0), ((0, 1),)): XPoly.const(DIM, 1)},
                         cap=3)
    for Q in (P._empty(), P._with({}), -P, P.scale(2), P + P, P.hbar_shift(-1)):
        assert (Q.order, Q.arity, Q.cap) == (ORDER, 1, 3)
    assert (P.truncate(4).order, P.truncate(4).cap) == (4, 3)
    assert (P.truncate(4, 5).order, P.truncate(4, 5).cap) == (4, 5)


# -- the equality -------------------------------------------------------------

def _eq_values(seed):
    """Every seeded value, a copy of each, and zeros of two dims."""
    values = (_values(_graded_values(seed) + _other_values(seed))
              + _zeros_of_another_dim())
    return values + [x._with(dict(x.terms)) for x in values]


@pytest.mark.parametrize("seed", SEEDS)
def test_equality_matches_the_per_type_body_but_on_zeros_of_another_dim(seed):
    values = _eq_values(seed)
    assert {type(x) for x in values} == set(EQ)
    differ = set()
    for a in values:
        for b in values:
            if (a == b) != EQ[type(a)](a, b):
                differ.add(type(a))
                # the one change: zero values of different dims are unequal
                assert a.is_zero() and b.is_zero() and type(a) is type(b)
                assert a.dim != b.dim and EQ[type(a)](a, b) and a != b
    # every type whose body compared no dim
    assert differ == {FiberwiseCochain, GaugeOperator, BarChain, KoszulChain,
                      PsiElement, WeylCochain}


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_values_have_equal_hashes(seed):
    values = _eq_values(seed)
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b)


@pytest.mark.parametrize("seed", SEEDS)
def test_order_and_cap_are_not_compared(seed):
    for x in _values(_graded_values(seed)):
        for name in ("order", "cap"):
            if name in type(x).__slots__:
                y = x._with(x.terms)
                old = getattr(x, name)
                setattr(y, name, 3 if old is None else old + 3)
                assert x == y and hash(x) == hash(y) and repr(x) == repr(y)


def test_zeros_of_another_arity_or_degree_differ():
    assert FiberwiseCochain(DIM, ORDER, 1) != FiberwiseCochain(DIM, ORDER, 2)
    assert WeylCochain(DIM, 1) != WeylCochain(DIM, 2)
    assert BarChain(DIM, 1) != BarChain(DIM, 2)
    assert KoszulChain(DIM, 1) != KoszulChain(DIM, 2)
    assert FiberwiseCochain(DIM, ORDER, 1) == FiberwiseCochain(DIM, ORDER + 2, 1, cap=1)


def test_cochain_text_repr_shows_the_compared_header():
    """Unequal zero cochains read differently."""
    one, two = FiberwiseCochain(DIM, ORDER, 1), FiberwiseCochain(DIM, ORDER, 2)
    assert repr(one) == f"FiberwiseCochain(dim={DIM}, arity=1: 0)"
    assert repr(one) != repr(two)


def test_plain_repr_shows_the_compared_header():
    assert repr(BarChain(DIM, 1)) == "BarChain(dim=2, m=1, {})"
    assert repr(GaugeOperator(DIM)) == "GaugeOperator(dim=2, {})"


def test_weyl_text_is_the_same_over_both_rings():
    """A constant coefficient prints as it stands, an XPoly one monomial by
    monomial: the same element reads the same in both rings."""
    terms = {(-1, (1, 0)): Fraction(2), (0, (0, 0)): Fraction(-1, 2)}
    series = WeylElement(DIM, None, terms)
    section = WeylElement(DIM, ORDER, {key: XPoly.const(DIM, c) for key, c in terms.items()})
    assert repr(series) == repr(section) == "2 hbar^-1 y1 - 1/2"
    assert repr(WeylElement(DIM, None, {(-1, (0, 0)): Fraction(2)})) == "2 hbar^-1"


def test_y_derivative_is_the_same_over_both_rings():
    terms = {(0, (2, 1)): Fraction(3, 2), (-1, (1, 0)): Fraction(-2), (1, (0, 0)): Fraction(5)}
    series = WeylElement(DIM, None, terms)
    section = WeylElement(DIM, ORDER, {key: XPoly.const(DIM, c) for key, c in terms.items()})
    for alpha in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0)]:
        got = series.diff_y_multi(alpha).terms
        assert {key: XPoly.const(DIM, c) for key, c in got.items()} == \
            section.diff_y_multi(alpha).terms
    assert series.diff_y_multi((1, 0)).terms == {(0, (1, 1)): Fraction(3),
                                                 (-1, (0, 0)): Fraction(-2)}


# -- the filtration -----------------------------------------------------------

@pytest.mark.parametrize("seed,kind", _cases(TRUNCATE))
def test_truncate_matches_the_per_type_body(seed, kind):
    for x in _of(kind, seed):
        for n in (-4, -1, 0, 3, ORDER, ORDER + 2):
            assert _state(x.truncate(n)) == _state(TRUNCATE[kind](x, n))


@pytest.mark.parametrize("seed", SEEDS)
def test_an_element_of_w_clips_at_its_order(seed):
    for x in _of("WSeries", seed):
        for n in (-4, -1, 0, 3, ORDER):
            clipped = WeylElement(DIM, n, x.terms)
            assert clipped.order == n
            assert clipped.terms == _series_truncate(x, n).terms
        assert WeylElement(DIM, None, x.terms).terms == x.terms


@pytest.mark.parametrize("seed,kind", _cases(HBAR_SHIFT))
def test_hbar_shift_matches_the_per_type_body(seed, kind):
    for x in _of(kind, seed):
        for j in (-3, -1, 0, 1, 2):
            assert _state(x.hbar_shift(j)) == _state(HBAR_SHIFT[kind](x, j))


@pytest.mark.parametrize("seed,kind", _cases(IS_Y_FREE))
def test_is_y_free_matches_the_per_type_body(seed, kind):
    values = _of(kind, seed)
    assert any(IS_Y_FREE[kind](x) for x in values)
    for x in values:
        assert x.is_y_free() == IS_Y_FREE[kind](x)


@pytest.mark.parametrize("seed,kind", _cases(MIN_HBAR))
def test_min_hbar_matches_the_per_type_body(seed, kind):
    for x in _of(kind, seed):
        assert x.min_hbar() == MIN_HBAR[kind](x)


@pytest.mark.parametrize("seed,kind", _cases(FILTRATION_DEGREE))
def test_filtration_degree_matches_the_per_type_body(seed, kind):
    for x in _of(kind, seed):
        assert x.filtration_degree() == FILTRATION_DEGREE[kind](x)


@pytest.mark.parametrize("seed,kind", _cases(MIN_TERM_WEIGHT))
def test_filtration_degree_matches_min_term_weight_below_zero(seed, kind):
    for x in _of(kind, seed):
        # min_term_weight is the older name of the query on these types
        query = getattr(x, "filtration_degree", None) or x.min_term_weight
        assert min(0, query()) == min(0, MIN_TERM_WEIGHT[kind](x))


def test_weights_of_a_known_value():
    w = WeylElement(DIM, ORDER, {(-2, (1, 0)): XPoly.const(DIM, 1),
                                 (1, (0, 0)): XPoly.const(DIM, Fraction(1, 2))})
    assert w.filtration_degree() == -3 and w.min_hbar() == -2 and not w.is_y_free()
    assert w.truncate(-3).terms == {(-2, (1, 0)): XPoly.const(DIM, 1)}
    assert w.truncate(-4).is_zero() and w.truncate(-4).order == -4
    assert w.hbar_shift(3).terms == {(1, (1, 0)): XPoly.const(DIM, 1)}
