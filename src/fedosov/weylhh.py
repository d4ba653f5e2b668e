"""Hochschild cochain complex of the formal Weyl algebra at constant theta:
topological bar and Koszul resolutions, their contracting homotopies and
comparison maps, the reduced complex on anticommuting psi variables, the
induced cochain homotopy, and GL(2n, Q) transport.

Representations (all coefficients exact rationals):
  WeylElement {(hbar_exp, y_multidegree): Fraction}          element of W
  BarChain    {(hbar_exp, (p_1..p_{m+2})): Fraction}         element of B_m
  KoszulChain {(hbar_exp, p1, p2, C_subset): Fraction}       element of K_m
  PsiElement  {(hbar_exp, p, psi_subset): Fraction}          element of W[psi]
  WeylCochain {(hbar_exp, p, (alpha_1..alpha_q)): Fraction}  arity-q cochain

An element of W is the WeylElement of a chart with Fraction coefficients
in place of XPoly ones, its order None (no clip) unless a producer clips it
at the context's order; its y-free part is its value in C((hbar)).

Anticommuting indices (C, psi) are stored strictly increasing; left
derivatives and left multiplication fix all signs.  The bar differential
contracts every adjacent pair of tensor slots (the dual of the Hochschild
differential under the identification of cochains with bimodule maps on the
bar resolution); the homotopies insert a fresh constant first slot.

Chain arithmetic is exact and untruncated (all operations on finitely
generated chains are finite); cochain data is normalized to filtration
weight 2k + |p| <= order, which is exact for every evaluation at that
order.  Slot degree |alpha| is never truncated, as that would not commute
with the Hochschild differential; slot windows apply only to comparisons.

The cochain operations (insertion, cup, bracket, Hochschild d, evaluation,
reconstruction from values) run on the kernel of `cochains` with Fraction
coefficients: a WeylCochain is a fiberwise cochain with no dx part and
constant coefficients, and its Hochschild d reads mu of theta from the one
table of `cochains`.  The monomial product, cup and the Koszul homotopy run
on the Moyal pairing kernel of `weyl`.  Each of the five types declares its
key fields in KEY (the field names of io), and GL transport of every one of
them is the linear substitution of `weyl` over those fields, the one that
also transports forms and fiberwise cochains.  The four types defined here
take their linear structure, ==, hash and repr from poly.SparseTerms (equal
values share the dim, the m or arity where the type has one, and the
terms), and WeylCochain its filtration from poly.GradedTerms.
The dual maps evaluate a cochain only on monomial tuples, through a
MonomialEvaluator that lives for one call and indexes its slot groups by
their first slot, so that a tuple visits only the groups whose first slot
lies below its own.  On the tuple 1 (x) y^beta_1 .. y^beta_q (x) 1, nu and
rho are the generator images the context caches, and nu-hat and rho-hat
read those images in place.

Every map between the resolutions and W is a bimodule map, fixed by its
values on generators: _bimodule_terms is the one extension that multiplies
y-monomials into the outer tensor factors of those values, and skips a zero
value before any work.  lambda, nu, rho, both augmentations and both
evaluations (eval_on_bar, eval_psi_on_koszul) call it.  The t-integrals of
the Koszul homotopy depend on no theta and are kept in one module table.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf
from operator import le

from .cochains import (_bracket_terms, _eval_terms, _hochschild_terms, _insert_terms,
                       _reconstruct)
from .poly import GradedTerms, SparseTerms, XPoly, _acc, _mono_derivative, as_fraction
from .weyl import (WeylElement, _asymmetric_at, _matmul, _matrix_inverse, _pair_terms,
                   _pairing_levels, _subst_terms, _transpose, contract_index, prepend_index,
                   unit_vec, vec_add, vec_sub)

ZERO = Fraction(0)


def _zero(dim):
    return (0,) * dim


class WeylContext:
    """Constant antisymmetric theta^{ij} over Q, its inverse omega_{ij} with
    omega^{ik} omega_{kj} = delta^i_j, a truncation order, and the caches for
    the comparison-map recursions (safe to share: all results deterministic)."""

    def __init__(self, theta, order: int):
        self.dim = len(theta)
        self.theta = tuple(tuple(as_fraction(c) for c in row) for row in theta)
        if _asymmetric_at(self.theta, self.dim) is not None:
            raise ValueError("theta must be antisymmetric")
        self.theta_lower = _matrix_inverse(self.theta)
        self.order = order
        self._mono_cache = {}
        self._lambda_cache = {}
        self._nu_cache = {}
        self._rho_cache = {}

    @classmethod
    def standard(cls, dim: int, order: int) -> "WeylContext":
        theta = [[ZERO] * dim for _ in range(dim)]
        for b in range(dim // 2):
            theta[2 * b][2 * b + 1] = Fraction(1)
            theta[2 * b + 1][2 * b] = Fraction(-1)
        return cls(theta, order)

    def mono_product(self, p, q):
        """theta-Weyl product of monomials: y^p o y^q as
        {(extra_hbar, multidegree): Fraction}."""
        key = (p, q)
        hit = self._mono_cache.get(key)
        if hit is not None:
            return hit
        one = Fraction(1)
        terms = _pair_terms({(0, p, ()): one}, {(0, q, ()): one}, self.theta, inf)
        out = {(t, pq): c for (t, pq, _), c in terms.items()}
        self._mono_cache[key] = out
        return out


def _unit(dim) -> WeylElement:
    """1 in W, the value of both augmentations on 1 (x) 1."""
    return WeylElement(dim, None, {(0, _zero(dim)): Fraction(1)})


# ---------------------------------------------------------------------------
# bar resolution


class BarChain(SparseTerms):
    """Element of B_m = completed (m+2)-fold tensor power of W."""

    __slots__ = ("dim", "m", "terms")
    KEY = ("hbar", "copies")

    def __init__(self, dim, m, terms=None):
        self.dim = dim
        self.m = m
        self.terms = {key: c for key, c in (terms or {}).items() if c}
        if any(len(key[1]) != m + 2 for key in self.terms):
            raise ValueError("wrong number of tensor slots")

    @classmethod
    def interior(cls, dim, betas, c=1, k=0):
        """1 (x) y^{beta_1} (x) ... (x) y^{beta_q} (x) 1."""
        ps = (_zero(dim),) + tuple(tuple(b) for b in betas) + (_zero(dim),)
        return cls(dim, len(betas), {(k, ps): as_fraction(c)})


def bar_d(ctx: WeylContext, b: BarChain) -> BarChain:
    """Alternating sum of the Weyl products of every adjacent slot pair;
    the dual, under Hom(B, W), of the Hochschild differential."""
    if b.m < 1:
        raise ValueError("bar differential needs m >= 1")
    out = {}
    for (k, ps), c in b.terms.items():
        for pos in range(b.m + 1):
            sign = -1 if pos % 2 else 1
            for (t, merged), cp in ctx.mono_product(ps[pos], ps[pos + 1]).items():
                key = (k + t, ps[:pos] + (merged,) + ps[pos + 2:])
                _acc(out, key, c * cp * sign)
    return BarChain(b.dim, b.m - 1, out)


def bar_aug(ctx: WeylContext, b: BarChain) -> WeylElement:
    """Augmentation B_0 -> W: the bimodule map sending 1 (x) 1 to 1, that is
    the Weyl product of the two slots."""
    if b.m != 0:
        raise ValueError("augmentation lives on B_0")
    one = _unit(b.dim)
    return WeylElement(b.dim, None, _bimodule_terms(
        ctx, ((k, ps[0], one, ps[1], c) for (k, ps), c in b.terms.items())))


def bar_h(b) -> BarChain:
    """Contracting homotopy: insert a fresh constant first slot.  Accepts a
    BarChain (B_{m-1} -> B_m) or a WeylElement (W -> B_0)."""
    if isinstance(b, WeylElement):
        return BarChain(b.dim, 0,
                        {(k, (_zero(b.dim), p)): c for (k, p), c in b.terms.items()})
    out = {}
    for (k, ps), c in b.terms.items():
        out[(k, (_zero(b.dim),) + ps)] = c
    return BarChain(b.dim, b.m + 1, out)


# ---------------------------------------------------------------------------
# Koszul resolution


class KoszulChain(SparseTerms):
    """Element of K_m: {(hbar_exp, p1, p2, C_subset): Fraction} with the
    C indices 1-based, strictly increasing."""

    __slots__ = ("dim", "m", "terms")
    KEY = ("hbar", "y1", "y2", "C")

    def __init__(self, dim, m, terms=None):
        self.dim = dim
        self.m = m
        self.terms = {key: c for key, c in (terms or {}).items() if c}
        if any(len(key[3]) != m for key in self.terms):
            raise ValueError("wrong Koszul degree")

    @classmethod
    def generator(cls, dim, T, c=1):
        return cls(dim, len(T), {(0, _zero(dim), _zero(dim), tuple(T)): as_fraction(c)})


def koszul_d(ctx: WeylContext, a: KoszulChain) -> KoszulChain:
    """(y1^i - y2^i) d/dC^i - (hbar/2) theta^{ij} d/dC^i (d/dy1^j + d/dy2^j),
    with left C-derivatives.

    This is multiplication by y^i on the two inner tensor positions (right
    Weyl multiplication on the first factor minus left multiplication on the
    second), the unique reading that commutes with the outer bimodule action
    and whose augmented complex is contracted by the stated homotopy: the
    Moyal kernel exp((hbar/2) theta d1 d2) conjugates it to the classical
    Koszul differential (y1 - y2) d/dC."""
    if a.m < 1:
        raise ValueError("Koszul differential needs m >= 1")
    dim = a.dim
    out = {}
    for (k, p1, p2, T), c in a.terms.items():
        for idx in T:
            sign, T2 = contract_index(idx, T)
            cc = c * sign
            i = idx - 1
            _acc(out, (k, vec_add(p1, unit_vec(dim, idx)), p2, T2), cc)
            _acc(out, (k, p1, vec_add(p2, unit_vec(dim, idx)), T2), -cc)
            for j in range(dim):
                th = ctx.theta[i][j]
                if not th:
                    continue
                if p1[j]:
                    _acc(out, (k + 1, vec_sub(p1, unit_vec(dim, j + 1)), p2, T2),
                         -cc * th * Fraction(p1[j], 2))
                if p2[j]:
                    _acc(out, (k + 1, p1, vec_sub(p2, unit_vec(dim, j + 1)), T2),
                         -cc * th * Fraction(p2[j], 2))
    return KoszulChain(dim, a.m - 1, out)


def koszul_aug(ctx: WeylContext, a: KoszulChain) -> WeylElement:
    """Augmentation K_0 = W (x) W^op -> W: the bimodule map sending 1 (x) 1
    to 1, that is the Weyl product of the factors."""
    if a.m != 0:
        raise ValueError("augmentation lives on K_0")
    one = _unit(a.dim)
    return WeylElement(a.dim, None, _bimodule_terms(
        ctx, ((k, p1, one, p2, c) for (k, p1, p2, _), c in a.terms.items())))


def koszul_h(ctx: WeylContext, a) -> KoszulChain:
    """Contracting homotopy of the augmented Koszul complex:

    h(a) = C^k  int_0^1 dt (D_{-t} D d/dy1^k a)(hbar, y2 + t(y1-y2), y2, tC)

    with D = exp((hbar/2) theta^{ij} d/dy1^i d/dy2^j); the t-integral is the
    exact per-monomial division.  Accepts a KoszulChain or a WeylElement (the
    W -> K_0 insertion w |-> w(y2))."""
    if isinstance(a, WeylElement):
        return KoszulChain(a.dim, 0,
                           {(k, _zero(a.dim), p, ()): c for (k, p), c in a.terms.items()})
    dim = a.dim
    out = {}
    for (k, p1, p2, T), c in a.terms.items():
        tpow_T = len(T)
        for kc in range(dim):
            if not p1[kc]:
                continue
            ins = prepend_index(kc + 1, T)
            if ins is None:
                continue
            csign, T2 = ins
            c0 = c * csign * p1[kc]
            p1a = vec_sub(p1, unit_vec(dim, kc + 1))
            # D_{-t} D = exp((hbar (1-t)/2) theta^{ij} d/dy1^i d/dy2^j):
            # the s-th pairing order carries (1-t)^s = sum_w C(s,w) (-t)^w
            _, levels = _pairing_levels({(k, p1a, ()): c0}, {(0, p2, ()): 1},
                                        ctx.theta, inf)
            for s, den, state in levels:
                for (ks, pb1, _, pb2, _, _), cs in state.items():
                    for w in range(s + 1):
                        cw = Fraction(cs * comb(s, w) * (-1 if w % 2 else 1), den)
                        _collect_subst(out, ks, pb1, pb2, T2, cw, w + tpow_T)
    return KoszulChain(dim, a.m + 1, out)


_SUBST_CACHE = {}


def _collect_subst(out, k, p1, p2, T, coeff, base_tpow):
    """Substitute y1 -> y2 + t(y1 - y2) in y1^{p1}, integrate t^base_tpow dt
    over [0, 1] exactly, and accumulate the results.  The expansion of each
    (p1, base_tpow), as (v, p1 - v, coefficient of y1^v y2^{p1 - v}), is
    computed once and kept in a module table."""
    key = (p1, base_tpow)
    table = _SUBST_CACHE.get(key)
    if table is None:
        # per coordinate: (y2 + t(y1-y2))^{p} =
        #   sum_{v <= u <= p} C(p,u) C(u,v) (-1)^{u-v} t^u y1^v y2^{p-v}
        combos = [((), 0, 1)]  # (v-tuple, t-degree, coeff)
        for p in p1:
            combos = [(v_t + (v,), tdeg + u, cf * comb(p, u) * comb(u, v) * (-1) ** (u - v))
                      for v_t, tdeg, cf in combos for u in range(p + 1) for v in range(u + 1)]
        integrals = {}
        for v_t, tdeg, cf in combos:
            _acc(integrals, v_t, Fraction(cf, base_tpow + tdeg + 1))
        table = _SUBST_CACHE[key] = [(v_t, vec_sub(p1, v_t), c)
                                     for v_t, c in integrals.items()]
    for v_t, rest, c in table:
        _acc(out, (k, v_t, vec_add(p2, rest), T), coeff * c)


# ---------------------------------------------------------------------------
# comparison maps lambda, nu and the homotopy rho


# each type's term key as (hbar_exp, tensor factors, rest) and back; an
# element of W has one tensor factor, so both outer actions multiply it
_FACTORS = {
    WeylElement: (lambda key: (key[0], key[1:], ()), lambda k, ps, rest: (k,) + ps),
    BarChain: (lambda key: (key[0], key[1], ()), lambda k, ps, rest: (k, ps)),
    KoszulChain: (lambda key: (key[0], key[1:3], key[3]),
                  lambda k, ps, rest: (k,) + ps + (rest,)),
}


def _bimodule_terms(ctx: WeylContext, items):
    """The bimodule extension: the term dict of the sum of
    hbar^k c  y^left o val o y^right  over items (k, left, val, right, c),
    val a BarChain, KoszulChain or WeylElement.  y^left multiplies val's first
    tensor factor and y^right its last; a zero exponent multiplies nothing."""
    out = {}
    for k, left, val, right, c in items:
        if not val.terms:
            continue
        split, join = _FACTORS[type(val)]
        terms = {}
        for key, cv in val.terms.items():
            kv, ps, rest = split(key)
            terms[(kv + k, ps, rest)] = cv * c
        if any(left):
            acted = {}
            for (kv, ps, rest), cv in terms.items():
                for (t, p), cp in ctx.mono_product(left, ps[0]).items():
                    _acc(acted, (kv + t, (p,) + ps[1:], rest), cv * cp)
            terms = acted
        if any(right):
            acted = {}
            for (kv, ps, rest), cv in terms.items():
                for (t, p), cp in ctx.mono_product(ps[-1], right).items():
                    _acc(acted, (kv + t, ps[:-1] + (p,), rest), cv * cp)
            terms = acted
        for (kv, ps, rest), cv in terms.items():
            _acc(out, join(kv, ps, rest), cv)
    return out


def koszul_to_bar(ctx: WeylContext, a: KoszulChain) -> BarChain:
    """lambda: identity on K_0, lambda(C^T) = h_B(lambda(d C^T)) on the
    C-monomial generators, extended as a bimodule map."""
    return BarChain(ctx.dim, a.m)._with(_bimodule_terms(ctx, (
        (k, p1, _lambda_gen(ctx, T), p2, c) for (k, p1, p2, T), c in a.terms.items())))


def _lambda_gen(ctx: WeylContext, T) -> BarChain:
    hit = ctx._lambda_cache.get(T)
    if hit is not None:
        return hit
    if not T:
        out = BarChain(ctx.dim, 0, {(0, (_zero(ctx.dim), _zero(ctx.dim))): Fraction(1)})
    else:
        out = bar_h(koszul_to_bar(ctx, koszul_d(ctx, KoszulChain.generator(ctx.dim, T))))
    ctx._lambda_cache[T] = out
    return out


def bar_to_koszul(ctx: WeylContext, b: BarChain) -> KoszulChain:
    """nu: identity on B_0, nu(g) = h_K(nu(bar_d g)) on interior monomial
    generators (unit first and last slots), extended as a bimodule map."""
    return KoszulChain(ctx.dim, b.m)._with(_bimodule_terms(ctx, (
        (k, ps[0], _nu_gen(ctx, ps[1:-1]), ps[-1], c) for (k, ps), c in b.terms.items())))


def _nu_gen(ctx: WeylContext, betas) -> KoszulChain:
    if not betas:
        return KoszulChain(ctx.dim, 0, {(0, _zero(ctx.dim), _zero(ctx.dim), ()): Fraction(1)})
    hit = ctx._nu_cache.get(betas)
    if hit is not None:
        return hit
    g = BarChain.interior(ctx.dim, betas)
    out = koszul_h(ctx, bar_to_koszul(ctx, bar_d(ctx, g)))
    ctx._nu_cache[betas] = out
    return out


def bar_homotopy(ctx: WeylContext, b: BarChain) -> BarChain:
    """rho: zero on B_0, rho(g) = h_B((id - lambda nu) g) - h_B(rho(bar_d g))
    on interior generators, extended as a bimodule map; satisfies
    b - lambda(nu(b)) = bar_d(rho(b)) + rho(bar_d(b))."""
    return BarChain(ctx.dim, b.m + 1)._with(_bimodule_terms(ctx, (
        (k, ps[0], _rho_gen(ctx, ps[1:-1]), ps[-1], c) for (k, ps), c in b.terms.items())))


def _rho_gen(ctx: WeylContext, betas) -> BarChain:
    if not betas:
        return BarChain(ctx.dim, 1)
    hit = ctx._rho_cache.get(betas)
    if hit is not None:
        return hit
    g = BarChain.interior(ctx.dim, betas)
    stage = g - koszul_to_bar(ctx, bar_to_koszul(ctx, g))
    out = bar_h(stage) - bar_h(bar_homotopy(ctx, bar_d(ctx, g)))
    ctx._rho_cache[betas] = out
    return out


# ---------------------------------------------------------------------------
# the reduced complex W[psi]


class PsiElement(SparseTerms):
    """Element of W[psi_1..psi_{2n}]: {(hbar_exp, p, psi_subset): Fraction}."""

    __slots__ = ("dim", "terms")
    KEY = ("hbar", "ydeg", "psi")

    def __init__(self, dim, terms=None):
        self.dim = dim
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    def constant_part(self) -> WeylElement:
        """Terms with y = psi = 0, as a y-free element of W."""
        z = _zero(self.dim)
        return WeylElement(self.dim, None, {(k, p): c for (k, p, T), c in self.terms.items()
                                            if p == z and not T})


def psi_d(ctx: WeylContext, a: PsiElement) -> PsiElement:
    """hbar psi_i omega^{ij} d/dy^j with left psi multiplication;
    omega^{ij} = theta^{ij}."""
    dim = a.dim
    out = {}
    for (k, p, T), c in a.terms.items():
        for i in range(dim):
            ins = prepend_index(i + 1, T)
            if ins is None:
                continue
            sign, T2 = ins
            for j in range(dim):
                th = ctx.theta[i][j]
                if not th or not p[j]:
                    continue
                _acc(out, (k + 1, vec_sub(p, unit_vec(dim, j + 1)), T2),
                     c * sign * th * p[j])
    return PsiElement(dim, out)


def psi_h(ctx: WeylContext, a: PsiElement) -> PsiElement:
    """(1/hbar) int_0^1 dt  y^i omega_{ij} (d/dpsi_j a)(hbar, ty, t psi),
    the exact per-monomial partial homotopy: a = a|_{y=psi=0}
    + (psi_d psi_h + psi_h psi_d) a."""
    dim = a.dim
    out = {}
    for (k, p, T), c in a.terms.items():
        deg = sum(p) + len(T)  # t-degree after removing one psi and adding one y
        for j in T:
            sign, T2 = contract_index(j, T)
            for i in range(dim):
                om = ctx.theta_lower[i][j - 1]
                if not om:
                    continue
                _acc(out, (k - 1, vec_add(p, unit_vec(dim, i + 1)), T2),
                     c * sign * om * Fraction(1, deg))
    return PsiElement(dim, out)


# ---------------------------------------------------------------------------
# Weyl cochains


class WeylCochain(GradedTerms):
    """Arity-q continuous cochain of W in its unique polydifferential form:
    {(hbar_exp, y_multidegree, (alpha_1..alpha_q)): Fraction}; evaluation is
    c y^p (d^{alpha_1} a_1) ... (d^{alpha_q} a_q) with commutative products
    of the resulting series."""

    __slots__ = ("dim", "arity", "terms")
    KEY = ("hbar", "ydeg", "slots")

    def __init__(self, dim, arity, terms=None, order=None):
        self.dim = dim
        self.arity = arity
        terms = terms or {}
        if any(len(key[2]) != arity for key, c in terms.items() if c):
            raise ValueError("wrong arity")
        self.terms = self._clip(terms, order)

    def as_wseries(self) -> WeylElement:
        """The arity-0 cochain as the element of W it multiplies by."""
        if self.arity != 0:
            raise ValueError("not an arity-0 cochain")
        return WeylElement(self.dim, None, {(k, p): c for (k, p, _), c in self.terms.items()})

    # the weight window of a comparison, under the name its callers use
    normalize = GradedTerms.truncate

    def restrict(self, cap):
        """Keep terms with every |alpha_s| <= cap (window comparison)."""
        return self._with({key: c for key, c in self.terms.items()
                           if all(sum(al) <= cap for al in key[2])})

    def eval(self, args, order=None) -> WeylElement:
        """Evaluate on elements of W."""
        if len(args) != self.arity:
            raise ValueError("arity mismatch")
        return WeylElement(self.dim, order, _eval_terms(self.terms, [a.terms for a in args]))


def cochain_insert(P1: WeylCochain, i: int, P2: WeylCochain) -> WeylCochain:
    """Insert P2 into slot i (0-based) of P1: the slot derivative
    distributes multinomially over P2's y-part and slots."""
    return WeylCochain(P1.dim, P1.arity + P2.arity - 1,
                       _insert_terms(P1.terms, i, P2.terms, inf))


def cochain_cup(ctx: WeylContext, P1: WeylCochain, P2: WeylCochain) -> WeylCochain:
    """(P1 cup P2)(a..) = P1(first) o P2(rest): Weyl-pair the y-parts and
    slots of the two factors.  Pairing steps that can only produce terms
    beyond the context's order are dropped (that is exact at the order)."""
    out = _pair_terms(P1.terms, P2.terms, ctx.theta, ctx.order)
    return WeylCochain(ctx.dim, P1.arity + P2.arity, out, ctx.order)


def hh_hochschild_d(ctx: WeylContext, a: WeylCochain, order=None) -> WeylCochain:
    """Hochschild differential on C^q(W):
    (dPhi)(a_1..a_{q+1}) = a_1 o Phi(a_2..) - Phi(a_1 o a_2, ..) + ...
    + (-)^q Phi(a_1, .., a_q o a_{q+1}) + (-)^{q+1} Phi(a_1..a_q) o a_{q+1}."""
    order = ctx.order if order is None else order
    out = _hochschild_terms(a.terms, a.arity, ctx.theta, order)
    return WeylCochain(ctx.dim, a.arity + 1, out, order)


def gerstenhaber_w(P1: WeylCochain, P2: WeylCochain) -> WeylCochain:
    """[P1, P2]_G = sum_i (-)^{i k2'} P1 o_i P2 - (-)^{k1' k2'} (1 <-> 2)
    with k' = arity - 1."""
    return WeylCochain(P1.dim, P1.arity + P2.arity - 1,
                       _bracket_terms(P1.terms, P1.arity, P2.terms, P2.arity))


# ---------------------------------------------------------------------------
# dualization: cochains against the resolutions


class MonomialEvaluator:
    """The values of one WeylCochain on tuples of y-monomial exponents,
    each tuple evaluated once.  The dual maps create one per call and drop
    it on return, so no value outlives the call or is shared."""

    __slots__ = ("dim", "arity", "_by_first", "_values")

    def __init__(self, a: WeylCochain):
        self.dim = a.dim
        self.arity = a.arity
        # {alpha_1: {(alpha_1..alpha_q): [(k, p, c)]}}, () for arity 0
        self._by_first = {}
        for (k, p, alphas), c in a.terms.items():
            groups = self._by_first.setdefault(alphas[0] if alphas else (), {})
            groups.setdefault(alphas, []).append((k, p, c))
        self._values = {}

    def __call__(self, betas) -> WeylElement:
        """a(y^{beta_1}, .., y^{beta_q}): each term with every
        alpha_s <= beta_s, times prod_s beta_s!/(beta_s - alpha_s)!."""
        hit = self._values.get(betas)
        if hit is not None:
            return hit
        out = {}
        first = betas[0] if betas else ()
        for sub, groups in self._by_first.items():
            if not all(map(le, sub, first)):
                continue
            for alphas, terms in groups.items():
                f, shift = 1, _zero(self.dim)
                for al, be in zip(alphas, betas):
                    d = _mono_derivative(al, be)
                    if d is None:
                        break
                    f *= d[0]
                    shift = vec_add(shift, d[1])
                else:
                    for k, p, c in terms:
                        _acc(out, (k, vec_add(p, shift)), c * f)
        hit = self._values[betas] = WeylElement(self.dim, None, out)
        return hit


def _evaluator(a) -> MonomialEvaluator:
    return a if isinstance(a, MonomialEvaluator) else MonomialEvaluator(a)


def eval_on_bar(ctx: WeylContext, a, b: BarChain, order=None) -> WeylElement:
    """The bimodule map Hom(B_q, W) attached to a (a WeylCochain or its
    MonomialEvaluator), evaluated on b:
    hbar^k y^{p_1} o a(middle slots) o y^{p_{q+2}}."""
    a = _evaluator(a)
    if b.m != a.arity:
        raise ValueError("bar degree must match cochain arity")
    terms = _bimodule_terms(ctx, ((k, ps[0], a(ps[1:-1]), ps[-1], c)
                                  for (k, ps), c in b.terms.items()))
    return WeylElement(ctx.dim, ctx.order if order is None else order, terms)


def eval_psi_on_koszul(ctx: WeylContext, f: PsiElement, kappa: KoszulChain,
                       order=None) -> WeylElement:
    """Evaluate f in W[psi] = Hom(K, W) on a Koszul chain:
    f(hbar^k y^{p1} y^{p2} C^T) = hbar^k y^{p1} o w_T o y^{p2}."""
    coeffs = {}
    for (k, p, T), c in f.terms.items():
        coeffs.setdefault(T, {})[(k, p)] = c
    w = {T: WeylElement(ctx.dim, None, terms) for T, terms in coeffs.items()}
    terms = _bimodule_terms(ctx, ((k, p1, w[T], p2, c)
                                  for (k, p1, p2, T), c in kappa.terms.items() if T in w))
    return WeylElement(ctx.dim, ctx.order if order is None else order, terms)


def lambda_hat(ctx: WeylContext, a, order=None) -> PsiElement:
    """Precompose with lambda: sum over |T| = arity of Phi_a(lambda(C^T)) psi_T.
    a is a WeylCochain or its MonomialEvaluator."""
    a = _evaluator(a)
    out = {}
    for T in _subsets(ctx.dim, a.arity):
        chain = _lambda_gen(ctx, T)
        val = eval_on_bar(ctx, a, chain, order)
        for (k, p), c in val.terms.items():
            _acc(out, (k, p, T), c)
    return PsiElement(ctx.dim, out)


def _subsets(dim, size=None):
    """The increasing subsets of {1..dim} of the given size, or of every size
    by increasing size."""
    from itertools import combinations

    sizes = range(dim + 1) if size is None else (size,)
    return [c for q in sizes for c in combinations(range(1, dim + 1), q)]


def cochain_from_values(ctx: WeylContext, fn, arity, rec_cap, order=None) -> WeylCochain:
    """Reconstruct the unique polydifferential form of a polylinear map from
    its values on monomial argument tuples, triangularly by total slot
    degree; exact for slot multidegrees within rec_cap."""
    order = ctx.order if order is None else order

    def shift(key, c, e, f):
        return (key[0], vec_add(key[1], e)), c * f

    data = _reconstruct(ctx.dim, arity, rec_cap, order, lambda bt: fn(bt).terms, shift)
    return WeylCochain(ctx.dim, arity, {(k, p, bt): c for bt, entry in data.items()
                                        for (k, p), c in entry.items()})


def nu_hat(ctx: WeylContext, f: PsiElement, arity, rec_cap, order=None) -> WeylCochain:
    """Precompose with nu: the cochain with values f(nu(1 (x) args (x) 1))."""

    def fn(betas):
        return eval_psi_on_koszul(ctx, f, _nu_gen(ctx, betas), order)

    return cochain_from_values(ctx, fn, arity, rec_cap, order)


def rho_hat(ctx: WeylContext, a, rec_cap, order=None) -> WeylCochain:
    """Precompose with rho: arity drops by one.  a is a WeylCochain or its
    MonomialEvaluator."""
    a = _evaluator(a)

    def fn(betas):
        return eval_on_bar(ctx, a, _rho_gen(ctx, betas), order)

    return cochain_from_values(ctx, fn, a.arity - 1, rec_cap, order)


def cochain_homotopy(ctx: WeylContext, a: WeylCochain, rec_cap, order=None) -> WeylCochain:
    """chi(a) = nu_hat(psi_h(lambda_hat(a))) + rho_hat(a) for arity >= 1;
    satisfies a = (d chi + chi d) a."""
    if a.arity < 1:
        raise ValueError("the homotopy needs arity >= 1")
    ev = MonomialEvaluator(a)
    f = psi_h(ctx, lambda_hat(ctx, ev, order))
    part1 = nu_hat(ctx, f, a.arity - 1, rec_cap, order)
    part2 = rho_hat(ctx, ev, rec_cap, order)
    return part1 + part2


def hh_reduce(ctx: WeylContext, a: WeylCochain, rec_cap=None):
    """For a cocycle: arity 0 -> its central value in C((hbar)), a y-free
    element of W; arity >= 1 -> an exactness witness chi(a) with
    d chi(a) = a."""
    d = hh_hochschild_d(ctx, a)
    if not d.is_zero():
        raise ValueError("input is not a Hochschild cocycle")
    if a.arity == 0:
        w = a.as_wseries()
        if not w.is_y_free():
            raise ValueError("series has y-dependence")
        return w
    rec_cap = ctx.order if rec_cap is None else rec_cap
    return cochain_homotopy(ctx, a, rec_cap)


# ---------------------------------------------------------------------------
# GL(2n, Q) transport


def gl_push_theta(g, theta):
    """theta' = g theta g^T."""
    return tuple(map(tuple, _matmul(_matmul(g, theta), _transpose(g))))


def gl_transport_context(ctx: WeylContext, g) -> WeylContext:
    return WeylContext(gl_push_theta(g, ctx.theta), ctx.order)


def gl_transport(ctx: WeylContext, g, obj):
    """Push an object of W_theta along g in GL(2n, Q) to W_{g theta g^T}
    by the substitution of its key fields (weyl._subst_terms): y-variables
    by g^{-1} in every copy, C like y, psi (dual to C) and the slots
    contravariantly by g^T; functorial in g.  A WeylCochain is normalized
    at ctx.order, which drops exactly what the order drops from its values.
    A WeylElement with XPoly coefficients is a chart's section, not an
    element of W (cochains.transport_weyl moves its x too)."""
    chart_section = isinstance(obj, WeylElement) and any(
        c.__class__ is XPoly for c in obj.terms.values())
    if chart_section or not isinstance(
            obj, (WeylElement, BarChain, KoszulChain, PsiElement, WeylCochain)):
        raise TypeError(f"cannot transport {type(obj).__name__}")
    out = obj._with(_subst_terms(obj.KEY, obj.terms, _matrix_inverse(g), _transpose(g)))
    return out.normalize(ctx.order) if isinstance(obj, WeylCochain) else out
