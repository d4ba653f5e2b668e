"""Form-valued fiberwise Hochschild cochains over a symplectic chart: the
double complex carrying the fiberwise Hochschild differential and the
extended Fedosov differential, with cup product, Gerstenhaber bracket, the
embedding of scalar forms, the lift of delta-closed cochains to D-closed
ones, projection to local polydifferential operators, and exactness
witnesses in positive exterior degree.

Data layout: a cochain of arity k is {(S, m, p, (alpha_1..alpha_k)): XPoly}
with S the increasing dx subset, m the hbar power, p the y-multidegree and
alpha_s the slot derivative multidegrees.  Evaluation on arguments
a_1..a_k produces  dx^S c(x) y^p (d^{alpha_1}a_1)...(d^{alpha_k}a_k)  with
commutative products of the resulting y-series and argument dx blocks
wedged after dx^S in slot order.  Terms are truncated at filtration weight
2m + |p| <= order, never by slot degree: inserting a cochain splits a
slot's alpha over the inserted slots, so a slot truncation would not
commute with the Hochschild differential.

The cochain algebra itself (insertion, cup, product cochain, Hochschild d,
evaluation, triangular reconstruction) is one kernel over dx-free term
dicts {(m, p, alphas): coeff}.  It touches coefficients only through *, +,
unary - and truth value, so the same lines run with XPoly coefficients here
and with Fraction coefficients for the constant-theta complex of `weylhh`.
Cochain operations here group terms by dx subset, call the kernel per block
or block pair, and wedge the dx blocks in front.  Cup and the product
cochain (id cup id) run on the Moyal pairing kernel of `weyl`.

A form is an arity-0 cochain, and the cochain terms above are the term
dicts of `weyl`: a FormWeyl stores the same flat dict with alphas = (),
which from_form, to_form and cochain_eval read and write directly (its
components are a derived view).  delta, delta_inv, sigma, nabla, the
dx-block wedge around the pairing kernel (cup) and linear substitution
(transport) are the kernels that also run the form operators there, so
moyal_product is exactly arity-0 cup.  FiberwiseCochain takes its linear
structure and its filtration from poly.GradedTerms; its sum goes through
the constructor, whose single pass checks the arity of every nonzero term.

Sign conventions (pinned by the identity suite, see the module tests):
  * insertions wedge dx^{S_1} dx^{S_2} with no extra sign,
  * the Gerstenhaber bracket uses the shifted-arity signs only; with these
    conventions graded antisymmetry holds at every exterior degree, but the
    graded Jacobi identity does not: for A of arity 2 and exterior degree 0
    with B and C of arity 1 and exterior degree 1 it fails for some triples
    in the exterior-degree-2 component, and neither global sign dressing
    repairs it,
  * the cup-derivation rule picks up the exterior degrees:
    d(A cup B) = (-)^{q_B} dA cup B + (-)^{k_A + q_A} A cup dB,
  * the bracket-derivation rule takes the dressing forced by the bracket
    form of d and the Jacobi identity,
    d[A,B] = (-)^{k_B - 1}[dA,B] + [A,dB]  (dx-free factors),
    which is the usual rule written for the transposed bracket; for two
    factors both of odd exterior degree no global sign dressing makes it
    hold in this convention,
  * the Hochschild differential carries the (-1)^q exterior prefactor,
    equivalently d P = (-1)^{q+k+1} [mult, P]_G on each exterior component;
    this is the unique choice restricting the extended Fedosov differential
    on arity 0 to the plain one and anticommuting with it,
  * delta and nabla act on cochains as canonical extensions: componentwise
    on the (y, dx) data, with nabla additionally rotating slot indices
    through the Christoffel symbols.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from .poly import GradedTerms, XPoly, _acc, _add_terms, _mono_derivative
from .weyl import (FormWeyl, SymplecticChart, WeylElement, _blocks,
                   _delta_inv_terms, _delta_terms, _fiber_product, _form_blocks,
                   _nabla_terms, _pair_terms, _pairwise, _sigma_terms,
                   _subst_terms, _transpose, as_form, merge_subsets,
                   omega_matrix, sigma_project, vec_add)


class FiberwiseCochain(GradedTerms):
    """Form-valued fiberwise Hochschild cochain; arity 0 coincides with
    form-valued Weyl sections.  cap is a recorded value only (kept by the
    operations and written to the cochain JSON, which the benchmark's
    golden digests hash); no operation truncates by it."""

    __slots__ = ("dim", "order", "arity", "cap", "terms")
    KEY = FormWeyl.KEY

    def __init__(self, dim, order, arity, terms=None, cap=None):
        self.dim = dim
        self.order = order
        self.arity = arity
        self.cap = order if cap is None else cap
        clean = {}
        for key, c in (terms or {}).items():
            if c.is_zero():
                continue
            if len(key[3]) != arity:
                raise ValueError("wrong arity")
            if 2 * key[1] + sum(key[2]) <= order:
                clean[key] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim, order, arity, cap=None):
        return cls(dim, order, arity, None, cap)

    @classmethod
    def from_form(cls, w: FormWeyl, cap=None) -> "FiberwiseCochain":
        return cls(w.dim, w.order, 0, w.terms, cap)

    @classmethod
    def identity(cls, dim, order, cap=None) -> "FiberwiseCochain":
        zero = (0,) * dim
        return cls(dim, order, 1, {((), 0, zero, (zero,)): XPoly.const(dim, 1)}, cap)

    @classmethod
    def single_slot(cls, dim, order, alpha, cap=None) -> "FiberwiseCochain":
        """The 1-cochain a -> d^alpha a."""
        zero = (0,) * dim
        return cls(dim, order, 1, {((), 0, zero, (tuple(alpha),)): XPoly.const(dim, 1)}, cap)

    def to_form(self) -> FormWeyl:
        if self.arity != 0:
            raise ValueError("not an arity-0 cochain")
        return FormWeyl.from_terms(self.dim, self.order, self.terms)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        # through the constructor: a sum keeps self's order and arity
        return FiberwiseCochain(self.dim, self.order, self.arity,
                                super().__add__(other).terms,
                                max(self.cap, other.cap))

    def exterior_degrees(self):
        return sorted({len(S) for (S, _, _, _) in self.terms})

    def homogeneous_q(self, q):
        return self._with({k: c for k, c in self.terms.items() if len(k[0]) == q})

    def restrict_slots(self, cap):
        return self._with({k: c for k, c in self.terms.items()
                           if all(sum(al) <= cap for al in k[3])})

    def truncate(self, order, cap=None):
        out = super().truncate(order)
        if cap is not None:
            out.cap = cap
        return out

    def __eq__(self, other):
        return (isinstance(other, FiberwiseCochain)
                and self.arity == other.arity and self.terms == other.terms)

    def __repr__(self):
        from .io import cochain_slot_text
        bits = []
        for (S, m, p, alphas), c in sorted(self.terms.items()):
            slot = "|".join(cochain_slot_text(al) for al in alphas)
            bits.append(f"dx{S} hbar^{m} y{p} [{slot}] * ({c})")
        return "FiberwiseCochain(" + ("; ".join(bits) or "0") + ")"


# ---------------------------------------------------------------------------
# the cochain kernel on dx-free terms {(m, p, alphas): coeff}


def _eval_terms(terms, args):
    """Evaluate on arguments given as {(m, p): coeff}: the sum of
    c y^p (d^{alpha_1} a_1)...(d^{alpha_k} a_k) as {(m, p): coeff}."""
    out = {}
    for (m, p, alphas), c in terms.items():
        partial = {(m, p): c}
        for al, arg in zip(alphas, args):
            nxt = {}
            for (ka, pa), ca in arg.items():
                d = _mono_derivative(al, pa)
                if d is None:
                    continue
                f, rest = d
                for (mc, pc), cc in partial.items():
                    _acc(nxt, (mc + ka, vec_add(pc, rest)), cc * ca * f)
            partial = nxt
            if not partial:
                break
        _add_terms(out, partial)
    return out


_SPLIT_CACHE = {}


def _slot_splits(alpha, nslots):
    """All ways the multi-index alpha distributes over a y-part and nslots
    inserted slots: tuples ((g0, g1..g_{nslots}), multinomial_factor)."""
    key = (alpha, nslots)
    hit = _SPLIT_CACHE.get(key)
    if hit is not None:
        return hit
    dim = len(alpha)
    splits = [((), 1)]
    for coord in range(dim):
        a = alpha[coord]
        nxt = []
        for parts, f in splits:
            for compn in _compositions(a, nslots + 1):
                nxt.append((parts + (compn,), f * _multinomial(a, compn)))
        splits = nxt
    out = []
    for parts, f in splits:
        pieces = tuple(tuple(parts[c][s] for c in range(dim))
                       for s in range(nslots + 1))
        out.append((pieces, f))
    _SPLIT_CACHE[key] = out
    return out


def _insert_terms(terms1, i, terms2, order):
    """Insert P2 into slot i (0-based) of P1: the slot derivative
    distributes multinomially over P2's y-part and slots.  Only terms of
    weight <= order are built.

    A term pair (m1, p1, alpha_1..) (x) (m2, p2, slots) and a split of
    alpha = alpha_i into g0 (to the y-part) and g1..gn (to the slots)
    give one output term, of weight w - |g0| with
    w = 2(m1 + m2) + |p1| + |p2|: d^{g0} y^{p2} lowers |p2| by |g0| and
    nothing else moves the weight.  So a split with w - |g0| > order is
    skipped before its derivative, slots or coefficient are formed, a
    pair is skipped when even the largest |g0| = min(|alpha|, |p2|) is
    not enough, and c1 c2 is formed once per pair, only when some split
    survives.  This is exact: the weight is a function of the output key,
    so a skipped term never shares a key with a kept one, and every caller
    truncates the result at the order it passes."""
    out = {}
    for (m1, p1, al1), c1 in terms1.items():
        alpha = al1[i]
        asize = sum(alpha)
        head, tail = al1[:i], al1[i + 1:]
        w1 = 2 * m1 + sum(p1)
        for (m2, p2, al2), c2 in terms2.items():
            w = w1 + 2 * m2 + sum(p2)
            if w - min(asize, sum(p2)) > order:
                continue
            base = None
            for pieces, f in _slot_splits(alpha, len(al2)):
                if w - sum(pieces[0]) > order:
                    continue
                d = _mono_derivative(pieces[0], p2)
                if d is None:
                    continue
                if base is None:
                    base = c1 * c2
                f *= d[0]
                key = (m1 + m2, vec_add(p1, d[1]),
                       head + tuple(map(vec_add, al2, pieces[1:])) + tail)
                _acc(out, key, base if f == 1 else base * f)
    return out


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def _multinomial(total, compn):
    out = 1
    rem = total
    for c in compn:
        out *= comb(rem, c)
        rem -= c
    return out


def _bracket(ins, P1, P2, zero):
    """[P1, P2]_G = sum_i (-)^{i k2'} P1 o_i P2 - (-)^{k1' k2'} (1 <-> 2),
    k' = arity - 1, for cochains of one type with its insertion ins and
    the zero of the bracket's arity."""
    k1, k2 = P1.arity - 1, P2.arity - 1
    out = zero
    for i in range(P1.arity):
        term = ins(P1, i, P2)
        out = out - term if (i * k2) % 2 else out + term
    for j in range(P2.arity):
        term = ins(P2, j, P1)
        out = out - term if (k1 * k2 + j * k1) % 2 == 0 else out + term
    return out


def _hochschild_terms(terms, k, mu, order):
    """Hochschild differential of arity-k terms, mu the product cochain:
    (d P)(a_1..a_{k+1}) = a_1 o P(a_2..) - P(a_1 o a_2, ..) + ...
    + (-)^k P(a_1, .., a_k o a_{k+1}) + (-)^{k+1} P(a_1..a_k) o a_{k+1}."""
    out = _insert_terms(mu, 1, terms, order)
    _add_terms(out, _insert_terms(mu, 0, terms, order), (-1) ** (k + 1))
    for j in range(k):
        _add_terms(out, _insert_terms(terms, j, mu, order), (-1) ** (j + 1))
    return out


def _reconstruct(dim, arity, max_deg, order, values, shift):
    """The unique polydifferential form of a polylinear map, triangularly by
    total slot degree from its values on monomial argument tuples, exact for
    slot multidegrees up to max_deg: {(nu_1..nu_k): {(m, p): coeff}}, the
    coefficient of d^{nu_1}..d^{nu_k}.  values(nus) is the value on
    x^{nu_1}..x^{nu_k} as {(m, p): coeff}; shift(key, coeff, e, f) is
    where the known coefficient coeff at key lands, times the integer f, on
    a tuple with extra total exponent e."""
    degs = _multidegrees(dim, max_deg)
    tuples = [()]
    for _ in range(arity):
        tuples = [t + (d,) for t in tuples for d in degs]
    tuples.sort(key=lambda bt: (sum(sum(b) for b in bt), bt))
    data = {}
    for nt in tuples:
        acc = dict(values(nt))
        # subtract the contributions of known coefficients with mu <= nu
        for mus, coeff in data.items():
            f = 1
            extra = (0,) * dim
            for mu, nu in zip(mus, nt):
                d = _mono_derivative(mu, nu)
                if d is None:
                    break
                f *= d[0]
                extra = vec_add(extra, d[1])
            else:
                for key, c in coeff.items():
                    key2, c2 = shift(key, c, extra, f)
                    _acc(acc, key2, -c2)
        fact = 1  # d^nu x^nu = nu!, the diagonal of the triangular system
        for nu in nt:
            fact *= _mono_derivative(nu, nu)[0]
        entry = {key: c * Fraction(1, fact) for key, c in acc.items()
                 if 2 * key[0] + sum(key[1]) <= order}
        if entry:
            data[nt] = entry
    return data


def _multidegrees(dim, max_total):
    out = [()]
    for _ in range(dim):
        out = [t + (e,) for t in out for e in range(max_total + 1)]
    return sorted((t for t in out if sum(t) <= max_total),
                  key=lambda t: (sum(t), t))


# ---------------------------------------------------------------------------
# the cochain algebra on dx blocks


def cochain_eval(P: FiberwiseCochain, args) -> FormWeyl:
    """Evaluate on WeylElement or FormWeyl arguments; argument dx blocks are
    wedged after the cochain's own dx^S in slot order."""
    if len(args) != P.arity:
        raise ValueError("arity mismatch")
    args = [_form_blocks(as_form(a).terms) for a in args]
    comps = {}
    for S, block in _blocks(P.terms).items():
        for Ts in product(*args):
            sign, S2 = 1, S
            for T in Ts:
                merged = merge_subsets(S2, T)
                if merged is None:
                    break
                sign *= merged[0]
                S2 = merged[1]
            else:
                vals = _eval_terms(block, [a[T] for a, T in zip(args, Ts)])
                for (m, p), c in vals.items():
                    _acc(comps, (S2, m, p, ()), c if sign > 0 else -c)
    return FormWeyl.from_terms(P.dim, P.order, comps)


def product_cochain(chart_or_theta, dim, order, t_max, cap=None) -> FiberwiseCochain:
    """The fiberwise multiplication as a 2-cochain, with Poisson pairings up
    to order t_max: id cup id, that is sum_t (hbar/2)^t/t!
    omega^{i1 j1}..omega^{it jt} d^t (x) d^t."""
    zero = (0,) * dim
    ident = {(0, zero, (zero,)): XPoly.const(dim, 1)}
    terms = _pair_terms(ident, ident, omega_matrix(chart_or_theta, dim),
                        min(order, 2 * t_max))
    return FiberwiseCochain(dim, order, 2, {((),) + k: c for k, c in terms.items()}, cap)


def cup(P1: FiberwiseCochain, P2: FiberwiseCochain, chart_or_theta) -> FiberwiseCochain:
    """(P1 cup P2)(a_1..a_{k1+k2}) = P1(first) o P2(rest).  The fiberwise
    product pairs the y-parts and slots of both factors; dx blocks are
    wedged in factor order."""
    out = _fiber_product(P1.terms, P2.terms, omega_matrix(chart_or_theta, P1.dim),
                         P1.order)
    return FiberwiseCochain(P1.dim, P1.order, P1.arity + P2.arity, out,
                            max(P1.cap, P2.cap))


def insert(P1: FiberwiseCochain, i: int, P2: FiberwiseCochain) -> FiberwiseCochain:
    """Insert P2 into slot i (0-based) of P1; the slot derivative distributes
    multinomially over P2's y-part and slots; dx^{S1} dx^{S2} ordering."""
    out = _pairwise(P1.terms, P2.terms,
                    lambda b1, b2: _insert_terms(b1, i, b2, P1.order))
    return FiberwiseCochain(P1.dim, P1.order, P1.arity + P2.arity - 1, out,
                            max(P1.cap, P2.cap))


def gerstenhaber(P1: FiberwiseCochain, P2: FiberwiseCochain) -> FiberwiseCochain:
    """[P1, P2]_G = sum_i (-)^{i k2'} P1 o_i P2 - (-)^{k1' k2'} (1 <-> 2),
    k' = arity - 1."""
    zero = FiberwiseCochain.zero(P1.dim, P1.order, P1.arity + P2.arity - 1,
                                 max(P1.cap, P2.cap))
    return _bracket(insert, P1, P2, zero)


def hochschild_d(P: FiberwiseCochain, chart_or_theta) -> FiberwiseCochain:
    """Fiberwise Hochschild differential with the (-1)^q exterior-degree
    prefactor; equals (-1)^{q+k+1} [mult, P]_G on each exterior component."""
    t_max = max(0, P.order - min(0, P.filtration_degree()) + 1)
    # an hbar^m term with m < 0 meets pairings of mu up to weight order - 2m
    lowest = min(0, P.min_hbar() or 0)
    mu = _product_terms(chart_or_theta, P.dim, P.order - 2 * lowest, t_max, P.cap)
    out = {}
    for S, block in _blocks(P.terms).items():
        _add_terms(out, _hochschild_terms(block, P.arity, mu, P.order),
                   (-1) ** len(S), (S,))
    return FiberwiseCochain(P.dim, P.order, P.arity + 1, out, P.cap)


_MU_CACHE = {}


def _product_terms(chart_or_theta, dim, order, t_max, cap):
    """The dx-free term dict of product_cochain(chart_or_theta, dim, order,
    t_max, cap), built once per omega matrix and kept in a module table;
    callers only read it."""
    omega = omega_matrix(chart_or_theta, dim)
    key = (tuple(map(tuple, omega)), dim, order, t_max, cap)
    hit = _MU_CACHE.get(key)
    if hit is None:
        mu = product_cochain(omega, dim, order, t_max, cap)
        hit = _MU_CACHE[key] = _blocks(mu.terms).get((), {})
    return hit


# ---------------------------------------------------------------------------
# delta, nabla, sigma and the extended Fedosov differential


def delta_cochain(P: FiberwiseCochain) -> FiberwiseCochain:
    """Componentwise dx^j d/dy^j on the y-part; the canonical extension
    (delta P)(a..) = delta(P(a..)) - (-)^q sum_s P(.., delta a_s, ..)."""
    return FiberwiseCochain(P.dim, P.order, P.arity, _delta_terms(P.terms), P.cap)


def delta_inv_cochain(P: FiberwiseCochain) -> FiberwiseCochain:
    """Componentwise contracting homotopy (slots are spectators)."""
    return FiberwiseCochain(P.dim, P.order, P.arity, _delta_inv_terms(P.terms), P.cap)


def sigma_cochain(P: FiberwiseCochain) -> FiberwiseCochain:
    """Set y = dx = 0, keeping the slots."""
    return P._with(_sigma_terms(P.terms))


def nabla_cochain(P: FiberwiseCochain, chart: SymplecticChart) -> FiberwiseCochain:
    """Covariant derivative: the canonical extension
    (nabla P)(a..) = nabla(P(a..)) - (-)^q sum_s P(.., nabla a_s, ..);
    on data: dx^i (d/dx^i on coefficients), the Christoffel action on the
    y-part, and the rotation of slot indices."""
    return FiberwiseCochain(P.dim, P.order, P.arity, _nabla_terms(P.terms, chart),
                            P.cap)


def _r_cup_commutator(rc: FiberwiseCochain, X: FiberwiseCochain, chart,
                      order) -> FiberwiseCochain:
    """r cup X - (-)^q X cup r for the 1-form r (as the 0-cochain rc) and X
    of exterior degree q.  dx^{S_X} dx^{S_r} = (-)^q dx^{S_r} dx^{S_X}, so
    each block pair is a plain commutator of r with X's values: the odd
    pairing orders of r cup X, doubled, in one pass (see
    weyl._pairing_levels)."""
    terms = _fiber_product(rc.terms, X.terms, omega_matrix(chart, X.dim), order,
                           odd_only=True)
    return FiberwiseCochain(X.dim, order, X.arity, terms, max(rc.cap, X.cap))


def _r_mult_parts(chart, r: FormWeyl, P: FiberwiseCochain):
    """(r as 0-cochain, ad_r = L_r - R_r) at P's order and cap, with L_r / R_r
    the left/right multiplication 1-cochains a -> r o a and a -> a o r, r's
    dx index kept, carried two levels above the target order for the hbar
    division.  L_r = r cup id and R_r = id cup r, so ad_r is a commutator
    with r.  Only slots read ad_r, so an arity-0 P (as in tau) gets None.
    Every use of a nonzero r passes here, the one check of r."""
    if r.exterior_degrees() not in ([], [1]):
        raise ValueError("r must be a 1-form")
    if r.filtration_degree() < 3:
        raise ValueError("r must have filtration weight >= 3")
    work = P.order + 2
    rc = FiberwiseCochain.from_form(r.truncate(work), P.cap)
    if not P.arity:
        return rc, None
    ident = FiberwiseCochain.identity(r.dim, work, P.cap)
    return rc, _r_cup_commutator(rc, ident, chart, work)


def _commutator_action(P: FiberwiseCochain, chart, parts) -> FiberwiseCochain:
    """(1/hbar) K_r(P) with
    K_r(P) = r cup P - (-)^q P cup r - (-)^q sum_s P o_s ad_r;
    insertion is linear, so P o_s L_r - P o_s R_r = P o_s ad_r.

    The cup/insertion products are taken two filtration levels above P's
    order so the hbar division is exact at P's order."""
    rc, ad = parts
    work = P.order + 2
    out = FiberwiseCochain.zero(P.dim, P.order, P.arity, P.cap)
    for q in P.exterior_degrees():
        Pq = P.homogeneous_q(q).truncate(work)
        K = _r_cup_commutator(rc, Pq, chart, work)
        for s in range(P.arity):
            slot_term = insert(Pq, s, ad)
            K = K + (-slot_term if q % 2 == 0 else slot_term)
        out = out + K.hbar_shift(-1).truncate(P.order, P.cap)
    return out


def fedosov_d_cochain(P: FiberwiseCochain, chart: SymplecticChart,
                      r: FormWeyl) -> FiberwiseCochain:
    """The extended Fedosov differential
    (D P)(a..) = D(P(a..)) - (-)^q sum_s P(.., D a_s, ..), computed on data
    as nabla P - delta P + (1/hbar) K_r(P) with

    K_r(P) = r cup P - (-)^q P cup r - (-)^q sum_s (P o_s L_r - P o_s R_r),

    L_r / R_r the left/right fiberwise multiplications by the 1-form r.
    Both differences are commutators with r, so they keep only the odd
    pairing orders of one product, doubled (see _r_cup_commutator)."""
    out = nabla_cochain(P, chart) - delta_cochain(P)
    if r.is_zero():
        return out
    return out + _commutator_action(P, chart, _r_mult_parts(chart, r, P))


def embed_forms(u: FormWeyl, cap=None) -> FiberwiseCochain:
    """Scalar exterior forms (y-free, hbar-Laurent coefficients) as arity-0
    cochains; intertwines d with D + Hochschild-d and wedge with cup."""
    if not u.is_y_free():
        raise ValueError("embedding expects y-free coefficients")
    return FiberwiseCochain.from_form(u, cap)


# ---------------------------------------------------------------------------
# the lift to D-closed cochains, exactness witnesses, local operators


def horizontal_lift_cochain(P: FiberwiseCochain, chart: SymplecticChart,
                            r: FormWeyl) -> FiberwiseCochain:
    """The unique D-closed cochain with sigma-projection P, for P of exterior
    degree 0 with delta P = 0: the fixed point of
    A = P + delta_inv(nabla A + (1/hbar) K_r(A))."""
    if P.exterior_degrees() not in ([], [0]):
        raise ValueError("input must have exterior degree 0")
    if not delta_cochain(P).is_zero():
        raise ValueError("input must be delta-closed")
    return _fixed_point(P, chart, r, "cochain lift")


def _fixed_point(first, chart, r, what):
    """The fixed point of A = first + delta_inv(nabla A + (1/hbar) K_r(A)).
    The recursion map is linear and strictly raises the filtration, so the
    fixed point is the sum of the iterated increments.  It is the one
    horizontal-lift recursion: the cochain lift, the exactness witness and,
    on an arity-0 first, quantize.tau, where K_r(A) is [r, A]."""
    parts = None if r.is_zero() else _r_mult_parts(chart, r, first)
    total = inc = first
    # a term hbar^k with k < 0 starts at weight 2k: 2|k| more passes
    for _ in range(first.order + 2 - 2 * min(0, first.min_hbar() or 0)):
        upd = nabla_cochain(inc, chart)
        if parts is not None:
            upd = upd + _commutator_action(inc, chart, parts)
        inc = delta_inv_cochain(upd)
        if inc.is_zero():
            return total
        total = total + inc
    raise RuntimeError(f"{what} failed to stabilize")


def transfer_exactness(P: FiberwiseCochain, chart: SymplecticChart,
                       r: FormWeyl, validate: bool = True) -> FiberwiseCochain:
    """For D-closed P of exterior degree >= 1, the witness Q with D Q = P:
    the fixed point of Q = -delta_inv P + delta_inv(nabla Q + (1/hbar) K_r(Q))."""
    if validate:
        if 0 in P.exterior_degrees():
            raise ValueError("input must have exterior degree >= 1")
        if not fedosov_d_cochain(P, chart, r).truncate(P.order - 1).is_zero():
            raise ValueError("input must be D-closed")
    return _fixed_point(-delta_inv_cochain(P), chart, r, "exactness recursion")


class LocalCochainEvaluator:
    """Local polydifferential operator induced by a D-closed cochain:
    (a_1..a_k) -> sigma(P(tau a_1, .., tau a_k))."""

    __slots__ = ("cochain", "star_product")

    def __init__(self, cochain: FiberwiseCochain, star_product):
        self.cochain = cochain
        self.star_product = star_product

    @property
    def arity(self):
        return self.cochain.arity

    def __call__(self, *args) -> WeylElement:
        lifted = self.star_product.lifts(*args)
        # sigma keeps only the dx- and y-free part of the value, and only
        # the dx- and y-free terms of the cochain reach it
        val = cochain_eval(sigma_cochain(self.cochain), lifted)
        return sigma_project(val).truncate(self.star_product.order)

    def cup(self, other: "LocalCochainEvaluator"):
        """(E1 cup E2)(a..) = E1(first) * E2(rest) under the star product."""
        return _CupEvaluator(self, other)

    def coefficients(self, max_order: int):
        """Extract the polydifferential coefficients by triangular
        reconstruction on x-monomial tuples: returns
        {(mu_1..mu_k): y-free WeylElement} for |mu_s| <= max_order."""
        dim = self.cochain.dim
        order = self.star_product.order

        def values(nus):
            args = [WeylElement.from_xpoly(XPoly.monomial(dim, mu, 1), order)
                    for mu in nus]
            return self(*args).terms

        def shift(key, c, e, f):
            return key, c * XPoly.monomial(dim, e, f)

        data = _reconstruct(dim, self.arity, max_order, order, values, shift)
        return {nus: WeylElement(dim, order, entry) for nus, entry in data.items()}


class _CupEvaluator:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    @property
    def arity(self):
        return self.left.arity + self.right.arity

    def __call__(self, *args):
        k1 = self.left.arity
        a = self.left(*args[:k1])
        b = self.right(*args[k1:])
        return self.left.star_product(a, b)


def to_local_operator(P: FiberwiseCochain, star_product,
                      validate: bool = True) -> LocalCochainEvaluator:
    """beta: D-closed cochains of exterior degree 0 to local operators."""
    if validate:
        D = fedosov_d_cochain(P, star_product.data.chart, star_product.r)
        if not D.truncate(P.order - 1).is_zero():
            raise ValueError("input must be D-closed")
    return LocalCochainEvaluator(P, star_product)


# ---------------------------------------------------------------------------
# linear coordinate transport (push-forward along x -> g x)


def _transport_terms(fields, terms, ginv, gt=None):
    """x, y and dx substitute by ginv, slot indices by gt."""
    return _subst_terms(fields, {key: c.substitute_linear(ginv) for key, c in terms.items()},
                        ginv, gt)


def transport_weyl(w: WeylElement, ginv) -> WeylElement:
    return WeylElement(w.dim, w.order, _transport_terms(w.KEY, w.terms, ginv))


def transport_form(w: FormWeyl, ginv) -> FormWeyl:
    w = as_form(w)
    return FormWeyl.from_terms(w.dim, w.order, _transport_terms(w.KEY, w.terms, ginv))


def transport_cochain(P: FiberwiseCochain, g, ginv) -> FiberwiseCochain:
    """Push-forward: y and x substitute by g^{-1}, dx expands by g^{-1},
    slot indices transform contravariantly (by g transposed)."""
    return FiberwiseCochain(P.dim, P.order, P.arity,
                            _transport_terms(P.KEY, P.terms, ginv, _transpose(g)), P.cap)
