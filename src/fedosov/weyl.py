"""Formal Weyl algebra sections over a polynomial symplectic chart.

A section is a finite sum of terms  hbar^k * c(x) * y^p  with c an XPoly and
p a y-multidegree; the filtration weight of a term is 2k + |p| and every
operation is exact modulo weight > order.  Exterior-form-valued sections
carry strictly increasing dx-index subsets; a form component's coefficient is
always written to the left of its dx block, and dx indices coming from an
operator (delta, nabla, a 1-form r) are wedged in from the left.

A form is an arity-0 cochain, and FormWeyl stores exactly that: the flat
term dict {(S, m, p, alphas): coeff} (dx subset, hbar power, y-multidegree,
slot multidegrees; a form has alphas = ()) that the private kernels read and
write.  Its components {S: WeylElement} are a view derived on each access, and
fedosov_D is the extended Fedosov differential of `cochains` on it.
The kernels are each written once: delta, delta_inv, sigma, nabla, the
dx-block wedge around the pairing kernel, and linear substitution.  The form
operators here and the cochain operators of `cochains` are thin calls into
them on the stored terms, FormWeyl.from_terms truncating the result at the
order.  Linear substitution (_subst_terms) is one driver over the key
fields that a type declares in KEY (named as in io); it moves all eight
types that declare them, for the transports of `cochains` and for
gl_transport of `weylhh`.  WeylElement and FormWeyl take their linear
structure and their filtration (the order clip of their constructors,
truncate, hbar_shift and the weight queries) from poly.GradedTerms.

One pairing kernel (_pairing_levels, summed by _pair_terms) runs the
fiberwise product exp((hbar/2) omega^{ij} d/dy^i (x) d/dz^j) on dx-free term
dicts {(m, p, alphas): coeff} for every caller: moyal_product and the
commutators here, cup and the product cochain of `cochains`, and the
monomial product, cup, product cochain and Koszul homotopy of `weylhh`.

Conventions fixed here and verified by the Hodge-identity tests:
  * delta = dx^i d/dy^i, delta_inv contracts with i(d/dx^k) from the left,
  * nabla delta + delta nabla = 0 (torsion-freeness),
  * the t-integral in delta_inv is the exact per-monomial division by
    (y-degree + form-degree), with degree-0 terms mapped to zero.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .poly import (GradedTerms, XPoly, _acc, _add_terms, _mono_derivative,
                   _subst_multidegree, as_fraction)

# ---------------------------------------------------------------------------
# small index helpers

def vec_add(p, q):
    return tuple(map(add, p, q))


def vec_sub(p, q):
    return tuple(map(sub, p, q))


def unit_vec(dim: int, i: int):
    """Multidegree e_i, 1-based i."""
    return tuple(1 if j == i - 1 else 0 for j in range(dim))


def prepend_index(i: int, S: tuple):
    """Sign and result of dx^i wedge dx^S, or None if i in S."""
    if i in S:
        return None
    before = sum(1 for s in S if s < i)
    sign = -1 if before % 2 else 1
    return sign, tuple(sorted(S + (i,)))


def merge_subsets(S: tuple, T: tuple):
    """Sign and result of dx^S wedge dx^T, or None on a repeated index."""
    if set(S) & set(T):
        return None
    sign = 1
    out = list(S)
    for t in T:
        after = sum(1 for s in out if s > t)
        if after % 2:
            sign = -sign
        out.append(t)
    return sign, tuple(sorted(out))


def contract_index(k: int, S: tuple):
    """Sign and result of i(d/dx^k) applied to dx^S from the left."""
    if k not in S:
        return None
    pos = S.index(k)
    sign = -1 if pos % 2 else 1
    return sign, S[:pos] + S[pos + 1:]


# ---------------------------------------------------------------------------
# Weyl elements


class WeylElement(GradedTerms):
    """Section of the Weyl bundle: {(hbar_exp, y_multidegree): XPoly}."""

    __slots__ = ("dim", "order", "terms")
    KEY = ("hbar", "ydeg")

    def __init__(self, dim: int, order: int, terms=None):
        self.dim = dim
        self.order = order
        self.terms = self._clip(terms or {}, order)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, order: int) -> "WeylElement":
        return cls(dim, order)

    @classmethod
    def const(cls, dim: int, order: int, c) -> "WeylElement":
        return cls(dim, order, {(0, (0,) * dim): XPoly.const(dim, c)})

    @classmethod
    def from_xpoly(cls, poly: XPoly, order: int, hbar_exp: int = 0) -> "WeylElement":
        return cls(poly.nvars, order, {(hbar_exp, (0,) * poly.nvars): poly})

    @classmethod
    def y_monomial(cls, dim: int, order: int, p, c=1, hbar_exp: int = 0) -> "WeylElement":
        return cls(dim, order, {(hbar_exp, tuple(p)): XPoly.const(dim, c)})

    @classmethod
    def x_variable(cls, dim: int, order: int, i: int) -> "WeylElement":
        return cls.from_xpoly(XPoly.variable(dim, i), order)

    @classmethod
    def y_variable(cls, dim: int, order: int, i: int) -> "WeylElement":
        return cls.y_monomial(dim, order, unit_vec(dim, i))

    def diff_y_multi(self, alpha) -> "WeylElement":
        """d^alpha/dy^alpha."""
        alpha = tuple(alpha)
        terms = {}
        for (k, p), c in self.terms.items():
            d = _mono_derivative(alpha, p)
            if d is not None:
                terms[(k, d[1])] = c.scale(d[0])
        return self._with(terms)

    def at_y_zero(self) -> "WeylElement":
        """Keep only the y-free part."""
        zero = (0,) * self.dim
        return self._with({key: c for key, c in self.terms.items() if key[1] == zero})

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeylElement) and self.dim == other.dim
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, frozenset((k, p, c) for (k, p), c in self.terms.items())))

    def __repr__(self):
        from .io import weyl_text
        return weyl_text(self)


class FormWeyl(GradedTerms):
    """Exterior-form-valued Weyl section, stored as the arity-0 term dict
    that the kernels read and write: {(dx_subset, hbar_exp, y_multidegree,
    ()): XPoly}.  components is the view {dx_subset: WeylElement}, rebuilt
    on each access."""

    __slots__ = ("dim", "order", "terms")
    KEY = ("dx", "hbar", "ydeg", "slots")

    def __init__(self, dim: int, order: int, components=None):
        """The form with components {dx_subset: WeylElement}, truncated at order."""
        self.dim = dim
        self.order = order
        self.terms = self._clip({(tuple(S), m, p, ()): c
                                 for S, w in (components or {}).items()
                                 for (m, p), c in w.terms.items()}, order)

    @classmethod
    def from_terms(cls, dim: int, order: int, terms) -> "FormWeyl":
        """The form of an arity-0 term dict, truncated at order."""
        out = cls(dim, order)
        out.terms = out._clip(terms, order)
        return out

    @classmethod
    def zero(cls, dim: int, order: int) -> "FormWeyl":
        return cls(dim, order)

    @classmethod
    def from_weyl(cls, w: WeylElement) -> "FormWeyl":
        return cls(w.dim, w.order, {(): w})

    @classmethod
    def from_component(cls, S, w: WeylElement) -> "FormWeyl":
        return cls(w.dim, w.order, {tuple(S): w})

    def component(self, S) -> WeylElement:
        S = tuple(S)
        return WeylElement(self.dim, self.order)._with(
            {(m, p): c for (T, m, p, _), c in self.terms.items() if T == S})

    @property
    def components(self):
        return {S: WeylElement(self.dim, self.order)._with(t)
                for S, t in _form_blocks(self.terms).items()}

    def exterior_degrees(self):
        return sorted({len(key[0]) for key in self.terms})

    def homogeneous(self, q: int) -> "FormWeyl":
        return self._with({key: c for key, c in self.terms.items() if len(key[0]) == q})

    def __eq__(self, other) -> bool:
        return (isinstance(other, FormWeyl) and self.dim == other.dim
                and self.terms == other.terms)

    def __repr__(self):
        from .io import form_text
        return form_text(self)


def as_form(a) -> FormWeyl:
    return a if isinstance(a, FormWeyl) else FormWeyl.from_weyl(a)


def _form_blocks(terms):
    """A form's term dict by dx subset: {S: {(m, p): coeff}}."""
    out = {}
    for (S, m, p, _), c in terms.items():
        out.setdefault(S, {})[(m, p)] = c
    return out


def _form_op(kernel, a, *args) -> FormWeyl:
    """A term-dict kernel applied to a section or form."""
    f = as_form(a)
    return FormWeyl.from_terms(f.dim, f.order, kernel(f.terms, *args))


# ---------------------------------------------------------------------------
# symplectic chart


class SymplecticChart:
    """Polynomial symplectic data: omega_{ij}, omega^{ij} and Christoffel
    symbols Gamma^j_{ik} on a 2n-dimensional coordinate chart.

    omega_upper must be the exact inverse of omega_lower; this is validated
    rather than computed (a polynomial matrix need not have a polynomial
    inverse).  christoffel maps (j, i, k) -> XPoly and must be symmetric in
    (i, k); all indices 1-based.
    """

    __slots__ = ("dim", "omega_lower", "omega_upper", "christoffel")

    def __init__(self, dim, omega_lower, omega_upper, christoffel=None):
        self.dim = dim
        self.omega_lower = omega_lower
        self.omega_upper = omega_upper
        self.christoffel = dict(christoffel or {})

    @classmethod
    def standard_flat(cls, dim: int) -> "SymplecticChart":
        """Flat chart with the block-constant symplectic form
        omega^{2i-1,2i} = 1 and zero connection."""
        n = dim
        lower = [[XPoly.zero(n) for _ in range(n)] for _ in range(n)]
        upper = [[XPoly.zero(n) for _ in range(n)] for _ in range(n)]
        for b in range(n // 2):
            i, j = 2 * b, 2 * b + 1
            upper[i][j] = XPoly.const(n, 1)
            upper[j][i] = XPoly.const(n, -1)
            lower[i][j] = XPoly.const(n, -1)
            lower[j][i] = XPoly.const(n, 1)
        return cls(n, lower, upper, {})

    def gamma(self, j: int, i: int, k: int) -> XPoly:
        return self.christoffel.get((j, i, k), XPoly.zero(self.dim))

    def validate(self):
        """Raise ChartValidationError with index-level diagnostics on any
        violated invariant."""
        n = self.dim
        if n < 2 or n % 2:
            raise ChartValidationError(f"dimension must be even and >= 2, got {n}")
        for i in range(n):
            for j in range(n):
                if self.omega_lower[i][j] != -self.omega_lower[j][i]:
                    raise ChartValidationError(
                        f"omega_lower not antisymmetric at ({i + 1},{j + 1})")
                if self.omega_upper[i][j] != -self.omega_upper[j][i]:
                    raise ChartValidationError(
                        f"omega_upper not antisymmetric at ({i + 1},{j + 1})")
        for i in range(n):
            for j in range(n):
                acc = XPoly.zero(n)
                for k in range(n):
                    acc = acc + self.omega_upper[i][k] * self.omega_lower[k][j]
                want = XPoly.const(n, 1) if i == j else XPoly.zero(n)
                if acc != want:
                    raise ChartValidationError(
                        f"omega^ik omega_kj != delta at ({i + 1},{j + 1})")
        for (j, i, k), g in self.christoffel.items():
            if not all(1 <= v <= n for v in (j, i, k)):
                raise ChartValidationError(
                    f"Christoffel index ({j},{i},{k}) outside 1..{n}")
            if self.gamma(j, k, i) != g:
                raise ChartValidationError(
                    f"torsion: Gamma^{j}_{{{i},{k}}} != Gamma^{j}_{{{k},{i}}}")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    nab = self.omega_lower[j - 1][k - 1].diff(i)
                    for l in range(1, n + 1):
                        nab = nab - self.gamma(l, i, j) * self.omega_lower[l - 1][k - 1]
                        nab = nab - self.gamma(l, i, k) * self.omega_lower[j - 1][l - 1]
                    if not nab.is_zero():
                        raise ChartValidationError(
                            f"nabla_{i} omega_{{{j},{k}}} != 0")


class ChartValidationError(ValueError):
    pass


def _matrix_inverse(m):
    """Exact inverse of a constant matrix, by Gauss-Jordan; ValueError if
    it is singular."""
    n = len(m)
    a = [[as_fraction(v) for v in row] for row in m]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        a[col] = [v / d for v in a[col]]
        inv[col] = [v / d for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return inv


def _transpose(m):
    return [[m[j][i] for j in range(len(m))] for i in range(len(m))]


def _matmul(a, b):
    """The exact product of two constant matrices."""
    return [[sum((as_fraction(a[i][k]) * as_fraction(b[k][j]) for k in range(len(b))),
                 Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]


def omega_matrix(chart_or_theta, dim: int):
    """Normalize a chart, an XPoly matrix, or a constant matrix to an XPoly
    matrix omega^{ij}."""
    if isinstance(chart_or_theta, SymplecticChart):
        return chart_or_theta.omega_upper
    theta = chart_or_theta
    if theta and isinstance(theta[0][0], XPoly):
        return theta
    return [[XPoly.const(dim, theta[i][j]) if theta[i][j] else XPoly.zero(dim)
             for j in range(dim)] for i in range(dim)]


# ---------------------------------------------------------------------------
# the Moyal-type fiberwise product


def _check_antisymmetric(omega, dim):
    for i in range(dim):
        for j in range(dim):
            if omega[i][j] != -omega[j][i]:
                raise ValueError("Poisson tensor must be antisymmetric")


def _derive_targets(seen, p, alphas, slots_ok):
    """Per coordinate i, the ways d/dy^{i+1} hits y^p * slots, memoized in
    seen: (p', alphas', integer factor, lift).  A slot hit raises the weight
    of the pairing step by one (lift 1), so it needs slots_ok (room below
    the order)."""
    key = (p, alphas, slots_ok)
    hit = seen.get(key)
    if hit is not None:
        return hit
    hit = seen[key] = []
    for i, n in enumerate(p):
        out = [(p[:i] + (n - 1,) + p[i + 1:], alphas, n, 0)] if n else []
        if slots_ok:
            for s, al in enumerate(alphas):
                al2 = al[:i] + (al[i] + 1,) + al[i + 1:]
                out.append((p, alphas[:s] + (al2,) + alphas[s + 1:], 1, 1))
        hit.append(out)
    return hit


def _pairing_levels(terms1, terms2, omega, order, odd_only=False):
    """The Moyal pairing exp((hbar/2) omega^{ij} d/dy^i (x) d/dz^j) of two
    dx-free term dicts {(m, p, alphas): coeff}, one pairing order t at a
    time: yields (t, {(m, p1, alphas1, p2, alphas2): coeff}), the state
    before the two factors merge, m including the t new hbar powers.

    Each d/dy lands on the y-part or on a slot of its factor.  A step never
    lowers the weight 2m + |p1| + |p2|, and raises it by one per slot hit,
    so pairs beyond the order are dropped up front and only slot hits are
    checked against the order.  With odd_only, only the odd orders are
    yielded, doubled: with an arity-0 factor that is the commutator, as
    omega is antisymmetric and the order-t part of the swapped product is
    (-1)^t times this one.  Coefficients are touched only through *, + and
    truth value, so XPoly and Fraction run the same lines.
    """
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
        # the commutator's factor 2 rides on the first pairing step
        den = t if odd_only and t == 1 else 2 * t
        weights = {}  # (i, j, integer factor) -> omega^{ij} factor / den
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


def _pair_terms(terms1, terms2, omega, order, odd_only=False):
    """(first factor) o (second factor) on dx-free term dicts, the slots of
    the first before those of the second."""
    out = {}
    for _, state in _pairing_levels(terms1, terms2, omega, order, odd_only):
        for (m, q1, b1, q2, b2), c in state.items():
            _acc(out, (m, vec_add(q1, q2), b1 + b2), c)
    return out


def _blocks(terms):
    """A term dict by dx subset: {S: {(m, p, alphas): coeff}}."""
    out = {}
    for (S, m, p, alphas), c in terms.items():
        out.setdefault(S, {})[(m, p, alphas)] = c
    return out


def _pairwise(terms1, terms2, kernel):
    """kernel on every pair of dx blocks of two term dicts, wedged
    dx^{S_1} dx^{S_2}."""
    out = {}
    blocks2 = _blocks(terms2)
    for S1, b1 in _blocks(terms1).items():
        for S2, b2 in blocks2.items():
            merged = merge_subsets(S1, S2)
            if merged is not None:
                _add_terms(out, kernel(b1, b2), merged[0], (merged[1],))
    return out


def _fiber_product(terms1, terms2, omega, order, odd_only=False):
    """The fiberwise product of two term dicts: coefficients and slots pair
    by _pair_terms, dx blocks are wedged in factor order."""
    return _pairwise(terms1, terms2, lambda b1, b2: _pair_terms(
        b1, b2, omega, order, odd_only))


def moyal_product(a, b, chart_or_theta, *, commutator=False):
    """Product of Weyl sections or form-valued Weyl sections.

    exp((hbar/2) omega^{ij} d/dy^i d/dz^j) a(y) b(z) |_{z=y}, expanded as a
    terminating series: each step consumes one y from each factor and adds
    one hbar, so the filtration weight of a contribution is the sum of the
    weights of its parents.  For forms, coefficients multiply fiberwise and
    dx blocks are wedged in factor order: (u dx^S) o (v dx^T) =
    (u o v) dx^S dx^T.

    With commutator set, the result is the graded commutator
    [a, b] = a o b - (-)^{q_a q_b} b o a instead, in one pairing pass per
    pair of dx blocks: since dx^T dx^S = (-)^{|S||T|} dx^S dx^T, the block
    pair (S, T) contributes (u o v - v o u) dx^S dx^T, the odd pairing orders
    of u o v doubled (see _pairing_levels).
    """
    plain = isinstance(a, WeylElement) and isinstance(b, WeylElement)
    fa, fb = as_form(a), as_form(b)
    if fa.dim != fb.dim or fa.order != fb.order:
        raise ValueError("operands must share dim and order")
    omega = omega_matrix(chart_or_theta, fa.dim)
    _check_antisymmetric(omega, fa.dim)
    out = FormWeyl.from_terms(fa.dim, fa.order, _fiber_product(
        fa.terms, fb.terms, omega, fa.order, odd_only=commutator))
    return out.component(()) if plain else out


def graded_commutator(a, b, chart_or_theta) -> FormWeyl:
    """[a, b] = a o b - (-)^{q_a q_b} b o a, componentwise in exterior degree,
    computed from the odd pairing orders of a o b alone (see moyal_product)."""
    return moyal_product(as_form(a), as_form(b), chart_or_theta, commutator=True)


def commutator_over_hbar(a, b, chart_or_theta) -> FormWeyl:
    """(1/hbar)[a, b], exact at the operands' order: the product is taken
    with two filtration levels of headroom so that the hbar division does
    not lose boundary terms."""
    fa, fb = as_form(a), as_form(b)
    work = fa.order + 2
    out = graded_commutator(fa.truncate(work), fb.truncate(work), chart_or_theta)
    return out.hbar_shift(-1).truncate(fa.order)


# ---------------------------------------------------------------------------
# the operators delta, delta_inv, sigma, nabla


def filtration_degree(a):
    return a.filtration_degree()


def _delta_terms(terms):
    """dx^j d/dy^j on the y-part; the slots are spectators."""
    out = {}
    for (S, m, p, alphas), c in terms.items():
        for j, n in enumerate(p, 1):
            ins = prepend_index(j, S) if n else None
            if ins is not None:
                _acc(out, (ins[1], m, p[:j - 1] + (n - 1,) + p[j:], alphas),
                     c.scale(ins[0] * n))
    return out


def _delta_inv_terms(terms):
    """y^k i(d/dx^k) with the exact per-monomial t-integral; the slots are
    spectators."""
    out = {}
    for (S, m, p, alphas), c in terms.items():
        deg = sum(p) + len(S)
        for k in S:
            sign, S2 = contract_index(k, S)
            _acc(out, (S2, m, p[:k - 1] + (p[k - 1] + 1,) + p[k:], alphas),
                 c.scale(Fraction(sign, deg)))
    return out


def _sigma_terms(terms):
    """Set y = dx = 0, keeping the slots."""
    return {key: c for key, c in terms.items() if not key[0] and not any(key[2])}


def _nabla_terms(terms, chart):
    """dx^i d/dx^i on the coefficients, and dx^i Gamma^j_{ik} acting on the
    y-part (-y^k d/dy^j) and on each slot (d^alpha rotated from k to j).
    g * c is formed only when y^j or a slot index k is there to hit."""
    dim = chart.dim
    gammas = {}
    for (j, i, k), g in chart.christoffel.items():
        gammas.setdefault(i, []).append((j, k, g))
    out = {}
    for (S, m, p, alphas), c in terms.items():
        for i in range(1, dim + 1):
            ins = prepend_index(i, S)
            if ins is None:
                continue
            sign, S2 = ins
            dc = c.diff(i)
            if dc:
                _acc(out, (S2, m, p, alphas), dc.scale(sign))
            for j, k, g in gammas.get(i, ()):
                if not p[j - 1] and not any(al[k - 1] for al in alphas):
                    continue
                gc = g * c
                if not gc:
                    continue
                if p[j - 1]:
                    p2 = vec_add(vec_sub(p, unit_vec(dim, j)), unit_vec(dim, k))
                    _acc(out, (S2, m, p2, alphas), gc.scale(-sign * p[j - 1]))
                for s, al in enumerate(alphas):
                    if al[k - 1]:
                        al2 = vec_add(vec_sub(al, unit_vec(dim, k)), unit_vec(dim, j))
                        _acc(out, (S2, m, p, alphas[:s] + (al2,) + alphas[s + 1:]),
                             gc.scale(sign * al[k - 1]))
    return out


def delta(a) -> FormWeyl:
    """dx^i d/dy^i, raising exterior degree by one."""
    return _form_op(_delta_terms, a)


def delta_inv(a) -> FormWeyl:
    """y^k i(d/dx^k) with the exact per-monomial t-integral: a term of
    y-degree p and exterior degree q picks up the factor 1/(p+q); terms with
    p+q = 0 go to zero."""
    return _form_op(_delta_inv_terms, a)


def sigma_project(a) -> WeylElement:
    """Evaluate at y = 0, dx = 0; the result is an hbar-Laurent polynomial
    in x (a y-free WeylElement)."""
    return _form_op(_sigma_terms, a).component(())


def nabla(a, chart: SymplecticChart) -> FormWeyl:
    """dx^i d/dx^i - dx^i Gamma^j_{ik} y^k d/dy^j."""
    return _form_op(_nabla_terms, a, chart)


def riemann_tensor(chart: SymplecticChart):
    """(R_{ij})^m_l = d_j Gamma^m_{il} - d_i Gamma^m_{jl}
    + Gamma^m_{jp} Gamma^p_{il} - Gamma^m_{ip} Gamma^p_{jl};
    returns {(i, j, m, l): XPoly} for i < j (antisymmetric in i, j).

    Sign convention chosen so that nabla^2 a = (1/hbar)[R, a] holds with
    R = -1/4 dx^i dx^j omega_{km} (R_{ij})^m_l y^k y^l.
    """
    n = chart.dim
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for m in range(1, n + 1):
                for l in range(1, n + 1):
                    r = chart.gamma(m, i, l).diff(j) - chart.gamma(m, j, l).diff(i)
                    for p in range(1, n + 1):
                        r = r + chart.gamma(m, j, p) * chart.gamma(p, i, l)
                        r = r - chart.gamma(m, i, p) * chart.gamma(p, j, l)
                    if not r.is_zero():
                        out[(i, j, m, l)] = r
    return out


def curvature_R(chart: SymplecticChart, order: int) -> FormWeyl:
    """R = -1/4 dx^i dx^j omega_{km} (R_{ij})^m_l y^k y^l, the Weyl curvature
    of the connection; satisfies nabla^2 a = (1/hbar)[R, a]."""
    n = chart.dim
    riem = riemann_tensor(chart)
    terms = {}
    for (i, j, m, l), r in riem.items():
        for k in range(1, n + 1):
            om = chart.omega_lower[k - 1][m - 1]
            if om.is_zero():
                continue
            # i < j contributes twice (dx^i dx^j and dx^j dx^i), so -1/4 -> -1/2
            c = (om * r).scale(Fraction(-1, 2))
            if c.is_zero():
                continue
            p = vec_add(unit_vec(n, k), unit_vec(n, l))
            _acc(terms, ((i, j), 0, p, ()), c)
    return FormWeyl.from_terms(n, order, terms)


def fedosov_D(a, chart: SymplecticChart, r: FormWeyl) -> FormWeyl:
    """D a = nabla a - delta a + (1/hbar)[r, a] for r in Omega^1 of filtration
    weight >= 3: the extended Fedosov differential on a as an arity-0
    cochain.  r solved at a higher order is truncated to a's order."""
    from .cochains import FiberwiseCochain, fedosov_d_cochain
    return fedosov_d_cochain(FiberwiseCochain.from_form(as_form(a)), chart, r).to_form()


def weyl_curvature_class(chart: SymplecticChart, r: FormWeyl, order: int) -> FormWeyl:
    """R - delta r + nabla r + (1/hbar) r o r; central iff y-free.  r is an
    odd form, so r o r = (1/2)[r, r]."""
    out = curvature_R(chart, order) - delta(r).truncate(order) \
        + nabla(r, chart).truncate(order)
    if not r.is_zero():
        out = out + commutator_over_hbar(r, r, chart).scale(Fraction(1, 2)).truncate(order)
    return out


def is_central(a) -> bool:
    """A form-valued section is central iff it has no y-dependence."""
    return as_form(a).is_y_free()


# ---------------------------------------------------------------------------
# linear substitution


def _subst_multidegrees(ps, M):
    """_subst_multidegree on each entry of a tuple: {tuple: Fraction}."""
    out = {(): Fraction(1)}
    for p in ps:
        out = {done + (mono,): c * f for done, c in out.items()
               for mono, f in _subst_multidegree(p, M).items()}
    return out


def _subst_subset(S, M):
    """Expand prod_{i in S} (sum_j M[i][j] e_j) in an exterior algebra, each
    e_j multiplied from the right: {subset: Fraction} with ordering signs."""
    acc = {(): Fraction(1)}
    for i in S:
        nxt = {}
        for mono, c in acc.items():
            for j in range(1, len(M) + 1):
                f = as_fraction(M[i - 1][j - 1])
                if not f or j in mono:
                    continue
                after = sum(1 for t in mono if t > j)
                sign = -1 if after % 2 else 1
                _acc(nxt, tuple(sorted(mono + (j,))), c * f * sign)
        acc = nxt
    return acc


# how each key field (named as in io) moves under the substitution: its
# expansion and whether it goes by gt (else by ginv); None: the field is kept
_SUBST = {"hbar": None,
          "ydeg": (_subst_multidegree, False), "y1": (_subst_multidegree, False),
          "y2": (_subst_multidegree, False), "copies": (_subst_multidegrees, False),
          "dx": (_subst_subset, False), "C": (_subst_subset, False),
          "slots": (_subst_multidegrees, True), "psi": (_subst_subset, True)}


def _subst_terms(fields, terms, ginv, gt=None):
    """Linear substitution of a term dict whose key fields are named by
    fields (a type's KEY): y-vectors and the dx and C sets by ginv, slot
    vectors and the psi set contravariantly by gt (read only when such a
    field is nonempty), hbar kept; coefficients are multiplied, not
    substituted."""
    rules = [_SUBST[name] for name in fields]
    out = {}
    for key, c in terms.items():
        images = {(): Fraction(1)}
        for rule, v in zip(rules, key):
            moved = rule[0](v, gt if rule[1] else ginv) if rule else {v: 1}
            images = {done + (w,): f * fw for done, f in images.items()
                      for w, fw in moved.items()}
        for image, f in images.items():
            _acc(out, image, c * f)
    return out
