"""Exact coefficient arithmetic: multivariate polynomials over Q, the linear
structure shared by every sparse type, and the two monomial kernels every
module calls: linear substitution and the derivative d^alpha y^beta.

Every sparse type of the package stores a dictionary {key: coefficient} in
``terms``.  SparseTerms gives all of them one add/neg/sub/scale, one
copy, and one ==, hash and plain repr, under one rule: two values are
equal when they have the same type, terms and header slots, ``order`` and
``cap`` aside.  GradedTerms gives the four types graded by Fedosov's
filtration one order clip, truncation, hbar shift and weight query.  A
Laurent polynomial in hbar (a value in C((hbar))) is no type of its own:
it is a y-free weyl.WeylElement, with XPoly coefficients on a chart or
Fraction ones at constant theta.
XPoly, the hottest type, keeps its own exact layout, arithmetic and
equality: each monomial is one Kronecker-packed int with a fixed field of
FIELD bits per variable, and the coefficients are integer numerators over
one positive denominator, gcd-normalized after every operation (Monagan
and Pearce's sparse layout, ISSAC 2009).  An exponent above MAX_EXP, given
or produced by a product, raises ExponentOverflow instead of carrying into
the next field.  Its ``terms`` is a derived view {exponent tuple:
Fraction}, so the kernels and io never see the layout.  Instances are
treated as immutable after construction; every operation returns a new,
normalized object (no stored zero coefficients).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm, perm

Exps = tuple  # length-(2n) tuple of non-negative int exponents


def _acc(d, key, val):
    """d[key] += val, dropping the key when the sum vanishes."""
    prev = d.get(key)
    if prev is not None:
        val = prev + val
    if val:
        d[key] = val
    else:
        d.pop(key, None)


def _add_terms(out, terms, sign=1, prefix=()):
    """out += sign * terms, with prefix put in front of every key."""
    for key, c in terms.items():
        _acc(out, prefix + key, c if sign > 0 else -c)


def as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"cannot coerce {c!r} to an exact rational")


def _subst_multidegree(p, M):
    """Expand prod_i (sum_j M[i][j] v_j)^{p_i} in commuting variables v
    (x or y): {multidegree: Fraction}."""
    acc = {(0,) * len(p): Fraction(1)}
    for i, n in enumerate(p):
        row = [(j, f) for j, f in enumerate(map(as_fraction, M[i])) if f]
        for _ in range(n):
            nxt = {}
            for mono, c in acc.items():
                for j, f in row:
                    _acc(nxt, mono[:j] + (mono[j] + 1,) + mono[j + 1:], c * f)
            acc = nxt
    return acc


_DERIV_CACHE = {}


def _mono_derivative(alpha, beta):
    """d^alpha of the monomial with exponents beta, as (beta!/(beta - alpha)!,
    beta - alpha); None unless alpha <= beta.  Each pair is computed once
    and kept in a module table."""
    key = (alpha, beta)
    hit = _DERIV_CACHE.get(key, False)
    if hit is False:
        hit = None
        if all(a <= b for a, b in zip(alpha, beta)):
            f = 1
            for a, b in zip(alpha, beta):
                f *= perm(b, a)
            hit = (f, tuple(b - a for a, b in zip(alpha, beta)))
        _DERIV_CACHE[key] = hit
    return hit


class SparseTerms:
    """The linear structure, equality, hash and plain repr of a sparse sum
    {key: coefficient}.  A subclass stores the sum in ``terms`` next to
    header slots (dim, order, arity, ...) that every result of the
    structure copies; one that GL transport moves names its key fields in
    ``KEY``, which io reads too.  Two values are equal when they have the
    same type, the same terms and the same header slots other than
    ``order`` and ``cap``, which only record how far a value is known."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._HEADER = tuple(name for name in cls.__slots__ if name != "terms")
        cls._COMPARED = tuple(name for name in cls._HEADER if name not in ("order", "cap"))

    def _compared(self):
        return tuple(getattr(self, name) for name in self._COMPARED)

    def __eq__(self, other):
        return (type(other) is type(self) and self._compared() == other._compared()
                and self.terms == other.terms)

    def __hash__(self):
        return hash((type(self), self._compared(), frozenset(self.terms.items())))

    def __repr__(self):
        head = "".join(f"{name}={getattr(self, name)!r}, " for name in self._COMPARED)
        return f"{type(self).__name__}({head}{self.terms!r})"

    def _with(self, terms):
        """A value with self's header slots and the given terms."""
        out = object.__new__(type(self))
        for name in self._HEADER:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _empty(self):
        return self._with({})

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _acc(terms, key, c)
        return self._with(terms)

    def __neg__(self):
        return self._with({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = as_fraction(c)
        return self._with({k: v * c for k, v in self.terms.items()} if c else {})

    def is_zero(self):
        return not self.terms


class GradedTerms(SparseTerms):
    """A sparse sum in Fedosov's filtration: y has weight 1 and hbar weight
    2, so a term hbar^k y^p weighs 2k + |p|, read from the key fields
    ``hbar`` and ``ydeg`` that the type names in KEY.  hbar powers may be
    negative (the coefficient field is C((hbar))).  A type with an
    ``order`` slot keeps only the terms of weight <= order; one without
    (order None) keeps them all."""

    __slots__ = ()
    order = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._HBAR, cls._YDEG = cls.KEY.index("hbar"), cls.KEY.index("ydeg")

    def _clip(self, terms, order):
        """terms without zero coefficients and, unless order is None,
        without the terms of weight above order."""
        if order is None:
            return {key: c for key, c in terms.items() if c}
        h, y = self._HBAR, self._YDEG
        return {key: c for key, c in terms.items()
                if c and 2 * key[h] + sum(key[y]) <= order}

    def truncate(self, order):
        out = self._with(self._clip(self.terms, order))
        if self.order is not None:
            out.order = order
        return out

    def hbar_shift(self, j: int):
        """Multiply by hbar^j (j may be negative)."""
        h = self._HBAR
        return self._with(self._clip({key[:h] + (key[h] + j,) + key[h + 1:]: c
                                      for key, c in self.terms.items()}, self.order))

    def filtration_degree(self):
        """The least weight 2k + |p| of a term; +inf for zero."""
        h, y = self._HBAR, self._YDEG
        return min((2 * key[h] + sum(key[y]) for key in self.terms), default=inf)

    def min_hbar(self):
        """The lowest hbar power of a term; None for zero."""
        h = self._HBAR
        return min((key[h] for key in self.terms), default=None)

    def is_y_free(self):
        y = self._YDEG
        return not any(any(key[y]) for key in self.terms)


# XPoly's packed monomials: the exponent of x^{i+1} fills the FIELD bits at
# FIELD * i of one int.  No stored exponent exceeds MAX_EXP, so the top bit
# of every field (a guard) is clear, and the sum of two packed monomials --
# their product -- cannot carry into the next field; a product term that
# sets a guard has an exponent that does not fit.
FIELD = 15
MAX_EXP = (1 << (FIELD - 1)) - 1
MAX_VARS = 64
_MASK = (1 << FIELD) - 1
_GUARDS = sum(1 << (FIELD * i + FIELD - 1) for i in range(MAX_VARS))
_new = object.__new__


class ExponentOverflow(ValueError):
    """An exponent of x does not fit XPoly's packed field (MAX_EXP)."""


def _pack(nvars, exps) -> int:
    if len(exps) != nvars:
        raise ValueError("exponent vector has wrong length")
    e = 0
    for i, k in enumerate(exps):
        if k < 0:
            raise ValueError(f"negative exponent {k} of x{i + 1}")
        if k > MAX_EXP:
            raise ExponentOverflow(f"exponent {k} of x{i + 1} exceeds {MAX_EXP}")
        e |= k << FIELD * i
    return e


def _unpack(nvars, e) -> Exps:
    return tuple(e >> FIELD * i & _MASK for i in range(nvars))


def _reduced(nvars, num, den) -> "XPoly":
    """num / den with the common factor of den and the numerators divided
    out (den 1 for zero)."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {e: c // g for e, c in num.items()}
    out = _new(XPoly)
    out.nvars = nvars
    out._num = num
    out._den = den
    return out


class XPoly:
    """Polynomial in the base coordinates x^1..x^{2n} with rational
    coefficients.

    Only this module sees the layout: ``_num`` maps each packed monomial
    (see FIELD) to an integer numerator and ``_den`` is one positive
    denominator of every term, the polynomial being sum _num[e] / _den x^e.
    Every operation divides out the gcd of ``_den`` and the numerators and
    stores no zero numerator (zero has ``_den`` 1), so equal polynomials
    have equal fields.  ``terms`` is the view {exponent tuple: Fraction},
    built on each access."""

    __slots__ = ("nvars", "_num", "_den")

    def __init__(self, nvars: int, terms=None):
        if not 0 <= nvars <= MAX_VARS:
            raise ValueError(f"XPoly takes 0..{MAX_VARS} variables, not {nvars}")
        fracs = {}
        if terms:
            for exps, c in terms.items():
                c = as_fraction(c)
                if c:
                    fracs[_pack(nvars, exps)] = c
        # over the lcm of the denominators the numerators are already coprime
        # to the denominator
        den = lcm(*(c.denominator for c in fracs.values()))
        self.nvars = nvars
        self._num = {e: c.numerator * (den // c.denominator) for e, c in fracs.items()}
        self._den = den

    @property
    def terms(self) -> dict:
        """{exponent tuple: Fraction}, a new dict on each access."""
        n, den = self.nvars, self._den
        return {_unpack(n, e): Fraction(c, den) for e, c in self._num.items()}

    @classmethod
    def zero(cls, nvars: int) -> "XPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "XPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "XPoly":
        """x^i with 1-based index i."""
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars: int, exps, c=1) -> "XPoly":
        return cls(nvars, {tuple(exps): c})

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(_unpack(self.nvars, e)) for e in self._num), default=-1)

    def __add__(self, other: "XPoly") -> "XPoly":
        da, db = self._den, other._den
        if da == db:
            num, fb = self._num.copy(), 1
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            num = {e: c * fa for e, c in self._num.items()}
            da *= fa
        for e, c in other._num.items():
            if fb != 1:
                c *= fb
            prev = num.get(e)
            if prev is None:
                num[e] = c
            else:
                c += prev
                if c:
                    num[e] = c
                else:
                    del num[e]
        return _reduced(self.nvars, num, da)

    def __neg__(self) -> "XPoly":
        return _reduced(self.nvars, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other: "XPoly") -> "XPoly":
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is not XPoly:
            return self.scale(other)
        a, b = self._num, other._num
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            (e2, c2), = b.items()
            num = {e + e2: c * c2 for e, c in a.items()}
        else:
            num = {}
            for e2, c2 in b.items():
                for e1, c1 in a.items():
                    e, c = e1 + e2, c1 * c2
                    prev = num.get(e)
                    if prev is None:
                        num[e] = c
                    else:
                        c += prev
                        if c:
                            num[e] = c
                        else:
                            del num[e]
        for e in num:
            if e & _GUARDS:
                raise ExponentOverflow(f"a product has an exponent above {MAX_EXP}")
        return _reduced(self.nvars, num, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c) -> "XPoly":
        if c.__class__ is int:
            p, q = c, 1
        else:
            c = as_fraction(c)
            p, q = c.numerator, c.denominator
        if not p:
            return _reduced(self.nvars, {}, 1)
        return _reduced(self.nvars, {e: v * p for e, v in self._num.items()}, self._den * q)

    def diff(self, i: int) -> "XPoly":
        """d/dx^i with 1-based index i."""
        shift = FIELD * (i - 1)
        unit = 1 << shift
        num = {}
        for e, c in self._num.items():
            k = e >> shift & _MASK
            if k:
                num[e - unit] = c * k
        return _reduced(self.nvars, num, self._den)

    def substitute_linear(self, matrix) -> "XPoly":
        """Substitute x^i -> sum_j matrix[i][j] x^j (matrix of Fractions)."""
        terms = {}
        for e, c in self.terms.items():
            for mono, f in _subst_multidegree(e, matrix).items():
                _acc(terms, mono, c * f)
        return XPoly(self.nvars, terms)

    def eval_rational(self, point) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(point, e):
                v *= Fraction(xi) ** ei
            total += v
        return total

    def __eq__(self, other) -> bool:
        return (isinstance(other, XPoly) and self.nvars == other.nvars
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((self.nvars, self._den, frozenset(self._num.items())))

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        bits = []
        for e in sorted(terms):
            c = terms[e]
            mono = "*".join(f"x{i+1}" + (f"^{k}" if k > 1 else "")
                            for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


# The flat layout of the kernels: a coefficient as integer numerators
# {packed x-monomial: int} over one positive denominator, XPoly's own fields
# for an XPoly and the one monomial 0 for a constant.  Only this module and
# the kernels that call these helpers see it.

def _flat_terms(terms):
    """A term dict {key: coefficient} over one common denominator:
    ([(key, numerators)], denominator, nvars), nvars that of an XPoly
    coefficient (None when there is none).  An XPoly hands over its own
    fields, which callers only read; a Fraction or int c is {0: c} over its
    denominator."""
    flat = []
    den, nvars = 1, None
    for key, c in terms.items():
        if c.__class__ is XPoly:
            num, d, nvars = c._num, c._den, c.nvars
        else:
            num, d = ({0: c.numerator} if c else {}), c.denominator
        flat.append((key, num, d))
        if den % d:
            den = lcm(den, d)
    return ([(key, num if d == den else {e: c * (den // d) for e, c in num.items()})
             for key, num, d in flat], den, nvars)


def _unflat(nvars, num, den):
    """The coefficient sum num[e] / den x^e, normalized once: an XPoly, or
    for nvars None a Fraction (num then has only the monomial 0)."""
    if nvars is None:
        return Fraction(num.get(0, 0), den)
    if not all(num.values()):
        num = {e: c for e, c in num.items() if c}
    return _reduced(nvars, num, den)


def _linear_sum(parts):
    """sum c * v over the parts (c, items) and the pairs (key, v) of items,
    c a Fraction and v an XPoly: {key: XPoly}, nonzero values only.  The
    numerators of each key are summed as integers over the common
    denominator of its terms, and each value is normalized once."""
    groups = {}
    for c, items in parts:
        for key, v in items:
            hit = groups.get(key)
            if hit is None:
                groups[key] = [(c, v)]
            else:
                hit.append((c, v))
    out = {}
    for key, cvs in groups.items():
        if len(cvs) == 1:
            (c, v), = cvs
            n, den = c.numerator, c.denominator * v._den
            num = {e: x * n for e, x in v._num.items()}
        else:
            den = lcm(*[c.denominator * v._den for c, v in cvs])
            num = {}
            for c, v in cvs:
                f = c.numerator * (den // (c.denominator * v._den))
                for e, x in v._num.items():
                    num[e] = num.get(e, 0) + x * f
        p = _unflat(v.nvars, num, den)
        if p:
            out[key] = p
    return out

