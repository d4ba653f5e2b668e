"""Exact coefficient arithmetic: multivariate polynomials over Q and Laurent
polynomials in hbar, the linear structure shared by every sparse type, and
the two monomial kernels every module calls: linear substitution and the
derivative d^alpha y^beta.

Every sparse type of the package stores a dictionary {key: coefficient} in
``terms``.  SparseTerms gives all of them one add/neg/sub/scale and one
copy; GradedTerms gives the five types graded by Fedosov's filtration one
order clip, truncation, hbar shift and weight query.  XPoly, the hottest
type, keeps its own arithmetic.  Instances are treated as immutable
after construction; every operation returns a new, normalized object (no
stored zero coefficients).
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, perm

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
    """The linear structure of a sparse sum {key: coefficient}.  A subclass
    stores the sum in ``terms`` next to header slots (dim, order, arity,
    ...) that every result of the structure copies; one that GL transport
    moves names its key fields in ``KEY``, which io reads too."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._HEADER = tuple(name for name in cls.__slots__ if name != "terms")

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


class XPoly:
    """Polynomial in the base coordinates x^1..x^{2n} with rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = as_fraction(c)
                if c:
                    if len(exps) != nvars:
                        raise ValueError("exponent vector has wrong length")
                    clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "XPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "XPoly":
        return cls(nvars, {(0,) * nvars: as_fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "XPoly":
        """x^i with 1-based index i."""
        e = [0] * nvars
        e[i - 1] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps, c=1) -> "XPoly":
        return cls(nvars, {tuple(exps): as_fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __add__(self, other: "XPoly") -> "XPoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            _acc(terms, e, c)
        out = XPoly(self.nvars)
        out.terms = terms
        return out

    def __neg__(self) -> "XPoly":
        out = XPoly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "XPoly") -> "XPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, XPoly):
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    _acc(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            out = XPoly(self.nvars)
            out.terms = terms
            return out
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "XPoly":
        c = as_fraction(c)
        out = XPoly(self.nvars)
        if c:
            out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def diff(self, i: int) -> "XPoly":
        """d/dx^i with 1-based index i."""
        terms = {}
        for e, c in self.terms.items():
            k = e[i - 1]
            if k:
                _acc(terms, e[: i - 1] + (k - 1,) + e[i:], c * k)
        out = XPoly(self.nvars)
        out.terms = terms
        return out

    def substitute_linear(self, matrix) -> "XPoly":
        """Substitute x^i -> sum_j matrix[i][j] x^j (matrix of Fractions)."""
        terms = {}
        for e, c in self.terms.items():
            for mono, f in _subst_multidegree(e, matrix).items():
                _acc(terms, mono, c * f)
        out = XPoly(self.nvars)
        out.terms = terms
        return out

    def eval_rational(self, point) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(point, e):
                v *= Fraction(xi) ** ei
            total += v
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, XPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(f"x{i+1}" + (f"^{k}" if k > 1 else "")
                            for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class HbarScalar(SparseTerms):
    """Laurent polynomial in hbar over Q; exponents bounded below.

    Filtration weight of hbar^k is 2k, so truncation at order N keeps k <= N//2.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                c = as_fraction(c)
                if c:
                    clean[int(k)] = c
        self.terms = clean

    @classmethod
    def const(cls, c) -> "HbarScalar":
        return cls({0: as_fraction(c)})

    @classmethod
    def hbar(cls, k: int = 1, c=1) -> "HbarScalar":
        return cls({k: as_fraction(c)})

    @property
    def min_exp(self):
        return min(self.terms) if self.terms else None

    def __mul__(self, other):
        if isinstance(other, HbarScalar):
            terms = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    _acc(terms, k1 + k2, c1 * c2)
            return HbarScalar(terms)
        return self.scale(other)

    __rmul__ = __mul__

    def truncate(self, order: int) -> "HbarScalar":
        return HbarScalar({k: c for k, c in self.terms.items() if 2 * k <= order})

    def __eq__(self, other) -> bool:
        return isinstance(other, HbarScalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if k == 0:
                bits.append(f"{c}")
            elif k == 1:
                bits.append(f"{c}*hbar")
            else:
                bits.append(f"{c}*hbar^{k}")
        return " + ".join(bits)
