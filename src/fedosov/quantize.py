"""Fedosov quantization: the abelian-connection recursion, the horizontal
lift of functions, the induced star product, the characteristic 2-form
series, and gauge equivalence of star products.

Working order: the recursions are run two filtration levels above the
requested order (delta lowers the weight by one, so curvature-class and
horizontality statements at order N need r and tau known to weight N + 2);
reported results are truncated back to the contract order.  tau is the
arity-0 case of the cochain lift, and r o r is (1/2)[r, r], r being odd.
"""

from __future__ import annotations

from fractions import Fraction

from .cochains import FiberwiseCochain, _fixed_point, _slot_splits
from .poly import SparseTerms, XPoly, _acc, _linear_sum
from .weyl import (FormWeyl, SymplecticChart, WeylElement, commutator_over_hbar,
                   _nabla_terms, curvature_R, delta_inv, moyal_product, nabla, sigma_project,
                   vec_add, weyl_curvature_class)

WORK_HEADROOM = 2


class FedosovData:
    """A symplectic chart together with a series Omega = sum_{k>=1} hbar^k
    omega_k of closed 2-forms and a truncation order.

    omega_series maps the hbar power k >= 1 to {(i, j): XPoly} with i < j.
    """

    __slots__ = ("chart", "omega_series", "order")

    def __init__(self, chart: SymplecticChart, omega_series=None, order: int = 6):
        self.chart = chart
        self.omega_series = {int(k): dict(v) for k, v in (omega_series or {}).items()}
        self.order = order

    def validate(self):
        self.chart.validate()
        n = self.chart.dim
        zero = (0,) * n
        for k, form in self.omega_series.items():
            if k < 1:
                raise ValueError(
                    f"Omega must have hbar powers >= 1, found hbar^{k}")
            for (i, j), p in form.items():
                if not (1 <= i < j <= n):
                    raise ValueError(f"bad 2-form indices ({i},{j})")
            # closedness: nabla is d on a y-free, slot-free form
            d_form = _nabla_terms({(S, 0, zero, ()): p for S, p in form.items()}, self.chart)
            if d_form:
                a, b, c = min(key[0] for key in d_form)
                raise ValueError(f"omega_{k} is not closed at dx{a}dx{b}dx{c}")

    def omega_form(self, order: int) -> FormWeyl:
        """Omega as a central form-valued section."""
        n = self.chart.dim
        return FormWeyl.from_terms(n, order, {((i, j), k, (0,) * n, ()): p
                                              for k, form in self.omega_series.items()
                                              for (i, j), p in form.items()})


def solve_r(data: FedosovData, validate: bool = True) -> FormWeyl:
    """Solve r = delta_inv(R - Omega) + delta_inv(nabla r + (1/hbar) r o r)
    by iteration; the unique fixed point with delta_inv(r) = 0 and
    filtration weight >= 3, carried to order data.order + 2.  r is an odd
    form, so r o r = (1/2)[r, r]."""
    if validate:
        data.validate()
    chart = data.chart
    work = data.order + WORK_HEADROOM
    R = curvature_R(chart, work)
    Om = data.omega_form(work)
    base = delta_inv(R - Om)
    r = base
    for _ in range(work + 2):
        update = nabla(r, chart) + commutator_over_hbar(r, r, chart).scale(Fraction(1, 2))
        r_next = base + delta_inv(update)
        if r_next == r:
            return r
        r = r_next
    raise RuntimeError("connection recursion failed to stabilize")


def tau(a: WeylElement, data: FedosovData, r: FormWeyl) -> WeylElement:
    """Horizontal lift: the unique fixed point of
    tau(a) = a + delta_inv(nabla tau(a) + (1/hbar)[r, tau(a)]), satisfying
    sigma(tau(a)) = a and D(tau(a)) = 0: the cochain lift's fixed point on
    a as an arity-0 cochain.  It is exact only to weight W + 2k on the
    hbar^k terms of a, k < 0, where W = data.order + 2 is the working
    order; a lift exact at data.order runs _star_depth(a) orders deeper."""
    if not a.is_y_free():
        raise ValueError("tau expects an hbar-Laurent polynomial in x (no y)")
    first = FiberwiseCochain.from_form(FormWeyl.from_weyl(
        a.truncate(data.order + WORK_HEADROOM)))
    lift = _fixed_point(first, data.chart, r, "horizontal-lift recursion")
    return lift.to_form().component(())


def star(a: WeylElement, b: WeylElement, data: FedosovData, r=None) -> WeylElement:
    """a * b = sigma(tau(a) o tau(b)), truncated to the contract order; r is
    solved afresh when negative hbar powers make the product run deeper."""
    depth = _star_depth(a, b)
    run = FedosovData(data.chart, data.omega_series, data.order + depth)
    if r is None or depth:
        r = solve_r(run)
    return _sigma_product(tau(a, run, r), tau(b, run, r), data)


def _neg(factors) -> int:
    """neg(factors): the sum of max(0, -k) over the lowest power hbar^k of
    each factor."""
    return sum(max(0, -(x.min_hbar() or 0)) for x in factors)


def _star_depth(*factors: WeylElement, s: int = 0) -> int:
    """How far above the contract order N a product of the factors (or the
    lift of one) must run: its weight-N part needs the lift of each factor
    to weight N + 2 neg(the other factors), and the lift of hbar^k x^e,
    k < 0, at working order W = N + 2 is exact to W + 2k.  Slots that read
    y^alpha of the lifts under hbar^m need s = max |alpha| - 2m more."""
    return max(0, s + 2 * _neg(factors) - 2)


def _sigma_product(ta: WeylElement, tb: WeylElement, data: FedosovData) -> WeylElement:
    """sigma(ta o tb), truncated to the contract order."""
    return sigma_project(moyal_product(ta, tb, data.chart)).truncate(data.order)


class StarProduct:
    """Fedosov data with its solved connection 1-form; evaluates a * b on
    hbar-Laurent polynomials in x.

    a * b equals star(a, b, data) exactly, but each argument is lifted from
    a memo of tau(x^e) keyed by the x-exponent e.  This is exact because
    tau is Q[hbar]-linear: every operator of its recursion (nabla,
    delta_inv, (1/hbar)[r, .]) is Q[hbar]-linear and never lowers the
    weight 2k + |p|, while multiplying by hbar^k shifts that weight by
    exactly 2k.  So tau of sum c hbar^k x^e at the working order is
    sum c hbar^k tau(x^e), truncated.  That sum is taken flat
    (poly._linear_sum): the integer numerators of all its terms on one key
    (hbar power, y-multidegree) are added over their common denominator,
    and each coefficient is normalized once, not once per term.  A product
    that _star_depth sends deeper runs on one deeper instance per depth,
    with its own r and memo.
    The memo is filled lazily, through tau itself, and grows by one lifted
    element per distinct monomial that an instance meets.

    StarProduct.lifts owns the depth of a lift taken outside a product: it
    runs plain tau on the instance that its factors' product would use, s
    orders deeper for slot derivatives that read s more weight, so each
    lift is exact at the contract order.  StarProduct.tau and
    LocalCochainEvaluator lift through it.  It is not memoized yet (the
    switch is sp._lift in its one line): bench/worker.py keeps every op's
    inputs, so a beta workload made faster completes more ops and its
    peak_rss_mb grows past its bound; the switch waits on a benchmark
    that measures memory at a fixed op count.
    """

    __slots__ = ("data", "r", "_lifts", "_deeper")

    def __init__(self, data: FedosovData, r: FormWeyl = None):
        self.data = data
        self.r = solve_r(data) if r is None else r
        self._lifts = {}
        self._deeper = {}

    def _at_depth(self, depth: int) -> "StarProduct":
        """self, or the instance that runs depth orders deeper."""
        sp = self._deeper.get(depth) if depth else self
        if sp is None:
            data = self.data
            sp = self._deeper[depth] = StarProduct(
                FedosovData(data.chart, data.omega_series, data.order + depth))
        return sp

    def lifts(self, *factors: WeylElement, s: int = 0) -> list:
        """tau of each factor, exact at the contract order in a product of
        all of them, or under slots that read s more weight: plain tau, run
        _star_depth(*factors, s=s) orders deeper."""
        sp = self._at_depth(_star_depth(*factors, s=s))
        return [tau(a, sp.data, sp.r) for a in factors]

    def _beside(self, *others: WeylElement) -> "StarProduct":
        """The instance 2 neg(others) orders deeper: a factor known to its
        order gives a product with others that is exact at the contract
        order, since others' negative hbar powers lower the weight of the
        factor's terms by up to 2 neg(others)."""
        return self._at_depth(2 * _neg(others))

    def tau(self, a: WeylElement) -> WeylElement:
        """tau(a), exact at the contract order."""
        return self.lifts(a)[0]

    def __call__(self, a: WeylElement, b: WeylElement) -> WeylElement:
        sp = self._at_depth(_star_depth(a, b))
        return _sigma_product(sp._lift(a), sp._lift(b), self.data)

    def _lift(self, a: WeylElement) -> WeylElement:
        """tau(a, self.data, self.r), summed flat from the memoized monomial
        lifts."""
        if not a.is_y_free():
            raise ValueError("tau expects an hbar-Laurent polynomial in x (no y)")
        terms = _linear_sum([(coeff, [((m + k, p), v) for (m, p), v
                                      in self._monomial_lift(e).terms.items()])
                             for (k, _), c in a.terms.items()
                             for e, coeff in c.terms.items()])
        return WeylElement(a.dim, self.data.order + WORK_HEADROOM, terms)

    def _monomial_lift(self, e) -> WeylElement:
        """tau(x^e) at the working order."""
        lifted = self._lifts.get(e)
        if lifted is None:
            x = WeylElement.from_xpoly(XPoly.monomial(len(e), e),
                                       self.data.order + WORK_HEADROOM)
            lifted = self._lifts[e] = tau(x, self.data, self.r)
        return lifted

    @property
    def dim(self):
        return self.data.chart.dim

    @property
    def order(self):
        return self.data.order


def fedosov_class(data: FedosovData) -> dict:
    """The 2-form series (1/hbar)(-omega + Omega), reported verbatim as
    {hbar_power: {(i, j): XPoly}} with i < j."""
    n = data.chart.dim
    out = {}
    base = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            c = data.chart.omega_lower[i - 1][j - 1]
            if not c.is_zero():
                base[(i, j)] = -c
    if base:
        out[-1] = base
    for k, form in data.omega_series.items():
        level = out.setdefault(k - 1, {})
        for key, p in form.items():
            _acc(level, key, p)
        if not level:
            out.pop(k - 1)
    return out


def curvature_residual(data: FedosovData, r: FormWeyl) -> FormWeyl:
    """weyl_curvature_class(chart, r) - Omega at the contract order; zero
    exactly for a solved r."""
    cls = weyl_curvature_class(data.chart, r, data.order + WORK_HEADROOM)
    return (cls - data.omega_form(data.order + WORK_HEADROOM)).truncate(data.order)


# ---------------------------------------------------------------------------
# gauge equivalence


class GaugeOperator(SparseTerms):
    """Q = id + sum_{k>=1} hbar^k Q_k with Q_k a differential operator in x,
    stored as {(k, dx_multi_index): XPoly}; the constructor takes the
    nested {k: {dx_multi_index: XPoly}}."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        clean = {}
        for k, ops in (terms or {}).items():
            k = int(k)
            if k < 1:
                raise ValueError("gauge corrections must have hbar power >= 1")
            for mu, p in ops.items():
                mu = tuple(mu)
                if len(mu) != dim or any(e < 0 for e in mu):
                    raise ValueError(f"dx multi-index {list(mu)} must have {dim} "
                                     "non-negative entries")
                if not p.is_zero():
                    clean[(k, mu)] = p
        self.terms = clean

    @classmethod
    def identity(cls, dim: int) -> "GaugeOperator":
        return cls(dim, {})

    def apply(self, f: WeylElement) -> WeylElement:
        """Q f for a y-free Weyl element f."""
        terms = dict(f.terms)
        for (k, mu), coeff in self.terms.items():
            for (m, p), c in f.terms.items():
                _acc(terms, (m + k, p), _diff_x(c, mu) * coeff)
        return WeylElement(f.dim, f.order, terms)

    def apply_inverse(self, f: WeylElement) -> WeylElement:
        """Q^{-1} f as the geometric series sum_j (id - Q)^j f, summed until
        the remainder vanishes: it does, because id - Q raises the hbar
        power and f is truncated at its order."""
        out = cur = f
        while True:
            cur = cur - self.apply(cur)  # (id - Q) cur
            if cur.is_zero():
                return out
            out = out + cur

    def compose(self, other: "GaugeOperator") -> "GaugeOperator":
        """Operator composition: (self.compose(other))(f) = self(other(f)).
        The cross terms expand d^mu (q(x) d^nu f) by the Leibniz rule."""
        terms = (self + other).terms
        for (k1, mu), p1 in self.terms.items():
            for (k2, nu), p2 in other.terms.items():
                for gamma, (rest,), c in _slot_splits(mu, 1):
                    _acc(terms, (k1 + k2, vec_add(rest, nu)),
                         (p1 * _diff_x(p2, gamma)).scale(c))
        return self._with(terms)


def _diff_x(p: XPoly, mu) -> XPoly:
    """d^mu/dx^mu of p, one packed d/dx^i at a time."""
    for i, k in enumerate(mu, 1):
        for _ in range(k):
            p = p.diff(i)
    return p


class GaugedStarProduct:
    """(a, b) -> Q^{-1}((Q a) * (Q b)) over a base star-product evaluator."""

    __slots__ = ("base", "gauge")

    def __init__(self, base, gauge: GaugeOperator):
        self.base = base
        self.gauge = gauge

    def __call__(self, a: WeylElement, b: WeylElement) -> WeylElement:
        qa, qb = self.gauge.apply(a), self.gauge.apply(b)
        return self.gauge.apply_inverse(self.base(qa, qb))


def apply_gauge(star_eval, gauge: GaugeOperator) -> GaugedStarProduct:
    """Gauge-transform a star-product evaluator; gauge must have identity
    leading term (enforced by GaugeOperator)."""
    return GaugedStarProduct(star_eval, gauge)
