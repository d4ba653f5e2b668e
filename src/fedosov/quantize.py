"""Fedosov quantization: the abelian-connection recursion, the horizontal
lift of functions, the induced star product, the characteristic 2-form
series, and gauge equivalence of star products.

Working order: the recursions are run two filtration levels above the
requested order (delta lowers the weight by one, so curvature-class and
horizontality statements at order N need r and tau known to weight N + 2);
reported results are truncated back to the contract order.
"""

from __future__ import annotations

from .cochains import _slot_splits
from .poly import SparseTerms, XPoly, _acc, _mono_derivative
from .weyl import (FormWeyl, SymplecticChart, WeylElement, commutator_over_hbar,
                   curvature_R, delta_inv, moyal_product, nabla, product_over_hbar,
                   sigma_project, vec_add, weyl_curvature_class)

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
        for k, form in self.omega_series.items():
            if k < 1:
                raise ValueError(
                    f"Omega must have hbar powers >= 1, found hbar^{k}")
            for (i, j), p in form.items():
                if not (1 <= i < j <= n):
                    raise ValueError(f"bad 2-form indices ({i},{j})")
            # d-closedness: antisymmetrized gradient vanishes
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    for c in range(b + 1, n + 1):
                        acc = (self._coeff(form, b, c).diff(a)
                               - self._coeff(form, a, c).diff(b)
                               + self._coeff(form, a, b).diff(c))
                        if not acc.is_zero():
                            raise ValueError(
                                f"omega_{k} is not closed at dx{a}dx{b}dx{c}")

    def _coeff(self, form, i, j) -> XPoly:
        if i < j:
            return form.get((i, j), XPoly.zero(self.chart.dim))
        return -form.get((j, i), XPoly.zero(self.chart.dim))

    def omega_form(self, order: int) -> FormWeyl:
        """Omega as a central form-valued section."""
        n = self.chart.dim
        return FormWeyl.from_terms(n, order, {((i, j), k, (0,) * n, ()): p
                                              for k, form in self.omega_series.items()
                                              for (i, j), p in form.items()})


def solve_r(data: FedosovData, validate: bool = True) -> FormWeyl:
    """Solve r = delta_inv(R - Omega) + delta_inv(nabla r + (1/hbar) r o r)
    by iteration; the unique fixed point with delta_inv(r) = 0 and
    filtration weight >= 3, carried to order data.order + 2."""
    if validate:
        data.validate()
    chart = data.chart
    work = data.order + WORK_HEADROOM
    R = curvature_R(chart, work)
    Om = data.omega_form(work)
    base = delta_inv(R - Om)
    r = base
    for _ in range(work + 2):
        update = nabla(r, chart) + product_over_hbar(r, r, chart)
        r_next = base + delta_inv(update)
        if r_next == r:
            return r
        r = r_next
    raise RuntimeError("connection recursion failed to stabilize")


def tau(a: WeylElement, data: FedosovData, r: FormWeyl) -> WeylElement:
    """Horizontal lift: the unique fixed point of
    tau(a) = a + delta_inv(nabla tau(a) + (1/hbar)[r, tau(a)]), satisfying
    sigma(tau(a)) = a and D(tau(a)) = 0."""
    if not a.is_y_free():
        raise ValueError("tau expects an hbar-Laurent polynomial in x (no y)")
    work = data.order + WORK_HEADROOM
    chart = data.chart
    # the recursion map is linear and strictly raises the filtration: sum
    # the iterated increments; a term hbar^k with k < 0 starts at weight
    # 2k, so it needs 2|k| more passes
    total = FormWeyl.from_weyl(a.truncate(work))
    inc = total
    for _ in range(work + 2 + 2 * max(0, -(a.min_hbar() or 0))):
        update = nabla(inc, chart) + commutator_over_hbar(r, inc, chart)
        inc = delta_inv(update)
        if inc.is_zero():
            return total.component(())
        total = total + inc
    raise RuntimeError("horizontal-lift recursion failed to stabilize")


def star(a: WeylElement, b: WeylElement, data: FedosovData, r=None) -> WeylElement:
    """a * b = sigma(tau(a) o tau(b)), truncated to the contract order."""
    if r is None:
        r = solve_r(data)
    return _sigma_product(tau(a, data, r), tau(b, data, r), data)


def _sigma_product(ta: WeylElement, tb: WeylElement, data: FedosovData) -> WeylElement:
    """sigma(ta o tb), truncated to the contract order."""
    return sigma_project(moyal_product(ta, tb, data.chart)).truncate(data.order)


class StarProduct:
    """Fedosov data with its solved connection 1-form; evaluates a * b on
    hbar-Laurent polynomials in x.

    a * b equals star(a, b, data, r) exactly, but each argument is lifted
    from a memo of tau(x^e) keyed by (x-exponent e, level).  This is exact
    because tau is Q[hbar]-linear and every operator of its recursion
    (nabla, delta_inv, (1/hbar)[r, .]) is Q[hbar]-linear and never lowers
    the weight 2k + |p|, while multiplying by hbar^k shifts that weight by
    exactly 2k.  So tau at the working order W of sum c hbar^k x^e is
    sum c hbar^k tau_L(x^e) truncated back to W, where tau_L runs the same
    recursion at level L = W - 2 min(0, k) with the same r: a term with
    k >= 0 reuses the level-W lift, whose terms above W - 2k the final
    truncation drops, and a term with k < 0 needs its lift 2|k| deeper.
    The memo is filled lazily, through tau itself, and grows by one lifted
    element per distinct (monomial, level) that an instance meets.

    StarProduct.tau (and so LocalCochainEvaluator) is not memoized yet.
    bench/worker.py keeps every op's inputs for its traced replay, so a
    beta workload made faster by the memo completes more ops in its run
    and its peak_rss_mb grows past its bound; the switch waits on a
    benchmark that measures memory at a fixed op count.
    """

    __slots__ = ("data", "r", "_lifts")

    def __init__(self, data: FedosovData, r: FormWeyl = None):
        self.data = data
        self.r = solve_r(data) if r is None else r
        self._lifts = {}

    def tau(self, a: WeylElement) -> WeylElement:
        return tau(a, self.data, self.r)

    def __call__(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return _sigma_product(self._lift(a), self._lift(b), self.data)

    def _lift(self, a: WeylElement) -> WeylElement:
        """tau(a, self.data, self.r), summed from the memoized monomial lifts."""
        if not a.is_y_free():
            raise ValueError("tau expects an hbar-Laurent polynomial in x (no y)")
        work = self.data.order + WORK_HEADROOM
        terms = {}
        for (k, _), c in a.truncate(work).terms.items():
            level = work - 2 * min(0, k)
            for e, coeff in c.terms.items():
                for (m, p), v in self._monomial_lift(e, level).terms.items():
                    _acc(terms, (m + k, p), v.scale(coeff))
        return WeylElement(a.dim, work, terms)

    def _monomial_lift(self, e, level: int) -> WeylElement:
        """tau(x^e) run at the working order level, with the terms of r."""
        lifted = self._lifts.get((e, level))
        if lifted is None:
            data, r = self.data, self.r
            if level != data.order + WORK_HEADROOM:
                data = FedosovData(data.chart, data.omega_series, level - WORK_HEADROOM)
                r = r.truncate(level)
            x = WeylElement.from_xpoly(XPoly.monomial(len(e), e), level)
            lifted = self._lifts[(e, level)] = tau(x, data, r)
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

    def _empty(self):
        return GaugeOperator(self.dim)

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
                for (gamma, rest), c in _slot_splits(mu, 1):
                    _acc(terms, (k1 + k2, vec_add(rest, nu)),
                         (p1 * _diff_x(p2, gamma)).scale(c))
        return self._with(terms)

    def __eq__(self, other):
        return isinstance(other, GaugeOperator) and self.terms == other.terms


def _diff_x(p: XPoly, mu) -> XPoly:
    """d^mu/dx^mu of p."""
    terms = {}
    for e, c in p.terms.items():
        d = _mono_derivative(mu, e)
        if d is not None:
            terms[d[1]] = c * d[0]
    return XPoly(p.nvars, terms)


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
