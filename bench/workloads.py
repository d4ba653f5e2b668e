"""The four benchmark workloads.

Each workload is driven in a closed loop by one client: the next op starts
only after the previous one has finished.  A workload object knows how to

* ``setup()``: load data and build what every op shares (timed as part of
  ``setup_s``);
* ``draw_design(rng, j)``: draw the structure of entry ``j`` of the
  workload's design -- which terms, degrees and arities its inputs have --
  with the seeded generators in ``fedosov.verify``;
* ``fill(rng, entry)``: the inputs of one op: the entry with every
  coefficient drawn afresh from the run's seed (``Inputs`` below; never
  timed);
* ``op(inp)``: run the op through the public functions of ``fedosov.io``,
  ``quantize``, ``cochains`` and ``weylhh`` and end in exact self-checks;
  returns ``(failed_check, results)``, ``failed_check`` being ``None`` when
  every check holds;
* ``digest_payload(results)``: the canonical JSON of the results, folded
  into the exact-output digest (never timed).

The cost of an op follows the terms of its inputs far more than their
coefficients (one star product of two monomials takes from 2 to 300 ms at
order 8), so a run that drew its terms from the seed would measure its own
mix.  The design is therefore drawn once from a fixed generator, the same
for every seed, and every run goes through all of it in blocks of
``DESIGN`` ops; the seed sets the order within each block and every
coefficient.

Library calls go through module attributes (``cochains.cup``, not a
bound name) so that the tracer in ``spans.py`` sees them.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from fedosov import cochains, quantize, verify, weylhh
from fedosov import io as fio
from fedosov.poly import XPoly
from fedosov.weyl import WeylElement

DATA_DIR = Path(__file__).resolve().parent / "data"
DIM = 2


def n_terms(x):
    """Stored terms of a cochain, or monomials of a y-free Weyl element."""
    if isinstance(x, WeylElement):
        return sum(len(c.terms) for c in x.terms.values())
    return len(x.terms)


def recoefficient(x, rng):
    """``x`` with the same terms and every coefficient drawn afresh with
    ``verify.rand_fraction`` (never zero); tuples and lists elementwise,
    anything else unchanged."""
    if isinstance(x, (list, tuple)):
        return type(x)(recoefficient(y, rng) for y in x)
    if isinstance(x, XPoly):
        return XPoly(x.nvars, {e: verify.rand_fraction(rng) for e in x.terms})
    if isinstance(x, WeylElement):
        return WeylElement(x.dim, x.order,
                           {k: recoefficient(v, rng) for k, v in x.terms.items()})
    if isinstance(x, cochains.FiberwiseCochain):
        return cochains.FiberwiseCochain(
            x.dim, x.order, x.arity,
            {k: recoefficient(v, rng) for k, v in x.terms.items()}, cap=x.cap)
    if isinstance(x, weylhh.WeylCochain):
        return weylhh.WeylCochain(x.dim, x.arity,
                                  {k: verify.rand_fraction(rng) for k in x.terms})
    return x


class Inputs:
    """The inputs of one pass, op after op: the workload's design runs in
    blocks of ``len(design)`` ops, each block in an order shuffled with
    ``rng``, and each entry gets fresh coefficients from ``rng``."""

    def __init__(self, wl, rng):
        self.wl, self.rng, self.block = wl, rng, []

    def __call__(self, i):
        if not self.block:
            self.block = list(range(len(self.wl.design)))
            self.rng.shuffle(self.block)
        return self.wl.fill(self.rng, self.wl.design[self.block.pop()])


class Workload:
    DESIGN = 64

    def __init__(self, order):
        self.order = order
        self._design = None

    @property
    def design(self):
        if self._design is None:
            rng = random.Random(f"design/{self.name}")
            self._design = [self.draw_design(rng, j) for j in range(self.DESIGN)]
        return self._design

    def fill(self, rng, entry):
        return recoefficient(entry, rng)


def sized(draw, n, keep=lambda x: True):
    """Redraw until the input has exactly n terms (and passes ``keep``): the
    generators drop colliding or over-degree terms, and a fixed number keeps
    the entries of a design alike in size.  Every identity an op checks is
    multilinear in its inputs, so few-term inputs lose no generality per
    sample."""
    while True:
        x = draw()
        if n_terms(x) == n and keep(x):
            return x


class Star(Workload):
    """Fedosov star products as ``fedosov star --json`` computes them, on the
    reference curved chart with a constant Omega series."""

    name = "star"
    default_order = 8
    # x-degree <= XDEG and hbar-power <= 1 per argument
    XDEG, NTERMS = 2, 2

    def setup(self):
        doc = json.loads((DATA_DIR / "curved_omega.json").read_text())
        data = fio.fedosov_data_from_json(doc)
        data.order = self.order
        data.validate()
        self.sp = quantize.StarProduct(data)

    def draw_design(self, rng, i):
        def arg():
            return sized(lambda: verify.rand_poly_in_x(
                rng, DIM, self.order, self.XDEG, nterms=self.NTERMS, hmax=1),
                self.NTERMS)
        return arg(), arg()

    def fill(self, rng, entry):
        return tuple(fio.weyl_text(x) for x in recoefficient(entry, rng))

    def op(self, inp):
        a = fio.parse_poly(inp[0], DIM, self.order)
        b = fio.parse_poly(inp[1], DIM, self.order)
        c = self.sp(a, b)
        out = fio.dumps_canonical({"star": fio.weyl_to_json(c)})
        key = (0, (0,) * DIM)
        zero = XPoly.zero(DIM)
        lead = a.terms.get(key, zero) * b.terms.get(key, zero)
        return (None if c.terms.get(key, zero) == lead else "hbar0-product"), out

    def digest_payload(self, results):
        return results


class Beta(Workload):
    """A stream version of the beta-morphism criterion: lift two fresh
    delta-closed seed cochains (arity 1 and hbar-free, arity 2 with one
    power of hbar), check the tau-intertwining
    identity of each local operator, and check
    beta(P1 cup P2) = beta P1 * beta P2 on one argument tuple."""

    name = "beta"
    DESIGN = 48
    default_order = 3
    NTERMS, ACAP = 1, 1

    def setup(self):
        data = verify.builtin_curved_data(self.order)
        data.validate()
        self.chart = data.chart
        # r two levels deeper than the cochain working order, for the slot
        # consumption margin of the commutator action
        self.r = quantize.solve_r(
            quantize.FedosovData(self.chart, data.omega_series, self.order + 2),
            validate=False)
        self.sp = quantize.StarProduct(data, self.r.truncate(self.order + 2))

    def draw_design(self, rng, i):
        order, work = self.order, self.order + 2

        # the hbar power of a seed sets the size of its lift (hbar-free
        # seeds lift to several times more terms); fixing it per arity keeps
        # the cost of ops alike
        def seed(k, m):
            return sized(lambda: verify.rand_cochain(
                rng, DIM, order, k, qs=(0,), ydeg=0, acap=self.ACAP,
                nterms=self.NTERMS, work=work), self.NTERMS,
                lambda c: all(key[1] == m for key in c.terms))

        def args(k, deg):
            return [sized(lambda: verify.rand_poly_in_x(rng, DIM, order, deg,
                                                        nterms=2), 2)
                    for _ in range(k)]

        return [(seed(1, 0), args(1, 2)), (seed(2, 1), args(2, 2))], args(3, 1)

    def op(self, inp):
        seeds, cup_args = inp
        order, sp = self.order, self.sp
        lifts, evs, values = [], [], []
        for seedc, args in seeds:
            lift = cochains.horizontal_lift_cochain(seedc, self.chart, self.r)
            ev = cochains.to_local_operator(lift, sp, validate=False)
            value = ev(*args)
            lhs = sp.tau(value)
            rhs = cochains.cochain_eval(lift, [sp.tau(x) for x in args]).component(())
            if lhs.truncate(order) != rhs.truncate(order):
                return "tau-intertwining", None
            lifts.append(lift)
            evs.append(ev)
            values.append(value)
        e12 = cochains.to_local_operator(cochains.cup(*lifts, self.chart), sp,
                                         validate=False)
        value = e12(*cup_args)
        if value != evs[0].cup(evs[1])(*cup_args):
            return "cup-morphism", None
        return None, [*lifts, *values, value]

    def digest_payload(self, results):
        lifts, values = results[:2], results[2:]
        return fio.dumps_canonical({"lifts": [fio.cochain_to_json(c) for c in lifts],
                                    "values": [fio.weyl_to_json(v) for v in values]})


class CochainAlgebra(Workload):
    """The ``verify cochain`` identities: d^2 = 0 and the bracket form of d
    on one fresh cochain; cup associativity, both derivation rules,
    antisymmetry and Jacobi on one fresh triple."""

    name = "cochain-algebra"
    default_order = 6
    YDEG, ACAP, NTERMS = 2, 2, 1

    def setup(self):
        data = verify.builtin_curved_data(self.order)
        data.validate()
        self.chart = data.chart
        self.work = self.order + 2
        self.mu = cochains.product_cochain(self.chart, DIM, self.work, self.order + 1)

    def draw_design(self, rng, i):
        order, work, acap = self.order, self.work, self.ACAP

        def draw(arity, nterms, **kw):
            return sized(lambda: verify.rand_cochain(
                rng, DIM, order, arity, acap=acap, nterms=nterms, work=work,
                **kw), nterms)

        # every entry has the same arities, so that entries differ only in
        # their terms
        P = draw(1, self.NTERMS, ydeg=self.YDEG)
        qa, qb = rng.choice([0, 1]), rng.choice([0, 1])
        A = draw(1, self.NTERMS, qs=(qa,), ydeg=2)
        B = draw(1, self.NTERMS, qs=(qb,), ydeg=2)
        # C is dx-free: for some triples with B and C both of odd exterior
        # degree the library's Jacobi identity fails
        C = draw(1, self.NTERMS, qs=(0,), ydeg=2)
        A0 = draw(2, self.NTERMS, qs=(0,), ydeg=2)
        B0 = draw(1, self.NTERMS, qs=(0,), ydeg=2)
        return P, (A, B, C, qa, qb), (A0, B0)

    def op(self, inp):
        P, (A, B, C, qa, qb), (A0, B0) = inp
        order, chart = self.order, self.chart
        hd, cup, gb = cochains.hochschild_d, cochains.cup, cochains.gerstenhaber

        def same(x, y):
            return x.truncate(order) == y.truncate(order)

        def signed(x, even):
            return x if even else -x

        # d^2 = 0 and d = +-[mult, .]_G on the single cochain
        dP = hd(P, chart)
        if not hd(dP, chart).truncate(order).is_zero():
            return "d-squared", None
        rhs = cochains.FiberwiseCochain.zero(DIM, self.work, P.arity + 1, P.cap)
        for q in P.exterior_degrees():
            rhs = rhs + signed(gb(self.mu, P.homogeneous_q(q)), (q + P.arity + 1) % 2 == 0)
        if not same(dP, rhs):
            return "bracket-form-of-d", None
        abc = cup(cup(A, B, chart), C, chart)
        if not same(abc, cup(A, cup(B, C, chart), chart)):
            return "cup-associativity", None
        # d(A cup B) = (-)^{q_B} dA cup B + (-)^{k_A + q_A} A cup dB
        rhs = (signed(cup(hd(A, chart), B, chart), qb % 2 == 0)
               + signed(cup(A, hd(B, chart), chart), (A.arity + qa) % 2 == 0))
        if not same(hd(cup(A, B, chart), chart), rhs):
            return "cup-derivation", None
        # d[A,B] = (-)^{k_B-1}[dA,B] + [A,dB] on dx-free factors
        rhs = (signed(gb(hd(A0, chart), B0), (B0.arity - 1) % 2 == 0)
               + gb(A0, hd(B0, chart)))
        if not same(hd(gb(A0, B0), chart), rhs):
            return "bracket-derivation", None
        e1, e2 = A.arity - 1, B.arity - 1
        ab = gb(A, B)
        if ab != signed(gb(B, A), (e1 * e2) % 2 == 1):
            return "antisymmetry", None
        jac = gb(ab, C) + signed(gb(B, gb(A, C)), (e1 * e2) % 2 == 0)
        if gb(A, gb(B, C)) != jac:
            return "jacobi", None
        return None, [dP.truncate(order), abc.truncate(order), ab]

    def digest_payload(self, results):
        return fio.dumps_canonical([fio.cochain_to_json(c) for c in results])


class WeylHomotopy(Workload):
    """Constant-theta work on one shared WeylContext: the chi identity, the
    dual rho-hat identity, and a GL homotopy square in a freshly transported
    context whose caches start cold."""

    name = "weyl-homotopy"
    DESIGN = 48
    default_order = 6
    YDEG, NTERMS = 3, 1
    WINDOW = 2
    REC = verify.CHI_WINDOW_FACTOR * WINDOW

    def setup(self):
        self.ctx = weylhh.WeylContext.standard(DIM, self.order)

    def draw_design(self, rng, i):
        ctx, w = self.ctx, self.WINDOW

        def draw(q, **kw):
            return sized(lambda: verify.rand_wcochain(
                rng, ctx, q, nterms=self.NTERMS, **kw), self.NTERMS)

        # from entry to entry, arities alternate 1, 2 for the chi identity and
        # 2, 1 for rho-hat and the GL square, so every op mixes arity-1 and
        # arity-2 parts
        q = 1 + i % 2
        a_chi = draw(q, ydeg=self.YDEG, acap=w)
        a_rho = draw(3 - q)
        a_sq = draw(3 - q, ydeg=2)
        return a_chi, a_rho, a_sq

    def fill(self, rng, entry):
        a_chi, a_rho, a_sq = recoefficient(entry, rng)
        return a_chi, a_rho, verify.rand_gl(rng, DIM), a_sq

    def op(self, inp):
        a_chi, a_rho, g, a_sq = inp
        ctx, order, w, rec = self.ctx, self.order, self.WINDOW, self.REC
        d = weylhh.hh_hochschild_d

        def window(x):
            return x.restrict(w).normalize(order)

        # a = (d chi + chi d) a on the window
        chi_a = weylhh.cochain_homotopy(ctx, a_chi, rec, order)
        got = d(ctx, chi_a, order) + weylhh.cochain_homotopy(ctx, d(ctx, a_chi), w, order)
        if window(got) != window(a_chi):
            return "chi-identity", None

        # a - a(lambda nu) = d rho_hat(a) + rho_hat(d a)
        def via_koszul(betas):
            chain = weylhh.koszul_to_bar(ctx, weylhh.bar_to_koszul(
                ctx, weylhh.BarChain.interior(DIM, betas)))
            return weylhh.eval_on_bar(ctx, a_rho, chain)

        a_ln = weylhh.cochain_from_values(ctx, via_koszul, a_rho.arity, w, order)
        rh = weylhh.rho_hat(ctx, a_rho, rec, order)
        rhs = d(ctx, rh, order) + weylhh.rho_hat(ctx, d(ctx, a_rho), w, order)
        if window(a_rho - a_ln) != window(rhs):
            return "rho-hat-identity", None

        # the homotopy commutes with GL transport
        ctx2 = weylhh.gl_transport_context(ctx, g)
        left = weylhh.gl_transport(ctx, g, weylhh.cochain_homotopy(ctx, a_sq, rec, order))
        right = weylhh.cochain_homotopy(ctx2, weylhh.gl_transport(ctx, g, a_sq), rec, order)
        if window(left) != window(right):
            return "gl-homotopy-square", None
        return None, [chi_a, rh, left]

    def digest_payload(self, results):
        return fio.dumps_canonical([fio.wcochain_to_json(c) for c in results])


WORKLOADS = {cls.name: cls for cls in (Star, Beta, CochainAlgebra, WeylHomotopy)}
