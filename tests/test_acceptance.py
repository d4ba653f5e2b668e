"""Acceptance suite: one test per criterion, each printed as a pass/fail
line with its elapsed time and asserted against its stated time budget.
All comparisons are exact rational identities (tolerance is literal
equality).

Run with output visible:
    pytest tests/test_acceptance.py -v -s
or as a script:
    python tests/test_acceptance.py
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from fedosov.poly import XPoly
from fedosov.quantize import (FedosovData, StarProduct, curvature_residual,
                              solve_r)
from fedosov.verify import (builtin_curved_data, builtin_flat_data,
                            rand_form, suite_assoc, suite_barkoszul,
                            suite_beta, suite_chi, suite_cochain,
                            suite_equivariance, suite_hodge,
                            suite_leading_symbol, suite_psi, suite_transfer)
from fedosov.weyl import SymplecticChart, WeylElement, fedosov_D

N = 6
SEED = 0


def _report(name, checks, budget, elapsed):
    assert checks, f"{name}: no checks ran"
    failed = [c for c in checks if not c.ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] {name}: {len(checks) - len(failed)}/{len(checks)} checks, "
          f"{elapsed:.1f}s (budget {budget}s)")
    for c in failed[:5]:
        print(f"    failed: {c.id}: {c.witness}")
    assert not failed, f"{name}: {len(failed)} checks failed"
    assert elapsed < budget, f"{name}: {elapsed:.1f}s over the {budget}s budget"


def _omega_data(order=N):
    return FedosovData(SymplecticChart.standard_flat(2),
                       {1: {(1, 2): XPoly.const(2, 1)}}, order)


# -- criterion 1: flat Moyal oracle ------------------------------------------

def _oracle_moyal(ea, eb, max_hbar):
    """Independent closed-form Moyal product of x-monomials on (R^2,
    omega^{12} = 1): exp((hbar/2)(d1 (x) d2 - d2 (x) d1)) expanded directly.
    Returns {hbar_power: {exps: Fraction}}."""

    def falling(n, k):
        out = 1
        for i in range(k):
            out *= n - i
        return out

    out = {}
    for t in range(max_hbar + 1):
        level = {}
        for k in range(t + 1):
            # (d1^k d2^{t-k} a) (d2^k d1^{t-k} b), coefficient
            # C(t,k) (-1)^{t-k}
            a1, a2 = ea
            b1, b2 = eb
            if k > a1 or (t - k) > a2 or k > b2 or (t - k) > b1:
                continue
            coeff = (Fraction(comb(t, k) * (-1) ** (t - k))
                     * falling(a1, k) * falling(a2, t - k)
                     * falling(b2, k) * falling(b1, t - k))
            if not coeff:
                continue
            exps = (a1 - k + b1 - (t - k), a2 - (t - k) + b2 - k)
            level[exps] = level.get(exps, Fraction(0)) + coeff
        level = {e: c / (2 ** t) / _factorial(t) for e, c in level.items() if c}
        if level:
            out[t] = level
    return out


def _factorial(t):
    out = 1
    for i in range(2, t + 1):
        out *= i
    return out


def test_criterion_1_flat_moyal_oracle():
    t0 = time.perf_counter()
    order = 8
    sp = StarProduct(builtin_flat_data(2, order))
    degs = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
    checked = 0
    for ea in degs:
        for eb in degs:
            if sum(ea) + sum(eb) > 4:
                continue
            a = WeylElement.from_xpoly(XPoly.monomial(2, ea, 1), order)
            b = WeylElement.from_xpoly(XPoly.monomial(2, eb, 1), order)
            got = sp(a, b)
            want = _oracle_moyal(ea, eb, order // 2)
            want_weyl = WeylElement(2, order, {
                (k, (0, 0)): XPoly(2, level) for k, level in want.items()})
            assert got == want_weyl, f"mismatch at {ea} * {eb}"
            checked += 1
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion-1 flat-Moyal-oracle: {checked} monomial pairs, "
          f"{elapsed:.1f}s (budget 30s)")
    assert elapsed < 30


# -- criterion 2: Fedosov fixed point -----------------------------------------

def test_criterion_2_fedosov_fixed_point():
    t0 = time.perf_counter()
    checks = []

    class C:
        def __init__(self, id, ok, witness=None):
            self.id, self.ok, self.witness = id, ok, witness

    rng = random.Random(SEED)
    for label, data in (("flat+Omega", _omega_data()), ("curved", builtin_curved_data(N))):
        r = solve_r(data)
        res = curvature_residual(data, r)
        checks.append(C(f"{label}-residual", res.is_zero(), repr(res)))
        for i in range(20):
            a = rand_form(rng, 2, N, nterms=5).truncate(N + 2)
            dd = fedosov_D(fedosov_D(a, data.chart, r), data.chart, r).truncate(N)
            checks.append(C(f"{label}-D-squared-{i}", dd.is_zero(), repr(dd)))
    _report("criterion-2 fedosov-fixed-point", checks, 60, time.perf_counter() - t0)


# -- criterion 3: star associativity ------------------------------------------

def test_criterion_3_star_associativity():
    t0 = time.perf_counter()
    checks = []
    for data in (_omega_data(), builtin_curved_data(N)):
        checks.extend(suite_assoc(data, SEED, samples=20, deg=3))
    _report("criterion-3 star-associativity", checks, 60, time.perf_counter() - t0)


# -- criterion 4: weyl-core homotopy identities ---------------------------------

def test_criterion_4_homotopy_identities():
    t0 = time.perf_counter()
    checks = suite_hodge(2, N, SEED, samples=50)
    _report("criterion-4 homotopy-identities", checks, 30, time.perf_counter() - t0)


# -- criterion 5: cochain algebra ----------------------------------------------

def test_criterion_5_cochain_algebra():
    t0 = time.perf_counter()
    checks = suite_cochain(2, N, SEED, samples=20, acap=2, ydeg=3)
    _report("criterion-5 cochain-algebra", checks, 120, time.perf_counter() - t0)


# -- criterion 6: the projection to local operators ------------------------------

def test_criterion_6_beta_morphism():
    t0 = time.perf_counter()
    checks = suite_beta(builtin_curved_data(N), SEED, samples=10)
    checks.extend(suite_leading_symbol(2, N, SEED, kmax=2))
    _report("criterion-6 beta-morphism", checks, 120, time.perf_counter() - t0)


# -- criterion 7: exactness witnesses ---------------------------------------------

def test_criterion_7_exactness_witnesses():
    t0 = time.perf_counter()
    checks = suite_transfer(builtin_curved_data(N), SEED, samples=10)
    _report("criterion-7 exactness-witnesses", checks, 60, time.perf_counter() - t0)


# -- criterion 8: reduced complex -------------------------------------------------

def test_criterion_8_psi_complex():
    t0 = time.perf_counter()
    checks = suite_psi(2, N, SEED, samples=50)
    _report("criterion-8 psi-complex", checks, 10, time.perf_counter() - t0)


# -- criterion 9: bar and Koszul resolutions --------------------------------------

def test_criterion_9_resolutions():
    t0 = time.perf_counter()
    checks = suite_barkoszul(2, N, SEED, samples=10)
    _report("criterion-9 resolutions", checks, 120, time.perf_counter() - t0)


# -- criterion 10: the cochain homotopy -------------------------------------------

def test_criterion_10_cochain_homotopy():
    t0 = time.perf_counter()
    checks = suite_chi(2, N, SEED, samples=10, window=2, ydeg=3)
    _report("criterion-10 cochain-homotopy", checks, 300, time.perf_counter() - t0)


# -- criterion 11: equivariance ----------------------------------------------------

def test_criterion_11_equivariance():
    t0 = time.perf_counter()
    checks = suite_equivariance(2, N, SEED, samples=5)
    _report("criterion-11 equivariance", checks, 120, time.perf_counter() - t0)


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"[FAIL] {name}: {exc}")
    sys.exit(1 if failures else 0)
