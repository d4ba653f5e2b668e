"""Failing checks carry their counterexample serialized with the io helpers;
the chi, barkoszul, cochain and beta suites pass at low orders; the reports
of verify all are pinned byte for byte."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from fedosov import io as fio
from fedosov import verify
from fedosov import weylhh as hh
from fedosov.cli import main
from fedosov.poly import XPoly
from fedosov.quantize import FedosovData
from fedosov.weyl import ChartValidationError, SymplecticChart, WeylElement

ROOT = Path(__file__).resolve().parents[1]


def test_failing_check_witness_is_the_serialized_difference(monkeypatch):
    drawn = []

    def draw(*args, real=verify.rand_koszul, **kw):
        drawn.append(real(*args, **kw))
        return drawn[-1]

    def zero_homotopy(ctx, a):
        return hh.KoszulChain(a.dim, 0 if isinstance(a, WeylElement) else a.m + 1)

    monkeypatch.setattr(verify, "rand_koszul", draw)
    monkeypatch.setattr(hh, "koszul_h", zero_homotopy)
    checks = {c.id: c for c in verify.suite_barkoszul(2, 4, seed=0, samples=1)}
    for m in (0, 1, 2):
        check = checks[f"koszul-contracting-m{m}"]
        assert not check.ok
        # with h = 0 the contracting identity reads 0 = a, a difference of -a
        assert check.witness in {fio.dumps_canonical(fio.koszulchain_to_json(-a))
                                 for a in drawn if a.m == m and not a.is_zero()}


@pytest.mark.parametrize("order,seed", [(0, 0), (4, 2), (5, 1)])
def test_chi_suite_passes_at_low_orders(order, seed):
    # boundary-weight inputs need chi and d two filtration levels above the
    # order: 3 hbar y1^2 at order 4, chi-identity-2 at order 5 seed 1
    checks = verify.run_suite("chi", order=order, seed=seed)
    assert len(checks) == 11
    assert [(c.id, c.witness) for c in checks if not c.ok] == []


@pytest.mark.parametrize("suite,order,seed", [
    ("barkoszul", 0, 1), ("barkoszul", 1, 0), ("cochain", 2, 1),
    ("cochain", 2, 2), ("beta", 2, 0), ("beta", 2, 1)])
def test_suites_pass_at_low_orders_without_a_slot_cap(suite, order, seed):
    # a truncation by slot degree does not commute with the Hochschild
    # differential: inserting a cochain splits a slot's alpha over the
    # inserted slots, so a dropped |alpha| = 3 term feeds kept terms
    data = verify.builtin_curved_data(order) if suite == "beta" else None
    checks = verify.run_suite(suite, data=data, order=order, seed=seed)
    assert checks
    assert [(c.id, c.witness) for c in checks if not c.ok] == []


@pytest.mark.parametrize("argv,digest", [
    (["--json", "--order", "2", "verify", "all"],
     "422b251f951c42fa2e6d95576b63ee3d0c9e4691c36f4bd3b5fe6128a3705c11"),
    (["--json", "--order", "3", "verify", "all", "--data", "bench/data/curved_omega.json"],
     "a03df7486ee20fedb3787127f5c9513bfad18e719389cbe6f1fc19dd03791fb7")])
def test_verify_all_report_bytes_are_pinned(argv, digest, monkeypatch, capsys):
    # every generator's draws, every suite's checks and witnesses, and the
    # suite table's order meet in these bytes; the data path is relative
    # because the report echoes it
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_all_runs_its_data_suites_in_the_requested_dim(monkeypatch, capsys):
    # without --data, the data suites of all run on the built-in chart of
    # --dim, the dim the report states
    seen = {}

    def spy(name, fn, takes_data):
        def run(*args, **kw):
            seen[name] = args[0].chart.dim if takes_data else kw["dim"]
            return []
        return run

    monkeypatch.setattr(verify, "SUITES", {
        name: (spy(name, fn, takes_data), takes_data, kw)
        for name, (fn, takes_data, kw) in verify.SUITES.items()})
    assert main(["--json", "--order", "2", "verify", "all", "--dim", "4"]) == 0
    assert '"dim":4' in capsys.readouterr().out.replace(" ", "")
    assert seen == dict.fromkeys(verify.SUITES, 4)



def test_verify_equivariance_runs_its_flat_checks_in_the_requested_dim(monkeypatch,
                                                                     capsys):
    # the flat star and beta squares push dim-4 inputs along g0, repeated
    # block-diagonally; seed 3 draws a nonzero seed cochain for the beta square
    pushed = set()

    def spy(name, real):
        def push(x, *args):
            pushed.add((name, x.dim))
            return real(x, *args)
        return push

    for name in ("transport_weyl", "transport_cochain"):
        monkeypatch.setattr(verify, name, spy(name, getattr(verify, name)))
    argv = ["--json", "--order", "4", "--seed", "3", "verify", "equivariance", "--dim", "4"]
    assert main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {"flat-star-equivariance", "flat-beta-equivariance"} <= {c["id"] for c in checks}
    assert all(c["status"] == "pass" for c in checks)
    assert pushed == {("transport_weyl", 4), ("transport_cochain", 4)}


def _x_dependent_omega_chart():
    """The dim-4 chart with the closed form omega = omega0 + (x4^2 + x1 x3)
    dx1^dx3 + 2 x3 x4 dx1^dx4, its exact inverse and the standard
    torsion-free symplectic connection
    Gamma^l_ij = (1/3) sum_k (d_i omega_jk + d_j omega_ik) omega^kl."""
    n = 4
    x = [None] + [XPoly.variable(n, i) for i in range(1, n + 1)]
    zero, one = XPoly.zero(n), XPoly.const(n, 1)
    f, g = x[4] * x[4] + x[1] * x[3], (x[3] * x[4]).scale(2)
    lower = [[zero, -one, f, g], [one, zero, zero, zero],
             [-f, zero, zero, -one], [-g, zero, one, zero]]
    upper = [[zero, one, zero, zero], [-one, zero, -g, f],
             [zero, g, zero, one], [zero, -f, -one, zero]]
    gamma = {}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                c = zero
                for k in range(n):
                    c = c + (lower[j][k].diff(i + 1) + lower[i][k].diff(j + 1)) * upper[k][l]
                if c:
                    gamma[(l + 1, i + 1, j + 1)] = c.scale(Fraction(1, 3))
    return SymplecticChart(n, lower, upper, gamma)


def test_x_dependent_omega_chart_passes_dsquare():
    chart = _x_dependent_omega_chart()
    chart.validate()
    assert len(chart.christoffel) == 18
    checks = verify.suite_dsquare(FedosovData(chart, {}, 3), seed=0, samples=10)
    assert checks and all(c.ok for c in checks), [c.id for c in checks if not c.ok]


def test_x_dependent_omega_without_a_connection_is_refused():
    # with no Christoffel symbols nabla_i omega_jk is d_i omega_jk, and the
    # first nonzero one is d_1 (x4^2 + x1 x3) = x3
    chart = _x_dependent_omega_chart()
    bare = SymplecticChart(4, chart.omega_lower, chart.omega_upper, {})
    with pytest.raises(ChartValidationError, match=r"^nabla_1 omega_\{1,3\} != 0$"):
        bare.validate()
