"""Failing checks carry their counterexample serialized with the io helpers;
the chi suite passes at low orders."""

import pytest

from fedosov import io as fio
from fedosov import verify
from fedosov import weylhh as hh


def test_failing_check_witness_is_the_serialized_difference(monkeypatch):
    drawn = []

    def draw(*args, real=verify.rand_koszul, **kw):
        drawn.append(real(*args, **kw))
        return drawn[-1]

    def zero_homotopy(ctx, a):
        return hh.KoszulChain(a.dim, 0 if isinstance(a, hh.WSeries) else a.m + 1)

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
