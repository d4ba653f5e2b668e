"""Mutation check for the tier-1 suite.

Each mutant of MUTANTS replaces one piece of source text and names the
test recorded as its killer.  The full suite runs first, on an unmutated
copy of ``src/``, ``tests/`` and ``bench/data/`` in a temporary directory,
and must pass, so that a failure of the copy itself is not read as a kill.
Then each mutant is applied to a fresh copy and its recorded killer runs
alone.  If that test no longer fails, the whole suite runs with
``pytest -x``, and its first failing test is reported next to the stale
killer; a mutant that no test kills is reported as SURVIVED.  The working
tree is never changed.  pytest does not collect this file (its name does
not start with ``test_``).

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The exit status is 1 if a mutant survives or no longer applies, and 2 if
the unmutated copy fails; a kill by another test than the recorded killer
is reported but does not change the status.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/fedosov, original text, mutated text, recorded
# killer); the original must occur exactly once in its file
MUTANTS = [
    ("compose-drops-multinomial", "quantize.py",
     "(p1 * _diff_x(p2, gamma)).scale(c))",
     "(p1 * _diff_x(p2, gamma)))",
     "tests/test_quantize.py::test_gauge_compose_second_order_left_factor"),
    ("transfer-closed-only-at-low-weight", "cochains.py",
     "fedosov_d_cochain(P, chart, r).truncate(P.order - 1)",
     "fedosov_d_cochain(P, chart, r).truncate(P.order - 4)",
     "tests/test_cochains.py::test_transfer_rejects_input_closed_only_at_low_weight"),
    ("insert-drops-splits-at-the-order", "cochains.py",
     "if w - sum(pieces[0]) > order:",
     "if w - sum(pieces[0]) >= order:",
     "tests/test_acceptance.py::test_criterion_9_resolutions"),
    ("insert-pair-skip-uses-max", "cochains.py",
     "if w - min(asize, sum(p2)) > order:",
     "if w - max(asize, sum(p2)) > order:",
     "tests/test_insert_kernel.py::test_pair_beyond_the_order_looks_up_no_splits"),
    ("sampler-keeps-slots-over-the-cap", "verify.py",
     "return None if any(sum(al) > acap for al in alphas) else (k, p, alphas)",
     "return None if any(sum(al) > acap + 1 for al in alphas) else (k, p, alphas)",
     "tests/test_io.py::test_pinned_canonical_bytes[wcochain]"),
    ("table-marks-transfer-data-free", "verify.py",
     '"transfer": (suite_transfer, True, {}),',
     '"transfer": (suite_transfer, False, {}),',
     "tests/test_cli.py::test_verify_transfer_and_psi_suites[transfer]"),
    ("parser-keeps-the-sign-after-a-term", "io.py",
     "sign, term = 1, None",
     "term = None",
     "tests/test_io.py::test_parse_poly_basics"),
    ("parser-drops-the-star-check", "io.py",
     'if tok == "*" and prev in (None, "+", "-", "*") or prev == "*" and tok in "+-":',
     "if False:",
     "tests/test_cli.py::test_cli_fuzz_bad_invocations_exit_cleanly"),
    ("tau-command-runs-at-the-order", "quantize.py",
     "sp = self._at_depth(_star_depth(*factors))",
     "sp = self._at_depth(0)",
     "tests/test_cli.py::test_tau_command_hbar_power_below_minus_one[hbar^-2*x1*x2]"),
    ("fixed-point-drops-negative-hbar-passes", "cochains.py",
     "for _ in range(first.order + 2 - 2 * min(0, first.min_hbar() or 0)):",
     "for _ in range(first.order + 2):",
     "tests/test_cli.py::test_tau_command_negative_hbar_power"),
    ("weight-clip-drops-the-order", "poly.py",
     "if c and 2 * key[h] + sum(key[y]) <= order}",
     "if c and 2 * key[h] + sum(key[y]) < order}",
     "tests/test_cli.py::test_data_file_order_is_used_unless_order_given"),
    ("min-hbar-takes-the-max", "poly.py",
     "return min((key[h] for key in self.terms), default=None)",
     "return max((key[h] for key in self.terms), default=None)",
     "tests/test_graded_terms.py::test_min_hbar_matches_the_per_type_body[WeylElement-0]"),
    ("xpoly-skips-the-gcd-normalization", "poly.py",
     "        if g != 1:",
     "        if False:",
     "tests/test_poly.py::test_xpoly_ring_ops_match_reference[2]"),
    ("xpoly-packs-overlapping-fields", "poly.py",
     "e |= k << FIELD * i",
     "e |= k << (FIELD - 2) * i",
     "tests/test_poly.py::test_xpoly_ring_ops_match_reference[2]"),
    ("solve-r-drops-the-half", "quantize.py",
     "commutator_over_hbar(r, r, chart).scale(Fraction(1, 2))",
     "commutator_over_hbar(r, r, chart)",
     "tests/test_quantize.py::test_solve_r_matches_the_product_over_hbar_loop[builtin_curved-4]"),
    ("r-check-drops-the-weight", "cochains.py",
     "if r.filtration_degree() < 3:",
     "if False:",
     "tests/test_cochains.py::test_light_r_is_refused_by_every_use[tau]"),
    ("psi-set-transported-by-g-inverse", "weyl.py",
     '"psi": (_subst_subset, True)}',
     '"psi": (_subst_subset, False)}',
     "tests/test_weylhh.py::test_transports_intertwine_differentials"),
    ("slots-transported-by-g-inverse", "weyl.py",
     '"slots": (_subst_multidegrees, True)',
     '"slots": (_subst_multidegrees, False)',
     "tests/test_weylhh.py::test_homotopy_square_commutes"),
]

_FAILED = re.compile(r"^FAILED (\S+)", re.M)


@contextmanager
def mutated_copy(mutant=None):
    """A temporary copy of the suite and its sources, with mutant (name,
    file, old, new, killer) applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=ignore)
        # the CLI tests read the benchmark's data file
        shutil.copytree(ROOT / "bench" / "data", tmp / "bench" / "data")
        shutil.copy(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        if mutant is not None:
            _, filename, old, new, _ = mutant
            path = tmp / "src" / "fedosov" / filename
            text = path.read_text()
            if text.count(old) != 1:
                raise LookupError(f"the original text occurs {text.count(old)} "
                                  f"times in {filename}")
            path.write_text(text.replace(old, new))
        yield tmp


def run_tests(tmp, *tests):
    """Run the named tests (the whole suite if none) in the copy tmp:
    (first failing test or None, seconds, pytest exit code)."""
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *tests],
        cwd=tmp, env=env, capture_output=True, text=True)
    dt = time.perf_counter() - t0
    failed = _FAILED.search(proc.stdout)
    return (failed.group(1) if failed else None), dt, proc.returncode


def main(argv):
    t0 = time.perf_counter()
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with mutated_copy() as tmp:
        failed, dt, code = run_tests(tmp)
    if code != 0:
        print(f"the unmutated copy fails ({failed or f'pytest exit {code}'}); "
              "no mutant was run", file=sys.stderr)
        return 2
    print(f"unmutated copy: passed [{dt:.0f} s]", flush=True)
    ok = True
    for mutant in chosen:
        name, killer = mutant[0], mutant[4]
        try:
            with mutated_copy(mutant) as tmp:
                failed, dt, code = run_tests(tmp, killer)
                if failed is None:
                    failed, more, code = run_tests(tmp)
                    dt += more
        except LookupError as exc:
            print(f"{name}: STALE ({exc})")
            ok = False
            continue
        if failed is None:
            ok = False
            status = "SURVIVED" if code == 0 else f"NO FAILED TEST (pytest exit {code})"
        else:
            status = f"killed by {failed}"
            if failed != killer:
                status += f", not by its recorded killer {killer}"
        print(f"{name}: {status} [{dt:.0f} s]", flush=True)
    print(f"total: {time.perf_counter() - t0:.0f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
