"""Mutation check for the tier-1 suite.

Each mutant of MUTANTS replaces one piece of source text.  For each, this
script copies ``src/``, ``tests/`` and ``bench/data/`` to a temporary
directory, applies the mutant there, runs the suite with ``pytest -x`` and
reports the first test that fails, which kills the mutant, or SURVIVED.
An unmutated copy runs first and must pass, so that a failure of the copy
itself is not read as a kill.  The working tree is never changed.  pytest
does not collect this file (its name does not start with ``test_``).

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The exit status is 1 if a mutant survives or no longer applies, and 2 if
the unmutated copy fails.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/fedosov, original text, mutated text); the original
# must occur exactly once in its file
MUTANTS = [
    ("compose-drops-multinomial", "quantize.py",
     "(p1 * _diff_x(p2, gamma)).scale(c))",
     "(p1 * _diff_x(p2, gamma)))"),
    ("transfer-closed-only-at-low-weight", "cochains.py",
     "fedosov_d_cochain(P, chart, r).truncate(P.order - 1)",
     "fedosov_d_cochain(P, chart, r).truncate(P.order - 4)"),
    ("insert-drops-splits-at-the-order", "cochains.py",
     "if w - sum(pieces[0]) > order:",
     "if w - sum(pieces[0]) >= order:"),
    ("insert-pair-skip-uses-max", "cochains.py",
     "if w - min(asize, sum(p2)) > order:",
     "if w - max(asize, sum(p2)) > order:"),
    ("sampler-keeps-slots-over-the-cap", "verify.py",
     "return None if any(sum(al) > acap for al in alphas) else (k, p, alphas)",
     "return None if any(sum(al) > acap + 1 for al in alphas) else (k, p, alphas)"),
    ("table-marks-transfer-data-free", "verify.py",
     '"transfer": (suite_transfer, True, {}),',
     '"transfer": (suite_transfer, False, {}),'),
    ("parser-keeps-the-sign-after-a-term", "io.py",
     "sign, term = 1, None",
     "term = None"),
    ("parser-drops-the-star-check", "io.py",
     'if tok == "*" and prev in (None, "+", "-", "*") or prev == "*" and tok in "+-":',
     "if False:"),
    ("tau-command-runs-at-the-order", "cli.py",
     "data.order + _star_depth(a))",
     "data.order)"),
]

_FAILED = re.compile(r"^FAILED (\S+)", re.M)


def run_copy(mutant=None):
    """Run the suite on a copy with mutant (name, file, old, new) applied:
    (first failing test or None, seconds, pytest exit code)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=ignore)
        # the CLI tests read the benchmark's data file
        shutil.copytree(ROOT / "bench" / "data", tmp / "bench" / "data")
        shutil.copy(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        if mutant is not None:
            _, filename, old, new = mutant
            path = tmp / "src" / "fedosov" / filename
            text = path.read_text()
            if text.count(old) != 1:
                raise LookupError(f"the original text occurs {text.count(old)} "
                                  f"times in {filename}")
            path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=tmp, env=env, capture_output=True, text=True)
        dt = time.perf_counter() - t0
    failed = _FAILED.search(proc.stdout)
    return (failed.group(1) if failed else None), dt, proc.returncode


def main(argv):
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed, dt, code = run_copy()
    if code != 0:
        print(f"the unmutated copy fails ({failed or f'pytest exit {code}'}); "
              "no mutant was run", file=sys.stderr)
        return 2
    print(f"unmutated copy: passed [{dt:.0f} s]", flush=True)
    ok = True
    for mutant in chosen:
        name = mutant[0]
        try:
            killer, dt, code = run_copy(mutant)
        except LookupError as exc:
            print(f"{name}: STALE ({exc})")
            ok = False
            continue
        if killer is None:
            ok = False
            status = "SURVIVED" if code == 0 else f"NO FAILED TEST (pytest exit {code})"
        else:
            status = f"killed by {killer}"
        print(f"{name}: {status} [{dt:.0f} s]", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
