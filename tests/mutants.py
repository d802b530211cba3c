"""Mutation check: does the suite kill one-line semantic edits?

Usage, from the repository root:

    python tests/mutants.py

Each mutant is one edit of one line of `src/coxfield` and the tests that
should kill it.  The script copies the checkout's `src`, `tests` and
`pytest.ini` to a temporary directory, runs the union of those tests on
the clean copy (they must pass), then for each mutant applies its edit to
a fresh copy and runs its tests there, with OPENBLAS_NUM_THREADS=1.  A
mutant is killed when its tests fail.  It prints one line per mutant with
pytest's summary and exits 1 if any mutant survived.  pytest does not
collect this file: its name has no `test_` prefix.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (module under src/coxfield, the line as it stands, its mutant,
# the pytest arguments that should kill it)
MUTANTS = {
    # the paper's formulas, one constant off (ROADMAP item 9's six)
    "amp_onsager_x0.97": (
        "solvers.py",
        "xi_new = (1 - d) * xi + d * (xb + tau * mdot)",
        "xi_new = (1 - d) * xi + d * (xb + 0.97 * tau * mdot)",
        ["tests/test_solvers.py"]),
    "estimate_b_moment_x1.02": (
        "observables.py",
        "b_moment = 0.5 * np.sum(lp ** 2) / n \\",
        "b_moment = 0.51 * np.sum(lp ** 2) / n \\",
        ["tests/test_observables.py", "tests/test_acceptance.py"]),
    "rscv_tau_x1.1": (
        "survival.py",
        "return lp + tau_star * g_dot(",
        "return lp + 1.1 * tau_star * g_dot(",
        ["tests/test_survival.py", "tests/test_acceptance.py"]),
    "rs_v_hat_x1.02": (
        "rs.py",
        "v_hat_new = (tau_hat / tau) * np.sqrt(e_sq / zeta)",
        "v_hat_new = 1.02 * (tau_hat / tau) * np.sqrt(e_sq / zeta)",
        ["tests/test_rs.py", "tests/test_acceptance.py"]),
    "rs_prior_overlap_x0.98": (
        "rs.py",
        "overlap = 2.0 * w_hat * tail1 / shrink",
        "overlap = 0.98 * 2.0 * w_hat * tail1 / shrink",
        ["tests/test_rs.py", "tests/test_acceptance.py"]),
    "estimate_tau_cd_zeta_x1.03": (
        "observables.py",
        "return zeta * (k - pen.eta * t) - np.mean(t * gdd / (1.0 + t * gdd))",
        "return 1.03 * zeta * (k - pen.eta * t) - np.mean(t * gdd / (1.0 + t * gdd))",
        ["tests/test_observables.py", "tests/test_acceptance.py"]),
    # one per invariance of tests/test_metamorphic.py
    "risk_sets_time_tolerance": (
        # T's values where only their order belongs: times within 1e-3
        # share a risk set
        "survival.py",
        "first = np.searchsorted(self._times, self._times, side=\"left\")",
        "first = np.searchsorted(self._times, self._times - 1e-3, side=\"left\")",
        ["tests/test_metamorphic.py"]),
    "hazard_levels_in_time_order": (
        # the sorted order where the sample's own belongs
        "survival.py",
        "self._upto = np.searchsorted(self._event_idx, last)[inverse]",
        "self._upto = np.searchsorted(self._event_idx, last)",
        ["tests/test_metamorphic.py"]),
    "cd_first_column_unpenalized": (
        # a column's index where only the column belongs
        "solvers.py",
        "thresh = threshs[k]",
        "thresh = threshs[k] if k else 0.0",
        ["tests/test_metamorphic.py"]),
    # the sweep's guard: a zero coordinate skipped on a test that ignores
    # the residual's dot product
    "cd_inexact_zero_skip": (
        "solvers.py",
        "xk = cols[k]",
        "if phik == 0.0 and abs(score[k]) < thresh * mkk: continue\n"
        "            xk = cols[k]",
        ["tests/test_solvers.py::test_cd_screening_is_exact"]),
    # the numeric guards: a warning that leaves a fit or a kernel fails
    # under pytest.ini's filter, and an event other than 0/1 is an error
    "cd_errstate_dropped": (
        "solvers.py",
        '@np.errstate(over="ignore", invalid="ignore", divide="ignore")',
        "@np.errstate()",
        ["tests/test_solvers.py::test_divergence_names_the_field",
         "tests/test_solvers.py::test_divergence_names_its_likely_cause"]),
    "nelson_aalen_overflow_warns": (
        "survival.py",
        'with np.errstate(divide="ignore", over="ignore"):',
        'with np.errstate(divide="ignore"):',
        ["tests/test_survival.py::test_nelson_aalen_overflowed_weights"]),
    "harrell_c_any_event_value": (
        # the newline and indent tell it from SurvivalDataset's check
        "survival.py",
        "\n    if not np.all((events == 0.0) | (events == 1.0)):",
        "\n    if False:",
        ["tests/test_survival.py::test_harrell_reads_events_by_the_dataset_rule"]),
}


def _copy(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache",
                                    ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pytest.ini", dest / "pytest.ini")


def _pytest(root, args):
    """Whether pytest passed on args in the copy at root, and its summary."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *args],
        cwd=root, env=env, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return proc.returncode == 0, lines[-1].strip("= ") if lines else "no output"


def _mutate(root, module, old, new):
    path = root / "src" / "coxfield" / module
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{module}: {old!r} occurs {text.count(old)} times")
    path.write_text(text.replace(old, new))


def main():
    survived = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        tests = sorted({arg for *_, args in MUTANTS.values() for arg in args})
        ok, summary = _pytest(clean, tests)
        print(f"clean copy: {summary}", flush=True)
        if not ok:
            raise SystemExit("the clean copy fails its tests; no mutant run")
        for i, (name, (module, old, new, args)) in enumerate(MUTANTS.items()):
            root = Path(tmp) / f"m{i}"
            _copy(root)
            _mutate(root, module, old, new)
            ok, summary = _pytest(root, args)
            if ok:
                survived.append(name)
            print(f"{'SURVIVED' if ok else 'killed':8}  {name:28}  {summary}",
                  flush=True)
            shutil.rmtree(root)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
