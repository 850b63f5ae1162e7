"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to watch them); the
criteria reuse the seeded selftest implementations so the CLI selftest
and this module stay in lockstep.
"""

import subprocess
import sys
import time

from meroconn.selftest import (criterion_antistokes, criterion_betti_action,
                               criterion_canonical_suite,
                               criterion_cross_module, criterion_dictionary,
                               criterion_irregular_invariance,
                               criterion_metric, criterion_stability)

SEED = 42
TIME_BUDGET_CANONICAL_S = 10.0


def _report(num, result):
    status = "PASS" if result["passed"] else "FAIL"
    print(f"[criterion {num}] {status}: {result['name']}")
    assert result["passed"], result["failures"]


def test_criterion_1_canonical_suite():
    """50 seeded GL2/GL3 reductions at trunc 12 in under 10 s: exact
    invariants, gauge verification, idempotent re-reduction.  The budget
    is timed here because the selftest report holds no wall-clock value."""
    t0 = time.monotonic()
    result = criterion_canonical_suite(SEED, trunc=12, count=50)
    elapsed = time.monotonic() - t0
    _report(1, result)
    assert elapsed < TIME_BUDGET_CANONICAL_S, f"took {elapsed:.2f} s"


def test_criterion_2_irregular_gauge_invariance():
    """20 inputs: random parahoric gauge leaves the irregular type fixed."""
    _report(2, criterion_irregular_invariance(SEED, trunc=12, count=20))


def test_criterion_3_antistokes_combinatorics():
    """20 random diagonal irregular types: pi/k rotation symmetry,
    integral l, Stokes dimension equality."""
    _report(3, criterion_antistokes(SEED, count=20))


def test_criterion_4_betti_relation_action():
    """100 exact (g, k)-moves preserve the relation; constructive
    one-puncture fixture holds."""
    _report(4, criterion_betti_action(SEED, count=100))


def test_criterion_5_stability_crosscheck():
    """Zero-weight verdicts match direct irreducibility on 10 fixtures."""
    _report(5, criterion_stability(SEED))


def test_criterion_6_dictionary_identities():
    """100 random local data: exact weight identities; the monodromy
    factorization's exact condition (test_correspondence compares the
    same draws with expm to 1e-10); rank-1 oracle to 1e-8 with one
    global sign."""
    _report(6, criterion_dictionary(SEED, count=100, oracle_cases=20))


def test_criterion_7_metric_lemmas():
    """Pseudo-curvature vanishes and the orthonormal curvature is 2H t^2
    for all triples from nilpotents of size <= 4; identities exact;
    corrupted triple detected."""
    _report(7, criterion_metric(SEED))


def test_criterion_8_cross_module_consistency():
    """Higgs-extraction residue equals the dictionary residue on 20
    random inputs, including the semisimple specialization."""
    _report(8, criterion_cross_module(SEED, count=20))


def test_criterion_9_selftest_determinism():
    """`selftest --seed 42` emits byte-identical reports twice."""
    cmd = [sys.executable, "-m", "meroconn.cli", "selftest", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, check=False)
    second = subprocess.run(cmd, capture_output=True, check=False)
    same = first.stdout == second.stdout and first.returncode == 0
    print(f"[criterion 9] {'PASS' if same else 'FAIL'}: selftest determinism")
    assert first.returncode == 0, first.stdout.decode()[-2000:]
    assert second.returncode == 0
    assert first.stdout == second.stdout
