"""End-to-end acceptance battery.

Each test runs one verify-module check at its full stated scale and
prints one PASS/FAIL line (visible with `pytest -s` or via
`lightinfer verify --full`). The two timing checks take minutes and are
marked `slow`.
"""

import pytest

from lightinfer import verify


def report(result):
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, result.detail


def test_identity_configuration_20_seeds():
    report(verify.check_identity_configuration(seeds=20, max_new=64))


def test_merge_oracle_equivalence_100_instances():
    report(verify.check_merge_oracle_equivalence(n_instances=100))


def test_cache_decode_equivalence_10_seeds():
    report(verify.check_cache_decode_equivalence(seeds=10, steps=8))


def test_coverage_minimality_and_beta_monotonicity_200_vectors():
    report(verify.check_coverage_minimality(n_vectors=200, betas=(0.5, 0.9, 0.995, 1.0)))


def test_token_ledger_1000_image_tokens():
    report(verify.check_token_ledger())


def test_memory_ledger_exact_and_compressed():
    report(verify.check_memory_ledger())


def test_drift_zero_at_identity_and_tiered_in_keep_ratio():
    report(verify.check_drift_tiering(seeds=20))


def test_attention_mode_equivalence_50_inputs():
    report(verify.check_attention_mode_equivalence(n_inputs=50))


@pytest.mark.slow
def test_prefill_speedup_direction():
    report(verify.check_prefill_speedup(runs=5, min_speedup=1.5))


@pytest.mark.slow
def test_long_decode_speedup_direction():
    report(verify.check_long_decode_speedup(min_speedup=1.3))
