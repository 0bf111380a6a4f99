"""Every named invariant suite must run green (these back `edgewave verify`),
and the theta-derivative comparison that left verify still resolves the
seeds where a two-point difference failed through rounding."""

import pytest

from conftest import assert_dtheta_matches_five_point
from edgewave import vanish
from edgewave.verify import SUITES, check_certificate, run_suite


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_green(suite):
    results = run_suite(suite)
    failures = [(check, detail) for _, check, ok, detail in results if not ok]
    assert not failures, failures


def test_certificate_check_fails_on_a_wrong_certificate(monkeypatch):
    # a certificate that accepts every order certifies 1/3 at n = 3
    monkeypatch.setattr(vanish, "_certified_full_rank", lambda blocks: True)
    with pytest.raises(AssertionError, match="1/3 .* n=3: certified, SVD nullity 2"):
        check_certificate()


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense")


@pytest.mark.parametrize("seed", [125, 274, 554, 567])
def test_dtheta_check_resolves_rounding(seed):
    # these seeds drew points where a two-point difference at h = 1e-6
    # missed the 1e-8 tolerance through rounding alone; the five-point
    # comparison that replaced it in verify now lives in the tests
    assert_dtheta_matches_five_point(seed)
