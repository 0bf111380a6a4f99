"""Every named invariant suite must run green (these back `edgewave verify`),
and the theta-derivative comparison that left verify still resolves the
seeds where a two-point difference failed through rounding."""

import re

import numpy as np
import pytest

from conftest import assert_dtheta_matches_five_point
from edgewave import vanish
from edgewave.verify import SUITES, check_certificate, run_suite


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_green(suite):
    results = run_suite(suite)
    failures = [(check, detail) for _, check, ok, detail in results if not ok]
    assert not failures, failures


def test_seed_goes_only_to_a_check_with_a_seed_parameter(monkeypatch):
    # a local variable named seed is not a parameter: passing it the seed
    # made such a check fail with a TypeError
    def local():
        seed = 3
        return f"local {seed}"

    def param(seed=1):
        return f"param {seed}"
    monkeypatch.setitem(SUITES, "vanish", [("local", local), ("param", param)])
    assert run_suite("vanish", seed=9) == [("vanish", "local", True, "local 3"),
                                           ("vanish", "param", True, "param 9")]


def test_certificate_check_fails_on_a_wrong_certificate(monkeypatch):
    # a certificate that calls every order full rank certifies 1/3 at n = 3
    monkeypatch.setattr(vanish, "_certified_nullities",
                        lambda blocks, tol: [0] * len(blocks))
    with pytest.raises(AssertionError, match="1/3 .* n=3: certified 0, SVD nullity 2"):
        check_certificate()


def test_certificate_check_fails_on_a_loose_deflation(monkeypatch):
    # a deflation bound 1e6 times looser (tol 1e3 times larger) deflates
    # the columns 7e-11 off 1/3, where the SVD is ambiguous
    certify = vanish._certified_nullities
    monkeypatch.setattr(vanish, "_certified_nullities",
                        lambda blocks, tol: certify(blocks, tol * 1e3))
    with pytest.raises(AssertionError,
                       match=r"0\.3333333334 .*: certified 2, SVD nullity ambiguous"):
        check_certificate()


def test_certificate_check_fails_on_a_halved_shift_bound(monkeypatch):
    # halved, the certificate's bound S on s_max^2 fails at the first
    # order checked, imp-imp 1/3 at n = 1 (S/2 = 4, s_max^2 = 5.02), and
    # the check names the premise the proof rests on
    layout = vanish._layout
    monkeypatch.setattr(vanish, "_layout", lambda orders, case: layout(
        orders, case)._replace(shift=layout(orders, case).shift / 2))
    with pytest.raises(AssertionError,
                       match=r"1/3 imp-imp n=1: shift bound 4 < s_max\^2 = 5\.02"):
        check_certificate()


def test_certificate_check_takes_one_svd_per_order(monkeypatch):
    # the check decides each of its 375 certified orders' SVD nullity from
    # the same singular values it reads the relative values from
    svd, calls = np.linalg.svd, []

    def spy(*args, **kwargs):
        calls.append(None)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    detail = check_certificate()
    trivial, nontrivial = map(int, re.match(r"(\d+) trivial and (\d+) nontrivial",
                                            detail).groups())
    assert len(calls) == trivial + nontrivial == 375


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense")


@pytest.mark.parametrize("seed", [125, 274, 554, 567])
def test_dtheta_check_resolves_rounding(seed):
    # these seeds drew points where a two-point difference at h = 1e-6
    # missed the 1e-8 tolerance through rounding alone; the five-point
    # comparison that replaced it in verify now lives in the tests
    assert_dtheta_matches_five_point(seed)
