import pytest

from stablepot.suites import (fatou_suite, hardy_suite, identities_suite,
                              montecarlo_suite, relativistic_suite, run_suite)


def _failing(report):
    return [e.check_id for e in report.entries if e.status == "FAIL"]


class TestSuitesAcrossParameters:
    # the calibrations (schedule depths, probe depths, grid sizes) must
    # follow alpha and d; the default pair is covered by the acceptance gate

    @pytest.mark.parametrize("d,alpha", [(2, 1.2), (2, 1.8), (3, 1.2)])
    def test_identities(self, d, alpha):
        rep = identities_suite(d=d, alpha=alpha, seed=11)
        assert _failing(rep) == []

    @pytest.mark.parametrize("d,alpha", [(2, 1.1), (2, 1.2), (2, 1.8), (3, 1.1),
                                         (3, 1.2)])
    def test_hardy(self, d, alpha):
        rep = hardy_suite(d=d, alpha=alpha, seed=11)
        assert _failing(rep) == []

    @pytest.mark.parametrize("alpha", [1.2, 1.8])
    def test_fatou(self, alpha):
        rep = fatou_suite(d=2, alpha=alpha, seed=11)
        assert _failing(rep) == []

    def test_montecarlo_high_alpha(self):
        # alpha near 2 stresses the near-sphere exit law; the complement
        # variable keeps the KS test honest there
        rep = montecarlo_suite(d=2, alpha=1.8, seed=11, n_draws=10_000)
        assert _failing(rep) == []

    def test_relativistic_off_default(self):
        rep = relativistic_suite(alpha=1.3, seed=11)
        assert _failing(rep) == []


class TestRunner:
    def test_merged_report_ids_are_unique(self):
        rep = run_suite("fatou", d=2, alpha=1.5, seed=3)
        ids = [e.check_id for e in rep.entries]
        assert len(ids) == len(set(ids))

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("bogus")
