"""Tests for scaling transforms, own-statistics, and verify batteries.

The KS statistic is compared against scipy's implementation as an
oracle; batteries run here in scaled-down form only (the full-strength
defaults belong to the acceptance suite).
"""
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from queuelab.dists import ArrivalSpec, make_service_dist
from queuelab.limitsim import simulate_hw
from queuelab.microsim import InitialCondition, SimConfig, simulate
from queuelab import scalestats as S

EXP = make_service_dist("exponential")


def small_path(seed=0, N=5, T=3.0, lam=1.0, x0=2):
    arr = ArrivalSpec("renewal", lam, sigma2=lam)
    return simulate(SimConfig(N=N, arrival=arr, service=EXP, T=T,
                              initial=InitialCondition(x0=x0), seed=seed))


class TestKsDistance:
    def test_matches_scipy_on_continuous_data(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(400)
        b = rng.standard_normal(300) + 0.3
        ours = S.ks_distance(a, b)
        ref = float(ks_2samp(a, b).statistic)
        assert abs(ours - ref) < 1e-12, f"ks {ours} vs scipy {ref}"

    def test_matches_scipy_with_heavy_ties(self):
        rng = np.random.default_rng(2)
        a = np.round(rng.standard_normal(250), 1)
        b = np.round(rng.standard_normal(350) + 0.2, 1)
        ours = S.ks_distance(a, b)
        ref = float(ks_2samp(a, b).statistic)
        assert abs(ours - ref) < 1e-12, f"tied ks {ours} vs scipy {ref}"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 80), st.integers(2, 80),
           st.booleans())
    def test_matches_scipy_random(self, seed, na, nb, quantize):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(na)
        b = rng.standard_normal(nb) * 1.5
        if quantize:
            a, b = np.round(a, 0), np.round(b, 0)
        assert abs(S.ks_distance(a, b) - float(ks_2samp(a, b).statistic)) < 1e-12

    def test_degenerate_cases(self):
        x = np.arange(10.0)
        assert S.ks_distance(x, x) == 0.0
        assert S.ks_distance(x, x + 100.0) == 1.0
        with pytest.raises(ValueError):
            S.ks_distance(x, np.array([]))

    def test_critical_value(self):
        want = 1.3581 * np.sqrt(2.0 / 100.0)
        assert abs(S.ks_critical(100, 100) - want) < 1e-12


class TestScaledPath:
    def test_counter_profile_matches_pointwise(self):
        path = small_path(seed=3)
        grid = np.concatenate([[0.0], path.ev_time[:50] + 1e-9,
                               np.linspace(0.0, 3.0, 7)])
        prof = S.counter_profile(path, grid)
        for j, t in enumerate(grid):
            e, d, k, x, b = path.counters_at(t)
            got = (prof["E"][j], prof["D"][j], prof["K"][j], prof["X"][j], prof["B"][j])
            assert got == (e, d, k, x, b), (
                f"profile at t={t} gave {got}, pointwise {(e, d, k, x, b)}")

    def test_diffusion_scale_constant_reference(self):
        path = small_path(seed=4, N=10, x0=10)
        times = [0.5, 1.5, 2.5]
        got = S.diffusion_scale(path, 1.0, 10, times)
        want = [(path.counters_at(t)[3] - 10) / np.sqrt(10) for t in times]
        assert np.allclose(got, want, atol=1e-12)


class TestQvAndMoments:
    def test_qv_deterministic_cases(self):
        assert S.qv_estimate(np.linspace(0.0, 5.0, 11)) == pytest.approx(2.5)
        assert S.qv_estimate(np.array([1.0, 1.0, 1.0])) == 0.0

    def test_qv_of_scaled_random_walk(self):
        rng = np.random.default_rng(7)
        dt = 1e-4
        w = np.concatenate([[0.0], np.cumsum(rng.standard_normal(20_000) * np.sqrt(dt))])
        assert abs(S.qv_estimate(w) - 2.0) < 0.1  # 20000 steps of variance dt

    def test_moment_bound_normal_branch(self):
        rng = np.random.default_rng(8)
        s = np.abs(rng.standard_normal(4000))  # E|Z| ~ 0.7979
        ok = S.moment_bound_check(s, 1, 0.9, name="abs-normal")
        bad = S.moment_bound_check(s, 1, 0.75)
        assert ok.passed and ok.replicates == 4000 and ok.se is not None
        assert not bad.passed
        assert 0.78 < ok.value < 0.85  # E|Z| + O(SE), SE ~ 0.01

    def test_moment_bound_bootstrap_branch_deterministic(self):
        rng = np.random.default_rng(9)
        s = np.abs(rng.standard_normal(200))
        r1 = S.moment_bound_check(s, 2, 1.5)
        r2 = S.moment_bound_check(s, 2, 1.5)
        assert r1.value == r2.value, "bootstrap must be internally seeded"
        assert r1.passed  # E[Z^2] = 1 well under 1.5

    def test_report_serialization(self):
        rep = S.TestReport(statistic="s", value=1.0, threshold=2.0,
                           passed=True, replicates=5, se=0.1)
        d = rep.as_dict()
        assert d["pass"] is True and d["statistic"] == "s" and d["se"] == 0.1
        assert rep.line().startswith("PASS s:")


class TestBatteries:
    def test_flln_scaled_down(self):
        reports = S.verify_flln({"seeds": 15})
        assert len(reports) == 1 and reports[0].passed
        assert reports[0].replicates == 45
        assert -0.7 <= reports[0].value <= -0.3

    def test_fclt_scaled_down(self):
        reports = S.verify_fclt({"des_reps": 80, "euler_paths": 10_000,
                                 "ks_threshold": 0.25})
        assert [r.statistic for r in reports] == ["fclt-ks-t1", "fclt-ks-t5"]
        assert all(r.passed for r in reports), [r.line() for r in reports]

    def test_insensitivity_scaled_down(self):
        reports = S.verify_insensitivity({"reps": 3, "N": 100})
        assert reports[0].statistic == "insensitivity-qv-ratio"
        assert all(r.passed for r in reports), [r.line() for r in reports]

    def test_moments_scaled_down_bootstrap(self):
        reports = S.verify_moments({"reps": 120, "N": 25, "T_values": [1.0],
                                    "ks": [1, 2]})
        assert len(reports) == 4  # 2 services x 2 moments
        assert all(r.passed for r in reports), [r.line() for r in reports]
        assert all(r.replicates == 120 for r in reports)

    def test_moments_read_every_t_from_one_path(self):
        # each path runs to the largest T and A is read at every T, so the
        # order of T_values changes only the order of the reports
        cfg = {"reps": 20, "N": 10, "ks": [1, 2], "services": ["exponential"]}
        up = S.verify_moments({**cfg, "T_values": [1.0, 2.0]})
        down = S.verify_moments({**cfg, "T_values": [2.0, 1.0]})
        assert [r.statistic for r in down] == [r.statistic for r in up[2:] + up[:2]]
        assert {r.statistic: r.value for r in down} == {r.statistic: r.value for r in up}

    def test_sae_scaled_down(self):
        reports = S.verify_sae({"seeds": 6, "dt_levels": [0.04, 0.02],
                                "ratio_band": [0.05, 1.5]})
        names = [r.statistic for r in reports]
        assert "sae-noise-off-zero" in names
        zero = next(r for r in reports if r.statistic == "sae-noise-off-zero")
        assert zero.passed and zero.value == 0.0
        assert all(r.passed for r in reports), [r.line() for r in reports]

    def test_representation_scaled_down(self):
        reports = S.verify_representation({"reps": 6, "dt_levels": [4e-3, 2e-3],
                                           "ratio_band": [0.2, 0.9]})
        assert len(reports) == 2
        assert all(r.passed for r in reports), [r.line() for r in reports]

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            S.verify_flln({"bogus": 1})

    def test_integral_number_read_as_integer(self):
        # the schema's integer admits 3.0; range() and the reports need 3
        cfg = S._cfg({"reps": 20, "T": 2.0}, {"reps": 3.0, "T": 1})
        assert cfg == {"reps": 3, "T": 1} and type(cfg["reps"]) is int

    @pytest.mark.parametrize("battery, overrides, key", [
        (S.verify_moments, {"ks": []}, "ks"),
        (S.verify_moments, {"services": []}, "services"),
        (S.verify_moments, {"T_values": []}, "T_values"),
        (S.verify_flln, {"Ns": []}, "Ns"),
        (S.verify_flln, {"Ns": [100]}, "Ns"),
        (S.verify_insensitivity, {"services": ["exponential"]}, "services"),
        (S.verify_sae, {"dt_levels": [0.01]}, "dt_levels"),
        (S.verify_representation, {"dt_levels": [1e-3]}, "dt_levels"),
    ], ids=["moments-ks-empty", "moments-services-empty",
            "moments-T-empty", "flln-Ns-empty", "flln-one-N",
            "insensitivity-one-service", "sae-one-level",
            "representation-one-level"])
    def test_override_leaving_nothing_to_check_rejected(self, battery,
                                                        overrides, key):
        with pytest.raises(S.OverrideError, match=f"^{key}: "):
            battery(overrides)

    def test_all_passed_helper(self):
        good = S.TestReport("a", 0.0, 1.0, True)
        bad = S.TestReport("b", 2.0, 1.0, False)
        assert S.all_passed([good]) and not S.all_passed([good, bad])


class TestFcltWorker:
    SMALL = {"des_reps": 40, "euler_paths": 2000}

    def test_equals_serial_composition(self):
        # the battery's defaults, composed in turn from the public layers
        N, T, seed, times = 400, 5.0, 202, [1.0, 5.0]
        arr = ArrivalSpec("renewal", 1.0, beta=1.0, sigma2=1.0)
        init = InitialCondition(x0=N, ages="invariant")
        des = np.array([S.diffusion_scale(simulate(SimConfig(
            N=N, arrival=arr, service=EXP, T=T, initial=init, seed=seed,
            replicate=r)), 1.0, N, times) for r in range(40)])
        marg = simulate_hw(T, 2.5e-3, 1.0, 1.0, 0.0, 2000,
                           np.random.default_rng(seed + 1), record_times=times)
        expected = [S.ks_distance(des[:, j], marg[t]) for j, t in enumerate(times)]
        assert [r.value for r in S.verify_fclt(self.SMALL)] == expected

    def test_no_worker_left_after_return_or_raise(self, monkeypatch):
        S.verify_fclt(self.SMALL)
        assert multiprocessing.active_children() == []

        def broken(cfg):
            raise RuntimeError("event path failed")

        monkeypatch.setattr(S, "simulate", broken)
        with pytest.raises(RuntimeError, match="event path failed"):
            S.verify_fclt(self.SMALL)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("overrides, key", [
        ({"times": [7.0]}, "times"),        # past T: the event path stops at 5
        ({"times": [0.0]}, "times"),
        ({"times": [1.3], "euler_dt": 0.5}, "times"),  # Euler read at 1.5
        ({"euler_dt": 0.3}, "T"),           # Euler would run to 5.1
        ({"euler_dt": 0.0}, "euler_dt"),
        ({"times": []}, "times"),
        ({"des_reps": 0}, "des_reps"),
        ({"euler_paths": 0}, "euler_paths"),
        ({"T": float("inf")}, "T"),
        ({"times": [1.0, float("nan")]}, "times.1"),
        ({"times": ["1.0"]}, "times.0"),
    ], ids=["time-past-T", "time-zero", "time-between-steps",
            "T-between-steps", "dt-zero", "times-empty", "no-des-reps",
            "no-euler-paths", "T-infinite", "time-nan", "time-string"])
    def test_mismatched_override_rejected_before_worker(self, monkeypatch,
                                                        overrides, key):
        def no_pool(*args, **kwargs):
            raise AssertionError("the worker started")

        monkeypatch.setattr(S, "ProcessPoolExecutor", no_pool)
        with pytest.raises(S.OverrideError, match=f"^{key}: "):
            S.verify_fclt({**self.SMALL, **overrides})
