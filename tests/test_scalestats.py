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
from queuelab import microsim
from queuelab.microsim import (ARRIVAL, DEPARTURE, InitialCondition, SimConfig,
                               compensator, eval_age_functional,
                               shift_consistency_check, simulate)
from queuelab import scalestats as S
from test_microsim import LatticeArrivals, deterministic_law

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


def log_read(path, t):
    """(E, D, K, X, B) on the event log's last row at or before t; the
    initial counters before its first row."""
    i = int(np.searchsorted(path.ev_time, t, side="right")) - 1
    if i < 0:
        return (0, 0, 0, path.x0, path.b0)
    return tuple(int(getattr(path, c)[i]) for c in "EDKXB")


def read_paths():
    """Poisson paths (x0 below and above N), lattice paths whose arrivals
    land on departures (x0 up to 2N), three of them with an empty log."""
    yield small_path(seed=3)
    yield small_path(seed=5, x0=9)
    det = deterministic_law(1.0)
    for N, gap, T in ((1, 0.25, 4.0), (2, 0.25, 4.0), (1, 0.5, 0.25)):
        for x0 in range(2 * N + 1):
            yield simulate(SimConfig(
                N=N, arrival=LatticeArrivals(kind="renewal", gap=gap),
                service=det, T=T, seed=1, initial=InitialCondition(
                    x0=x0, ages=[0.25 * (j % 4) for j in range(min(x0, N))])))


class TestScaledPath:
    def test_counter_profile_matches_pointwise(self):
        ties = empty = 0
        for path in read_paths():
            ev = path.ev_time
            arrived = ev[path.ev_kind == ARRIVAL]
            ties += np.isin(ev[path.ev_kind == DEPARTURE], arrived).sum()
            empty += ev.size == 0
            # 0, every event time, between events, and T
            grid = np.unique(np.concatenate([[0.0], ev, (ev[1:] + ev[:-1]) / 2,
                                             [path.T]]))
            prof = S.counter_profile(path, grid)
            for j, t in enumerate(grid):
                want = log_read(path, t)
                got = tuple(prof[c][j] for c in "EDKXB")
                assert got == want, f"profile at t={t} gave {got}, log {want}"
                assert path.counters_at(t) == want
        assert ties > 0 and empty == 3

    READS = {
        "counters_at": lambda p, t: p.counters_at(t),
        "counter_profile": lambda p, t: S.counter_profile(p, [0.5, t]),
        "diffusion_scale": lambda p, t: S.diffusion_scale(p, 1.0, 5, [t]),
        "ages_at": lambda p, t: p.ages_at(t),
        "eval_age_functional": lambda p, t: eval_age_functional(p, np.exp, t),
    }

    @pytest.mark.parametrize("t", [-0.1, 5.0, np.nan], ids=["below-0", "past-T", "nan"])
    @pytest.mark.parametrize("read", sorted(READS))
    def test_reads_refuse_times_off_the_path(self, read, t):
        # past T the path is unknown; a time at T by a grid's rounding passes
        path = small_path(seed=1, T=1.0)
        with pytest.raises(ValueError, match=r"must be in \[0, T = 1.0\]"):
            self.READS[read](path, t)
        self.READS[read](path, path.T * (1 + 1e-12))

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
        with pytest.raises(ValueError, match=r"^bogus: Additional properties are not "
                                             r"allowed \('bogus' was unexpected\)$"):
            S.verify_flln({"bogus": 1})

    def test_integral_number_read_as_integer(self):
        # the schema's integer admits 3.0; range() and the reports need 3
        cfg = S._cfg({"reps": 20, "T": 2.0}, {"reps": 3.0, "T": 1})
        assert cfg == {"reps": 3, "T": 1} and type(cfg["reps"]) is int

    def test_integral_list_entries_read_as_integers(self):
        # by the rule of the default's entries: math.factorial and the
        # moments report names need k = 2, not 2.0
        cfg = S._cfg({"ks": [1, 2], "T_values": [1.0]}, {"ks": [1.0, 2], "T_values": [1]})
        assert cfg == {"ks": [1, 2], "T_values": [1]}
        assert [type(k) for k in cfg["ks"]] == [int, int]

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
        ({"times": [7.0]}, "times.0"),      # past T: the event path stops at 5
        ({"times": [0.0]}, "times.0"),
        ({"times": [1.3], "euler_dt": 0.5}, "times.0"),  # Euler read at 1.5
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


class TestEventLogOnDemand:
    """Count, age and compensator reads, and the batteries built on them,
    never build the event log."""

    def test_reads_and_batteries_run_without_the_log(self, monkeypatch):
        def refuse(path):
            raise AssertionError("the event log was built")

        monkeypatch.setattr(microsim, "_event_log", refuse)
        path = small_path(seed=2, x0=7)
        grid = np.linspace(0.0, path.T, 31)
        assert S.counter_profile(path, grid)["X"][0] == 7
        assert S.diffusion_scale(path, 1.0, 5, grid).size == grid.size
        assert compensator(path, EXP, grid)[0] == 0.0
        assert path.ages_at(1.5).size == path.counters_at(1.5)[4]
        assert np.isfinite(shift_consistency_check(path, EXP, np.exp, 0.5, 2.5, 0.01))
        small = {
            S.verify_flln: {"Ns": [5, 10], "seeds": 2, "T": 0.5, "grid_dt": 0.05,
                            "fluid_dt": 0.01},
            S.verify_insensitivity: {"N": 10, "T": 0.5, "dt": 0.01, "reps": 2},
            S.verify_moments: {"N": 10, "T_values": [0.5], "ks": [1], "reps": 3},
            S.verify_representation: {"N": 5, "T": 0.4, "shift": 0.2,
                                      "dt_levels": [0.02, 0.01], "reps": 2},
            S.verify_fclt: {"N": 20, "T": 1.0, "times": [1.0], "des_reps": 3,
                            "euler_paths": 10, "euler_dt": 0.01},
        }
        for battery, overrides in small.items():
            assert battery(overrides), battery.__name__
        with pytest.raises(AssertionError, match="event log was built"):
            path.ev_time
