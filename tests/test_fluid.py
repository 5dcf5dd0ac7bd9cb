"""Fluid solver: stationary manifold, non-idling closure, entry balance,
regime labels, age read-out consistency."""
from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import signal

from queuelab import fluid
from queuelab.dists import make_service_dist
from queuelab.fluid import InitialDataError, solve_fluid

EXP = make_service_dist("exponential")
LOGN = make_service_dist("lognormal", sigma=0.5)
GAMMA2 = make_service_dist("gamma", shape=2.0)
# densities unbounded at 0
GAMMA05 = make_service_dist("gamma", shape=0.5)
WEIB07 = make_service_dist("weibull", shape=0.7)


def nonidling_residual(path):
    return float(np.max(np.abs(path.Bbar - np.clip(np.minimum(path.Xbar, 1.0), 0.0, None))))


class TestFFTConvolve:
    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 7), (7, 1), (2, 2), (2, 9),
                                        (9, 2), (201, 201), (201, 57), (5001, 5001)])
    def test_equals_scipy_signal(self, n1, n2):
        rng = np.random.default_rng(n1 * 10000 + n2)
        a, b = rng.standard_normal(n1), rng.standard_normal(n2)
        assert np.array_equal(fluid.fftconvolve(a, b), signal.fftconvolve(a, b))
        if n1 >= n2:  # the valid-mode correlation of _transported
            q = b[::-1]
            assert np.array_equal(fluid.fftconvolve(a, q)[n2 - 1:n1],
                                  signal.fftconvolve(a, q, mode="valid"))


class TestStationaryManifold:
    @pytest.mark.parametrize("dist", [EXP, LOGN, GAMMA2, GAMMA05, WEIB07],
                             ids=["exp", "logn", "gamma2", "gamma05", "weibull07"])
    def test_invariant_density_stays_put(self, dist):
        dt = 1e-3
        path = solve_fluid(dist, T=10.0, dt=dt, Ebar=1.0, x0=1.0, nu0={"invariant": 1.0})
        assert np.max(np.abs(path.Xbar - 1.0)) <= 10.0 * dt
        assert path.regime == "critical"

    def test_entry_flow_on_manifold_is_arrival_flow(self):
        path = solve_fluid(EXP, T=5.0, dt=1e-3, Ebar=1.0, x0=1.0,
                           nu0={"invariant": 1.0})
        assert np.max(np.abs(path.Kbar - path.grid)) < 5e-3


class TestHeavyTails:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the child's peak from /proc")
    def test_pareto_invariant_start_stays_small(self):
        # a dt grid out to the 1e-9 tail point of pareto(1.5) would hold 52
        # million age nodes at dt = 0.01; the invariant start needs none.
        # The child caps its address space so a regression fails there
        # instead of exhausting the machine.  Its peak is VmHWM: ru_maxrss
        # survives exec and would report the test runner's own peak.
        code = textwrap.dedent("""
            import resource
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
            from queuelab.dists import make_service_dist
            from queuelab.fluid import solve_fluid
            path = solve_fluid(make_service_dist("pareto", a=1.5), 2.0, 0.01,
                               Ebar=1.0, x0=1.0, nu0={"invariant": 1.0})
            assert path.regime == "critical", path.regime
            with open("/proc/self/status") as fh:
                print(next(line for line in fh if line.startswith("VmHWM:")))
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(fluid.__file__).resolve().parents[1])]
            + [p for p in [os.environ.get("PYTHONPATH")] if p])
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        peak_mb = int(res.stdout.split()[-2]) / 1024  # "VmHWM: <n> kB"
        assert peak_mb < 200, f"pareto invariant solve peaked at {peak_mb:.0f} MB"


class TestClosureInvariants:
    @pytest.mark.parametrize("dist", [LOGN, GAMMA2], ids=["logn", "gamma2"])
    def test_nonidling_residual_bounded_and_halving(self, dist):
        init = dict(Ebar=1.0, x0=0.5, nu0={"invariant": 0.5})
        r_coarse = nonidling_residual(solve_fluid(dist, T=3.0, dt=4e-3, **init))
        r_fine = nonidling_residual(solve_fluid(dist, T=3.0, dt=2e-3, **init))
        assert r_coarse <= 10.0 * 4e-3
        assert r_fine <= 0.6 * r_coarse, f"halving dt: {r_coarse:.2e} -> {r_fine:.2e}"

    def test_entry_balance_identity(self):
        # Kbar = Bbar - Bbar(0) + integral of hazard load; one kappa per
        # step closes this and the non-idling constraint together, so the
        # defect here is bounded by the non-idling defect
        path = solve_fluid(LOGN, T=4.0, dt=2e-3, Ebar=1.2, x0=0.3,
                           nu0={"invariant": 0.3})
        D = np.concatenate([[0.0], np.cumsum((path.Hbar[1:] + path.Hbar[:-1]) / 2.0)]) * path.dt
        resid = np.max(np.abs(path.Kbar - (path.Bbar - path.Bbar[0] + D)))
        assert resid <= nonidling_residual(path) + 1e-9
        assert resid < 10.0 * path.dt

    def test_subcritical_entries_equal_arrivals(self):
        path = solve_fluid(LOGN, T=6.0, dt=2e-3, Ebar=0.6, x0=0.0)
        assert path.regime == "subcritical"
        assert np.max(np.abs(path.Kbar - 0.6 * path.grid)) < 1e-12

    def test_headcount_balance(self):
        path = solve_fluid(GAMMA2, T=3.0, dt=2e-3, Ebar=1.4, x0=1.0, nu0={"invariant": 1.0})
        resid = np.max(np.abs(path.Xbar - (1.0 + 1.4 * path.grid - path.Dbar)))
        assert resid < 1e-12

    @pytest.mark.parametrize("dt", [0.01, 0.05])
    @pytest.mark.parametrize("dist, init", [
        (make_service_dist("weibull", shape=0.5),
         dict(Ebar=0.7, x0=1.5, nu0={"invariant": 1.0})),
        (EXP, dict(Ebar=1.5, x0=0.0)),
        (EXP, dict(Ebar=1.5, x0=1.0, nu0={"invariant": 1.0})),
        (LOGN, dict(Ebar=1.0, x0=1.0, nu0={"invariant": 1.0})),
        (GAMMA2, dict(Ebar=0.6, x0=0.0)),
        (GAMMA05, dict(Ebar=0.5, x0=1.5, nu0={"invariant": 1.0})),
    ], ids=["weibull05-draining", "exp-overload-empty", "exp-overload-full",
            "logn-critical", "gamma2-underload", "gamma05-draining"])
    def test_every_step_is_its_own_fixed_point(self, dist, init, dt):
        # each kappa cell solves its step's closure to rounding:
        # kappa_i = F(kappa_i) = max(clip(X_i, 0, 1) - B_0 + D_i - K_{i-1}, 0)
        path = solve_fluid(dist, T=4.0, dt=dt, **init)
        F = np.maximum(np.clip(path.Xbar[1:], 0.0, 1.0) - path.Bbar[0]
                       + path.Dbar[1:] - path.Kbar[:-1], 0.0)
        assert np.max(np.abs(F - path.kappa)) <= 1e-14

    def test_kappa_nonnegative_and_K_monotone(self):
        for lam in (0.5, 1.0, 1.8):
            path = solve_fluid(EXP, T=3.0, dt=2e-3, Ebar=lam, x0=0.2, nu0={"invariant": 0.2})
            assert np.all(path.kappa >= 0.0)
            assert np.all(np.diff(path.Kbar) >= 0.0)


class TestRegimes:
    def test_supercritical_growth(self):
        path = solve_fluid(LOGN, T=4.0, dt=2e-3, Ebar=1.5, x0=1.0, nu0={"invariant": 1.0})
        assert path.regime == "supercritical"
        # above capacity all servers are busy and X grows at rate lam - 1
        assert abs(path.Xbar[-1] - (1.0 + 0.5 * 4.0)) < 0.02
        assert np.max(np.abs(path.Bbar[path.grid > 0.5] - 1.0)) < 1e-3

    def test_balanced_overload_never_drains(self):
        # x0 > 1 with lam = 1: full occupancy serves exactly at the arrival
        # rate, so the fluid queue surplus is frozen
        path = solve_fluid(EXP, T=6.0, dt=2e-3, Ebar=1.0, x0=1.5, nu0={"invariant": 1.0})
        assert path.regime == "supercritical"
        assert np.max(np.abs(path.Xbar - 1.5)) < 0.01

    def test_draining_crosses_into_mixed(self):
        # lam < 1 from an overloaded start: above -> band -> below
        path = solve_fluid(EXP, T=6.0, dt=2e-3, Ebar=0.7, x0=1.5, nu0={"invariant": 1.0})
        assert path.regime == "mixed"
        assert path.Xbar[-1] < 1.0

    def test_mixed_flagged_on_band_reentry(self):
        # rate ramps up through capacity: below -> above = mixed label
        path = solve_fluid(EXP, T=5.0, dt=2e-3, Ebar={"affine": [0.4, 0.4]}, x0=0.0)
        assert path.regime == "mixed"


class TestAgeReadout:
    def test_mass_readout_equals_busy_mass_exactly(self):
        xs = np.linspace(0.0, 30.0, 3001)
        one = lambda x: np.ones_like(x)
        for nu0 in ({"invariant": 0.7}, {"grid": {"x": xs, "p": 0.7 * LOGN.sf(xs)}}):
            path = solve_fluid(LOGN, T=3.0, dt=2e-3, Ebar=1.3, x0=0.7, nu0=nu0)
            for i in range(0, path.grid.size, 150):
                t = path.grid[i]
                assert abs(path.age_eval(one, t) - path.Bbar[i]) < 1e-10

    def test_hazard_readout_equals_hazard_load(self):
        path = solve_fluid(GAMMA2, T=2.0, dt=2e-3, Ebar=1.0, x0=0.5, nu0={"invariant": 0.5})
        for i in (0, 400, 999):
            t = path.grid[i]
            val = path.age_eval(lambda x: GAMMA2.hazard(x), t)
            assert abs(val - path.Hbar[i]) < 5e-3

    def test_exponential_tail_functional(self):
        # on the stationary manifold <e^{-x}, nu*> = int e^{-x} e^{-x} dx = 1/2
        path = solve_fluid(EXP, T=2.0, dt=1e-3, Ebar=1.0, x0=1.0, nu0={"invariant": 1.0})
        val = path.age_eval(lambda x: np.exp(-x), 2.0)
        assert abs(val - 0.5) < 5e-3

    def test_off_grid_time_rejected(self):
        path = solve_fluid(EXP, T=1.0, dt=1e-2, Ebar=1.0, x0=0.0)
        with pytest.raises(ValueError):
            path.age_eval(lambda x: np.ones_like(x), 0.123456)


class TestValidation:
    def test_mass_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_fluid(EXP, T=1.0, dt=1e-2, Ebar=1.0, x0=1.0, nu0={"invariant": 0.4})

    def test_overload_surplus_waits_unaged(self):
        # x0 = 1.6 with unit in-service mass passes validation
        path = solve_fluid(EXP, T=0.5, dt=1e-2, Ebar=1.0, x0=1.6, nu0={"invariant": 1.0})
        assert abs(path.Xbar[0] - 1.6) < 1e-12
        # B(0) carries the O(dt^2) trapezoid error of the initial mass
        assert abs(path.Bbar[0] - 1.0) < 1e-4

    @pytest.mark.parametrize("nu0", [lambda x: 0.5 * np.exp(-x), {"mass": 0.5}],
                             ids=["callable", "dict-without-invariant"])
    def test_unrecognized_nu0_rejected(self, nu0):
        with pytest.raises(InitialDataError, match="^nu0: unrecognized form"):
            solve_fluid(EXP, T=1.0, dt=1e-2, Ebar=1.0, x0=0.5, nu0=nu0)

    @pytest.mark.parametrize("x0", [0.0, 0.5, 1.6])
    def test_omitted_nu0_is_the_invariant_start(self, x0):
        # None is m (1-G) with mass m * mean = min(x0, 1); at x0 = 0 the
        # empty start
        bare = solve_fluid(GAMMA2, T=1.0, dt=1e-2, Ebar=1.0, x0=x0)
        m = min(x0, 1.0) / GAMMA2.mean
        explicit = solve_fluid(GAMMA2, T=1.0, dt=1e-2, Ebar=1.0, x0=x0, nu0={"invariant": m})
        for name in ("Xbar", "Kbar", "Bbar", "Hbar", "Dbar", "kappa"):
            assert np.array_equal(getattr(bare, name), getattr(explicit, name)), name
        assert abs(bare.Bbar[0] - min(x0, 1.0)) < 1e-4

    def test_grid_density_pair(self):
        xs = np.linspace(0.0, 30.0, 3001)
        path = solve_fluid(EXP, T=1.0, dt=1e-2, Ebar=1.0, x0=0.5,
                           nu0={"grid": {"x": xs, "p": 0.5 * np.exp(-xs)}})
        assert abs(path.Bbar[0] - 0.5) < 1e-3

    def test_step_too_large_for_density_at_zero(self):
        # lognormal(0.01) packs its mass near 1, so g(dt/2) dt / 2 >= 1
        # at dt 2: the newest cell would outweigh its own step
        with pytest.raises(ValueError, match="dt too large for this service density at 0"):
            solve_fluid(make_service_dist("lognormal", sigma=0.01), T=4.0, dt=2.0,
                        Ebar=1.0, x0=0.0)

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError):
            solve_fluid(EXP, T=1.0, dt=-0.1)
        with pytest.raises(ValueError, match="x0 must be nonnegative"):
            solve_fluid(EXP, T=1.0, dt=0.1, x0=-0.5)

    def test_nan_x0_rejected_naming_it(self):
        # a NaN x0 failed no comparison and stopped at step 0 as an
        # ArithmeticError
        with pytest.raises(ValueError, match="x0 must be nonnegative"):
            solve_fluid(EXP, T=1.0, dt=0.1, x0=math.nan)

    @pytest.mark.parametrize("grid, message", [
        ({"x": [0.0, 1.0], "p": [-1.0, 3.0]}, "nonnegative"),
        ({"x": [0.0, 1.0, 2.0], "p": [1.0, 0.0]}, "2 p values for 3 x nodes"),
        ({"x": [0.0, 1.0]}, "0 p values for 2 x nodes"),
        ({"x": [0.0, 2.0, 1.0], "p": [1.0, 0.0, 0.0]}, "x must increase strictly"),
        ({"x": [0.0, 1.0, 1.0], "p": [1.0, 0.0, 0.0]}, "x must increase strictly"),
        ({"x": [-1.0, 0.0, 1.0], "p": [0.0, 1.0, 0.0]}, "from 0 or above"),
        ({"x": [], "p": []}, "x must increase strictly"),
    ], ids=["negative-p", "p-short", "p-missing", "x-unsorted", "x-repeated",
            "x-negative", "empty"])
    def test_bad_grid_rejected_naming_nu0(self, grid, message):
        # the negative-p grid states mass 1, so its sign is what is refused
        with pytest.raises(InitialDataError, match=message) as err:
            solve_fluid(EXP, T=1.0, dt=0.01, Ebar=1.0, x0=1.0, nu0={"grid": grid})
        assert err.value.field == "nu0"
