"""Acceptance gate: ten headline properties, one pass/fail line each.

Each test prints a single summary line on success; run with -v to get the
per-criterion pass/fail listing.  Stated runtime budgets are asserted so a
performance regression fails the gate, not just a correctness one.
"""
import time

import numpy as np

from queuelab import scalestats
from queuelab.dists import ArrivalSpec, make_service_dist, renewal_function
from queuelab.fluid import FluidInit, solve_fluid
from queuelab.limitsim import solve_cmse
from queuelab.microsim import (InitialCondition, SimConfig,
                               conservation_check, simulate)

# criterion 2: identity |Var M - E A| / Var at 1e4 replicates
MARTINGALE_REL_TOL = 0.05
# criterion 5: invariant start must stay flat to quadrature order
FLUID_DT = 1e-3
FLUID_DEV_BOUND = 10 * FLUID_DT
# criterion 9: Volterra stability constant for horizon T, renewal mass U(T)
LIPSCHITZ_EPS = 1e-2


def _line(n, text):
    print(f"PASS criterion {n:02d}: {text}")


def _battery(n, name, fn, budget_s=None):
    t0 = time.time()
    reports = fn({})
    elapsed = time.time() - t0
    detail = "; ".join(r.line() for r in reports)
    assert scalestats.all_passed(reports), f"criterion {n:02d} failed: {detail}"
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {n:02d} overran its budget: {elapsed:.0f}s "
            f">= {budget_s:.0f}s")
    _line(n, f"{name} ({len(reports)} statistics, {elapsed:.0f}s)")


def _random_service(rng):
    fam = rng.choice(["exponential", "lognormal", "gamma", "weibull",
                      "pareto"])
    if fam == "exponential":
        return make_service_dist("exponential")
    if fam == "lognormal":
        return make_service_dist({"family": "lognormal",
                                  "sigma": float(rng.uniform(0.2, 1.0))})
    if fam == "gamma":
        return make_service_dist({"family": "gamma",
                                  "shape": float(rng.uniform(0.5, 3.0))})
    if fam == "weibull":
        return make_service_dist({"family": "weibull",
                                  "shape": float(rng.uniform(0.7, 2.5))})
    return make_service_dist({"family": "pareto",
                              "a": float(rng.uniform(1.5, 3.5))})


def _random_arrival(rng):
    if rng.random() < 0.3:
        a = float(rng.uniform(0.5, 1.2))
        b = float(rng.uniform(-0.2, 0.4))
        return ArrivalSpec("inhom_poisson",
                           lambda_bar=lambda t, a=a, b=b: a + b * t,
                           beta=float(rng.uniform(-0.3, 0.3)))
    return ArrivalSpec("renewal", lambda_bar=float(rng.uniform(0.4, 1.4)),
                       beta=float(rng.uniform(-0.5, 0.5)))


def test_criterion_01_counting_identities_hold_exactly():
    """Integer balance identities at every event: 200 configs x 10 seeds."""
    t0 = time.time()
    rng = np.random.default_rng(1001)
    checked = 0
    for c in range(200):
        N = int(rng.integers(1, 31))
        T = float(rng.uniform(0.3, 1.2))
        svc = _random_service(rng)
        arr = _random_arrival(rng)
        x0 = int(rng.integers(0, 2 * N + 1))
        ages = "invariant" if (x0 > 0 and rng.random() < 0.5) else None
        init = InitialCondition(x0=x0, ages=ages)
        for s in range(10):
            path = simulate(SimConfig(N=N, arrival=arr, service=svc, T=T,
                                      initial=init, seed=c, replicate=s))
            violations = conservation_check(path)
            assert max(violations.values()) == 0, (
                f"config {c} seed {s} (N={N}, {svc.name}) violates a "
                f"counting identity: {violations}")
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"identity sweep too slow: {elapsed:.0f}s >= 60s"
    _line(1, f"counting identities exact on {checked} paths ({elapsed:.0f}s)")


def test_criterion_02_compensated_departures_centered_with_matching_variance():
    """Departures minus cumulative-hazard compensator: mean 0, Var = E[A]."""
    t0 = time.time()
    T, N, reps = 5.0, 50, 10_000
    for spec in ["exponential", {"family": "lognormal", "sigma": 0.5}]:
        dist = make_service_dist(spec)
        M = np.empty(reps)
        A = np.empty(reps)
        for r in range(reps):
            path = simulate(SimConfig(
                N=N, arrival=ArrivalSpec("renewal", 1.0), service=dist, T=T,
                initial=InitialCondition(x0=N, ages="invariant"),
                seed=1002, replicate=r))
            # exact compensator: cumulative hazard -log(sf) along each
            # service span, open spans truncated at T
            begin = path.span_begin
            end = np.minimum(path.span_end, T)
            theta = path.span_theta
            mask = begin < T
            a0 = begin[mask] - theta[mask]
            a1 = end[mask] - theta[mask]
            comp = float(np.sum(np.log(dist.sf(a0)) - np.log(dist.sf(a1))))
            A[r] = comp
            M[r] = np.sum(path.dep_time <= T) - comp
        se = M.std(ddof=1) / np.sqrt(reps)
        var = M.var(ddof=1)
        rel = abs(var - A.mean()) / var
        assert abs(M.mean()) <= 3 * se, (
            f"{dist.name}: compensated departure count is biased, "
            f"mean {M.mean():+.3f} exceeds 3 SE = {3 * se:.3f}")
        assert rel <= MARTINGALE_REL_TOL, (
            f"{dist.name}: Var {var:.1f} vs compensator mean {A.mean():.1f} "
            f"disagree by {rel:.1%} > {MARTINGALE_REL_TOL:.0%}")
    elapsed = time.time() - t0
    assert elapsed < 300, f"martingale suite too slow: {elapsed:.0f}s >= 300s"
    _line(2, f"centered departures at {reps} replicates, both service laws "
             f"({elapsed:.0f}s)")


def test_criterion_03_pathwise_representation_residual_first_order():
    _battery(3, "pathwise representation and restart residuals halve with dt",
             scalestats.verify_representation, budget_s=120)


def test_criterion_04_fluid_error_shrinks_at_root_n():
    _battery(4, "sup-norm fluid error slope -0.5 over N in {25,100,400}",
             scalestats.verify_flln, budget_s=600)


def test_criterion_05_critical_invariant_profile_is_stationary():
    """Unit mass with the stationary age profile stays put for T=10."""
    t0 = time.time()
    for spec in ["exponential", {"family": "lognormal", "sigma": 0.5}]:
        dist = make_service_dist(spec)
        path = solve_fluid(dist,
                           FluidInit(Ebar=1.0, x0=1.0,
                                     nu0_density={"invariant": 1.0}),
                           10.0, FLUID_DT)
        dev = float(np.max(np.abs(path.Xbar - 1.0)))
        assert path.regime == "critical"
        assert dev <= FLUID_DEV_BOUND, (
            f"{dist.name}: invariant start drifts by {dev:.2e} "
            f"> {FLUID_DEV_BOUND:.0e}")
    elapsed = time.time() - t0
    assert elapsed < 60
    _line(5, f"invariant profile stationary to {FLUID_DEV_BOUND:.0e} "
             f"({elapsed:.0f}s)")


def test_criterion_06_diffusion_headcount_matches_limit_sde():
    _battery(6, "scaled M/M/N headcount vs reflected-drift SDE, KS at "
                "t in {1,5}", scalestats.verify_fclt, budget_s=1800)


def test_criterion_07_martingale_qv_insensitive_to_service_law():
    _battery(7, "quadratic variation (1+sigma^2)T across service laws",
             scalestats.verify_insensitivity)


def test_criterion_08_scaled_arrival_moments_below_renewal_bounds():
    _battery(8, "k-th moment confidence bounds under k! U(T)^k",
             scalestats.verify_moments, budget_s=300)


def test_criterion_09_centered_system_lipschitz_and_subcritical_identity():
    """Input-to-output stability of the centered solver, 100 perturbations."""
    t0 = time.time()
    dist = make_service_dist("exponential")
    T, dt = 1.0, 2e-3
    t_grid = np.arange(0.0, T + dt / 2, dt)
    U = float(renewal_function(dist, T, 1e-3)[-1])
    bound = 3.0 * (1.0 + U) * LIPSCHITZ_EPS

    g = dist.grid_density(t_grid, dt)
    E0 = 0.2 * np.sin(2 * np.pi * t_grid)
    Z0 = 0.1 * np.sin(2 * np.pi * t_grid)
    K0, X0, v0 = solve_cmse(t_grid, g, E0, 0.0, Z0, "critical")
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(100):
        dx0 = -LIPSCHITZ_EPS * rng.random()
        dE = rng.uniform(-LIPSCHITZ_EPS, LIPSCHITZ_EPS, t_grid.size)
        dZ = rng.uniform(-LIPSCHITZ_EPS, LIPSCHITZ_EPS, t_grid.size)
        dZ[0] = dx0
        K, X, v = solve_cmse(t_grid, g, E0 + dE, dx0, Z0 + dZ, "critical")
        dev = max(np.max(np.abs(K - K0)), np.max(np.abs(X - X0)),
                  np.max(np.abs(v - v0)))
        worst = max(worst, dev)
    assert 0.0 < worst <= bound, (
        f"worst output deviation {worst:.4f} violates the stability bound "
        f"3(1+U(T))eps = {bound:.4f}")

    # subcritical closure: the boundary input is the arrival input, bitwise
    rng = np.random.default_rng(1010)
    for _ in range(10):
        E = np.cumsum(rng.normal(0.0, np.sqrt(dt), t_grid.size))
        Z = rng.normal(0.0, 0.05, t_grid.size)
        Z[0] = -0.3
        K, _, _ = solve_cmse(t_grid, g, E, -0.3, Z, "subcritical")
        assert np.array_equal(K, E), (
            "subcritical entry process must equal the arrival input exactly")
    elapsed = time.time() - t0
    _line(9, f"solver deviation {worst:.4f} within {bound:.4f}, subcritical "
             f"closure exact ({elapsed:.0f}s)")


def test_criterion_10_age_balance_residual_first_order_and_exact_null():
    _battery(10, "weak age-balance residual halves with dt, exact zero "
                 "with noise off", scalestats.verify_sae)
