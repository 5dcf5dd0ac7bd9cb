"""Scaling transforms and the statistical verification batteries.

The verification functions each compare simulated ensembles against a
limit-theorem prediction and return TestReport rows: a named statistic,
its value, the threshold it was held to, and whether it passed.  Their
default configurations are the full-strength parameter sets; unit tests
pass scaled-down overrides.

Scaling conventions: the fluid scale divides counters by N, the
diffusion scale is sqrt(N) (X/N - xbar) for a constant fluid level xbar,
with raw paths evaluated as right-continuous steps.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dists import (ArrivalSpec, check_finite, make_service_dist,
                    renewal_function, uniform_grid)
from .fluid import solve_fluid
from .limitsim import (LimitGrid, LimitPlan, LimitSpec, default_test_functions,
                       run_limit, sae_residual, sae_test_functions, simulate_hw)
from .microsim import (InitialCondition, SimConfig, compensator,
                       shift_consistency_check, simulate)

__all__ = [
    "OverrideError",
    "TestReport",
    "counter_profile",
    "diffusion_scale",
    "ks_distance",
    "ks_critical",
    "qv_estimate",
    "moment_bound_check",
    "all_passed",
    "verify_flln",
    "verify_fclt",
    "verify_insensitivity",
    "verify_moments",
    "verify_sae",
    "verify_representation",
]

# two-sided KS critical coefficient at level 0.05: D > c sqrt((n+m)/(nm))
_KS_C = 1.3581


@dataclass(frozen=True)
class TestReport:
    """One verification outcome: statistic, value, threshold, verdict."""

    statistic: str
    value: float
    threshold: float
    passed: bool
    replicates: int = 0
    se: Optional[float] = None
    detail: str = ""

    def as_dict(self):
        return {"statistic": self.statistic, "value": self.value,
                "threshold": self.threshold, "pass": bool(self.passed),
                "replicates": self.replicates, "se": self.se,
                "detail": self.detail}

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.statistic}: value={self.value:.6g} "
                f"threshold={self.threshold:.6g} n={self.replicates}")


def all_passed(reports):
    return all(r.passed for r in reports)


def counter_profile(path, grid):
    """Right-continuous (E, D, K, X, B) float arrays on a time grid."""
    return {name: c.astype(float) for name, c in zip("EDKXB", path.counts(grid))}


def diffusion_scale(path, xbar, N, times):
    """sqrt(N) (X(t)/N - xbar): X a right-continuous step, xbar a number."""
    return math.sqrt(N) * (counter_profile(path, times)["X"] / N - float(xbar))


def ks_distance(a, b):
    """Two-sample Kolmogorov distance sup_x |F_a(x) - F_b(x)|.

    Concatenate, stable argsort, cumulate +-1/n flags, and read the max
    at the right end of each tied block.  The flags are held as the
    integers +-(other sample size) and divided once at the end, so tied
    blocks cancel exactly and degenerate cases give exact 0 and 1.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    data = np.concatenate([a, b])
    flags = np.concatenate([np.full(a.size, b.size, dtype=np.int64),
                            np.full(b.size, -a.size, dtype=np.int64)])
    order = np.argsort(data, kind="mergesort")
    cum = np.cumsum(flags[order])
    srt = data[order]
    block_end = np.append(srt[1:] != srt[:-1], True)
    return float(np.max(np.abs(cum[block_end])) / (a.size * b.size))


def ks_critical(n, m):
    """Two-sided KS rejection threshold at level 0.05."""
    return _KS_C * math.sqrt((n + m) / (n * m))


def qv_estimate(x):
    """Realized quadratic variation sum (x_{k+1} - x_k)^2."""
    x = np.asarray(x, dtype=float)
    return float(np.sum(np.diff(x) ** 2))


def moment_bound_check(samples, k, bound, name=None):
    """95% upper confidence bound on E[S^k] held below a bound.

    Normal approximation for 1000+ replicates, otherwise a percentile
    bootstrap of the mean (2000 resamples, seed 12345).
    """
    s = np.asarray(samples, dtype=float) ** k
    n = s.size
    mean = float(s.mean())
    se = float(s.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    if n >= 1000:
        ucb = mean + 1.6449 * se
    else:
        rng = np.random.default_rng(12345)
        boot = rng.choice(s, size=(2000, n), replace=True).mean(axis=1)
        ucb = float(np.quantile(boot, 0.95))
    return TestReport(statistic=name or f"moment-k{k}", value=ucb,
                      threshold=float(bound), passed=ucb <= bound,
                      replicates=n, se=se,
                      detail=f"mean={mean:.6g}")


class OverrideError(ValueError):
    """A battery override names a key the battery does not take, or gives a
    value of another type than its default, that leaves the battery nothing
    to check or that is off its grid; the message names the key."""


def _at_least(cfg, key, n):
    if len(cfg[key]) < n:
        raise OverrideError(f"{key}: needs at least {n} entries, got {cfg[key]!r}")


def _counts(cfg, *keys):
    """Each key's count, or each entry of its list of counts, must be at
    least 1: a count of 0 leaves nothing to run, or nothing to average."""
    for key in keys:
        value = cfg[key]
        if min(value if isinstance(value, list) else [value]) < 1:
            raise OverrideError(f"{key}: counts must be at least 1, got {value!r}")


def _like(key, value, default):
    """value read as default's type, else an OverrideError: a list for a
    list, an integral number (read as an int) for an int, a number for a
    float, never a boolean; a list's entries each by the same rule when
    the default's entries share one type."""
    kind = type(default)
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    want = {list: list, int: int, float: (int, float)}.get(kind, object)
    if not isinstance(value, want) or isinstance(value, bool):
        raise OverrideError(f"{key}: expected {kind.__name__} like the "
                            f"default {default!r}, got {value!r}")
    if kind is list and len({type(d) for d in default}) == 1:
        value = [_like(f"{key}.{i}", v, default[0]) for i, v in enumerate(value)]
    return value


def _cfg(defaults, config):
    """The defaults updated by the overrides; OverrideError for an unknown
    key, a non-finite number anywhere in a value, a value of another type
    than its default (_like) or an empty list."""
    config = config or {}
    unknown = set(config) - set(defaults)
    if unknown:
        raise OverrideError(f"unknown config keys: {sorted(unknown)}")
    out = dict(defaults)
    for key, value in config.items():
        try:
            check_finite(value, key)
        except ValueError as e:
            raise OverrideError(str(e)) from None
        out[key] = _like(key, value, defaults[key])
        if type(defaults[key]) is list:
            _at_least(out, key, 1)
    return out


def _grid(T, dt, T_key, dt_key):
    """uniform_grid(T, dt), its refusal an OverrideError naming the keys."""
    try:
        return uniform_grid(T, dt, T_key, dt_key)
    except ValueError as e:
        raise OverrideError(str(e)) from None


def verify_flln(config=None):
    """Fluid-limit convergence rate: sup-error vs N on a log-log slope.

    Paths start empty under Poisson load and are compared to the fluid
    trajectory; the mean sup-gap should shrink like 1/sqrt(N).
    """
    cfg = _cfg({"service": {"family": "lognormal", "sigma": 0.5},
                "lambda_bar": 1.0, "Ns": [25, 100, 400], "seeds": 200,
                "T": 2.0, "grid_dt": 0.05, "fluid_dt": 1e-3,
                "slope_band": [-0.7, -0.3], "seed": 101}, config)
    _at_least(cfg, "Ns", 2)  # a slope needs two points
    _counts(cfg, "Ns", "seeds")
    grid = _grid(cfg["T"], cfg["grid_dt"], "T", "grid_dt")
    _grid(cfg["T"], cfg["fluid_dt"], "T", "fluid_dt")
    dist = make_service_dist(cfg["service"])
    lam = float(cfg["lambda_bar"])
    fluid = solve_fluid(dist, cfg["T"], cfg["fluid_dt"], Ebar=lam)
    xbar = np.interp(grid, fluid.grid, fluid.Xbar)
    arr = ArrivalSpec("renewal", lam)
    errs = []
    for N in cfg["Ns"]:
        tot = 0.0
        for r in range(cfg["seeds"]):
            path = simulate(SimConfig(N=int(N), arrival=arr, service=dist,
                                      T=cfg["T"], seed=cfg["seed"], replicate=r))
            prof = counter_profile(path, grid)["X"] / N
            tot += float(np.max(np.abs(prof - xbar)))
        errs.append(tot / cfg["seeds"])
    slope = float(np.polyfit(np.log(np.asarray(cfg["Ns"], dtype=float)),
                             np.log(errs), 1)[0])
    lo, hi = cfg["slope_band"]
    return [TestReport(statistic="flln-rate-slope", value=slope,
                       threshold=hi, passed=lo <= slope <= hi,
                       replicates=cfg["seeds"] * len(cfg["Ns"]),
                       detail=f"band [{lo}, {hi}], errors {errs}")]


def verify_fclt(config=None):
    """Diffusion-limit recovery: markovian many-server dynamics against
    the one-dimensional reflection-drift diffusion, via KS at fixed times.

    The Euler reference (`simulate_hw`) runs in one worker process while
    this process simulates the event paths; its generator travels with its
    state, so every value equals that of running the two halves in turn.
    The worker starts by the platform's default method: under fork it
    shares this process's imports, under spawn or forkserver it pays a
    fresh import of numpy and the package; the exponential law and the
    Euler scheme call no scipy, so that worker imports none.

    Each time must lie in (0, T], and T and each time must be whole
    numbers of Euler steps, so both samples are read at the same instant;
    the overrides are checked before the worker starts.
    """
    cfg = _cfg({"N": 400, "beta": 1.0, "T": 5.0, "times": [1.0, 5.0],
                "des_reps": 2000, "euler_paths": 200_000, "euler_dt": 2.5e-3,
                "ks_threshold": 0.06, "seed": 202}, config)
    T, dt, times = cfg["T"], cfg["euler_dt"], cfg["times"]
    _grid(T, dt, "T", "euler_dt")
    for t in times:
        if not 0 < t <= T:
            raise OverrideError(f"times: {t} lies outside (0, T] with T {T}")
        _grid(t, dt, "times", "euler_dt")
    _counts(cfg, "N", "des_reps", "euler_paths")
    N = int(cfg["N"])
    dist = make_service_dist("exponential")
    arr = ArrivalSpec("renewal", 1.0, beta=cfg["beta"], sigma2=1.0)
    init = InitialCondition(x0=N, ages="invariant")
    rng = np.random.default_rng(cfg["seed"] + 1)
    des = np.empty((cfg["des_reps"], len(times)))
    with ProcessPoolExecutor(max_workers=1) as pool:
        euler = pool.submit(simulate_hw, T, dt, arr.beta, arr.sigma2, 0.0,
                            cfg["euler_paths"], rng, record_times=times)
        for r in range(cfg["des_reps"]):
            path = simulate(SimConfig(N=N, arrival=arr, service=dist, T=T,
                                      initial=init, seed=cfg["seed"], replicate=r))
            des[r] = diffusion_scale(path, 1.0, N, times)
        marg = euler.result()
    reports = []
    for j, t in enumerate(times):
        d = ks_distance(des[:, j], marg[t])
        reports.append(TestReport(
            statistic=f"fclt-ks-t{t:g}", value=d, threshold=cfg["ks_threshold"],
            passed=d <= cfg["ks_threshold"], replicates=cfg["des_reps"],
            detail=f"{cfg['euler_paths']} reference paths, "
                   f"noise floor ~{ks_critical(cfg['des_reps'], cfg['euler_paths']):.3f}"))
    return reports


def verify_insensitivity(config=None):
    """Service-law insensitivity of the martingale quadratic variation.

    Centered arrivals minus compensated departures, diffusion scaled:
    the realized QV approaches (1 + sigma2) T regardless of the service
    law; exponential and lognormal must agree within the threshold.
    """
    cfg = _cfg({"N": 400, "T": 2.0, "lambda_bar": 1.0, "dt": 1e-3,
                "reps": 20, "services": ["exponential",
                                         {"family": "lognormal", "sigma": 0.5}],
                "rel_threshold": 0.10, "seed": 303}, config)
    _at_least(cfg, "services", 2)  # the ratio compares the first two
    _counts(cfg, "N", "reps")
    N = int(cfg["N"])
    lam = float(cfg["lambda_bar"])
    arr = ArrivalSpec("renewal", lam)
    lam_N = lam * N  # beta = 0
    grid = _grid(cfg["T"], cfg["dt"], "T", "dt")
    # at unit manifold load both event streams run at rate ~1 per server,
    # so the scaled realized QV approaches (1 + sigma2) T
    target = (1.0 + arr.sigma2) * cfg["T"]
    means, names = [], []
    for svc in cfg["services"]:
        dist = make_service_dist(svc)
        init = InitialCondition(x0=N, ages="invariant")
        tot = 0.0
        for r in range(cfg["reps"]):
            path = simulate(SimConfig(N=N, arrival=arr, service=dist, T=cfg["T"],
                                      initial=init, seed=cfg["seed"], replicate=r))
            prof = counter_profile(path, grid)
            A = compensator(path, dist, grid)
            M = ((prof["E"] - lam_N * grid) - (prof["D"] - A)) / math.sqrt(N)
            tot += qv_estimate(M)
        means.append(tot / cfg["reps"])
        names.append(dist.name)
    rel = abs(means[0] / means[1] - 1.0)
    reports = [TestReport(
        statistic="insensitivity-qv-ratio", value=rel,
        threshold=cfg["rel_threshold"], passed=rel <= cfg["rel_threshold"],
        replicates=cfg["reps"] * 2,
        detail=f"{names[0]} qv {means[0]:.4f}, {names[1]} qv {means[1]:.4f}")]
    for name, m in zip(names, means):
        relt = abs(m / target - 1.0)
        reports.append(TestReport(
            statistic=f"insensitivity-qv-level-{name}", value=relt,
            threshold=cfg["rel_threshold"], passed=relt <= cfg["rel_threshold"],
            replicates=cfg["reps"], detail=f"qv {m:.4f} vs (1+sigma2)T-style target {target}"))
    return reports


def verify_moments(config=None):
    """Departure-compensator moment bounds E[(A(T)/N)^k] <= k! U(T)^k; each
    path runs to the largest T and its exact A is read at every T."""
    cfg = _cfg({"N": 50, "T_values": [1.0, 2.0], "ks": [1, 2, 3],
                "reps": 1200, "services": ["exponential",
                                           {"family": "gamma", "shape": 2.0}],
                "lambda_bar": 1.0, "seed": 404}, config)
    _counts(cfg, "N", "ks", "reps")
    steps = [_grid(T, 1e-3, "T_values", "renewal step").size - 1  # U(T) = U[step]
             for T in cfg["T_values"]]
    N = int(cfg["N"])
    arr = ArrivalSpec("renewal", cfg["lambda_bar"])
    times = np.sort(np.asarray(cfg["T_values"], dtype=float))
    reports = []
    for svc in cfg["services"]:
        dist = make_service_dist(svc)
        init = InitialCondition(x0=N, ages="invariant")
        A = np.empty((times.size, cfg["reps"]))
        for r in range(cfg["reps"]):
            path = simulate(SimConfig(N=N, arrival=arr, service=dist, T=times[-1],
                                      initial=init, seed=cfg["seed"], replicate=r))
            A[:, r] = compensator(path, dist, times) / N
        U = renewal_function(dist, times[-1], 1e-3)  # its prefix is U on [0, T]
        for T, n in zip(cfg["T_values"], steps):
            U_T = float(U[n])
            sample = A[int(np.searchsorted(times, T))]
            for k in cfg["ks"]:
                reports.append(moment_bound_check(
                    sample, k, math.factorial(k) * U_T ** k,
                    name=f"moment-{dist.name}-T{T:g}-k{k}"))
    return reports


def _halving_reports(name, means, cfg, replicates):
    """One report per pair of adjacent cfg["dt_levels"]: the ratio of their
    mean defects, which passes inside cfg["ratio_band"] (first-order decay
    halves the defect with dt)."""
    lo, hi = cfg["ratio_band"]
    levels = cfg["dt_levels"]
    reports = []
    for i in range(len(means) - 1):
        ratio = means[i + 1] / means[i]
        reports.append(TestReport(
            statistic=f"{name}-L{i}", value=ratio, threshold=hi,
            passed=lo <= ratio <= hi, replicates=replicates,
            detail=f"dt {levels[i]} -> {levels[i + 1]}, "
                   f"defects {means[i]:.5g} -> {means[i + 1]:.5g}"))
    return reports


def verify_sae(config=None):
    """First-order decay of the age-balance defect, plus the noise-off
    exact zero, on the critical exponential manifold."""
    cfg = _cfg({"dt_levels": [0.04, 0.02, 0.01], "seeds": 64, "T": 1.0,
                "dx": 0.1, "ratio_band": [0.3, 0.7], "seed": 505}, config)
    _at_least(cfg, "dt_levels", 2)  # a halving ratio needs two levels
    _counts(cfg, "seeds")
    for dtv in cfg["dt_levels"]:
        _grid(cfg["T"], dtv, "T", "dt_levels")
    dist = make_service_dist("exponential")
    arr = ArrivalSpec("renewal", 1.0)
    defaults = default_test_functions(dist)
    funcs = {"exp-decay": defaults["exp_decay"], "one": defaults["one"]}
    tests = sae_test_functions(dist, funcs)
    means = {fname: [] for fname in funcs}
    for dtv in cfg["dt_levels"]:
        grid = LimitGrid(T=cfg["T"], dt=dtv, dx=cfg["dx"])
        plan = LimitPlan.for_spec(LimitSpec(  # the stationary critical start
            dist=dist, arrival=arr, grid=grid, x0=1.0, nu0={"invariant": 1.0},
            seed=cfg["seed"], test_functions=tests))
        vals = {fname: [] for fname in funcs}
        for s in range(cfg["seeds"]):
            run = run_limit(plan, s)
            for fname in funcs:
                vals[fname].append(abs(sae_residual(run, fname)))
        for fname in funcs:
            means[fname].append(float(np.mean(vals[fname])))
    reports = []
    for fname, m in means.items():
        reports += _halving_reports(f"sae-halving-{fname}", m, cfg, cfg["seeds"])
    # noise-off with zero data on the last level: every term must vanish exactly
    run = run_limit(LimitPlan.for_spec(replace(plan.spec, seed=0, noise_off=True)))
    res = max(abs(sae_residual(run, fname)) for fname in funcs)
    reports.append(TestReport(statistic="sae-noise-off-zero", value=res,
                              threshold=0.0, passed=res == 0.0, replicates=1))
    return reports


def verify_representation(config=None):
    """First-order decay of the age read-out and restart defects in dt."""
    cfg = _cfg({"N": 20, "T": 1.6, "shift": 0.6,
                "dt_levels": [8e-3, 4e-3, 2e-3, 1e-3], "reps": 30,
                "service": "exponential", "lambda_bar": 1.0,
                "ratio_band": [0.3, 0.7], "seed": 606}, config)
    _at_least(cfg, "dt_levels", 2)
    _counts(cfg, "N", "reps")
    if not 0 <= cfg["shift"] < cfg["T"]:
        raise OverrideError(f"shift: {cfg['shift']} lies outside [0, T) with T {cfg['T']}")
    for dtv in cfg["dt_levels"]:  # the read-out and restart windows' steps
        _grid(cfg["T"], dtv, "T", "dt_levels")
        if cfg["shift"]:
            _grid(cfg["shift"], dtv, "shift", "dt_levels")
    dist = make_service_dist(cfg["service"])
    arr = ArrivalSpec("renewal", cfg["lambda_bar"])
    N = int(cfg["N"])
    init = InitialCondition(x0=N, ages="invariant")
    f = lambda x: np.exp(-np.asarray(x, dtype=float))
    paths = [simulate(SimConfig(N=N, arrival=arr, service=dist, T=cfg["T"],
                                initial=init, seed=cfg["seed"], replicate=r))
             for r in range(cfg["reps"])]
    reports = []
    for label, res_fn in (
            ("readout", lambda p, d: shift_consistency_check(
                p, dist, f, 0.0, cfg["T"], d)),
            ("restart", lambda p, d: shift_consistency_check(
                p, dist, f, cfg["shift"], cfg["T"] - cfg["shift"], d))):
        means = [float(np.mean([abs(res_fn(p, dtv)) for p in paths]))
                 for dtv in cfg["dt_levels"]]
        reports += _halving_reports(f"representation-{label}", means, cfg,
                                    cfg["reps"])
    return reports
