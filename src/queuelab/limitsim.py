"""Sampler for the Gaussian second-order limit around the fluid path.

Inputs are two independent Gaussian objects: a Brownian arrival
perturbation Ehat and a white-noise departure field on age-time cells
whose cell variance is the fluid departure intensity

    Var W(cell) = int_cell h(x) nu_s(dx) ds.

Everything else is deterministic functional calculus on a sample: the
transported initial term S, the field convolution H (kernel Psi built
from survival ratios), the centered-input system solved for
(Khat, Xhat, vhat) regime by regime, and the measure read-out

    nuhat_t(f) = S_t(f) + f(0) Khat_t
               + int_0^t Khat_s [f'(1-G) - f g](t-s) ds - Hhat_t(f)

with a derivative-free Stieltjes sibling used wherever f' is
unavailable.  The per-step closures are exact:

    subcritical:   vhat = Xhat,        Khat = Ehat (bitwise)
    critical:      vhat = min(Xhat,0), Khat = Ehat + x0^+ - Xhat^+
    supercritical: vhat = 0,           Khat = Ehat + x0 - Xhat

"mixed" fluid regimes are rejected.  A noise_off run zeroes both Gaussian
inputs and degrades every operation to its deterministic skeleton, which
is the cheapest full-pipeline diagnostic: with zero drift the output is
exactly zero.

The sample is a linear image of (Ehat, W), so every kernel it applies
depends on the law, the grid, the fluid path and the test functions only.
A LimitPlan holds the run's spec and builds that half once per run, and
nothing else builds any of it: solve_cmse takes the plan's service
density g, and sae_residual reads the run's own read-outs.  Path r of the
run (run_limit(plan, r)) then draws Ehat, draws W = z sqrt(intensity)
and takes one rFFT of W's live columns.  Hhat(f) is a sum of column
convolutions and the transform is linear, so each distinct kernel costs
one product with those spectra, a column sum and one inverse rFFT.

All time quadratures are trapezoid for convolutions and left-rule for
outer integrals, so defects shrink linearly in dt.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dists import ServiceDistribution, dead_mass_ratio, uniform_grid
from .fluid import InitialDataError, _nodes, fftconvolve, solve_fluid

__all__ = [
    "LimitGrid",
    "MartingaleField",
    "LimitSpec",
    "LimitPlan",
    "LimitRun",
    "default_test_functions",
    "resolve_x_max",
    "fluid_cell_intensity",
    "simulate_hatE",
    "simulate_field",
    "conv_H",
    "s_op",
    "solve_cmse",
    "hat_nu",
    "hat_nu_stieltjes",
    "simulate_hw",
    "run_limit",
    "rep_hatx_residual",
    "smg_bookkeeping_residual",
    "sae_test_functions",
    "sae_residual",
]


TAIL_BUDGET = 1e-6


@dataclass(frozen=True)
class LimitGrid:
    """Uniform time step dt on [0, T], age cells of width dx up to x_max.

    x_max = None resolves against the service law: the smallest age with
    survival below TAIL_BUDGET, so the truncated field mass is negligible.
    An x_max below dx would leave no age cell, so no departure noise; it
    is refused, and so is a T or x_max that uniform_grid refuses.  Each
    error message starts with the field it names.
    """

    T: float
    dt: float
    dx: float
    x_max: Optional[float] = None

    def __post_init__(self):
        uniform_grid(self.T, self.dt)
        if self.x_max is not None and not self.x_max >= self.dx:
            raise ValueError(f"x_max: {self.x_max} is below dx = {self.dx}, "
                             "so the field has no age cell")
        uniform_grid(self.dx if self.x_max is None else self.x_max, self.dx,
                     "x_max", "dx")  # with no x_max, dx alone

    def t_grid(self):
        return uniform_grid(self.T, self.dt)


def resolve_x_max(grid, dist):
    if grid.x_max is not None:
        return float(grid.x_max)
    return math.ceil(dist.tail_point(TAIL_BUDGET) / grid.dx) * grid.dx


@dataclass
class MartingaleField:
    """White-noise field on the plan's age-time cells, plus the rFFT along
    time of its live columns (LimitPlan.field)."""

    W: np.ndarray          # (nt, nx) independent N(0, intensity) draws
    W_hat: np.ndarray      # (nfft // 2 + 1, live columns) rFFT of W
    nfft: int

    def m1_profile(self):
        """Mhat_t(1) on the grid edges: cumulative sum of full rows."""
        return np.concatenate([[0.0], np.cumsum(self.W.sum(axis=1))])


def fluid_cell_intensity(fpath, grid):
    """(nt, nx) table of cell variances from the fluid departure flow.

    Midpoint evaluation of int_cell h(x) nu_s(dx) ds for the path's law,
    written through the density g = h (1-G) so bounded-support laws stay
    finite.
    """
    if fpath.grid[-1] + 1e-9 < grid.T:
        raise ValueError("fluid path does not cover the limit horizon")
    dist = fpath.dist
    x_max = resolve_x_max(grid, dist)
    t_edges = grid.t_grid()
    x_edges = uniform_grid(x_max, grid.dx, "x_max", "dx")
    tm = (t_edges[:-1] + t_edges[1:]) / 2.0
    xm = (x_edges[:-1] + x_edges[1:]) / 2.0
    # g depends on the age only: one evaluation per column, broadcast in time
    g = dist.grid_density(xm, grid.dx)
    weight = fpath.age_density_weight(xm[None, :], tm[:, None])  # (nt, nx)
    intensity = g * weight * grid.dx * grid.dt
    return t_edges, x_edges, np.maximum(intensity, 0.0)


def simulate_hatE(arrival, t_grid, rng, noise_off=False):
    """Arrival perturbation: int sigma dB - int beta dt on the grid."""
    sig_fn, beta_fn = arrival.diffusion_coeffs()
    mids = (t_grid[:-1] + t_grid[1:]) / 2.0
    dts = np.diff(t_grid)
    drift = -np.asarray(beta_fn(mids), dtype=float) * dts
    if noise_off:
        inc = drift
    else:
        z = rng.standard_normal(mids.size)
        inc = drift + np.asarray(sig_fn(mids), dtype=float) * np.sqrt(dts) * z
    return np.concatenate([[0.0], np.cumsum(inc)])


def simulate_field(plan, rng, noise_off=False):
    """Draw the centered departure field W = z sqrt(intensity)."""
    if noise_off:
        W = np.zeros_like(plan.sqrt_intensity)
    else:
        W = rng.standard_normal(plan.sqrt_intensity.shape)
        W *= plan.sqrt_intensity
    return plan.field(W)


def conv_H(field, kernel):
    """Hhat_t(f) = field integral of Psi_t f, on all grid edges at once.

    Psi separates per age column: (Psi_t f)(x, s) = u_x(t - s) / (1-G(x))
    with u_x(l) = f(x + l)(1 - G(x + l)), so each live column is a causal
    convolution of its noise row with u_x, and Hhat(f) is their sum.
    kernel is the plan's rFFT of u_x / (1-G(x)) (LimitPlan.kernels_for).  The
    transform is linear, so the columns are added as spectra and one
    inverse rFFT gives the sum; it differs from adding per-column inverses
    by FFT rounding only (about 1e-15 relative).
    """
    from scipy.fft import irfft

    nt = field.W.shape[0]
    H = np.zeros(nt + 1)
    # added onto +0.0, so a zero field gives zeros without a -0.0
    H[1:] += irfft((field.W_hat * kernel).sum(axis=1), n=field.nfft)[:nt]
    return H


def s_op(nu0hat, dist, f, t_grid):
    """Transported initial perturbation S_t(f) = nu0hat(Phi_t f).

    nu0hat: None; {"atoms": [[x, w], ...]} at ages x >= 0; {"density":
    {"x": [...], "v": [...]}} integrated by trapezoid over its nodes,
    which fluid._nodes reads.  Any other form, an atom at a negative age
    or refused nodes raise InitialDataError naming nu0hat.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if nu0hat is None:
        return np.zeros(t_grid.size)
    if isinstance(nu0hat, dict) and "atoms" in nu0hat:
        out = np.zeros(t_grid.size)
        for x, w in nu0hat["atoms"]:
            if x < 0:
                raise InitialDataError("nu0hat", f"atom at negative age {x}")
            out += float(w) * np.asarray(f(x + t_grid)) * dist.survival_ratio(
                np.full(t_grid.size, float(x)), t_grid)
        return out
    if isinstance(nu0hat, dict) and "density" in nu0hat:
        xs, vals = _nodes("nu0hat", nu0hat["density"], "v")
        q = dead_mass_ratio(vals, np.asarray(dist.sf(xs)))
        out = np.empty(t_grid.size)
        for i, t in enumerate(t_grid):
            w = np.asarray(f(xs + t)) * np.asarray(dist.sf(xs + t)) * q
            out[i] = np.trapezoid(w, xs)
        return out
    raise InitialDataError("nu0hat", f"unrecognized form {nu0hat!r}")


# vhat as a function of Xhat in each regime
_CLAMP = {"subcritical": lambda x: x,
          "critical": lambda x: min(x, 0.0),
          "supercritical": lambda x: 0.0}


def _clamp(regime):
    """The regime's clamp; mixed or unknown regimes are refused."""
    if regime not in _CLAMP:
        raise ValueError(f"regime {regime!r}: mixed or unknown regimes are "
                         "outside this solver")
    return _CLAMP[regime]


def _trapezoid_conv(K, w, dt):
    """int_0^t K_u w(t-u) du on every grid edge: trapezoid in u, one FFT."""
    conv = fftconvolve(K, w)[:K.size]
    return dt * (conv - 0.5 * (K[0] * w + K * w[0]))


def solve_cmse(t_grid, g, Ehat, x0hat, Z, regime):
    """March the centered input system to (Khat, Xhat, vhat).

    g is the service density on t_grid (grid_density, LimitPlan.g) and Z
    the exogenous measure input S_t(1) - Hhat_t(1); the system closes

        vhat = Z + Khat - g * Khat        (trapezoid convolution)
        Khat = Ehat + x0 - Xhat + vhat - vhat(0)
        vhat = regime clamp of Xhat

    Subcritical Khat is a bitwise copy of Ehat, so Xhat is one convolution;
    the other regimes solve each step in closed form.  Z(0) must match the
    regime clamp of x0hat.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    n = t_grid.size - 1
    dt = float(t_grid[1] - t_grid[0])
    v0 = _clamp(regime)(x0hat)
    if abs(float(Z[0]) - v0) > 1e-9:
        raise ValueError(f"Z(0)={float(Z[0])} inconsistent with regime value {v0}")
    a = 1.0 - dt * g[0] / 2.0
    if a <= 0:
        raise ValueError("dt too large for this service density at 0")

    if regime == "subcritical":
        K = np.asarray(Ehat, dtype=float).copy()
        X = np.asarray(Z, dtype=float) + K - _trapezoid_conv(K, g, dt)
        X[0] = x0hat
        return K, X, X.copy()

    K = np.zeros(n + 1)
    X = np.empty(n + 1)
    v = np.empty(n + 1)
    X[0] = x0hat
    v[0] = v0
    for i in range(1, n + 1):
        C = dt * (0.5 * g[i] * K[0] + float(g[i - 1:0:-1] @ K[1:i]))
        if regime == "supercritical":
            K[i] = (C - Z[i]) / a
            X[i] = Ehat[i] + x0hat - K[i]
            v[i] = 0.0
        else:
            A = Ehat[i] + x0hat - v0 + (Z[i] - C) / a
            X[i] = A if A >= 0.0 else a * A
            v[i] = min(X[i], 0.0)
            K[i] = (v[i] - Z[i] + C) / a
    return K, X, v


def hat_nu(t_grid, S_f, Khat, H_f, xi, f0):
    """Measure read-out nuhat_t(f) in the derivative form.

    xi = f'(1-G) - f g on t_grid and f0 = f(0) are the path-independent
    weights of f (LimitPlan.readout_weights); the middle term f(0) K_t +
    int_0^t K_u xi(t-u) du is the trapezoid convolution solve_cmse uses.
    run_limit uses this form whenever f' is given and hat_nu_stieltjes
    otherwise.  The two are different quadratures of one integral: on the
    bench limit-cli runs (seeds 0-4, dt = 0.01) they differ by at most
    5.4e-5 on profiles of size about 2.  Both stay, because reading out
    with the Stieltjes form alone would change the bytes `limit run`
    writes for every read-out that has f'.
    """
    # the tests cross-check the middle term against gamma_map
    K = np.asarray(Khat, dtype=float)
    trap = _trapezoid_conv(K, xi, float(t_grid[1] - t_grid[0]))
    return np.asarray(S_f, dtype=float) + f0 * K + trap - np.asarray(H_f, dtype=float)


def hat_nu_stieltjes(S_f, Khat, H_f, u):
    """Measure read-out in the entry-increment form, needing no f'.

    The kernel term is sum over steps of dK_j u(t - mid_j), a causal
    convolution of the K increments with the midpoint-lag weights
    u = f(l)(1-G(l)) (LimitPlan.readout_weights).
    """
    dK = np.diff(np.asarray(Khat, dtype=float))
    n = dK.size
    out = np.zeros(n + 1)
    if n:
        out[1:] = fftconvolve(dK, u)[:n]
    return np.asarray(S_f, dtype=float) + out - np.asarray(H_f, dtype=float)


def simulate_hw(T, dt, beta, sigma2, x0, n_paths, rng, record_times=()):
    """Euler scheme for dX = -beta dt - min(X, 0) dt + sqrt(1+sigma2) dW.

    Streams in time on uniform_grid(T, dt), keeping only the marginals at
    record_times (whole numbers of steps in (0, T]); returns {t: samples}
    with T.
    """
    n = uniform_grid(T, dt).size - 1
    rec = {uniform_grid(t, dt, "record_times").size - 1: t for t in record_times}
    if rec and max(rec) > n:
        raise ValueError(f"record_times: {rec[max(rec)]} lies outside (0, T] "
                         f"with T {T}")
    rec.setdefault(n, T)
    vol = math.sqrt(1.0 + float(sigma2)) * math.sqrt(dt)
    X = np.full(int(n_paths), float(x0))
    out = {}
    for k in range(n):
        X = (X - float(beta) * dt - np.minimum(X, 0.0) * dt
             + vol * rng.standard_normal(X.size))
        if (k + 1) in rec:
            out[rec[k + 1]] = X.copy()
    return out


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def default_test_functions(dist):
    """The standard read-out family: 1, hazard, survival, exp decay."""
    return {
        "one": (_one, lambda x: np.zeros_like(np.asarray(x, dtype=float))),
        "hazard": (lambda x: np.asarray(dist.hazard(x)), None),
        "survival": (lambda x: np.asarray(dist.sf(x)),
                     lambda x: -np.asarray(dist.density(x))),
        "exp_decay": (lambda x: np.exp(-np.asarray(x, dtype=float)),
                      lambda x: -np.exp(-np.asarray(x, dtype=float))),
    }


@dataclass(frozen=True)
class LimitSpec:
    """One limit-sample experiment: model, grid, initial data, seed.  The
    arrival's lambda_bar drives the fluid path from x0 and nu0 (solve_fluid's
    forms), its centred fluctuation the diffusion from x0hat and nu0hat
    (s_op's forms)."""

    dist: ServiceDistribution
    arrival: object
    grid: LimitGrid
    x0: float = 1.0
    nu0: object = None
    x0hat: float = 0.0
    nu0hat: object = None
    seed: int = 0
    noise_off: bool = False
    test_functions: Optional[dict] = None

    def tests(self):
        """The read-out family: test_functions, or the default one."""
        if self.test_functions is not None:
            return self.test_functions
        return default_test_functions(self.dist)


@dataclass(eq=False)
class LimitPlan:
    """One limit run: its spec and the path-independent half of the
    sampler, built once.

    for_spec solves the fluid path, refuses a mixed regime before it
    builds anything else, and keeps what the paths and residuals read:
    the regime, the cell intensities' square roots, the live columns
    (1-G(x) > 0, so the kernels divide by no zero, and some intensity
    above 0, so a noise-off field gives exact zeros), the FFT length of a
    full causal convolution along time, the service density g on the time
    grid, and per test function its kernel, S_t(f) and read-out weights,
    plus Z's f = 1 kernel and S_t(1).  Each distinct function (by
    identity) gets one kernel and one S_t(f), so the default "one" shares
    Z's.  It pickles to worker processes with its spec, and shared arrays
    stay shared: the law crosses as its spec and the default test
    functions are rebuilt from it.
    """

    spec: LimitSpec
    regime: str              # the fluid path's regime
    t_edges: np.ndarray
    x_edges: np.ndarray
    sqrt_intensity: np.ndarray  # (nt, nx) square roots of the cell variances
    cols: np.ndarray         # live age columns, in age order
    nfft: int
    g: np.ndarray            # service density on the time grid (grid_density)
    one: np.ndarray = None   # kernel of f = 1, for Z
    S_one: np.ndarray = None  # S_t(1) on the time grid
    kernels: dict = None     # test-function name -> kernel
    weights: dict = None     # test-function name -> readout_weights
    S: dict = None           # test-function name -> S_t(f) on the time grid

    @classmethod
    def for_spec(cls, spec):
        """The plan for every path of spec's run; its arrival's lambda_bar,
        which drives the fluid path, must pass ArrivalSpec.checked_rate."""
        from scipy.fft import next_fast_len

        dist, grid = spec.dist, spec.grid
        spec.arrival.checked_rate(grid.T)
        fpath = solve_fluid(dist, grid.T, grid.dt, Ebar=spec.arrival.lambda_bar,
                            x0=spec.x0, nu0=spec.nu0)
        clamp = _clamp(fpath.regime)  # before any table or kernel is built
        t_edges, x_edges, table = fluid_cell_intensity(fpath, grid)
        # Z(0) = S_0(1), so solve_cmse's check on it is decided here
        S_one = s_op(spec.nu0hat, dist, _one, t_edges)
        v0 = clamp(spec.x0hat)
        if abs(float(S_one[0]) - v0) > 1e-9:
            raise InitialDataError(
                "x0hat", f"{spec.x0hat} clamps to {v0} in the {fpath.regime} "
                f"regime, but the nu0hat mass is {float(S_one[0])}")
        nt = t_edges.size - 1
        xm = (x_edges[:-1] + x_edges[1:]) / 2.0
        cols = np.flatnonzero((np.asarray(dist.sf(xm)) > 0.0) & np.any(table > 0.0, axis=0))
        plan = cls(spec=spec, regime=fpath.regime, t_edges=t_edges, x_edges=x_edges,
                   sqrt_intensity=np.sqrt(table, out=table), cols=cols,
                   nfft=next_fast_len(2 * nt - 1, real=True), S_one=S_one,
                   g=dist.grid_density(t_edges, float(t_edges[1] - t_edges[0])))
        tests = spec.tests()
        fs = {id(_one): _one, **{id(f): f for f, _ in tests.values()}}
        kernels = dict(zip(fs, plan.kernels_for(fs.values())))
        S = {key: S_one if f is _one else s_op(spec.nu0hat, dist, f, t_edges)
             for key, f in fs.items()}
        plan.one = kernels[id(_one)]
        plan.kernels = {name: kernels[id(f)] for name, (f, _) in tests.items()}
        plan.weights = {name: plan.readout_weights(f, fp)
                        for name, (f, fp) in tests.items()}
        plan.S = {name: S[id(f)] for name, (f, _) in tests.items()}
        return plan

    @property
    def x_mid(self):
        return (self.x_edges[:-1] + self.x_edges[1:]) / 2.0

    def kernels_for(self, fs):
        """For each f in fs, the rFFT along time of u_x(l) / (1-G(x)) on
        the live columns; the ages x + l and their 1-G are built once."""
        from scipy.fft import rfft

        sf = self.spec.dist.sf
        nt = self.t_edges.size - 1
        lags = (np.arange(nt) + 0.5) * float(self.t_edges[1] - self.t_edges[0])
        ages = (self.x_mid[self.cols] + lags[:, None]).ravel()
        sf_ages = np.asarray(sf(ages))
        sf_cols = np.asarray(sf(self.x_mid))[self.cols]
        return [rfft((np.asarray(f(ages), dtype=float) * sf_ages).reshape(
            nt, self.cols.size) / sf_cols, n=self.nfft, axis=0) for f in fs]

    def readout_weights(self, f, fprime):
        """The path-independent weights of f's measure read-out.

        With f' given, (xi, f(0)) for hat_nu, xi = f'(1-G) - f g on the
        time grid; without, (u,) for hat_nu_stieltjes, u = f(l)(1-G(l)) at
        the midpoint lags.
        """
        t, sf = self.t_edges, self.spec.dist.sf
        if fprime is None:
            lags = (np.arange(t.size - 1) + 0.5) * float(t[1] - t[0])
            return (np.asarray(f(lags), dtype=float) * np.asarray(sf(lags)),)
        xi = (np.asarray(fprime(t), dtype=float) * np.asarray(sf(t))
              - np.asarray(f(t), dtype=float) * self.g)
        return xi, float(np.atleast_1d(f(np.array([0.0])))[0])

    def field(self, W):
        """W on the plan's cells, with the rFFT of its live columns."""
        from scipy.fft import rfft

        return MartingaleField(
            W=W, W_hat=rfft(W[:, self.cols], n=self.nfft, axis=0), nfft=self.nfft)


@dataclass
class LimitRun:
    """A drawn limit sample plus every intermediate profile."""

    spec: LimitSpec
    t_grid: np.ndarray
    plan: LimitPlan
    field: MartingaleField
    Ehat: np.ndarray
    Hhat_1: np.ndarray
    M1: np.ndarray
    Khat: np.ndarray
    Xhat: np.ndarray
    vhat: np.ndarray
    nuhat: dict
    regime: str


def run_limit(plan, replicate=0):
    """Draw path `replicate` of the plan's run end to end.

    Its Gaussian inputs come from SeedSequence(spec.seed,
    spawn_key=(replicate,)), so (seed, replicate) pins the path.
    """
    spec = plan.spec
    t_grid = plan.t_edges
    ss = np.random.SeedSequence(spec.seed, spawn_key=(replicate,))
    ss_E, ss_W = ss.spawn(2)
    Ehat = simulate_hatE(spec.arrival, t_grid, np.random.default_rng(ss_E),
                         noise_off=spec.noise_off)
    fld = simulate_field(plan, np.random.default_rng(ss_W),
                         noise_off=spec.noise_off)
    kernels = {id(k): k for k in (plan.one, *plan.kernels.values())}
    H = {key: conv_H(fld, k) for key, k in kernels.items()}  # once per distinct kernel
    H1 = H[id(plan.one)]
    M1 = fld.m1_profile()
    Khat, Xhat, vhat = solve_cmse(t_grid, plan.g, Ehat, spec.x0hat,
                                  plan.S_one - H1, plan.regime)
    nuhat = {}
    for name, (_, fprime) in spec.tests().items():
        H_f = H[id(plan.kernels[name])]
        if fprime is None:
            nuhat[name] = hat_nu_stieltjes(plan.S[name], Khat, H_f,
                                           *plan.weights[name])
        else:
            nuhat[name] = hat_nu(t_grid, plan.S[name], Khat, H_f,
                                 *plan.weights[name])
    return LimitRun(spec=spec, t_grid=t_grid, plan=plan, field=fld,
                    Ehat=Ehat, Hhat_1=H1, M1=M1, Khat=Khat, Xhat=Xhat,
                    vhat=vhat, nuhat=nuhat, regime=plan.regime)


def rep_hatx_residual(run):
    """Headcount representation defect, independent reassembly.

    Xhat = x0 + Ehat - M(1) - [nu0(1) - S(1) - M(1) + H(1) + g * Khat].
    """
    dt = float(run.t_grid[1] - run.t_grid[0])
    S1 = run.plan.S_one
    gK = _trapezoid_conv(run.Khat, run.plan.g, dt)
    Dt = S1[0] - S1 - run.M1 + run.Hhat_1 + gK
    return float(np.max(np.abs(run.Xhat - (run.spec.x0hat + run.Ehat - run.M1 - Dt))))


def smg_bookkeeping_residual(run):
    """Regime bookkeeping of Khat against (Ehat, x0hat, Xhat).

    Subcritical must be exactly 0 (bitwise Khat = Ehat)."""
    x0 = run.spec.x0hat
    if run.regime == "subcritical":
        return float(np.max(np.abs(run.Khat - run.Ehat)))
    if run.regime == "critical":
        target = run.Ehat + max(x0, 0.0) - np.maximum(run.Xhat, 0.0)
    else:
        target = run.Ehat + x0 - run.Xhat
    return float(np.max(np.abs(run.Khat - target)))


def sae_test_functions(dist, funcs):
    """Read-out entries of sae_residual: each {name: (f, f')} gives
    name: (f, None) and name + ":drift": (w, None), w = f' - f h, which
    run_limit reads out in the Stieltjes form the balance is written in."""
    out = {}
    for name, (f, fprime) in funcs.items():
        def w(x, f=f, fprime=fprime):
            x = np.asarray(x, dtype=float)
            return np.asarray(fprime(x)) - np.asarray(f(x)) * np.asarray(dist.hazard(x))
        out[name], out[name + ":drift"] = (f, None), (w, None)
    return out


def sae_residual(run, name):
    """Defect of the semimartingale age balance for phi(x, s) = f(x) at T.

    nuhat_T(f) - nuhat_0(f) - int_0^T nuhat_s(f' - f h) ds
    + (field mass of f up to T) - f(0) Khat_T, all terms on the sample,
    for the entry `name` of sae_test_functions in the run's spec.
    Left-rule outer integral: O(dt).  noise_off with zero data gives 0.
    """
    dt = float(run.t_grid[1] - run.t_grid[0])
    i = run.t_grid.size - 1
    f = run.spec.tests()[name][0]
    nu_f = run.nuhat[name]
    drift = dt * float(np.sum(run.nuhat[name + ":drift"][:i]))
    fx = np.asarray(f(run.plan.x_mid), dtype=float)
    Mf = float(np.sum(run.field.W[:i, :] @ fx))
    f0 = float(np.atleast_1d(f(np.array([0.0])))[0])
    return float(nu_f[i] - nu_f[0] - drift + Mf - f0 * run.Khat[i])
