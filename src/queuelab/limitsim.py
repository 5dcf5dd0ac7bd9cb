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
density g, and sae_residual reads the run's own read-outs.  The plan's
read-out table holds each distinct test function once, f = 1 first,
since Z = S_t(1) - Hhat_t(1) is f = 1's read-out input.  Hhat(f) is a sum
of column convolutions with the kernel K_f(l, x) = u_x(l) / (1-G(x)),
which is smooth in (l, x) for a smooth law, so the plan factors every
kernel through one orthonormal age basis Q (live columns x k, from a
seeded randomized range finder) that holds each K_f as (K_f Q) Q^T to
RANK_TOL sqrt(columns) of its largest entry, a stated tolerance on Hhat,
never a silent truncation; where no such Q is narrower than the columns,
Q is the identity.  Path r of the run (run_limit(plan, r)) then draws
Ehat, draws W = z sqrt(intensity) and takes one rFFT of the k series
W[:, cols] Q (of the live columns themselves on the identity); each
entry costs one product with those spectra, a sum over the k series and
one inverse rFFT.

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
# The age basis holds each read-out kernel K to RANK_TOL * sqrt(c) of K's
# largest entry on a plan of c live columns (LimitPlan.kernels_for): a
# tolerance on Hhat, which moves by about a tenth of it.  The residual
# K - (K Q) Q^T sums over the columns, so its own rounding grows like
# eps sqrt(c): 1-4 eps sqrt(c) was measured from 320 to 10,240 columns,
# and RANK_TOL is about 14 eps.  That is 5.4e-14 on limit-cli's 320
# columns and 2.3e-14 on the 60 of the tests that hold conv_H to 1e-13
# of the column-by-column convolution.
RANK_TOL = 3e-15
BASIS_WIDTH = 48       # sketch columns: the width of every basis but the identity
BASIS_SEED = 20110525  # the sketch's own stream, shared by every plan


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
    time of its live columns' coordinates in the plan's age basis
    (LimitPlan.field)."""

    W: np.ndarray          # (nt, nx) independent N(0, intensity) draws
    Y_hat: np.ndarray      # (nfft // 2 + 1, k) rFFT of W[:, cols] @ basis
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
    convolution of its noise row with u_x, and Hhat(f) is their sum.  The
    plan's age basis Q holds every kernel K = u_x / (1-G(x)) as (K Q) Q^T
    to RANK_TOL sqrt(columns) of its largest entry, so the sum over columns
    is a sum over the k basis series: kernel is the rFFT of K Q
    (LimitPlan.kernels_for) and field holds the rFFT of W Q.  The
    transform is linear, so the series are added as spectra and one
    inverse rFFT gives the sum; against adding per-column convolutions
    this moves H by the basis residual and FFT rounding only (within 3e-15
    of its scale on the bench grid).
    """
    from scipy.fft import irfft

    nt = field.W.shape[0]
    H = np.zeros(nt + 1)
    # added onto +0.0, so a zero field gives zeros without a -0.0
    H[1:] += irfft((field.Y_hat * kernel).sum(axis=1), n=field.nfft)[:nt]
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
    # per-step scalars as Python floats; the history sums stay numpy dots
    gl, El, Zl = (np.asarray(y, dtype=float).tolist() for y in (g, Ehat, Z))
    a, K0 = float(a), float(K[0])
    for i in range(1, n + 1):
        C = dt * (0.5 * gl[i] * K0 + float(g[i - 1:0:-1] @ K[1:i]))
        if regime == "supercritical":
            k = (C - Zl[i]) / a
            X[i] = El[i] + x0hat - k
            v[i] = 0.0
        else:
            A = El[i] + x0hat - v0 + (Zl[i] - C) / a
            X[i] = x = A if A >= 0.0 else a * A
            v[i] = vi = min(x, 0.0)
            k = (vi - Zl[i] + C) / a
        K[i] = k
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
    grid, the age basis and one read-out table.  The table has one entry
    per distinct read-out function, f = 1 first: kernels[i] its kernel's
    spectra in the basis (kernels_for) and S[i] its S_t(f), so Z = S[0] -
    Hhat(1) reads entry 0 and the default "one" is entry 0 too.  readouts
    maps each test-function name to its entry and its read-out weights.
    The basis (_age_basis) is built from the table's own kernels, each
    evaluated once on the live columns, and from BASIS_SEED, never from
    spec.seed or a path's stream, so (seed, replicate) still pins every
    path.  The plan pickles to worker processes with its spec and basis;
    the law crosses as its spec.
    """

    spec: LimitSpec
    regime: str              # the fluid path's regime
    t_edges: np.ndarray
    x_edges: np.ndarray
    sqrt_intensity: np.ndarray  # (nt, nx) square roots of the cell variances
    cols: np.ndarray         # live age columns, in age order
    nfft: int
    g: np.ndarray            # service density on the time grid (grid_density)
    basis: np.ndarray = None  # (live columns, k) orthonormal age basis
    kernels: list = None     # entry -> kernel (kernels_for); entry 0 is f = 1
    S: list = None           # entry -> S_t(f) on the time grid
    readouts: dict = None    # test-function name -> (entry, readout_weights)

    @classmethod
    def for_spec(cls, spec):
        """The plan for every path of spec's run; its arrival's lambda_bar,
        which drives the fluid path, must pass ArrivalSpec.checked_rate, and
        a non-finite x0hat is an InitialDataError before the fluid solve."""
        from scipy.fft import next_fast_len, rfft

        dist, grid = spec.dist, spec.grid
        if not math.isfinite(spec.x0hat):
            raise InitialDataError("x0hat", f"must be finite, got {spec.x0hat}")
        spec.arrival.checked_rate(grid.T)
        fpath = solve_fluid(dist, grid.T, grid.dt, Ebar=spec.arrival.lambda_bar,
                            x0=spec.x0, nu0=spec.nu0)
        clamp = _clamp(fpath.regime)  # before any table or kernel is built
        t_edges, x_edges, table = fluid_cell_intensity(fpath, grid)
        # Z(0) = S_0(1), so solve_cmse's check on it is decided here
        S1 = s_op(spec.nu0hat, dist, _one, t_edges)
        v0 = clamp(spec.x0hat)
        if abs(float(S1[0]) - v0) > 1e-9:
            raise InitialDataError(
                "x0hat", f"{spec.x0hat} clamps to {v0} in the {fpath.regime} "
                f"regime, but the nu0hat mass is {float(S1[0])}")
        nt = t_edges.size - 1
        xm = (x_edges[:-1] + x_edges[1:]) / 2.0
        cols = np.flatnonzero((np.asarray(dist.sf(xm)) > 0.0) & np.any(table > 0.0, axis=0))
        plan = cls(spec=spec, regime=fpath.regime, t_edges=t_edges, x_edges=x_edges,
                   sqrt_intensity=np.sqrt(table, out=table), cols=cols,
                   nfft=next_fast_len(2 * nt - 1, real=True),
                   g=dist.grid_density(t_edges, float(t_edges[1] - t_edges[0])))
        tests = spec.tests()
        # each distinct function once (functions compare by identity), f = 1 first
        fs = list(dict.fromkeys([_one, *(f for f, _ in tests.values())]))
        plan.basis, coords = _age_basis(plan._kernel_tables(fs))
        plan.kernels = [rfft(C, n=plan.nfft, axis=0) for C in coords]
        plan.S = [S1, *(s_op(spec.nu0hat, dist, f, t_edges) for f in fs[1:])]
        plan.readouts = {name: (fs.index(f), plan.readout_weights(f, fp))
                         for name, (f, fp) in tests.items()}
        return plan

    @property
    def x_mid(self):
        return (self.x_edges[:-1] + self.x_edges[1:]) / 2.0

    def kernels_for(self, fs):
        """For each f in fs, the rFFT along time of its kernel's
        coordinates K Q in the plan's age basis (conv_H's kernel input).

        A ValueError names the first f whose kernel K the basis does not
        hold, that is (K Q) Q^T misses K by more than RANK_TOL sqrt(columns)
        of K's largest entry: a kernel is never truncated silently.
        """
        from scipy.fft import rfft

        out = []
        for f, K in zip(fs, self._kernel_tables(fs)):
            C, held = _in_basis(K, self.basis)
            if not held:
                raise ValueError(
                    f"{_name(f)}: its kernel is outside the plan's age basis "
                    f"(width {self.basis.shape[1]}) by more than RANK_TOL sqrt(columns) "
                    f"= {RANK_TOL * math.sqrt(self.cols.size):.2g} of its largest entry")
            out.append(rfft(C, n=self.nfft, axis=0))
        return out

    def _kernel_tables(self, fs):
        """For each f in fs, its kernel u_x(l) / (1-G(x)) as an (nt, live
        columns) table; the ages x + l and their 1-G are built once.  A
        ValueError names an f whose table is not finite."""
        sf = self.spec.dist.sf
        nt = self.t_edges.size - 1
        lags = (np.arange(nt) + 0.5) * float(self.t_edges[1] - self.t_edges[0])
        ages = (self.x_mid[self.cols] + lags[:, None]).ravel()
        sf_ages = np.asarray(sf(ages))
        sf_cols = np.asarray(sf(self.x_mid))[self.cols]
        tables = []
        for f in fs:
            K = (np.asarray(f(ages), dtype=float) * sf_ages).reshape(nt, self.cols.size)
            K /= sf_cols
            if not np.all(np.isfinite(K)):
                raise ValueError(f"{_name(f)}: its kernel is not finite on the live columns")
            tables.append(K)
        return tables

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
        """W on the plan's cells, with the rFFT of its live columns'
        coordinates W[:, cols] @ basis: k series, not one per column."""
        from scipy.fft import rfft

        Y = W[:, self.cols]
        if self.basis.shape[1] < self.cols.size:  # the identity needs no product
            Y = Y @ self.basis
        return MartingaleField(W=W, Y_hat=rfft(Y, n=self.nfft, axis=0), nfft=self.nfft)


def _name(f):
    return getattr(f, "__qualname__", repr(f))


def _in_basis(K, Q):
    """K's coordinates K Q in the orthonormal columns of Q, and whether
    (K Q) Q^T is within RANK_TOL sqrt(columns) of K's largest entry
    everywhere.  A square Q is the identity (_age_basis): K itself."""
    if Q.shape[1] == Q.shape[0]:
        return K, True
    C = K @ Q
    R = C @ Q.T
    R -= K
    tol = RANK_TOL * math.sqrt(Q.shape[0]) * max(K.max(), -K.min())
    return C, bool(max(R.max(), -R.min()) <= tol)


def _age_basis(tables):
    """One orthonormal age basis Q (live columns x k) for the kernel
    tables, and each table's coordinates K Q.

    A randomized range finder (Halko, Martinsson & Tropp 2011, SIAM Rev.
    53) of one width: the row space of the stacked tables is sketched with
    BASIS_WIDTH Gaussian draws from BASIS_SEED and orthonormalised by a QR.
    Q is the identity, which holds every table exactly, when there are no
    more columns than BASIS_WIDTH or when the sketch's Q leaves some table
    outside the tolerance (_in_basis), as a law whose support ends inside
    the grid does.
    """
    c = tables[0].shape[1]
    if c > BASIS_WIDTH:
        rng = np.random.default_rng(BASIS_SEED)
        Q = np.linalg.qr(sum(K.T @ rng.standard_normal((K.shape[0], BASIS_WIDTH))
                             for K in tables))[0]
        fits = [_in_basis(K, Q) for K in tables]
        if all(held for _, held in fits):
            return Q, [C for C, _ in fits]
    return np.eye(c), tables


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
    spawn_key=(replicate,)), so (seed, replicate) pins the path.  Hhat is
    convolved once per entry of the plan's read-out table; Z reads entry
    0 (f = 1) and each test function its own entry.
    """
    spec = plan.spec
    t_grid = plan.t_edges
    ss = np.random.SeedSequence(spec.seed, spawn_key=(replicate,))
    ss_E, ss_W = ss.spawn(2)
    Ehat = simulate_hatE(spec.arrival, t_grid, np.random.default_rng(ss_E),
                         noise_off=spec.noise_off)
    fld = simulate_field(plan, np.random.default_rng(ss_W),
                         noise_off=spec.noise_off)
    H = [conv_H(fld, k) for k in plan.kernels]  # once per table entry
    M1 = fld.m1_profile()
    Khat, Xhat, vhat = solve_cmse(t_grid, plan.g, Ehat, spec.x0hat,
                                  plan.S[0] - H[0], plan.regime)
    nuhat = {}
    for name, (i, w) in plan.readouts.items():  # w = (u,) when f' is not given
        if len(w) == 1:
            nuhat[name] = hat_nu_stieltjes(plan.S[i], Khat, H[i], *w)
        else:
            nuhat[name] = hat_nu(t_grid, plan.S[i], Khat, H[i], *w)
    return LimitRun(spec=spec, t_grid=t_grid, plan=plan, field=fld,
                    Ehat=Ehat, Hhat_1=H[0], M1=M1, Khat=Khat, Xhat=Xhat,
                    vhat=vhat, nuhat=nuhat, regime=plan.regime)


def rep_hatx_residual(run):
    """Headcount representation defect, independent reassembly.

    Xhat = x0 + Ehat - M(1) - [nu0(1) - S(1) - M(1) + H(1) + g * Khat].
    """
    dt = float(run.t_grid[1] - run.t_grid[0])
    S1 = run.plan.S[0]
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
