"""Deterministic fluid dynamics of the age-tracking many-server queue.

The fluid state is (headcount Xbar, cumulative entry Kbar, age measure).
The age measure never needs its own mesh in time: it is the transport of
the initial density plus the entry flow pushed through the service
survival,

    <f, nu_t> = int f(x+t) (1-G(x+t))/(1-G(x)) nu_0(dx)
              + int_0^t f(t-s) (1-G(t-s)) dK(s)

so the solver only tracks per-cell entry increments kappa and evaluates
mass <1, nu_t> and hazard load <h, nu_t> by the same discrete kernels the
age read-out uses.  Each step closes the loop

    Xbar = x0 + Ebar - int <h, nu_s> ds
    Kbar = <1, nu> - <1, nu_0> + int <h, nu_s> ds
    1 - <1, nu_t> = (1 - Xbar_t)^+

in closed form.  With the history fixed, the newest kappa cell enters the
step's departures with weight a = dt g(dt/2) / 2, and the closure is
piecewise linear in it with slope at most a < 1, so exactly one of its
three pieces (headcount above capacity, empty, in between) holds a fixed
point.  A step with a >= 1 is refused.  Everything is first-order in dt;
the cell-midpoint kernel keeps the stationary profile stationary to
O(dt^2) per step, which the 10*dt invariance test relies on.  A density
unbounded at 0 enters its first cell with that cell's mass G(dt)/dt,
since g(dt/2) understates it.

The transported-initial term int w(x+t) q0(x) dx, q0 = nu0/(1-G), has one
helper.  A grid start {"grid": {"x": [...], "p": [...]}}, a config's own
form, is laid on a dt-spaced age grid.  The invariant start {"invariant":
m} has q0 = m, so the term is m (int_0^inf w - int_0^t w) on the time grid
alone: its mass m * mean is exact, and no age grid is built, however heavy
the tail.

Initial age densities must be absolutely continuous; atoms are outside
this solver's contract.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dists import ServiceDistribution, as_rate, dead_mass_ratio, uniform_grid

__all__ = [
    "InitialDataError",
    "FluidPath",
    "solve_fluid",
    "classify_regime",
    "fftconvolve",
]

MASS_TOL = 1e-3


class InitialDataError(ValueError):
    """Initial data that contradict each other or the law.  field names the
    input at fault (nu0, nu0hat, x0hat) and the message starts with it."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


def _nodes(field, block, values):
    """A grid or density block's x nodes and its `values` list as float
    arrays; an InitialDataError naming field unless block is a dict with
    one value per x and x increases strictly from 0 or above."""
    if not isinstance(block, dict):
        raise InitialDataError(field, f"nodes must be an object of lists, got {block!r}")
    x, v = (np.asarray(block.get(k, ()), dtype=float) for k in ("x", values))
    if v.shape != x.shape:
        raise InitialDataError(field, f"{v.size} {values} values for {x.size} x nodes")
    if not (x.size and x[0] >= 0 and np.all(np.diff(x) > 0)):
        raise InitialDataError(field, f"x must increase strictly from 0 or above, "
                                      f"got {block.get('x')!r}")
    return x, v


def _density_on_grid(nodes, vals, dist, dt):
    """q0 = p0/sf on a dt-spaced age grid for a grid start's nodes."""
    x = np.arange(int(np.ceil(nodes[-1] / dt)) + 1) * dt
    p0 = np.interp(x, nodes, vals, left=0.0, right=0.0)
    if np.any(p0 < -1e-12):
        raise InitialDataError("nu0", "the grid density must be nonnegative")
    return dead_mass_ratio(p0, np.asarray(dist.sf(x)))


def _initial_q0(nu0, x0, dist, dt):
    """q0 = nu0/(1-G): m for {"invariant": m}, else a grid start on a
    dt-spaced age grid.  Each form states its mass exactly (m * mean, or
    the trapezoid over the nodes); InitialDataError for any other form,
    refused nodes, a negative density or a mass other than min(x0, 1)."""
    if isinstance(nu0, dict) and "invariant" in nu0:
        q0 = float(nu0["invariant"])
        mass = q0 * dist.mean
    elif isinstance(nu0, dict) and "grid" in nu0:
        x, p = _nodes("nu0", nu0["grid"], "p")
        q0 = _density_on_grid(x, p, dist, dt)
        mass = float(np.trapezoid(p, x))
    else:
        raise InitialDataError("nu0", f"unrecognized form {nu0!r}")
    target = min(x0, 1.0)
    if abs(mass - target) > MASS_TOL:
        raise InitialDataError(
            "nu0", f"mass {mass:.6f} must equal min(x0, 1) = {target:.6f}")
    return q0


def _cumulative_arrivals(Ebar, grid):
    if isinstance(Ebar, (int, float)):
        return float(Ebar) * grid
    rate = as_rate(Ebar)(grid)
    return np.concatenate([[0.0], np.cumsum((rate[1:] + rate[:-1]) / 2.0 * np.diff(grid))])


def fftconvolve(a, b):
    """Full linear convolution of the 1-D float arrays a and b.

    One real FFT of the next fast length, or a plain product when either
    has length 1: scipy.signal.fftconvolve's full mode, bit for bit."""
    if a.size == 1 or b.size == 1:
        return a * b
    from scipy.fft import irfft, next_fast_len, rfft
    n = a.size + b.size - 1
    m = next_fast_len(n, real=True)
    return irfft(rfft(a, m) * rfft(b, m), m)[:n]


def _transported(w, q0, dt, W=None):
    """I_w(t_i) = int w(x + t_i) q0(x) dx at t_i = i dt, w on {0, dt, ...}.

    q0 on dt age nodes: trapezoid in x, one FFT correlation.  A constant
    q0 = m (an invariant start) needs no age grid: m (W - int_0^t w), W =
    int_0^inf w, by cumulative trapezoid, clipped where it overshoots W."""
    n = w.size - np.size(q0)
    if not np.any(q0):
        return np.zeros(n + 1)
    if np.ndim(q0) == 0:
        head = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) / 2.0)]) * dt
        return np.maximum(q0 * (W - head), 0.0)
    out = fftconvolve(w, q0[::-1])[q0.size - 1:w.size] * dt
    out -= 0.5 * dt * (w[:n + 1] * q0[0] + w[q0.size - 1:] * q0[-1])
    return out


@dataclass
class FluidPath:
    """Solved fluid trajectory on a uniform grid, with age read-out."""

    grid: np.ndarray
    Xbar: np.ndarray
    Kbar: np.ndarray
    Bbar: np.ndarray
    Hbar: np.ndarray
    Dbar: np.ndarray
    kappa: np.ndarray
    regime: str
    dist: ServiceDistribution = field(repr=False)
    q0: np.ndarray | float = field(repr=False)  # nu0/(1-G) on dt age nodes, or m
    sf_comb: np.ndarray = field(repr=False)
    sf_half: np.ndarray = field(repr=False)

    @property
    def dt(self):
        return float(self.grid[1] - self.grid[0])

    def age_eval(self, f, t):
        """<f, nu_t> through the same kernels the solver stepped with."""
        i = uniform_grid(t, self.dt, "t").size - 1 if t else 0
        if i >= self.grid.size:
            raise ValueError(f"t: {t} is past the solver grid's end {self.grid[-1]}")
        nw = i + np.size(self.q0)
        w = np.asarray(f(np.arange(nw) * self.dt), dtype=float) * self.sf_comb[:nw]
        W = None
        if np.ndim(self.q0) == 0 and self.q0:
            # int_0^inf f (1-G) = mean * <f, stationary age law>; mean for f = 1
            x, F = self.dist.age_table
            W = self.dist.mean * np.trapezoid(np.asarray(f(x), dtype=float), F)
        out = float(_transported(w, self.q0, self.dt, W)[-1])
        if i > 0:
            lags = (np.arange(i, 0, -1) - 0.5) * self.dt
            out += float(np.asarray(f(lags), dtype=float) @ (self.sf_half[i - 1::-1] * self.kappa[:i]))
        return out

    def age_density_weight(self, x, s):
        """Entry-rate or transported-initial weight so that the fluid age
        density at (x, s) is weight * (1 - G(x))."""
        x, s = np.broadcast_arrays(np.asarray(x, dtype=float),
                                   np.asarray(s, dtype=float))
        dt = self.dt
        out = np.empty(x.shape)
        init_branch = x >= s
        # initial customers had age x - s at time 0; a constant q0 is one node
        q0 = np.atleast_1d(self.q0)
        nodes = np.arange(q0.size) * dt
        xi = np.clip(x[init_branch] - s[init_branch], 0.0, nodes[-1])
        out[init_branch] = np.interp(xi, nodes, q0, left=0.0, right=0.0)
        # entered at time s - x inside cell floor((s-x)/dt): rate kappa/dt
        born = s[~init_branch] - x[~init_branch]
        c = np.clip(np.floor(born / dt).astype(np.int64), 0, self.kappa.size - 1)
        out[~init_branch] = self.kappa[c] / dt
        return out


def solve_fluid(dist, T, dt, *, Ebar=1.0, x0=0.0, nu0=None):
    """March the fluid equations on uniform_grid(T, dt).

    Ebar is the arrival input (a limit run's is its arrival's lambda_bar):
    a number lam means Ebar(t) = lam t, any other rate spec (see as_rate)
    is a rate, integrated on the solver grid.  x0 is the initial scaled
    headcount, nonnegative.  nu0 is the initial age density, in a
    config's form: {"invariant": m} for m * (1-G), {"grid": {"x": [...],
    "p": [...]}} read by linear interpolation and 0 past the last node, or
    None for the invariant profile of mass min(x0, 1) (the empty start at
    x0 = 0).  It must integrate to min(x0, 1): the surplus (x0 - 1)^+
    waits unaged.

    Per step: evaluate mass and hazard load from the transport kernels and
    solve the non-idling closure for the newest entry cell exactly, trying
    its above-capacity, empty and in-between pieces in that order (the
    order stays right for an infinite headcount).  Raises ValueError for
    x0 < 0 or a grid uniform_grid refuses, InitialDataError (field nu0)
    for a nu0 _initial_q0 refuses, ValueError if B(0), its mass as the
    solver sees it, misses min(x0, 1) by more than MASS_TOL (a grid start
    the dt grid under-resolves) or if dt g(dt/2) / 2 >= 1 (dt too large
    for the density at 0), and ArithmeticError naming the first step
    whose headcount, entries, mass or hazard load is not finite.
    """
    if x0 < 0:
        raise ValueError("x0 must be nonnegative")
    grid = uniform_grid(T, dt)
    n = grid.size - 1
    if nu0 is None:
        nu0 = {"invariant": min(x0, 1.0) / dist.mean}
    q0 = _initial_q0(nu0, x0, dist, dt)

    comb = np.arange(np.size(q0) + n) * dt
    sf_comb = np.asarray(dist.sf(comb))
    half = (np.arange(n) + 0.5) * dt
    sf_half = np.asarray(dist.sf(half))
    g_half = dist.grid_density(half, dt)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not np.isfinite(dist.density(np.zeros(1))[0]):
            g_half[0] = dist.cdf(np.array([dt]))[0] / dt  # the first cell's mass
    a = dt * g_half[0] / 2.0  # the newest cell's share of the step's departures
    if a >= 1.0:
        raise ValueError("dt too large for this service density at 0")

    # transported-initial terms for all t at once: mass and hazard load
    I1 = _transported(sf_comb, q0, dt, dist.mean)
    I2 = _transported(dist.grid_density(comb, dt), q0, dt, 1.0)
    target0 = min(x0, 1.0)
    if abs(I1[0] - target0) > MASS_TOL:
        raise ValueError(f"nu0 mass {I1[0]:.6f} must equal min(x0, 1) = {target0:.6f}")

    with np.errstate(over="ignore"):  # an overflow ends in a non-finite step
        Ebar = _cumulative_arrivals(Ebar, grid)
    B = np.empty(n + 1)
    H = np.empty(n + 1)
    X = np.empty(n + 1)
    K = np.zeros(n + 1)
    Dc = np.zeros(n + 1)  # cumulative hazard load = fluid departures
    kappa = np.zeros(n)

    B[0] = I1[0]
    H[0] = I2[0]
    X[0] = x0
    for i in range(1, n + 1):
        base_B = I1[i] + (float(sf_half[1:i][::-1] @ kappa[:i - 1]) if i > 1 else 0.0)
        base_H = I2[i] + (float(g_half[1:i][::-1] @ kappa[:i - 1]) if i > 1 else 0.0)
        # the step is kap = max(clip(Y - a kap, 0, 1) + c + a kap, 0): one
        # piece per zone of the headcount Y - a kap, which is > 1 in the
        # first, < 0 in the second and in [0, 1] in the third
        D0 = Dc[i - 1] + dt * (H[i - 1] + base_H) / 2.0
        c = D0 - B[0] - K[i - 1]
        Y = x0 + Ebar[i] - D0
        kap = max((1.0 + c) / (1.0 - a), 0.0)
        if not Y - a * kap > 1.0:
            kap = max(c / (1.0 - a), 0.0)
            if not Y - a * kap < 0.0:
                kap = max(Y + c, 0.0)
        kappa[i - 1] = kap
        H[i] = base_H + g_half[0] * kap
        B[i] = base_B + sf_half[0] * kap
        Dc[i] = Dc[i - 1] + dt * (H[i - 1] + H[i]) / 2.0
        X[i] = x0 + Ebar[i] - Dc[i]
        K[i] = K[i - 1] + kap

    finite = np.isfinite(X) & np.isfinite(K) & np.isfinite(B) & np.isfinite(H)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ArithmeticError(f"fluid step {i} (t={grid[i]:g}) is not finite")

    path = FluidPath(grid=grid, Xbar=X, Kbar=K, Bbar=B, Hbar=H, Dbar=Dc,
                     kappa=kappa, regime="", dist=dist, q0=q0,
                     sf_comb=sf_comb, sf_half=sf_half)
    path.regime = classify_regime(path)
    return path


def classify_regime(path):
    """Label the trajectory by where the headcount sits against capacity.

    Each node is zoned below / at / above capacity with a band of half
    width 10 * dt.  A path visiting at most two zones in one
    direction is labeled by its final zone (subcritical / critical /
    supercritical); re-entries or three-zone paths are flagged "mixed".
    """
    tol = 10.0 * path.dt
    X = path.Xbar
    zones = np.where(X < 1.0 - tol, -1, np.where(X > 1.0 + tol, 1, 0))
    collapsed = zones[np.concatenate([[True], np.diff(zones) != 0])]
    if collapsed.size > 2:
        return "mixed"
    return {-1: "subcritical", 0: "critical", 1: "supercritical"}[int(collapsed[-1])]
