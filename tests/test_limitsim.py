"""Tests for the Gaussian second-order limit sampler.

Variance targets below are closed forms on the stationary exponential
profile (density e^-x, unit hazard): the field carries total intensity t,
the exp-decay read-out integrates e^-2x e^-x dx = 1/3 per unit time, and
the survival-kernel convolution has variance int_0^t e^-2(t-s) ds.
Ensemble tolerances are sized from the chi-square spread of a variance
estimate, rel SE = sqrt(2/n), at 3-4 standard errors.
"""
import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy.signal import fftconvolve

from queuelab.dists import ArrivalSpec, make_service_dist, renewal_function
from queuelab.fluid import InitialDataError, solve_fluid
from queuelab import limitsim as L

# machine-level identities: per-step closures are exact in float arithmetic
EXACT_TOL = 1e-12
# trapezoid quadrature of a smooth integrand at dt = 1e-3
QUAD_TOL = 1e-6
# frozen: K = id, f = 1, exponential service, t = 1 -> 1 - 1/e
GAMMA_MAP_AT_1 = 0.6321205588285577
# frozen: Var of the arrival perturbation at t=1 for rate 1 + t
VAR_EHAT_AFFINE = 1.5

EXP = make_service_dist("exponential")
LOGN = make_service_dist("lognormal", sigma=0.5)

ONE = lambda x: np.ones_like(np.asarray(x, dtype=float))
ZERO = lambda x: np.zeros_like(np.asarray(x, dtype=float))
EXPD = lambda x: np.exp(-np.asarray(x, dtype=float))
NEXPD = lambda x: -np.exp(-np.asarray(x, dtype=float))


def stationary_init():
    return dict(Ebar=1.0, x0=1.0, nu0={"invariant": 1.0})


def poisson_arr(lam=1.0, beta=0.0):
    return ArrivalSpec("renewal", lam, beta=beta, sigma2=lam)


def critical_spec(seed=0, T=1.5, dt=0.01, dist=EXP, noise_off=False, x0hat=0.0,
                  nu0hat=None, arrival=None, dx=0.1, test_functions=None):
    grid = L.LimitGrid(T=T, dt=dt, dx=dx)
    return L.LimitSpec(dist=dist, arrival=arrival or poisson_arr(), grid=grid,
                       nu0={"invariant": 1.0}, x0hat=x0hat, nu0hat=nu0hat,
                       seed=seed, noise_off=noise_off, test_functions=test_functions)


def critical_run(seed, **kw):
    return L.run_limit(L.LimitPlan.for_spec(critical_spec(seed, **kw)))


# the two test functions of scalestats.verify_sae
SAE = {"exp-decay": (EXPD, NEXPD), "one": (ONE, ZERO)}


def sae_run(seed, dist=EXP, **kw):
    return critical_run(seed, dist=dist,
                        test_functions=L.sae_test_functions(dist, SAE), **kw)


def sae_reference(run, f, fprime, column_loop=False):
    """Age-balance defect with every read-out built per call: S_t, the
    field convolution (through plan.kernels_for, or with column_loop one
    convolution per age column, which shares nothing with the plan's age
    basis) and the Stieltjes weights of f and of w = f' - f h."""
    dist, plan, tg = run.spec.dist, run.plan, run.t_grid
    dt = float(tg[1] - tg[0])
    i = tg.size - 1

    def readout(phi):
        S = L.s_op(run.spec.nu0hat, dist, phi, tg)
        H = (conv_H_by_column(plan, run.field, dist, phi) if column_loop
             else L.conv_H(run.field, plan.kernels_for([phi])[0]))
        return L.hat_nu_stieltjes(S, run.Khat, H, *plan.readout_weights(phi, None))

    def w(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(fprime(x)) - np.asarray(f(x)) * np.asarray(dist.hazard(x))

    nu_f = readout(f)
    drift = dt * float(np.sum(readout(w)[:i]))
    fx = np.asarray(f(plan.x_mid), dtype=float)
    Mf = float(np.sum(run.field.W[:i, :] @ fx))
    f0 = float(np.atleast_1d(f(np.array([0.0])))[0])
    return float(nu_f[i] - nu_f[0] - drift + Mf - f0 * run.Khat[i])


def grid_g(dist, t_grid):
    """solve_cmse's density input: the law's density on the time grid."""
    return dist.grid_density(t_grid, float(t_grid[1] - t_grid[0]))


def subcritical_loop(t_grid, g, Ehat, x0hat, Z):
    """Subcritical Xhat by the step loop: Khat = Ehat is known, so each
    step is Z + (1 - dt g(0)/2) Khat minus the trapezoid sum of g * Khat."""
    n = t_grid.size - 1
    dt = float(t_grid[1] - t_grid[0])
    a = 1.0 - dt * g[0] / 2.0
    K = np.asarray(Ehat, dtype=float)
    X = np.empty(n + 1)
    X[0] = x0hat
    for i in range(1, n + 1):
        C = dt * (0.5 * g[i] * K[0] + float(g[i - 1:0:-1] @ K[1:i]))
        X[i] = Z[i] + a * K[i] - C
    return X


class TestGridAndIntensity:
    def test_x_max_from_tail_budget(self):
        grid = L.LimitGrid(T=1.0, dt=0.05, dx=0.25)
        xm = L.resolve_x_max(grid, EXP)
        # exp survival crosses 1e-6 at -ln(1e-6) ~ 13.8
        assert xm >= -np.log(L.TAIL_BUDGET) - 1e-9
        assert abs(xm / grid.dx - round(xm / grid.dx)) < 1e-9
        explicit = L.LimitGrid(T=1.0, dt=0.05, dx=0.25, x_max=6.0)
        assert L.resolve_x_max(explicit, EXP) == 6.0

    def test_total_intensity_matches_manifold_load(self):
        # on the stationary profile the departure intensity is 1 per unit
        # time, so the cells must sum to T up to midpoint + tail error
        grid = L.LimitGrid(T=1.0, dt=0.025, dx=0.25)
        fl = solve_fluid(EXP, grid.T, grid.dt, **stationary_init())
        _, _, inten = L.fluid_cell_intensity(fl, grid)
        total = float(inten.sum())
        assert abs(total - grid.T) < 0.01, (
            f"cell intensities sum to {total}, expected ~{grid.T} on the "
            f"stationary profile")

    def test_short_fluid_path_rejected(self):
        grid = L.LimitGrid(T=2.0, dt=0.025, dx=0.25)
        fl = solve_fluid(EXP, 1.0, grid.dt, **stationary_init())
        with pytest.raises(ValueError, match="horizon"):
            L.fluid_cell_intensity(fl, grid)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            L.LimitGrid(T=1.0, dt=-0.1, dx=0.1)


class TestFieldOracles:
    # one shared ensemble for all variance targets: 4000 fields on the
    # stationary exponential profile, T = 1, rel SE sqrt(2/4000) ~ 2.2%
    REPS = 4000

    @classmethod
    def setup_class(cls):
        grid = L.LimitGrid(T=1.0, dt=0.025, dx=0.25)
        cls.grid = grid
        cls.plan = L.LimitPlan.for_spec(L.LimitSpec(
            dist=EXP, arrival=poisson_arr(), grid=grid, nu0={"invariant": 1.0},
            test_functions={"one": (ONE, ZERO)}))
        cls.t_edges, cls.x_edges = cls.plan.t_edges, cls.plan.x_edges
        cls.sqrt_intensity = root = cls.plan.sqrt_intensity
        rng = np.random.default_rng(20260822)
        cls.W = rng.standard_normal((cls.REPS,) + root.shape) * root

    def test_var_total_mass(self):
        v = float(self.W.sum(axis=(1, 2)).var())
        assert abs(v - 1.0) < 0.10, f"Var M(1) at t=1 was {v}, oracle 1"

    def test_var_exp_decay_readout(self):
        xm = (self.x_edges[:-1] + self.x_edges[1:]) / 2.0
        v = float((self.W * np.exp(-xm)).sum(axis=(1, 2)).var())
        assert abs(v - 1.0 / 3.0) < 0.035, f"Var M(e^-x) at t=1 was {v}, oracle 1/3"

    def test_var_survival_convolution(self):
        # Hhat_1(1) weights each cell by e^-(1 - s_mid) under exp service
        nt = self.sqrt_intensity.shape[0]
        lag = (nt - np.arange(nt) - 0.5) * self.grid.dt
        v = float((self.W * np.exp(-lag)[:, None]).sum(axis=(1, 2)).var())
        oracle = (1.0 - np.exp(-2.0)) / 2.0
        assert abs(v - oracle) < 0.05, f"Var H_1(1) was {v}, oracle {oracle}"

    def test_conv_H_matches_direct_cell_sum(self):
        i = self.plan.readouts["one"][0]
        H = L.conv_H(self.plan.field(self.W[0]), self.plan.kernels[i])
        nt = self.sqrt_intensity.shape[0]
        lag = (nt - np.arange(nt) - 0.5) * self.grid.dt
        direct = float((self.W[0] * np.exp(-lag)[:, None]).sum())
        assert abs(H[-1] - direct) < 1e-10, (
            f"FFT column convolution gives {H[-1]}, direct cell sum {direct}")

    def test_field_noise_off_is_zero(self):
        fld = L.simulate_field(self.plan, np.random.default_rng(0), noise_off=True)
        assert np.all(fld.W == 0.0)

    def test_arrival_and_field_streams_uncorrelated(self):
        # same stream split as run_limit: one seed, spawn 2
        reps = 1000
        t_grid = self.grid.t_grid()
        arr = poisson_arr()
        e_fin = np.empty(reps)
        m_fin = np.empty(reps)
        for r in range(reps):
            ss = np.random.SeedSequence(99, spawn_key=(r,))
            ss_E, ss_W = ss.spawn(2)
            e_fin[r] = L.simulate_hatE(arr, t_grid, np.random.default_rng(ss_E))[-1]
            W = (np.random.default_rng(ss_W).standard_normal(self.sqrt_intensity.shape)
                 * self.sqrt_intensity)
            m_fin[r] = W.sum()
        corr = float(np.corrcoef(e_fin, m_fin)[0, 1])
        assert abs(corr) < 0.12, (
            f"arrival and departure noise correlate at {corr} over {reps} draws")


def conv_H_by_column(plan, field, dist, f):
    """Reference wiring of conv_H: one FFT convolution per age column."""
    xm = plan.x_mid
    nt = field.W.shape[0]
    lags = (np.arange(nt) + 0.5) * (plan.t_edges[1] - plan.t_edges[0])
    sfx = np.asarray(dist.sf(xm))
    H = np.zeros(nt + 1)
    for a in range(xm.size):
        if sfx[a] <= 0.0 or not np.any(field.W[:, a]):
            continue
        y = xm[a] + lags
        u = np.asarray(f(y), dtype=float) * np.asarray(dist.sf(y)) / sfx[a]
        H[1:] += fftconvolve(field.W[:, a], u)[:nt]
    return H


def kernel_table(plan, dist, f):
    """Reference kernel u_x(l) / (1-G(x)) on the plan's live columns, built
    column by column as conv_H_by_column builds it."""
    nt = plan.t_edges.size - 1
    lags = (np.arange(nt) + 0.5) * (plan.t_edges[1] - plan.t_edges[0])
    sfx = np.asarray(dist.sf(plan.x_mid))
    return np.stack([np.asarray(f(plan.x_mid[a] + lags), dtype=float)
                     * np.asarray(dist.sf(plan.x_mid[a] + lags)) / sfx[a]
                     for a in plan.cols], axis=1)


class TestConvHBatched:
    """The plan's conv_H against the per-column loop.

    The plan holds each kernel K in its age basis Q as K Q, to RANK_TOL of
    K's largest entry, and conv_H convolves the field's k basis series
    W Q, adds their spectra and inverts once; the loop convolves every
    column and adds the results.  So the two differ by the basis residual
    and rounding, and the checks allow 1e-13 of the profile's scale (the
    largest gap seen over 7 laws, 4 read-outs and 5 seeds was 1.4e-15
    relative).  A plan with a single live column has the basis [1.0], so
    its conv_H is the full column transform, which calls f and sf on the
    loop's points and gives the loop's values exactly (==).
    """

    LAWS = {
        "exponential": EXP,
        "lognormal": LOGN,
        "gamma2": make_service_dist("gamma", shape=2.0),
        "lomax": make_service_dist("pareto", a=2.5),
        "phasetype": make_service_dist("phasetype"),
        # Erlang-2 generator: defective (not diagonalizable)
        "phasetype_expm": make_service_dist("phasetype", alpha=(1.0, 0.0),
                                            S=((-2.0, 2.0), (0.0, -2.0))),
        # support ends at 8/3: sf(x_mid) = 0 on the columns past it
        "piecewise": make_service_dist("piecewise"),
    }

    @staticmethod
    def read_outs(dist):
        # float(v) accepts scalars only, so this f needs 1-D input
        one_d = lambda x: np.array([np.exp(-0.5 * float(v)) for v in x])
        hz = lambda x: np.asarray(dist.hazard(x))
        return {"one": (ONE, ZERO), "exp_decay": (EXPD, NEXPD),
                "hazard": (hz, None), "1-D loop": (one_d, None)}

    PLANS = {}  # law -> plan, shared by the tests of one law

    @classmethod
    def plan(cls, law):
        if law not in cls.PLANS:
            dist = cls.LAWS[law]
            cls.PLANS[law] = L.LimitPlan.for_spec(L.LimitSpec(
                dist=dist, arrival=poisson_arr(), nu0={"invariant": 1.0},
                grid=L.LimitGrid(T=1.0, dt=0.025, dx=0.1, x_max=6.0),
                test_functions=cls.read_outs(dist)))
        return cls.PLANS[law]

    @classmethod
    def field(cls, law, seed=5):
        plan = cls.plan(law)
        W = L.simulate_field(plan, np.random.default_rng(seed)).W
        W[:, [3, 17]] = 0.0  # all-zero columns are skipped by the loop
        return plan.field(W)

    def kernels(self, law):
        plan, dist = self.plan(law), self.LAWS[law]
        for name, (f, _) in self.read_outs(dist).items():
            yield name, f, plan.kernels[plan.readouts[name][0]]
        yield "one (Z)", ONE, plan.kernels[0]

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_equals_column_loop(self, law):
        dist, plan = self.LAWS[law], self.plan(law)
        fld = self.field(law)
        if law == "piecewise":
            assert np.any(dist.sf(plan.x_mid) == 0.0), "no column past the support"
        for name, f, kernel in self.kernels(law):
            got = L.conv_H(fld, kernel)
            want = conv_H_by_column(plan, fld, dist, f)
            gap = float(np.max(np.abs(got - want)))
            assert gap <= 1e-13 * max(1.0, float(np.max(np.abs(want)))), (
                f"{law}, f={name}: the plan's conv_H differs from the column "
                f"loop by {gap}")

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_single_live_column_exact(self, law):
        dist, plan = self.LAWS[law], self.plan(law)
        W = self.field(law).W
        for col in (plan.cols[0], plan.cols[plan.cols.size // 2], plan.cols[-1]):
            one_col = np.zeros_like(W)
            one_col[:, col] = W[:, col]
            fld = plan.field(one_col)
            for name, f, kernel in self.kernels(law):
                want = conv_H_by_column(plan, fld, dist, f)
                gap = float(np.max(np.abs(L.conv_H(fld, kernel) - want)))
                assert gap <= 1e-13 * max(1.0, float(np.max(np.abs(want)))), (
                    f"{law}, f={name}, column {col}: conv_H differs from the "
                    f"column loop by {gap}")

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_one_column_plan_exact(self, law):
        # x_max = dx leaves one age cell: the basis is [1.0], so conv_H
        # is the one column's convolution, bit for bit
        dist = self.LAWS[law]
        plan = L.LimitPlan.for_spec(L.LimitSpec(
            dist=dist, arrival=poisson_arr(), nu0={"invariant": 1.0},
            grid=L.LimitGrid(T=1.0, dt=0.025, dx=0.1, x_max=0.1),
            test_functions=self.read_outs(dist)))
        assert np.array_equal(plan.cols, [0])
        assert plan.basis.tolist() == [[1.0]]
        fld = L.simulate_field(plan, np.random.default_rng(5))
        for name, (f, _) in self.read_outs(dist).items():
            got = L.conv_H(fld, plan.kernels[plan.readouts[name][0]])
            want = conv_H_by_column(plan, fld, dist, f)
            assert np.array_equal(got, want), (
                f"{law}, f={name}: a one-column plan's conv_H differs from the "
                f"column loop by {np.max(np.abs(got - want))}")

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_basis_holds_every_kernel(self, law):
        # the age basis is orthonormal and reproduces each read-out's
        # kernel, built here column by column, to RANK_TOL sqrt(columns) of
        # its largest entry, for the default family and sae_residual's;
        # only the law whose support ends inside the grid needs every column
        dist = self.LAWS[law]
        for tests in (L.default_test_functions(dist), L.sae_test_functions(dist, SAE)):
            plan = L.LimitPlan.for_spec(L.LimitSpec(
                dist=dist, arrival=poisson_arr(), nu0={"invariant": 1.0},
                grid=L.LimitGrid(T=1.0, dt=0.025, dx=0.1, x_max=6.0),
                test_functions=tests))
            Q = plan.basis
            k = Q.shape[1]
            assert Q.shape[0] == plan.cols.size and 1 <= k <= plan.cols.size
            assert (k == plan.cols.size) == (law == "piecewise"), (law, k)
            assert np.max(np.abs(Q.T @ Q - np.eye(k))) <= 1e-14
            for name, (f, _) in tests.items():
                K = kernel_table(plan, dist, f)
                res = float(np.max(np.abs(K - (K @ Q) @ Q.T)))
                tol = L.RANK_TOL * np.sqrt(plan.cols.size)
                assert res <= tol * float(np.max(np.abs(K))), (
                    f"{law}, f={name}: the basis of width {k} misses the kernel "
                    f"by {res}")

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_intensity_equals_meshgrid_form(self, law):
        # the density is evaluated once per age column and broadcast in
        # time; the (nt, nx) meshgrid evaluation gives the same table
        dist, plan = self.LAWS[law], self.plan(law)
        grid = plan.spec.grid
        fl = solve_fluid(dist, grid.T, grid.dt, **stationary_init())
        tm = (plan.t_edges[:-1] + plan.t_edges[1:]) / 2.0
        xm = (plan.x_edges[:-1] + plan.x_edges[1:]) / 2.0
        Xm, Sm = np.meshgrid(xm, tm, indexing="xy")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = np.asarray(dist.density(Xm), dtype=float)
        g = np.where(np.isfinite(g), g, 0.0)
        want = np.maximum(g * fl.age_density_weight(Xm, Sm)
                          * grid.dx * grid.dt, 0.0)
        assert np.array_equal(plan.sqrt_intensity, np.sqrt(want))

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_noise_off_exact_zeros(self, law):
        plan = self.plan(law)
        fld = L.simulate_field(plan, np.random.default_rng(0), noise_off=True)
        for kernel in plan.kernels:
            H = L.conv_H(fld, kernel)
            assert np.all(H == 0.0) and H.shape == (fld.W.shape[0] + 1,)
            assert not np.any(np.signbit(H)), "noise-off H holds a -0.0"


class TestLimitPlan:
    def test_pickled_plan_gives_equal_runs(self):
        plan = L.LimitPlan.for_spec(critical_spec(seed=41, dist=LOGN))
        a = L.run_limit(plan)
        b = L.run_limit(pickle.loads(pickle.dumps(plan)))
        for name in ("Ehat", "Hhat_1", "M1", "Khat", "Xhat", "vhat"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.nuhat.keys() == b.nuhat.keys()
        assert all(np.array_equal(a.nuhat[n], b.nuhat[n]) for n in a.nuhat)

    def test_plan_keeps_one_kernel_per_function_and_no_cell_tables(self):
        # entry 0 of the read-out table is Z's f = 1 and each distinct
        # function has one entry, so the default "one" reads entry 0; a
        # pickled plan gives equal runs, the same table and the same age
        # basis (the default family only: a spec that names its functions
        # holds lambdas).  Beside the (nfft/2+1, k) kernel spectra, the
        # (live columns, k) basis and the field's (nt, nx) roots the plan
        # keeps only arrays on one grid axis

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (dict, tuple, list)):
                for v in (value.values() if isinstance(value, dict) else value):
                    yield from arrays(v)

        for family in ("default", "sae"):
            tests = L.default_test_functions(LOGN)
            if family == "sae":  # the two functions of verify_sae, with drifts
                tests = L.sae_test_functions(LOGN, {"exp-decay": tests["exp_decay"],
                                                    "one": tests["one"]})
            spec = critical_spec(seed=44, dist=LOGN, x0hat=-0.3,
                                 nu0hat={"atoms": [[0.5, -0.3]]},
                                 test_functions=tests if family == "sae" else None)
            plan = L.LimitPlan.for_spec(spec)
            tests, tg = spec.tests(), plan.t_edges
            assert plan.readouts.keys() == tests.keys()
            assert plan.readouts["one"][0] == 0
            assert sorted({i for i, _ in plan.readouts.values()}) == [0, 1, 2, 3]
            assert len(plan.kernels) == len(plan.S) == 4
            assert np.array_equal(plan.kernels[0], plan.kernels_for([ONE])[0])
            assert np.array_equal(plan.S[0], L.s_op(spec.nu0hat, LOGN, ONE, tg))
            assert np.any(plan.S[0] != 0.0)
            for name, (f, _) in tests.items():
                i = plan.readouts[name][0]
                assert np.array_equal(plan.kernels[i], plan.kernels_for([f])[0]), name
                assert np.array_equal(plan.S[i], L.s_op(spec.nu0hat, LOGN, f, tg)), name

            if family == "default":
                copy = pickle.loads(pickle.dumps(plan))
                a, b = L.run_limit(plan, 2), L.run_limit(copy, 2)
                for name in ("Ehat", "Hhat_1", "M1", "Khat", "Xhat", "vhat"):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name
                assert all(np.array_equal(a.nuhat[n], b.nuhat[n]) for n in tests)
                for mine, theirs in ((plan.kernels, copy.kernels), (plan.S, copy.S)):
                    assert all(np.array_equal(x, y) for x, y in zip(mine, theirs))
                assert np.array_equal(plan.basis, copy.basis)
                for name, (i, w) in plan.readouts.items():
                    j, v = copy.readouts[name]
                    assert i == j and all(np.array_equal(x, y) for x, y in zip(w, v))

            nt, nx = plan.sqrt_intensity.shape
            k = plan.basis.shape[1]
            assert k < plan.cols.size, "the basis holds every column"
            for field in dataclasses.fields(plan):
                for a in arrays(getattr(plan, field.name)):
                    if any(a is kernel for kernel in plan.kernels):
                        assert a.shape == (plan.nfft // 2 + 1, k)
                    elif a is plan.basis:
                        assert a.shape == (plan.cols.size, k)
                    elif a is not plan.sqrt_intensity:
                        assert a.ndim == 1 and a.size <= max(nt, nx) + 1, (
                            f"plan.{field.name} keeps an array of shape {a.shape}")

    def test_two_builds_give_identical_bytes(self):
        # the basis sketch draws from its own constant seed, so a spec
        # pins its plan's basis and spectra, whatever its run seed
        spec = critical_spec(seed=46, dist=LOGN)
        a, b = (L.LimitPlan.for_spec(s) for s in (spec, dataclasses.replace(spec, seed=7)))
        assert a.basis.tobytes() == b.basis.tobytes()
        assert [k.tobytes() for k in a.kernels] == [k.tobytes() for k in b.kernels]

    def test_wide_plan_keeps_a_narrow_basis(self):
        # the residual's rounding grows with the column count, and so does
        # the tolerance: weibull(0.5)'s heavy tail gives 2,560 live columns
        # at dx 0.05, and its kernels still fit BASIS_WIDTH basis columns
        dist = make_service_dist("weibull", shape=0.5)
        plan = L.LimitPlan.for_spec(critical_spec(seed=48, T=1.0, dt=0.01, dist=dist,
                                                  dx=0.05))
        assert plan.cols.size == 2560
        assert plan.basis.shape == (plan.cols.size, L.BASIS_WIDTH)

    def test_kernels_for_refuses_a_kernel_outside_the_basis(self):
        # cos(40 x) is far outside the smooth span of the default family's
        # kernels, so its kernel would be truncated: refused, by name
        plan = L.LimitPlan.for_spec(critical_spec(seed=47, dist=LOGN))
        assert plan.basis.shape[1] < plan.cols.size

        def fast_wave(x):
            return np.cos(40.0 * np.asarray(x, dtype=float))

        def blows_up(x):
            return np.full_like(np.asarray(x, dtype=float), np.inf)

        with pytest.raises(ValueError, match=r"fast_wave: its kernel is outside "
                                             r"the plan's age basis"):
            plan.kernels_for([EXPD, fast_wave])
        # a kernel that is not finite is refused before any basis check
        with pytest.raises(ValueError, match=r"blows_up: its kernel is not finite"):
            plan.kernels_for([blows_up])
        assert len(plan.kernels_for([EXPD])) == 1

    def test_path_convolves_each_entry_once_and_builds_no_family(self, monkeypatch):
        # a path makes one conv_H call per table entry and reads its test
        # functions from the plan, so the default family is not rebuilt
        plan = L.LimitPlan.for_spec(critical_spec(seed=45, dist=LOGN))
        calls = {"conv_H": 0, "default_test_functions": 0}

        def counted(name):
            inner = getattr(L, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(L, name, counted(name))
        for r in range(3):
            L.run_limit(plan, r)
        assert calls == {"conv_H": 3 * len(plan.kernels), "default_test_functions": 0}
        assert len(plan.kernels) == 4  # one, hazard, survival, exp_decay

    def test_omitted_nu0_is_the_invariant_start(self):
        # at x0 = 1 a mean-1 law's invariant profile of mass 1 is
        # {"invariant": 1.0}, so path 0 keeps every bit
        bare = L.LimitSpec(LOGN, poisson_arr(), L.LimitGrid(T=1.0, dt=0.01, dx=0.1))
        explicit = dataclasses.replace(bare, nu0={"invariant": 1.0})
        a, b = (L.run_limit(L.LimitPlan.for_spec(s)) for s in (bare, explicit))
        for name in ("Ehat", "Hhat_1", "M1", "Khat", "Xhat", "vhat"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.nuhat.keys() == b.nuhat.keys()
        assert all(np.array_equal(a.nuhat[n], b.nuhat[n]) for n in a.nuhat)

    def test_shared_plan_equals_own_plan(self):
        # a plan built once serves every replicate of the run
        spec = critical_spec(seed=42, dist=LOGN)
        plan = L.LimitPlan.for_spec(spec)
        for r in range(3):
            a = L.run_limit(plan, r)
            b = L.run_limit(L.LimitPlan.for_spec(spec), r)
            assert np.array_equal(a.Xhat, b.Xhat)
            assert all(np.array_equal(a.nuhat[n], b.nuhat[n]) for n in a.nuhat)

    @pytest.mark.parametrize("x0hat", [math.nan, math.inf, -math.inf])
    def test_non_finite_x0hat_refused(self, monkeypatch, x0hat):
        # NaN passes the Z(0) comparison and inf clamps to 0, so without
        # this refusal a run returned a non-finite Xhat
        monkeypatch.setattr(L, "solve_fluid", lambda *a, **k: pytest.fail("fluid solved"))
        with pytest.raises(InitialDataError, match="^x0hat: must be finite") as err:
            L.LimitPlan.for_spec(critical_spec(x0hat=x0hat))
        assert err.value.field == "x0hat"

    def test_noise_off_run_exact_zeros(self):
        run = critical_run(seed=0, dist=LOGN, noise_off=True)
        assert np.all(run.field.W == 0.0)
        assert np.all(run.Hhat_1 == 0.0) and np.all(run.M1 == 0.0)

    def test_readouts_use_the_plan_weights(self):
        # run_limit's nuhat is the read-out on the plan's S_t(f) and
        # readout_weights, bit for bit
        spec = critical_spec(seed=43, dist=LOGN)
        run = L.run_limit(L.LimitPlan.for_spec(spec))
        plan, tg = run.plan, run.t_grid
        for name, (f, fp) in spec.tests().items():
            i, weights = plan.readouts[name]
            S_f = L.s_op(None, LOGN, f, tg)
            assert np.array_equal(plan.S[i], S_f), name
            H_f = L.conv_H(run.field, plan.kernels[i])
            w = plan.readout_weights(f, fp)
            want = (L.hat_nu_stieltjes(S_f, run.Khat, H_f, *w) if fp is None
                    else L.hat_nu(tg, S_f, run.Khat, H_f, *w))
            assert np.array_equal(run.nuhat[name], want), name
            assert all(np.array_equal(a, b) for a, b in zip(weights, w))
        assert np.array_equal(plan.g, LOGN.grid_density(tg, tg[1] - tg[0]))


class TestHatE:
    def test_var_affine_rate(self):
        arr = ArrivalSpec("inhom_poisson", lambda_bar={"affine": [1.0, 1.0]})
        t_grid = np.arange(41) * 0.025
        fin = np.array([L.simulate_hatE(arr, t_grid, np.random.default_rng(7000 + i))[-1]
                        for i in range(4000)])
        v = float(fin.var())
        assert abs(v - VAR_EHAT_AFFINE) < 0.15, (
            f"Var Ehat(1) for rate 1+t was {v}, oracle {VAR_EHAT_AFFINE}")

    def test_noise_off_is_pure_drift(self):
        arr = poisson_arr(beta=0.7)
        t_grid = np.arange(101) * 0.01
        E = L.simulate_hatE(arr, t_grid, np.random.default_rng(0), noise_off=True)
        assert np.allclose(E, -0.7 * t_grid, atol=1e-12)


def cmse(t_grid, *args):
    """solve_cmse under exponential service."""
    return L.solve_cmse(t_grid, grid_g(EXP, t_grid), *args)


class TestCmse:
    T_GRID = np.arange(1001) * 1e-3

    def test_subcritical_is_bitwise_arrival_copy(self):
        rng = np.random.default_rng(3)
        E = np.concatenate([[0.0], np.cumsum(rng.standard_normal(1000) * 0.03)])
        Z = np.full(1001, 0.25)  # constant initial mass input, Z(0) = x0hat
        K, X, v = cmse(self.T_GRID, E, 0.25, Z, "subcritical")
        assert np.array_equal(K, E), "subcritical entry perturbation must copy arrivals"
        assert np.array_equal(v, X), "subcritical mass perturbation must equal headcount"

    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    @pytest.mark.parametrize("dist", [EXP, LOGN, make_service_dist("gamma", shape=0.5)],
                             ids=["exponential", "lognormal", "gamma"])
    def test_subcritical_convolution_matches_step_loop(self, dist, dt):
        # one FFT convolution against the step loop: FFT rounding only
        tg = np.arange(int(round(1.0 / dt)) + 1) * dt
        rng = np.random.default_rng(4)
        E = np.concatenate([[0.0], np.cumsum(rng.standard_normal(tg.size - 1)
                                             * np.sqrt(dt))])
        Z = 0.2 + 0.1 * np.sin(2 * np.pi * tg)  # Z(0) = x0hat
        g = grid_g(dist, tg)
        _, X, _ = L.solve_cmse(tg, g, E, 0.2, Z, "subcritical")
        ref = subcritical_loop(tg, g, E, 0.2, Z)
        rel = float(np.max(np.abs(X - ref))) / float(np.max(np.abs(ref)))
        assert rel <= 1e-13, f"{dist.name} dt={dt}: Xhat moved {rel:.2e} relative"

    def test_critical_noise_off_closed_form(self):
        # drift beta=1 from x0hat=1: linear decay to the boundary at t=1,
        # then exponential relaxation e^-(t-1) - 1
        tg = np.arange(3001) * 1e-3
        K, X, v = cmse(tg, -tg, 1.0, np.zeros_like(tg), "critical")
        ref = np.where(tg <= 1.0, 1.0 - tg, np.exp(-(tg - 1.0)) - 1.0)
        err = float(np.max(np.abs(X - ref)))
        assert err < 1e-5, f"noise-off critical path off by {err}"
        assert np.allclose(v, np.minimum(X, 0.0), atol=1e-14)

    def test_critical_negative_start_pure_relaxation(self):
        # mass deficit -e^-t: zero entry response, X rides the input
        tg = self.T_GRID
        Z = -np.exp(-tg)
        K, X, v = cmse(tg, np.zeros_like(tg), -1.0, Z, "critical")
        assert float(np.max(np.abs(X + np.exp(-tg)))) < 1e-12
        assert float(np.max(np.abs(K))) < 1e-12

    def test_supercritical_drift_only(self):
        tg = self.T_GRID
        K, X, v = cmse(tg, -0.5 * tg, 0.4, np.zeros_like(tg), "supercritical")
        assert np.allclose(K, 0.0, atol=1e-12)
        assert np.allclose(X, 0.4 - 0.5 * tg, atol=1e-12)
        assert np.all(v == 0.0)

    def test_mixed_rejected(self):
        tg = self.T_GRID
        with pytest.raises(ValueError, match="mixed"):
            cmse(tg, np.zeros_like(tg), 0.0, np.zeros_like(tg), "mixed")
        with pytest.raises(ValueError, match="regime"):
            cmse(tg, np.zeros_like(tg), 0.0, np.zeros_like(tg), "bogus")

    def test_initial_mass_mismatch_rejected(self):
        tg = self.T_GRID
        Z = np.full(tg.size, 0.3)  # claims nu0hat(1) = 0.3
        with pytest.raises(ValueError, match="inconsistent"):
            cmse(tg, np.zeros_like(tg), 0.0, Z, "subcritical")

    def test_dt_too_large_for_density_rejected(self):
        tg = np.array([0.0, 2.5, 5.0])
        with pytest.raises(ValueError, match="dt too large"):
            cmse(tg, np.zeros(3), 0.0, np.zeros(3), "critical")

    def test_lipschitz_in_the_arrival_input(self):
        # perturbing the input by eps moves every output by at most
        # 3 (1 + U(T)) eps; U(1) = 2 for exponential service
        tg = np.arange(101) * 0.01
        U_T = float(renewal_function(EXP, 1.0, 1e-3)[-1])
        bound = 3.0 * (1.0 + U_T)
        rng = np.random.default_rng(5)
        E = np.concatenate([[0.0], np.cumsum(rng.standard_normal(100) * 0.1)])
        Z = np.zeros(101)
        base = cmse(tg, E, 0.5, Z, "critical")
        eps = 0.05
        for _ in range(5):
            dE = (2.0 * rng.random(101) - 1.0) * eps
            dE[0] = 0.0
            pert = cmse(tg, E + dE, 0.5, Z, "critical")
            dev = max(float(np.max(np.abs(p - b))) for p, b in zip(pert, base))
            assert dev <= bound * eps, (
                f"output moved {dev} under an eps={eps} input perturbation, "
                f"bound {bound * eps}")


def gamma_map(t_grid, K, dist, f, fprime):
    """Reference wiring of hat_nu's middle term: the entry-kernel functional
    f(0) K_t + int_0^t K_u xi_f(t-u) du, xi_f = f'(1-G) - f g, trapezoid in u
    via one FFT convolution."""
    t_grid = np.asarray(t_grid, dtype=float)
    n = t_grid.size - 1
    dt = float(t_grid[1] - t_grid[0])
    K = np.asarray(K, dtype=float)
    g = dist.grid_density(t_grid, dt)
    xi = (np.asarray(fprime(t_grid), dtype=float) * np.asarray(dist.sf(t_grid))
          - np.asarray(f(t_grid), dtype=float) * g)
    conv = fftconvolve(K, xi)[:n + 1]
    trap = dt * (conv - 0.5 * (K[0] * xi + K * xi[0]))
    f0 = float(np.atleast_1d(f(np.array([0.0])))[0])
    return f0 * K + trap


class TestGammaMapAndReadout:
    def test_gamma_map_frozen_value(self):
        tg = np.arange(1001) * 1e-3
        prof = gamma_map(tg, tg.copy(), EXP, ONE, ZERO)
        err = abs(float(prof[-1]) - GAMMA_MAP_AT_1)
        assert err < QUAD_TOL, (
            f"gamma map of K=id, f=1 at t=1 gave {prof[-1]}, frozen value "
            f"{GAMMA_MAP_AT_1} (err {err})")

    def test_hat_nu_matches_composed_route(self):
        # direct read-out against s_op + gamma_map - conv_H, same sample
        run = critical_run(seed=21)
        f = lambda x: np.asarray(EXP.sf(x))
        fp = lambda x: -np.asarray(EXP.density(x))
        S_f = L.s_op(None, EXP, f, run.t_grid)
        H_f = conv_H_by_column(run.plan, run.field, EXP, f)
        direct = L.hat_nu(run.t_grid, S_f, run.Khat, H_f,
                          *run.plan.readout_weights(f, fp))
        composed = S_f + gamma_map(run.t_grid, run.Khat, EXP, f, fp) - H_f
        diff = float(np.max(np.abs(direct - composed)))
        assert diff < 1e-10, f"read-out routes disagree by {diff}"

    def test_stieltjes_form_close_to_derivative_form(self):
        run = critical_run(seed=22)
        f = lambda x: np.asarray(EXP.sf(x))
        fp = lambda x: -np.asarray(EXP.density(x))
        S_f = L.s_op(None, EXP, f, run.t_grid)
        H_f = conv_H_by_column(run.plan, run.field, EXP, f)
        der = L.hat_nu(run.t_grid, S_f, run.Khat, H_f,
                       *run.plan.readout_weights(f, fp))
        st = L.hat_nu_stieltjes(S_f, run.Khat, H_f,
                                *run.plan.readout_weights(f, None))
        diff = float(np.max(np.abs(der - st)))
        assert diff < 1e-3, f"increment form drifts {diff} from derivative form"

    def test_s_op_atom_and_density_agree(self):
        # a density concentrated near an atom reproduces the atom profile
        tg = np.arange(51) * 0.02
        atom = L.s_op({"atoms": [(0.5, 0.3)]}, EXP, EXPD, tg)
        xs = np.linspace(0.45, 0.55, 401)
        dens = 0.3 * np.exp(-0.5 * (xs - 0.5) ** 2 / 0.01 ** 2) / (0.01 * np.sqrt(2 * np.pi))
        smeared = L.s_op({"density": {"x": xs, "v": dens}}, EXP, EXPD, tg)
        assert float(np.max(np.abs(atom - smeared))) < 1e-3

    def test_nu0_value_forms(self):
        # S_0(f) = nuhat_0(f): the transport at t = 0 is the initial value
        nu0 = lambda spec: L.s_op(spec, EXP, ONE, [0.0])[0]
        assert nu0(None) == 0.0
        assert abs(nu0({"atoms": [(0.5, 0.3), (1.0, -0.1)]}) - 0.2) < 1e-14
        xs = np.linspace(0.0, 2.0, 2001)
        assert abs(nu0({"density": {"x": xs, "v": np.ones_like(xs)}}) - 2.0) < 1e-9

    @pytest.mark.parametrize("nu0hat, message", [
        ({"atoms": [(0.5, 0.3), (-0.5, 0.1)]}, "atom at negative age -0.5"),
        ({"density": {"x": [0.0, 1.0, 2.0], "v": [0.1, 0.1]}},
         "2 v values for 3 x nodes"),
        ({"density": {"x": [0.0, 2.0, 1.0], "v": [0.1, 0.1, 0.1]}},
         "x must increase strictly"),
        ({"density": {"x": [-1.0, 0.0], "v": [0.1, 0.1]}}, "from 0 or above"),
        ({"density": ([0.0, 1.0], [0.1, 0.1])}, "nodes must be an object"),
        ({"mass": 0.2}, "unrecognized form"),
    ], ids=["negative-atom", "v-short", "x-unsorted", "x-negative",
            "density-pair", "unknown-form"])
    def test_bad_nu0hat_rejected_naming_it(self, nu0hat, message):
        with pytest.raises(InitialDataError, match=message) as err:
            L.s_op(nu0hat, EXP, ONE, [0.0, 0.5])
        assert err.value.field == "nu0hat"


class TestRunInvariants:
    def test_rep_hatx_machine_precision(self):
        for dist in (EXP, LOGN):
            run = critical_run(seed=31, dist=dist)
            res = L.rep_hatx_residual(run)
            assert res < EXACT_TOL, (
                f"headcount representation defect {res} for {dist.name}")

    def test_smg_bookkeeping_all_regimes(self):
        crit = critical_run(seed=32)
        assert L.smg_bookkeeping_residual(crit) < EXACT_TOL

        grid = L.LimitGrid(T=1.5, dt=0.01, dx=0.1)
        sub = L.run_limit(L.LimitPlan.for_spec(L.LimitSpec(
            dist=EXP, arrival=poisson_arr(0.5), grid=grid, x0=0.5,
            nu0={"invariant": 0.5}, x0hat=0.2, nu0hat={"atoms": [(0.3, 0.2)]},
            seed=33)))
        assert sub.regime == "subcritical"
        assert L.smg_bookkeeping_residual(sub) == 0.0, (
            "subcritical entry perturbation must be a bitwise arrival copy")

        sup = L.run_limit(L.LimitPlan.for_spec(L.LimitSpec(
            dist=EXP, arrival=poisson_arr(1.5), grid=grid,
            nu0={"invariant": 1.0}, x0hat=0.4, seed=34)))
        assert sup.regime == "supercritical"
        assert L.smg_bookkeeping_residual(sup) < EXACT_TOL
        assert np.all(sup.vhat == 0.0)

    def test_expm_phasetype_law_runs(self):
        # a defective generator on the limit-cli grid (dt 0.01, dx 0.05)
        dist = make_service_dist("phasetype", alpha=(1.0, 0.0),
                                 S=((-2.0, 2.0), (0.0, -2.0)))
        run = critical_run(seed=39, T=0.5, dt=0.01, dx=0.05, dist=dist)
        assert np.all(np.isfinite(run.Xhat))
        assert L.rep_hatx_residual(run) < EXACT_TOL
        assert L.smg_bookkeeping_residual(run) < EXACT_TOL

    def test_vhat_is_regime_clamp(self):
        run = critical_run(seed=35)
        assert float(np.max(np.abs(run.vhat - np.minimum(run.Xhat, 0.0)))) == 0.0

    def test_mass_readout_equals_vhat(self):
        # nuhat(1) through the measure read-out must reproduce the solver's
        # mass component through the identical quadrature
        run = critical_run(seed=36)
        assert float(np.max(np.abs(run.nuhat["one"] - run.vhat))) < EXACT_TOL

    def test_mixed_fluid_regime_rejected(self, monkeypatch):
        # overload that drains through the boundary: mixed, not solvable,
        # so the plan refuses it before it builds any table or kernel
        grid = L.LimitGrid(T=4.0, dt=0.01, dx=0.1)
        fl = solve_fluid(EXP, grid.T, grid.dt, Ebar=0.7, x0=1.5, nu0={"invariant": 1.0})
        assert fl.regime == "mixed"

        def no_tables(*args):
            raise AssertionError("the plan built its cell intensities")
        monkeypatch.setattr(L, "fluid_cell_intensity", no_tables)
        with pytest.raises(ValueError, match="mixed"):
            L.LimitPlan.for_spec(L.LimitSpec(
                dist=EXP, arrival=poisson_arr(0.7), grid=grid, x0=1.5,
                nu0={"invariant": 1.0}, seed=38))

    def test_negative_arrival_rate_refused_before_the_fluid_solve(self, monkeypatch):
        # the rate sim run refuses: lambda_bar at -1 drives no fluid path
        # and has no square root for the diffusion
        arrival = ArrivalSpec("inhom_poisson", lambda_bar={
            "pwlin": {"t": [0.0, 0.5], "v": [-1.0, -1.0]}})

        def no_solve(*args):
            raise AssertionError("the plan solved the fluid path")
        monkeypatch.setattr(L, "solve_fluid", no_solve)
        with pytest.raises(ValueError, match=r"arrival rate not admissible for "
                                             r"the fluid limit on \[0,0\.5\]"):
            L.LimitPlan.for_spec(critical_spec(T=0.5, arrival=arrival))

    def test_numpy_scalar_rates_run_as_their_floats(self):
        # as_rate read only int and float, so np.int64 failed in run_limit
        def run(lambda_bar, beta):
            arrival = ArrivalSpec("inhom_poisson", lambda_bar, beta=beta)
            return L.run_limit(L.LimitPlan.for_spec(critical_spec(T=0.5, arrival=arrival)), 0)

        got, want = run(np.float32(1.0), np.int64(1)), run(1.0, 1.0)
        assert np.array_equal(got.Xhat, want.Xhat) and np.all(np.isfinite(got.Xhat))


class _NoNoise:
    """rng stand-in whose normal draws are all 0: the Euler path without
    its Brownian increments."""

    def standard_normal(self, size=None):
        return np.zeros(size)


class TestHalfinWhitt:
    def test_noise_off_closed_forms(self):
        # beta=1 from 1: linear then exponential; beta=0 from -1: -e^-t
        out = L.simulate_hw(3.0, 1e-3, 1.0, 1.0, 1.0, 1, _NoNoise(),
                            record_times=[0.5, 1.0, 2.0])
        for t, vals in out.items():
            ref = 1.0 - t if t <= 1.0 else np.exp(-(t - 1.0)) - 1.0
            assert abs(float(vals[0]) - ref) < 2e-3, (
                f"noise-off path at t={t} was {vals[0]}, closed form {ref}")
        out = L.simulate_hw(2.0, 1e-3, 0.0, 1.0, -1.0, 1, _NoNoise())
        for t, vals in out.items():
            assert abs(float(vals[0]) + np.exp(-t)) < 2e-3

    def test_positive_branch_moments(self):
        # started well above 0 the reflection term stays off: mean x0 - t,
        # variance (1 + sigma2) t
        out = L.simulate_hw(1.0, 2.5e-3, 1.0, 1.0, 5.0, 2000,
                            np.random.default_rng(1))
        fin = out[1.0]
        assert abs(float(fin.mean()) - 4.0) < 0.15
        assert abs(float(fin.var()) - 2.0) < 0.4

    def test_record_times(self):
        out = L.simulate_hw(1.0, 0.01, 0.0, 1.0, 0.0, 3,
                            np.random.default_rng(2), record_times=[0.25, 0.5])
        assert set(out) == {0.25, 0.5, 1.0}
        assert all(v.shape == (3,) for v in out.values())

    def test_record_time_past_T_rejected(self):
        # refused before the first step, so the generator is left untouched
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^record_times: 2\.0 lies outside "
                                             r"\(0, T\] with T 1\.0$"):
            L.simulate_hw(1.0, 0.1, 0.0, 1.0, 0.0, 2, rng, record_times=[2.0])
        assert rng.bit_generator.state == state


class TestAgeBalance:
    def test_noise_off_zero_inputs_exactly_zero(self):
        run = sae_run(seed=0, noise_off=True)
        assert np.all(run.Ehat == 0.0) and np.all(run.Khat == 0.0)
        assert np.all(run.Xhat == 0.0)
        for name in SAE:
            res = L.sae_residual(run, name)
            assert res == 0.0, f"noise-off zero-input balance defect {res}"

    @pytest.mark.parametrize("dist", [EXP, LOGN], ids=["exponential", "lognormal"])
    def test_run_readouts_equal_per_call_reference(self, dist):
        # the residual read from run.nuhat is the per-call construction,
        # bit for bit, and within rounding of the one that convolves
        # column by column instead of through the age basis
        runs = [sae_run(seed, dist=dist) for seed in (51, 52, 53)]
        runs.append(sae_run(0, dist=dist, noise_off=True))
        for run in runs:
            for name, (f, fp) in SAE.items():
                res = L.sae_residual(run, name)
                assert res == sae_reference(run, f, fp), name
                gap = abs(res - sae_reference(run, f, fp, column_loop=True))
                assert gap <= 1e-12, f"{name}: {gap} from the column loop"

    def test_noise_off_drift_matches_cmse(self):
        # full pipeline with beta=1 drift only reproduces the closed form
        run = critical_run(seed=0, T=3.0, dt=2e-3, noise_off=True, x0hat=1.0,
                           arrival=poisson_arr(beta=1.0))
        tg = run.t_grid
        ref = np.where(tg <= 1.0, 1.0 - tg, np.exp(-(tg - 1.0)) - 1.0)
        err = float(np.max(np.abs(run.Xhat - ref)))
        assert err < 1e-4, f"noise-off pipeline path off by {err}"

    def test_residual_first_order_in_dt(self):
        # mean |defect| across seeds halves with dt; loose band here, the
        # strict band runs in the acceptance battery with more seeds
        means = []
        for dtv in (0.04, 0.02, 0.01):
            vals = [abs(L.sae_residual(sae_run(200 + s, T=1.0, dt=dtv),
                                       "exp-decay"))
                    for s in range(24)]
            means.append(float(np.mean(vals)))
        r1, r2 = means[1] / means[0], means[2] / means[1]
        assert 0.25 < r1 < 0.8 and 0.25 < r2 < 0.8, (
            f"age-balance defect means {means} gave halving ratios "
            f"{r1:.3f}, {r2:.3f}, expected first-order behavior")
