"""Distribution layer: hazard identity, normalization, renewal solve,
operator identities, Holder fits, arrival streams."""
from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

from queuelab import dists as dists_module
from queuelab.dists import (
    ArrivalSpec,
    ServiceSpecError,
    as_rate,
    check_finite,
    dead_mass_ratio,
    holder_check,
    make_service_dist,
    phi_op,
    psi_op,
    renewal_function,
)

# Identity tolerances: hazard g/(1-G) is one float division away from its
# definition, the operator identities are products/compositions of a handful
# of such terms, so 1e-10 / 1e-12 only absorb rounding, never model error.
HAZARD_TOL = 1e-10
OPERATOR_TOL = 1e-12

ALL_FAMILIES = [
    {"family": "exponential"},
    {"family": "lognormal", "sigma": 0.5},
    {"family": "weibull", "shape": 1.5},
    {"family": "weibull", "shape": 0.8},
    {"family": "gamma", "shape": 2.0},
    {"family": "pareto", "a": 1.5},
    {"family": "logistic"},
    {"family": "phasetype", "alpha": [0.4, 0.6], "S": [[-3.0, 1.0], [0.0, -0.7]]},
    {"family": "piecewise", "breaks": [0.0, 0.5, 2.0], "values": [1.2, 0.2]},
]
# Erlang-2 generator: defective (not diagonalizable)
EXPM_PHASETYPE = {"family": "phasetype", "alpha": [1.0, 0.0],
                  "S": [[-2.0, 2.0], [0.0, -2.0]]}
FAMILY_IDS = ["exponential", "lognormal", "weibull1.5", "weibull0.8", "gamma",
              "pareto", "logistic", "phasetype", "piecewise", "phasetype-expm"]
# the default law, the ALL_FAMILIES law, Erlang-2 and a coupled 3-phase law
PHASETYPE_LAWS = [{"family": "phasetype"}, ALL_FAMILIES[7], EXPM_PHASETYPE,
                  {"family": "phasetype", "alpha": [0.5, 0.3, 0.2],
                   "S": [[-3.0, 1.0, 0.5], [0.2, -1.0, 0.3], [0.0, 0.4, -0.8]]}]


def _ages_inside_support(dist, n=64, seed=0):
    rng = np.random.default_rng(seed)
    hi = min(dist.support_end, 8.0)
    # stay a full step away from a finite endpoint: ratios there are 0/0
    return rng.uniform(0.0, hi - 1e-3 if np.isfinite(dist.support_end) else hi, size=n)


class TestFamilies:
    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s["family"] + str(s.get("shape", s.get("sigma", s.get("a", "")))))
    def test_mean_normalized_to_one(self, spec):
        dist = make_service_dist(spec)
        assert abs(dist.mean - 1.0) < 1e-6, f"{dist.name}: mean={dist.mean}"

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s["family"] + str(s.get("shape", s.get("sigma", s.get("a", "")))))
    def test_hazard_identity(self, spec):
        dist = make_service_dist(spec)
        x = _ages_inside_support(dist)
        h = dist.hazard(x)
        g = dist.density(x)
        sf = dist.sf(x)
        err = np.max(np.abs(h * sf - g))
        assert err < HAZARD_TOL, f"{dist.name}: max |h(1-G)-g| = {err:.3e}"

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s["family"] + str(s.get("shape", s.get("sigma", s.get("a", "")))))
    def test_cdf_monotone_and_limits(self, spec):
        dist = make_service_dist(spec)
        x = np.linspace(0.0, min(dist.support_end, 20.0), 400)
        G = dist.cdf(x)
        assert np.all(np.diff(G) >= -1e-12)
        assert abs(G[0]) < 1e-12
        assert dist.cdf(np.array([dist.support_end if np.isfinite(dist.support_end) else 1e9]))[0] > 1 - 1e-6

    @pytest.mark.parametrize("spec", ALL_FAMILIES + [EXPM_PHASETYPE], ids=FAMILY_IDS)
    def test_edge_values(self, spec):
        # every family reads as scipy's laws do below 0, at 0 and at +inf,
        # except that the density is 0 at +inf for every law (scipy's
        # weibull of shape > 1 and gamma read inf * 0 = NaN there)
        dist = make_service_dist(spec)
        x = np.array([-1.0, 0.0, np.inf])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cdf, sf, g, h = (getattr(dist, k)(x) for k in ("cdf", "sf", "density", "hazard"))
        assert cdf.tolist() == [0.0, 0.0, 1.0] and sf.tolist() == [1.0, 1.0, 0.0]
        assert h[0] == 0.0 and h[1] >= 0.0 and h[2] == 0.0
        assert g[0] == 0.0 and g[1] >= 0.0
        assert g[2] == 0.0

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s["family"] + str(s.get("shape", s.get("sigma", s.get("a", "")))))
    def test_sampler_mean(self, spec):
        dist = make_service_dist(spec)
        rng = np.random.default_rng(7)
        draws = dist.sampler(rng, size=20000)
        assert np.all(draws >= 0.0)
        # CLT band: 5 sigma with sd <= ~2 for every family used here
        assert abs(draws.mean() - 1.0) < 5.0 * 2.0 / math.sqrt(20000.0), \
            f"{dist.name}: sample mean {draws.mean():.4f}"

    def test_normalize_off_keeps_raw_scale(self):
        dist = make_service_dist("exponential", normalize=False, rate=2.0)
        assert abs(dist.mean - 0.5) < 1e-12
        assert abs(dist.cdf(np.array([0.5]))[0] - (1.0 - math.exp(-1.0))) < 1e-12

    def test_unknown_family_rejected(self):
        with pytest.raises(ServiceSpecError):
            make_service_dist("uniformish")

    @pytest.mark.parametrize("spec", [
        {"family": "pareto", "alpha": 3.0},       # pareto's exponent is `a`
        {"family": "lognormal", "sgima": 2.0},    # misspelt sigma
    ], ids=["pareto-alpha", "lognormal-sgima"])
    def test_unconsumed_key_rejected(self, spec):
        bad = next(k for k in spec if k != "family")
        with pytest.raises(ServiceSpecError, match=bad):
            make_service_dist(spec)
        with pytest.raises(ServiceSpecError, match=bad):
            make_service_dist(spec["family"], **{bad: spec[bad]})

    @pytest.mark.parametrize("spec", [
        {"family": "gamma", "shape": 2.0, "scale": 5.0},
        {"family": "exponential", "rate": 4.0},
        {"family": "lognormal", "mu": 3.0},
    ], ids=["gamma-scale", "exponential-rate", "lognormal-mu"])
    def test_scale_key_under_normalize_rejected(self, spec):
        # normalization sets this key, so a given value would be dropped
        key = [k for k in spec if k not in ("family", "shape")][0]
        with pytest.raises(ServiceSpecError, match=f"{key}.*normalize: false"):
            make_service_dist(spec)
        raw = make_service_dist({**spec, "normalize": False})
        assert abs(raw.mean - 1.0) > 0.5, f"{key} ignored with normalize off"

    @pytest.mark.parametrize("spec", [
        {"family": "gamma", "shape": -1.0},
        {"family": "pareto", "a": 1.0},
        {"family": "piecewise", "breaks": [0.0, 1.0], "values": [-1.0]},
    ], ids=["gamma-shape", "pareto-a", "piecewise-values"])
    def test_out_of_range_value_is_spec_error(self, spec):
        with pytest.raises(ServiceSpecError):
            make_service_dist(spec)

    def test_pareto_requires_finite_mean(self):
        with pytest.raises(ValueError):
            make_service_dist("pareto", a=1.0)

    def test_conditional_sampler_exceeds_age(self):
        for spec in ALL_FAMILIES:
            dist = make_service_dist(spec)
            rng = np.random.default_rng(3)
            ages = _ages_inside_support(dist, n=200, seed=5)
            v = dist.conditional(rng, ages)
            assert np.all(v >= ages - 1e-12), dist.name

    def test_conditional_sampler_law(self):
        # exp memorylessness: residual v - a is again mean-1 exponential
        dist = make_service_dist("exponential")
        rng = np.random.default_rng(11)
        ages = np.full(40000, 2.0)
        resid = dist.conditional(rng, ages) - ages
        assert abs(resid.mean() - 1.0) < 5.0 / math.sqrt(40000.0) * 1.0 * 1.5
        assert abs(np.mean(resid > 1.0) - math.exp(-1.0)) < 0.02


# The six families scipy.stats also has, against its frozen laws with the
# same parameters, normalized and not; scipy.stats is a reference in the
# tests only.  Each entry: the spec and the scipy law it names.
SCIPY_LAWS = [
    ({"family": "exponential"}, lambda: stats.expon(scale=1.0)),
    ({"family": "exponential", "normalize": False, "rate": 2.5},
     lambda: stats.expon(scale=1.0 / 2.5)),
    ({"family": "lognormal", "sigma": 0.5},
     lambda: stats.lognorm(s=0.5, scale=math.exp(-0.125))),
    ({"family": "lognormal", "normalize": False, "sigma": 0.8, "mu": 0.3},
     lambda: stats.lognorm(s=0.8, scale=math.exp(0.3))),
    ({"family": "weibull", "shape": 1.5},
     lambda: stats.weibull_min(c=1.5, scale=1.0 / math.gamma(1.0 + 1.0 / 1.5))),
    ({"family": "weibull", "shape": 0.8},
     lambda: stats.weibull_min(c=0.8, scale=1.0 / math.gamma(1.0 + 1.0 / 0.8))),
    ({"family": "weibull", "normalize": False, "shape": 1.5, "scale": 2.0},
     lambda: stats.weibull_min(c=1.5, scale=2.0)),
    ({"family": "gamma", "shape": 2.0}, lambda: stats.gamma(a=2.0, scale=0.5)),
    ({"family": "gamma", "shape": 0.5}, lambda: stats.gamma(a=0.5, scale=2.0)),
    ({"family": "gamma", "normalize": False, "shape": 2.0, "scale": 0.7},
     lambda: stats.gamma(a=2.0, scale=0.7)),
    ({"family": "pareto", "a": 1.5}, lambda: stats.lomax(c=1.5, scale=0.5)),
    ({"family": "pareto", "normalize": False, "a": 2.5, "scale": 3.0},
     lambda: stats.lomax(c=2.5, scale=3.0)),
    ({"family": "logistic"}, lambda: stats.halflogistic(scale=1.0 / math.log(4.0))),
    ({"family": "logistic", "normalize": False, "scale": 0.4},
     lambda: stats.halflogistic(scale=0.4)),
]
# numpy takes an exponent of exactly 2 or 1/2 as square or sqrt, which scipy
# does only when some input lies off the support: these agree to an ulp
# of the power, not bit for bit (the kernels still meet 1e-12)
SCIPY_POWER_LAWS = [
    ({"family": "weibull", "shape": 2.0},
     lambda: stats.weibull_min(c=2.0, scale=1.0 / math.gamma(1.5))),
    ({"family": "weibull", "shape": 0.5},
     lambda: stats.weibull_min(c=0.5, scale=0.5)),
]


def _law_id(case):
    spec = case[0]
    return "-".join(str(v) for k, v in spec.items() if k != "normalize") + (
        "-raw" if spec.get("normalize") is False else "")


def _probe_grid(ref):
    """Off-support points, NaN, the body and the tail out to sf ~ 1e-300."""
    hi = 1.0
    while ref.sf(hi) > 1e-300:
        hi *= 1.5
    return np.concatenate([
        [np.nan, -np.inf, -1.0, -1e-300, -0.0, 0.0, 5e-324, 1e-300, np.inf],
        np.geomspace(1e-12, 1e-2, 40), np.linspace(0.0, 10.0, 2001),
        np.geomspace(10.0, hi, 400)])


def _scipy_hazard(ref, x):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = np.exp(ref.logpdf(x) - ref.logsf(x))
    return np.where(np.isfinite(h), h, 0.0)


class _ZeroEveryThird:
    """A generator whose uniforms are 0 at every third draw: u = 0 sends
    the conditional draw to the upper end of the support."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def uniform(self, size=None):
        u = self.rng.uniform(size=size)
        u.flat[::3] = 0.0
        return u


def _conditional_pairs(law, ref):
    ages = [np.linspace(0.0, 5.0, 400), np.linspace(0.0, 3.0, 12).reshape(3, 4)]
    for rng_of in (np.random.default_rng, _ZeroEveryThird):
        for a in ages:
            got = law.conditional(rng_of(4), a)
            u = rng_of(4).uniform(size=a.shape)
            with np.errstate(divide="ignore"):
                yield got, np.maximum(ref.isf(u * ref.sf(a)), a)


class TestScipyParity:
    @pytest.mark.parametrize("case", SCIPY_LAWS + SCIPY_POWER_LAWS, ids=_law_id)
    def test_kernels_match_scipy(self, case):
        spec, frozen = case
        law, ref = make_service_dist(spec), frozen()
        x = _probe_grid(ref)
        with np.errstate(all="ignore"):
            # the one departure from scipy: the density reads 0 at +inf,
            # where scipy's weibull (shape > 1) and gamma give NaN
            pairs = {"cdf": (law.cdf(x), ref.cdf(x)), "sf": (law.sf(x), ref.sf(x)),
                     "density": (law.density(x), np.where(x == np.inf, 0.0, ref.pdf(x))),
                     "hazard": (law.hazard(x), _scipy_hazard(ref, x))}
        for kernel, (got, want) in pairs.items():
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0,
                                       equal_nan=True, err_msg=kernel)
        grid = np.linspace(0.0, 4.0, 12).reshape(3, 4)
        assert law.sf(grid).shape == grid.shape
        assert type(law.cdf(0.5)) is type(ref.cdf(0.5))

    @pytest.mark.parametrize("case", SCIPY_LAWS, ids=_law_id)
    def test_draws_and_mean_equal_scipy(self, case):
        spec, frozen = case
        law, ref = make_service_dist(spec), frozen()
        assert repr(law.mean) == repr(float(ref.mean()))
        for size in (None, 256, (3, 4)):
            got = law.sampler(np.random.default_rng(8), size)
            want = ref.rvs(size=size, random_state=np.random.default_rng(8))
            assert type(got) is type(want) and np.array_equal(got, want), size
        for got, want in _conditional_pairs(law, ref):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", SCIPY_POWER_LAWS, ids=_law_id)
    def test_power_law_draws_within_an_ulp(self, case):
        spec, frozen = case
        law, ref = make_service_dist(spec), frozen()
        assert repr(law.mean) == repr(float(ref.mean()))
        got = law.sampler(np.random.default_rng(8), 256)
        assert np.array_equal(got, ref.rvs(size=256, random_state=np.random.default_rng(8)))
        for got, want in _conditional_pairs(law, ref):
            np.testing.assert_allclose(got, want, rtol=4.5e-16, atol=0.0)


class TestPickle:
    """A law pickles as its spec and is rebuilt on load; the rebuilt law
    must agree with the original exactly, kernels and draws alike."""

    @pytest.mark.parametrize("spec", ALL_FAMILIES + [EXPM_PHASETYPE], ids=FAMILY_IDS)
    def test_round_trip(self, spec):
        dist = make_service_dist(spec)
        back = pickle.loads(pickle.dumps(dist))
        assert (back.name, back.mean, back.support_end) == (
            dist.name, dist.mean, dist.support_end)
        x = np.linspace(0.0, min(dist.support_end * 1.25, 10.0), 97)
        for kernel in ("cdf", "sf", "density", "hazard"):
            with np.errstate(divide="ignore", invalid="ignore"):
                a, b = getattr(dist, kernel)(x), getattr(back, kernel)(x)
            assert np.array_equal(a, b, equal_nan=True), kernel
        draws = [law.sampler(np.random.default_rng(9), 64) for law in (dist, back)]
        assert np.array_equal(*draws)
        ages = _ages_inside_support(dist, n=32)
        cond = [law.conditional(np.random.default_rng(9), ages)
                for law in (dist, back)]
        assert np.array_equal(*cond)

    def test_hand_built_law_refuses_to_pickle(self):
        bare = dataclasses.replace(make_service_dist("exponential"), spec=None)
        with pytest.raises(TypeError, match="make_service_dist"):
            pickle.dumps(bare)


class TestExpmPhaseType:
    """alpha e^{Sx} on one route for every phase-type law, defective
    generators included."""

    @staticmethod
    def _generator(spec):
        # (alpha, S) as the law holds them: S rescaled to mean 1
        alpha = np.array(spec.get("alpha", [0.5, 0.5]))
        S = np.array(spec.get("S", [[-2.0, 0.0], [0.0, -0.5]]))
        return alpha, S * float(-alpha @ np.linalg.solve(S, np.ones(alpha.size)))

    def test_2d_input_equals_pointwise(self):
        x = np.linspace(0.0, 4.0, 12).reshape(3, 4)
        for spec in PHASETYPE_LAWS:
            dist = make_service_dist(spec)
            for kernel in ("sf", "density", "cdf", "hazard"):
                f = getattr(dist, kernel)
                got = f(x)
                assert got.shape == x.shape, kernel
                pointwise = np.array([f(np.array([v]))[0] for v in x.ravel()])
                assert np.array_equal(got, pointwise.reshape(x.shape)), kernel

    def test_within_1e12_of_per_point_expm(self):
        # the reference is scipy's e^{Sx} taken one point at a time, down
        # to sf ~ 1e-54 (Erlang-2 at 64)
        x = np.linspace(0.0, 64.0, 641)
        for spec in PHASETYPE_LAWS:
            dist = make_service_dist(spec)
            alpha, S = self._generator(spec)
            ones = np.ones(alpha.size)
            for pts in (x, x[:640].reshape(32, 20)):
                occ = np.array([alpha @ linalg.expm(S * v) for v in pts.ravel()])
                for kernel, vec in (("sf", ones), ("density", -S @ ones)):
                    ref = np.reshape(occ @ vec, pts.shape)
                    np.testing.assert_allclose(getattr(dist, kernel)(pts), ref,
                                               rtol=1e-12, atol=0.0, err_msg=kernel)

    def test_conditional_equals_choice_loop(self, monkeypatch):
        # the batched phase draw against one rng.choice per age on the same
        # occupancies; an age of 1e4 has none left and takes the idle phase
        def choice_loop(rng, occ, idle):
            phase = np.empty(occ.shape[1], dtype=int)
            for i, col in enumerate(occ.T):
                tot = col.sum()
                phase[i] = idle if tot <= 0 else rng.choice(col.size, p=col / tot)
            return phase

        ages = np.concatenate([np.linspace(0.0, 12.0, 240), [0.0, 40.0, 1e4]])
        probes = (ages, ages[:240].reshape(12, 20))
        laws = [make_service_dist(spec) for spec in PHASETYPE_LAWS]
        draws = [[law.conditional(np.random.default_rng(5), a) for a in probes]
                 for law in laws]
        monkeypatch.setattr(dists_module, "_draw_phases", choice_loop)
        for law, got in zip(laws, draws):
            for a, g in zip(probes, got):
                assert np.array_equal(g, law.conditional(np.random.default_rng(5), a))


class TestRenewalFunction:
    def test_exponential_closed_form(self):
        # U(t) = 1 + t for the unit-rate exponential
        dist = make_service_dist("exponential")
        U = renewal_function(dist, T=1.0, dt=1e-3)
        t = np.arange(U.size) * 1e-3
        assert np.max(np.abs(U - (1.0 + t))) < 1e-3
        assert abs(U[-1] - 2.0) < 1e-3

    def test_gamma2_closed_form(self):
        # mean-1 gamma(2): U(t) = 3/4 + t + exp(-4t)/4
        dist = make_service_dist("gamma", shape=2.0)
        U = renewal_function(dist, T=2.0, dt=1e-3)
        t = np.arange(U.size) * 1e-3
        exact = 0.75 + t + 0.25 * np.exp(-4.0 * t)
        assert np.max(np.abs(U - exact)) < 1e-3
        assert abs(U[-1] - 2.7500838656569755) < 1e-3

    def test_monotone_and_initial_value(self):
        for spec in ({"family": "lognormal", "sigma": 0.5}, {"family": "weibull", "shape": 0.8}):
            U = renewal_function(make_service_dist(spec), T=1.0, dt=2e-3)
            assert U[0] == 1.0
            assert np.all(np.diff(U) >= 0.0)

    @pytest.mark.parametrize("spec", ["exponential", {"family": "gamma", "shape": 2.0},
                                      {"family": "gamma", "shape": 0.5},
                                      {"family": "lognormal", "sigma": 0.5}])
    def test_prefix_is_the_solve_on_a_shorter_horizon(self, spec):
        # verify_moments solves once at its largest T and reads each T there
        dist = make_service_dist(spec)
        U1 = renewal_function(dist, T=1.0, dt=1e-3)
        assert U1.tobytes() == renewal_function(dist, T=2.0, dt=1e-3)[:1001].tobytes()

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            renewal_function(make_service_dist("exponential"), T=1.0, dt=0.0)

    @pytest.mark.parametrize("T, dt, name", [
        (math.inf, 0.1, "T"), (math.nan, 0.1, "T"),
        (1.0, math.inf, "dt"), (1.0, math.nan, "dt"),
    ], ids=["T-inf", "T-nan", "dt-inf", "dt-nan"])
    def test_non_finite_grid_rejected(self, T, dt, name):
        # refused by the grid rule, not left to round(T / dt)
        with pytest.raises(ValueError, match=f"^{name}: must be a finite number"):
            renewal_function(make_service_dist("exponential"), T=T, dt=dt)


class TestHolder:
    def test_exponential_gamma_one(self):
        dist = make_service_dist("exponential")
        rep = holder_check(dist, np.linspace(0.0, 4.0, 30), np.linspace(0.0, 3.0, 120))
        assert rep.gamma_G == 1.0
        assert abs(rep.C_G - 1.0) < 0.05, f"C_G={rep.C_G}"

    def test_pareto_bounded_hazard_constant(self):
        # Lomax(a=1.5, scale=0.5): sup h = a/scale = 3, grid ratio stays below
        dist = make_service_dist("pareto", a=1.5)
        rep = holder_check(dist, np.linspace(0.0, 5.0, 40), np.linspace(0.0, 2.0, 90))
        assert rep.gamma_G == 1.0
        assert rep.C_G <= 3.0 + 1e-9
        assert rep.C_G > 2.5

    def test_unbounded_density_falls_back_to_half(self):
        # weibull shape < 1: density blows up at 0, no Lipschitz constant
        dist = make_service_dist("weibull", shape=0.8)
        rep = holder_check(dist, np.array([0.0]), np.geomspace(1e-10, 1e-2, 160))
        assert rep.gamma_G == 0.5
        assert rep.C_G > 0.0


class TestOperators:
    @given(t=st.floats(0.0, 3.0), s=st.floats(0.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_semigroup_identity(self, t, s):
        # Phi_{t+s} = Phi_t Phi_s pointwise on random ages
        dist = make_service_dist("lognormal", sigma=0.5)
        f = lambda x: np.exp(-x)
        x = np.linspace(0.0, 6.0, 41)
        lhs = phi_op(dist, f, t + s)(x)
        rhs = phi_op(dist, phi_op(dist, f, s), t)(x)
        assert np.max(np.abs(lhs - rhs)) < OPERATOR_TOL

    @given(t=st.floats(0.0, 2.5), s=st.floats(0.0, 2.5), u=st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_psi_phi_composition(self, t, s, u):
        # Psi_s applied to Phi_t f, read at lag u, equals Psi_{s+t} f at lag u
        dist = make_service_dist("gamma", shape=2.0)
        f = lambda x: 1.0 / (1.0 + x)
        x = np.linspace(0.0, 5.0, 31)
        lhs = psi_op(dist, phi_op(dist, f, t), s)(x, np.minimum(u, s))
        rhs = psi_op(dist, f, s + t)(x, np.minimum(u, s))
        assert np.max(np.abs(lhs - rhs)) < OPERATOR_TOL

    def test_psi_at_zero_lag_is_plain_f(self):
        dist = make_service_dist("exponential")
        f = lambda x: x**2
        x = np.linspace(0.0, 4.0, 21)
        out = psi_op(dist, f, 1.5)(x, 1.5)  # s = t, lag 0, ratio 1
        assert np.max(np.abs(out - f(x))) < OPERATOR_TOL

    def test_phi_dead_mass_convention(self):
        dist = make_service_dist("piecewise", breaks=[0.0, 1.0], values=[1.0])
        L = dist.support_end
        f = lambda x: np.ones_like(x)
        out = phi_op(dist, f, 0.5)(np.array([L, L + 1.0]))
        assert np.all(out == 0.0)

    def test_phi_exponential_closed_form(self):
        # memorylessness: (Phi_t 1)(x) = e^{-t} independent of x
        dist = make_service_dist("exponential")
        f = lambda x: np.ones_like(x)
        x = np.linspace(0.0, 10.0, 50)
        out = phi_op(dist, f, 0.7)(x)
        assert np.max(np.abs(out - math.exp(-0.7))) < OPERATOR_TOL


class TestKernelLayer:
    """The service-law decisions every other layer calls instead of
    re-deriving: tail point, grid density, dead-mass ratio."""

    @pytest.mark.parametrize("spec, point", [
        ("exponential", 32.0),
        ({"family": "lognormal", "sigma": 0.5}, 32.0),
        ({"family": "gamma", "shape": 2.0}, 16.0),
        ({"family": "weibull", "shape": 1.5}, 16.0),
        ("logistic", 16.0),
        ("phasetype", 64.0),
        ("piecewise", None),  # capped at the support end L
        ({"family": "pareto", "a": 1.5}, 524288.0),
    ], ids=["exp", "lognormal", "gamma2", "weibull", "logistic", "phasetype",
            "piecewise", "pareto"])
    def test_tail_point(self, spec, point):
        dist = make_service_dist(spec)
        expected = dist.support_end if point is None else point
        assert dist.tail_point(1e-9) == expected

    @pytest.mark.parametrize("spec", [{"family": "gamma", "shape": 0.5},
                                      {"family": "weibull", "shape": 0.7}],
                             ids=["gamma0.5", "weibull0.7"])
    def test_grid_density_cell_average_at_zero(self, spec):
        dist = make_service_dist(spec)
        dt = 0.01
        x = np.arange(50) * dt
        g = dist.grid_density(x, dt)
        assert g[0] == (dist.cdf(dt / 2.0) - dist.cdf(0.0)) / (dt / 2.0)
        with np.errstate(divide="ignore"):
            assert np.array_equal(g[1:], dist.density(x[1:]))

    def test_age_table_built_once_and_not_carried(self):
        # the table lives on the law: built on first use, read-only, left
        # out of its pickle (the law pickles as its spec) and of a replace
        dist = make_service_dist("lognormal", sigma=0.5)
        x, cdf = dist.age_table
        assert dist.age_table[0] is x
        assert x.size == cdf.size == 4097 and cdf[0] == 0.0 and cdf[-1] == 1.0
        assert not (x.flags.writeable or cdf.flags.writeable)
        assert "age_table" not in vars(pickle.loads(pickle.dumps(dist)))
        assert "age_table" not in vars(dataclasses.replace(dist, name="copy"))

    def test_dead_mass_past_piecewise_support(self):
        dist = make_service_dist("piecewise")
        x = dist.support_end + np.array([0.0, 0.5, 3.0])
        assert np.all(dist.sf(x) == 0.0)
        assert np.all(dist.hazard(x) == 0.0)
        assert np.all(dist.survival_ratio(x, 0.25) == 0.0)
        assert np.all(dead_mass_ratio(np.ones(3), dist.sf(x)) == 0.0)


class TestArrivals:
    def test_renewal_rate_and_moments(self):
        arr = ArrivalSpec(kind="renewal", lambda_bar=1.0, beta=1.0, sigma2=0.64)
        N = 100
        lam = arr.rate_fn(N)(np.array([0.0]))[0]
        assert abs(lam - (1.0 * N - 1.0 * 10.0)) < 1e-12
        draws = np.diff(arr.times(N, 2250.0, np.random.default_rng(0)), prepend=0.0)
        assert draws.size > 200000
        assert abs(draws.mean() - 1.0 / lam) < 6.0 * draws.std() / math.sqrt(draws.size)
        target_var = (0.64 / 1.0) / lam**2
        assert abs(draws.var() / target_var - 1.0) < 0.03

    def test_poisson_special_case_is_exponential(self):
        arr = ArrivalSpec(kind="renewal", lambda_bar=2.0, beta=0.0)
        assert arr.sigma2 == 2.0
        draws = np.diff(arr.times(50, 1010.0, np.random.default_rng(1)), prepend=0.0)
        assert draws.size > 99000
        lam = 100.0
        # exponential: P(X > x) = exp(-lam x)
        assert abs(np.mean(draws > 1.0 / lam) - math.exp(-1.0)) < 0.01

    def test_inhom_rate_fn(self):
        arr = ArrivalSpec(kind="inhom_poisson", lambda_bar={"affine": [1.0, 0.5]}, beta=2.0)
        r = arr.rate_fn(N=400)(np.array([0.0, 2.0]))
        assert abs(r[0] - (1.0 * 400 - 2.0 * 20.0)) < 1e-9
        assert abs(r[1] - (2.0 * 400 - 2.0 * 20.0)) < 1e-9

    def test_admissibility_guard(self):
        for beta in (1.0, 1.5):  # renewal rate 1*1 - beta*1 <= 0 at N = 1
            arr = ArrivalSpec(kind="renewal", lambda_bar=1.0, beta=beta)
            with pytest.raises(ValueError, match="not admissible for N=1"):
                arr.times(1, 1.0, np.random.default_rng(0))
            assert arr.times(4, 1.0, np.random.default_rng(0)).size > 0

    def test_admissibility_sees_pwlin_dip_between_probe_points(self):
        # the dip to -1 at t = 0.3001 falls between the 513 even probe points
        # an earlier check used, and between the 2049 that set the bound
        dip = {"pwlin": {"t": [0.0, 0.3, 0.3001, 0.3002, 1.0],
                         "v": [1.0, 1.0, -1.0, 1.0, 1.0]}}
        arr = ArrivalSpec(kind="inhom_poisson", lambda_bar=dip, beta=0.0)
        assert np.all(arr.rate_fn(4)(np.linspace(0.0, 1.0, 2049)) >= 0.0)
        with pytest.raises(ValueError, match="not admissible"):
            arr.times(4, 1.0, np.random.default_rng(0))

    def test_admissibility_reads_every_thinning_probe_point(self):
        # a callable rate is only sampled: one negative at t = 1/2048, a
        # probe point that sets the thinning bound, is refused
        dip = lambda t: np.where(np.asarray(t) == 1.0 / 2048, -1.0, 1.0)
        arr = ArrivalSpec(kind="inhom_poisson", lambda_bar=dip, beta=0.0)
        with pytest.raises(ValueError, match="not admissible for N=4 on"):
            arr.times(4, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("kw", [
        dict(kind="renewal", beta=-math.inf), dict(kind="renewal", beta=math.nan),
        dict(kind="inhom_poisson", lambda_bar=math.inf),
        dict(kind="inhom_poisson",
             lambda_bar=lambda t: np.where(np.asarray(t) == 0.5, np.nan, 1.0)),
    ], ids=["renewal-inf", "renewal-nan", "inhom-inf", "inhom-nan-at-a-probe"])
    def test_non_finite_rate_refused(self, kw):
        # each would draw forever: zero gaps, or a NaN thinning bound
        with pytest.raises(ValueError, match="not admissible"):
            ArrivalSpec(**kw).times(4, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("key", ["lambda_bar", "sigma2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_renewal_refuses_non_finite_numbers(self, key, value):
        with pytest.raises(ValueError, match="need finite"):
            ArrivalSpec(kind="renewal", **{key: value})

    @pytest.mark.parametrize("kw, field", [
        (dict(kind="renewal", beta=math.nan), "beta"),
        (dict(kind="inhom_poisson", beta=-math.inf), "beta"),
        (dict(kind="inhom_poisson", lambda_bar=math.nan), "lambda_bar"),
        (dict(kind="inhom_poisson", lambda_bar={"affine": [1.0, math.nan]}),
         r"lambda_bar\.affine\.1"),
        (dict(kind="inhom_poisson", lambda_bar={"pwlin": {"t": [0.0, 1.0],
                                                         "v": [1.0, math.inf]}}),
         r"lambda_bar\.pwlin\.v\.1"),
    ], ids=["renewal-beta", "inhom-beta", "inhom-lambda-bar", "affine", "pwlin"])
    def test_non_finite_number_refused_naming_it(self, kw, field):
        # checked_rate(T) of the fluid limit reads lambda_bar alone, so a
        # NaN beta reached a limit run and gave a NaN Xhat from step 1
        with pytest.raises(ValueError, match=f"^{field}: must be a finite number"):
            ArrivalSpec(**kw)

    def test_inhom_poisson_refuses_sigma2(self):
        # its diffusion coefficient is sqrt(lambda_bar); a sigma2 was dropped
        with pytest.raises(ValueError, match="^sigma2: inhom_poisson arrivals take none"):
            ArrivalSpec(kind="inhom_poisson", lambda_bar=1.0, sigma2=5.0)

    def test_numpy_scalar_nan_refused_naming_it(self):
        # np.float32 is no float subclass: its NaN was built into the spec
        # and run_limit failed later on an unrecognized rate spec
        with pytest.raises(ValueError, match="^beta: must be a finite number"):
            ArrivalSpec("inhom_poisson", 1.0, beta=np.float32("nan"))
        with pytest.raises(ValueError, match="^lambda_bar.affine.0: must be a finite"):
            ArrivalSpec("inhom_poisson", {"affine": [np.float16("inf"), 1.0]})
        with pytest.raises(ValueError, match="^x: must be a finite number, got nan"):
            check_finite(np.float32("nan"), "x")
        check_finite([np.int64(3), 10 ** 400, np.float32(0.5)], "x")

    def test_numpy_scalar_rates(self):
        t = np.array([0.0, 1.0])
        arr = ArrivalSpec("inhom_poisson", np.float32(2.0), beta=np.int64(1))
        assert arr.rate_fn(4)(t).tolist() == [6.0, 6.0]
        sigma, beta = arr.diffusion_coeffs()
        assert sigma(t).tolist() == [math.sqrt(2.0)] * 2 and beta(t).tolist() == [1.0] * 2
        with pytest.raises(ValueError, match="unrecognized rate spec"):
            as_rate(True)

    def test_poisson_gaps_are_the_exponential_draw(self):
        # one draw route: numpy's gamma at shape exactly 1 is its exponential
        arr = ArrivalSpec(kind="renewal", lambda_bar=2.0, beta=1.0)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            # rate 2 N - sqrt(N) = 6 at N = 4
            gaps = np.concatenate([rng.exponential(1 / 6.0, 256) for _ in range(2)])
            times = np.cumsum(gaps)
            want = times[times <= times[300]]
            assert arr.times(4, float(times[300]), np.random.default_rng(seed)).tolist() \
                == want.tolist()

    def test_renewal_numbers_kept_as_floats(self):
        arr = ArrivalSpec(kind="renewal", lambda_bar=np.int64(2), beta=1, sigma2=np.float32(0.5))
        assert [type(v) for v in (arr.lambda_bar, arr.beta, arr.sigma2)] == [float] * 3
        assert arr.rate_fn(4)(0.0) == 2.0 * 4 - 1.0 * 2.0

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="markov")

    def test_as_rate_forms(self):
        t = np.array([0.0, 1.0, 2.0])
        assert np.allclose(as_rate(3.0)(t), 3.0)
        assert np.allclose(as_rate({"const": 2.0})(t), 2.0)
        assert np.allclose(as_rate({"affine": [1.0, 0.5]})(t), [1.0, 1.5, 2.0])
        assert np.allclose(as_rate({"pwlin": {"t": [0.0, 2.0], "v": [0.0, 4.0]}})(t), [0.0, 2.0, 4.0])
        with pytest.raises(ValueError):
            as_rate("fast")

    @pytest.mark.parametrize("pwlin, match", [
        ({"t": [0.0, 1.0, 2.0], "v": [1.0, 2.0]}, "differ in length"),
        ({"t": [2.0, 1.0, 0.0], "v": [1.0, 2.0, 3.0]}, "strictly increasing"),
        ({"t": [0.0, 1.0, 1.0], "v": [1.0, 2.0, 3.0]}, "strictly increasing"),
    ], ids=["lengths", "decreasing", "repeated-knot"])
    def test_as_rate_refuses_bad_pwlin(self, pwlin, match):
        with pytest.raises(ValueError, match=match):
            as_rate({"pwlin": pwlin})
