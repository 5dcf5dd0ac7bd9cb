"""Service-time distributions and the survival-ratio operator calculus.

Everything downstream (the event simulator, the fluid solver, the limit
engine) talks to service laws through the ServiceDistribution record built
here: cdf G, density g, hazard h = g/(1-G), support endpoint L, and a
sampler.  Laws are normalized so the mean service requirement is 1 unless
the caller opts out.

Every law is a closed form on numpy and scipy.special.  Exponential,
lognormal, weibull, gamma, pareto (Lomax) and logistic (half-logistic)
apply scipy.stats' formulas and edge conventions in standard units, so
their values and seeded draws are the frozen scipy laws' (to an ulp for
four weibull shapes, noted above the family builders); phase-type is
alpha e^{Sx} by binary powers of e^{Sh} and one Taylor step, the same
route for every generator, and piecewise a table.  Importing scipy.stats
(about a second per process) or scipy.linalg would buy nothing here.
scipy.special is imported by the family builders that call it (lognormal,
weibull, gamma, pareto, logistic), and by the exponential law only for
its cdf, so importing this module loads no scipy at all.

This module is the one kernel layer for service laws.  Each decision the
other layers need about a law is made here and nowhere else:

    _first_error(s, v)     v's first error against schema s, in the JSON
                           Schema subset of every config and override
    check_finite(v, name)  every number a caller gives must be finite
    uniform_grid(T, dt)    every time and age grid {0, dt, ..., T}: 0 < dt
                           <= T, T a whole number of steps to GRID_RTOL
    tail_point(eps)        first power of 2 with survival <= eps (at most
                           2^20, and at most L): where an age grid may stop
    age_table              the stationary age law's cdf on 4097 nodes,
                           built on first use and kept on the law; a
                           tail that leaves over AGE_TABLE_LOSS of it past
                           the nodes is refused
    grid_density(x, dt)    g on a dt-spaced grid, a non-finite node value
                           (g unbounded at 0) replaced by its cell's
                           average mass
    dead_mass_ratio        num/den, and 0 wherever den = 0: mass beyond
                           the support is dead
    phi_op, psi_op         the two operator families built from survival
                           ratios,

    (Phi_t f)(x)   = f(x+t) (1-G(x+t)) / (1-G(x))
    (Psi_t f)(x,s) = f(x + (t-s)^+) (1-G(x + (t-s)^+)) / (1-G(x))

    ArrivalSpec.times      an arrival stream, its rate checked only there

plus the renewal function U (Volterra solve) and the Holder-ratio fitter
whose fit `dists check` reports.  Ratios are evaluated through survival
functions directly (never 1 - cdf) so they stay meaningful far into the
tail.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import SimpleNamespace
from typing import Callable

import numpy as np

__all__ = [
    "ServiceDistribution",
    "ServiceSpecError",
    "ArrivalSpec",
    "HolderReport",
    "make_service_dist",
    "renewal_function",
    "uniform_grid",
    "check_finite",
    "holder_check",
    "phi_op",
    "psi_op",
    "dead_mass_ratio",
    "as_rate",
]

_MEAN_TOL = 1e-6
GRID_RTOL = 1e-9  # how far T may sit from a whole number of steps, relative
AGE_TABLE_LOSS = 1e-3  # the stationary age mass age_table may miss past its nodes


def check_finite(value, name):
    """A ValueError naming the first non-finite real number in value, a
    number (numpy scalars too) or nested dicts and lists of them: name,
    then each key or index on the way to it, joined by dots."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral) \
                and not math.isfinite(value):
            raise ValueError(f"{name}: must be a finite number, got {value}")
        return
    for key, item in items:
        check_finite(item, f"{name}.{key}" if name else str(key))


def uniform_grid(T, dt, T_name="T", dt_name="dt"):
    """np.arange(n + 1) * dt with n dt = T, else a ValueError whose message
    starts with the name of the input at fault (T_name or dt_name)."""
    check_finite(T, T_name)
    check_finite(dt, dt_name)
    if not dt > 0:
        raise ValueError(f"{dt_name}: must be positive, got {dt}")
    if not dt <= T:
        raise ValueError(f"{dt_name}: {dt} is longer than {T_name} = {T}")
    n = int(round(T / dt))
    if abs(n * dt - T) > GRID_RTOL * T:
        raise ValueError(f"{T_name}: {T} is not a whole number of steps "
                         f"{dt_name} = {dt}")
    return np.arange(n + 1) * dt


# the Draft 2020-12 keywords _errors reads (`then` through `if`); an
# additionalProperties is false, a const or enum value a scalar, compared
# JSON's way as a (bool?, value) pair: True is not 1, 1.0 is 1
_KEYWORDS = {"type", "const", "enum", "minimum", "exclusiveMinimum", "minItems",
             "maxItems", "items", "required", "properties",
             "additionalProperties", "anyOf", "allOf", "if", "then"}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": numbers.Number, "integer": numbers.Number}


def _is(kind, v):
    """JSON Schema's type test: a bool is no number, 3.0 is an integer."""
    if not isinstance(v, _TYPES[kind]) or isinstance(v, bool) and kind != "boolean":
        return False
    return kind != "integer" or isinstance(v, int) or isinstance(v, float) and v.is_integer()


def _errors(schema, v, at=()):
    """(path, unknown keys, message) of each error of v at path `at`, in
    keyword order; a keyword outside _KEYWORDS raises ValueError."""
    # a keyword that does not apply to v's type is skipped
    obj, arr, num = isinstance(v, dict), isinstance(v, list), _is("number", v)
    for key, arg in schema.items():
        if key not in _KEYWORDS or key == "additionalProperties" and arg is not False:
            raise ValueError(f"unsupported schema keyword {key}: {arg!r}")
        if key == "type" and not _is(arg, v):
            yield at, (), f"{v!r} is not of type {arg!r}"
        elif key == "const" and (type(v) is bool, v) != (type(arg) is bool, arg):
            yield at, (), f"{arg!r} was expected"
        elif key == "enum" and (type(v) is bool, v) not in [(type(e) is bool, e) for e in arg]:
            yield at, (), f"{v!r} is not one of {arg!r}"
        elif key == "minimum" and num and v < arg:
            yield at, (), f"{v!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum" and num and v <= arg:
            yield at, (), f"{v!r} is less than or equal to the minimum of {arg!r}"
        elif key == "minItems" and arr and len(v) < arg:
            yield at, (), f"{v!r} " + ("should be non-empty" if arg == 1 else "is too short")
        elif key == "maxItems" and arr and len(v) > arg:
            yield at, (), f"{v!r} " + ("is expected to be empty" if arg == 0 else "is too long")
        elif key == "items" and arr:
            for i, item in enumerate(v):
                yield from _errors(arg, item, (*at, i))
        elif key == "required" and obj:
            yield from ((at, (), f"{k!r} is a required property") for k in arg if k not in v)
        elif key == "properties" and obj:
            for k in [k for k in arg if k in v]:
                yield from _errors(arg[k], v[k], (*at, k))
        elif key == "additionalProperties" and obj and (
                extra := sorted(v.keys() - schema.get("properties", {}), key=str)):
            yield at, extra, "Additional properties are not allowed (%s %s unexpected)" % (
                ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were")
        elif key == "anyOf" and all(any(_errors(sub, v, at)) for sub in arg):
            yield at, (), f"{v!r} is not valid under any of the given schemas"
        elif key == "allOf":
            for sub in arg:
                yield from _errors(sub, v, at)
        elif key == "if" and not any(_errors(arg, v, at)):
            yield from _errors(schema.get("then", {}), v, at)


def _first_error(schema, doc):
    """The message of the error first in a stable sort by field path, its
    smallest unknown key named after the sort, or None."""
    first = min(_errors(schema, doc), key=lambda e: e[0], default=None)
    if first is not None:
        path, extra, message = first
        return (".".join([*map(str, path), *extra[:1]]) or "(root)") + ": " + message


def dead_mass_ratio(num, den):
    """num / den, and 0 wherever den = 0 (mass beyond the support is dead)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)


class ServiceSpecError(ValueError):
    """A service spec names no known family, a key its family does not take,
    a value out of range, or a scale key that normalization would drop."""


@dataclass(frozen=True)
class ServiceDistribution:
    """Immutable service law: G, g, h, support endpoint, mean, sampler.

    cdf/density/hazard/sf accept scalars or arrays and return ndarrays.
    sampler(rng, size) draws service durations; conditional(rng, ages) draws
    full durations v ~ G given v > age (used for initially-in-service
    customers).  Safe to share across threads and replicates.  A law from
    make_service_dist records its spec and pickles as that spec, so it
    crosses process boundaries by being rebuilt; a cached table such as
    age_table is rebuilt there on first use, and dataclasses.replace starts
    the copy without it.
    """

    name: str
    cdf: Callable
    density: Callable
    hazard: Callable
    support_end: float
    mean: float
    sampler: Callable
    sf: Callable = field(repr=False)
    conditional: Callable = field(repr=False)
    spec: dict = field(repr=False, compare=False, default=None)

    def __reduce__(self):
        if self.spec is None:
            raise TypeError(f"{self.name} was not built by make_service_dist "
                            "and cannot be pickled")
        return make_service_dist, (self.spec,)

    def survival_ratio(self, x, t):
        """(1-G(x+t))/(1-G(x)), with the dead-mass convention 0/0 -> 0."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        den = self.sf(x)
        return dead_mass_ratio(self.sf(x + t), den)

    def tail_point(self, eps):
        """First of 1, 2, 4, ..., 2^20 with sf <= eps (else 2^20), capped at L."""
        hi = 1.0
        while self.sf(np.array([hi]))[0] > eps and hi < 1e6:
            hi *= 2.0
        return min(hi, self.support_end)

    @cached_property
    def age_table(self):
        """(x, F): nodes and the stationary age cdf F(x) = int_0^x (1-G) / m
        at them, for drawing invariant ages by inversion and for the fluid
        age read-out of an invariant start; read-only.

        4097 nodes reach sf < 1e-9 (at most 2^20): uniform up to 32, else
        cells of 32/4096 at 0 growing geometrically, so a heavy tail does not
        coarsen the body.  The trapezoid integral is normalized by its own
        total, which must hold all but AGE_TABLE_LOSS of the mean: a tail
        too heavy for the nodes raises ValueError rather than draw from a
        truncated law.
        """
        hi = self.tail_point(1e-9)
        if hi <= 32.0:
            x = np.linspace(0.0, hi, 4097)
        else:
            x = np.concatenate([[0.0], np.geomspace(32.0 / 4096, hi, 4096)])
        tail = self.sf(x)
        cdf = np.concatenate([[0.0], np.cumsum((tail[1:] + tail[:-1]) / 2.0 * np.diff(x))])
        missing = 1.0 - cdf[-1] / self.mean
        if missing > AGE_TABLE_LOSS:
            raise ValueError(
                f"{self.name}: the stationary age table ends at age {x[-1]:g} "
                f"with {missing:.3g} of the age law's mass past it, more than "
                f"{AGE_TABLE_LOSS:g}; the tail is too heavy for the table")
        cdf /= cdf[-1]
        x.flags.writeable = False
        cdf.flags.writeable = False
        return x, cdf

    def grid_density(self, x, dt):
        """g on grid nodes x spaced dt; a non-finite node value (a density
        unbounded at 0) is replaced by that cell's average mass."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = np.asarray(self.density(x), dtype=float)
        bad = ~np.isfinite(g)
        if np.any(bad):
            lo = np.maximum(x[bad] - dt / 2.0, 0.0)
            hi = x[bad] + dt / 2.0
            g[bad] = (self.cdf(hi) - self.cdf(lo)) / (hi - lo)
        return g


def _hazard_from(density, sf):
    # h = g / (1-G) for laws without a log-density minus log-survival route
    def hazard(x):
        s = sf(x)
        return dead_mass_ratio(density(x), s)

    return hazard


def _scaled_law(name, scale, mean, k, open_at_zero=False):
    """A law on [0, inf) from its kernels in standard units z = x/scale.

    k holds numpy/scipy.special kernels of z on the support (pdf, logpdf,
    cdf, sf, logsf), the inverse survival function isf of q in (0, 1) and
    a standard draw(rng, size).  Around them this applies scipy.stats'
    rv_continuous conventions, so the law reads as the frozen scipy law
    did: cdf 0 and sf 1 for z <= 0, density 0 below 0 (also at 0 when
    open_at_zero), NaN in gives NaN out, the density divided by scale,
    draws multiplied by it, and hazard exp(log g - log(1-G)) with every
    non-finite value read as 0.  One departure: the density is 0 at +inf
    for every law, where scipy's weibull (shape > 1) and gamma formulas
    give inf * 0 = NaN.
    """
    log_scale = np.log(scale)

    def _z(x):
        return np.asarray(x, dtype=float) / scale

    def _out(z, low_mask, low, kernel):
        # kernel on the support, low off it; a 0-d input gives a scalar
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val = kernel(z)
        out = np.where(low_mask, low, val)
        return out[()] if out.ndim == 0 else out

    def cdf(x):
        z = _z(x)
        return _out(z, z <= 0.0, 0.0, k.cdf)

    def sf(x):
        z = _z(x)
        return _out(z, z <= 0.0, 1.0, k.sf)

    def density(x):
        z = _z(x)
        off = (z <= 0.0 if open_at_zero else z < 0.0) | (z == np.inf)
        return _out(z, off, 0.0, lambda z: k.pdf(z) / scale)

    def hazard(x):
        z = _z(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h = np.exp(k.logpdf(z) - log_scale - k.logsf(z))
        on = z > 0.0 if open_at_zero else z >= 0.0
        return np.where(on & np.isfinite(h), h, 0.0)

    def sampler(rng, size=None):
        return k.draw(rng, () if size is None else size) * scale

    def conditional(rng, ages):
        # v ~ G given v > a, by the inverse survival function of q = u sf(a):
        # q < 1 since u < 1, and every isf kernel reads q = 0 (u = 0, or sf
        # underflow) as the upper end of the support, inf
        ages = np.asarray(ages, dtype=float)
        u = rng.uniform(size=ages.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = k.isf(u * sf(ages)) * scale
        return np.maximum(v, ages)

    return ServiceDistribution(
        name=name, cdf=cdf, density=density, hazard=hazard,
        support_end=np.inf, mean=float(mean), sampler=sampler,
        sf=sf, conditional=conditional,
    )


def _scale_param(params, key, default, normalize):
    # normalization sets this parameter, so a given value would be lost
    if normalize and key in params:
        raise ServiceSpecError(f"{key} is set by normalization to mean 1; "
                               f"give normalize: false to use {key}")
    return float(params.pop(key, default))


def _split_logsf(median, sf, cdf):
    # rv_continuous's own log-survival for laws with no closed form of it:
    # log sf above the median, log1p(-cdf) at or below it
    def logsf(z):
        above = z > median
        out = np.empty(z.shape)
        out[above] = np.log(sf(z[above]))
        out[~above] = np.log1p(-cdf(z[~above]))
        return out

    return logsf


# Standard-unit kernels, one namespace per family, each written as scipy
# 1.17's own formula in its parameter names (s, c, a), so the laws keep
# scipy's values and draws bit for bit.  One exception: numpy raises to a
# scalar exponent of exactly 2 or 1/2 by square or sqrt, and scipy's
# exponent is a scalar only when some input lies off the support.  So
# weibull with shape 0.5 or 2 (every kernel and conditional) or 1.5 or 3
# (density) can differ from scipy by an ulp of the power: at most 1.1e-13
# relative, in the deep tail.
#
# scipy.special is imported where it is called (module docstring); numpy's
# expm1 and log1p are no substitute, as they miss its last bit on some
# points.

def _make_exponential(params, normalize):
    rate = _scale_param(params, "rate", 1.0, normalize)
    if rate <= 0:
        raise ServiceSpecError("exponential rate must be positive")
    if normalize:
        rate = 1.0

    def cdf(z):
        from scipy import special
        return -special.expm1(-z)

    k = SimpleNamespace(
        pdf=lambda z: np.exp(-z), logpdf=lambda z: -z,
        cdf=cdf, sf=lambda z: np.exp(-z),
        logsf=lambda z: -z, isf=lambda q: -np.log(q),
        draw=lambda rng, size: rng.standard_exponential(size))
    return _scaled_law(f"exponential(rate={rate:g})", 1.0 / rate, 1.0 / rate, k)


def _make_lognormal(params, normalize):
    from scipy import special

    sigma = float(params.pop("sigma", 0.5))
    if sigma <= 0:
        raise ServiceSpecError("lognormal sigma must be positive")
    mu = _scale_param(params, "mu", 0.0, normalize)
    if normalize:
        mu = -sigma * sigma / 2.0  # mean exp(mu + sigma^2/2) = 1
    s = sigma
    two_s2 = 2 * (s * s)
    root_2pi = np.sqrt(2 * np.pi)

    def logpdf(z):
        return -np.log(z) ** 2 / two_s2 - np.log(s * z * root_2pi)

    k = SimpleNamespace(
        pdf=lambda z: np.exp(logpdf(z)), logpdf=logpdf,
        cdf=lambda z: special.ndtr(np.log(z) / s),
        sf=lambda z: special.ndtr(-(np.log(z) / s)),
        logsf=lambda z: special.log_ndtr(-(np.log(z) / s)),
        isf=lambda q: np.exp(s * -special.ndtri(q)),
        draw=lambda rng, size: np.exp(s * rng.standard_normal(size)))
    scale = math.exp(mu)
    return _scaled_law(f"lognormal(sigma={sigma:g})", scale,
                       np.sqrt(np.exp(s * s)) * scale, k, open_at_zero=True)


def _make_weibull(params, normalize):
    from scipy import special

    shape = float(params.pop("shape", 1.5))
    if shape <= 0:
        raise ServiceSpecError("weibull shape must be positive")
    scale = _scale_param(params, "scale", 1.0, normalize)
    if normalize:
        scale = 1.0 / math.gamma(1.0 + 1.0 / shape)
    c = shape
    log_c = np.log(c)
    k = SimpleNamespace(
        pdf=lambda z: c * np.power(z, c - 1) * np.exp(-np.power(z, c)),
        logpdf=lambda z: log_c + special.xlogy(c - 1, z) - np.power(z, c),
        cdf=lambda z: -special.expm1(-np.power(z, c)),
        sf=lambda z: np.exp(-np.power(z, c)),
        logsf=lambda z: -np.power(z, c),
        isf=lambda q: np.power(-np.log(q), 1 / c),
        draw=lambda rng, size: np.power(-special.log1p(-rng.uniform(size=size)),
                                        1.0 / c))
    return _scaled_law(f"weibull(shape={shape:g})", scale,
                       special.gamma(1.0 + 1.0 / c) * scale, k)


def _make_gamma(params, normalize):
    from scipy import special

    shape = float(params.pop("shape", 2.0))
    if shape <= 0:
        raise ServiceSpecError("gamma shape must be positive")
    scale = _scale_param(params, "scale", 1.0, normalize)
    if normalize:
        scale = 1.0 / shape
    a = shape
    log_norm = special.gammaln(a)

    def logpdf(z):
        return special.xlogy(a - 1.0, z) - z - log_norm

    def cdf(z):
        return special.gammainc(a, z)

    def sf(z):
        return special.gammaincc(a, z)

    k = SimpleNamespace(
        pdf=lambda z: np.exp(logpdf(z)), logpdf=logpdf, cdf=cdf, sf=sf,
        logsf=_split_logsf(special.gammaincinv(a, 0.5), sf, cdf),
        isf=lambda q: special.gammainccinv(a, q),
        draw=lambda rng, size: rng.standard_gamma(a, size))
    return _scaled_law(f"gamma(shape={shape:g})", scale, a * scale, k)


def _make_pareto(params, normalize):
    # Lomax / Pareto-II so that the support starts at 0 with G(0) = 0
    from scipy import special

    a = float(params.pop("a", 1.5))
    if a <= 1.0:
        raise ServiceSpecError("pareto exponent must exceed 1 for a finite mean")
    scale = _scale_param(params, "scale", 1.0, normalize)
    if normalize:
        scale = a - 1.0
    c = a
    log_c = np.log(c)
    k = SimpleNamespace(
        pdf=lambda z: c * 1.0 / (1.0 + z) ** (c + 1.0),
        logpdf=lambda z: log_c - (c + 1) * special.log1p(z),
        cdf=lambda z: -special.expm1(-c * special.log1p(z)),
        sf=lambda z: np.exp(-c * special.log1p(z)),
        logsf=lambda z: -c * special.log1p(z),
        isf=lambda q: np.power(q, -1.0 / c) - 1,
        draw=lambda rng, size: special.expm1(
            -special.log1p(-rng.uniform(size=size)) / c))
    return _scaled_law(f"pareto(a={a:g})", scale, (c / (c - 1.0) - 1.0) * scale, k)


def _make_logistic(params, normalize):
    # half-logistic: the positive-support form of the logistic law
    from scipy import special

    scale = _scale_param(params, "scale", 1.0, normalize)
    if scale <= 0:
        raise ServiceSpecError("logistic scale must be positive")
    if normalize:
        scale = 1.0 / math.log(4.0)
    log_2 = np.log(2)

    def logpdf(z):
        return log_2 - z - 2. * special.log1p(np.exp(-z))

    def isf(q):
        return np.where(q < 0.5, -special.logit(0.5 * q), 2 * np.arctanh(1 - q))

    def cdf(z):
        return np.tanh(z / 2.0)

    def sf(z):
        return 2 * special.expit(-z)

    k = SimpleNamespace(
        pdf=lambda z: np.exp(logpdf(z)), logpdf=logpdf, cdf=cdf, sf=sf,
        logsf=_split_logsf(2 * np.arctanh(0.5), sf, cdf), isf=isf,
        draw=lambda rng, size: 2 * np.arctanh(rng.uniform(size=size)))
    return _scaled_law(f"logistic(scale={scale:g})", scale, 2 * log_2 * scale, k)


_TAYLOR_TERMS = 16  # the Taylor tail past it is below (1/2)^17 / 17! < 1e-19


def _phase_occupancy(alpha, S):
    """x -> alpha e^{Sx} at every point of x, as an (m, x.size) array: row
    j is phase j's occupancy, column i belongs to point x.flat[i].

    Scaling and squaring on row vectors (Moler & Van Loan, SIAM Rev. 45,
    2003): with h = 1/(2 ||S||_inf) and x = k h + r, 0 <= r < h, a point
    takes alpha times E^{2^b} for each bit b of k, E = e^{Sh}, then one
    Taylor step e^{Sr}.  Both exponentials are taken as e^{-cr} e^{(S+cI)r}
    with c the largest rate, so every Taylor term is nonnegative: no
    cancellation and no negative entry.  Each vector-matrix product is
    written out entry by entry, so a point's value does not depend on the
    other points in the call.  A point reads alpha at x <= 0, 0 at +inf
    and NaN at NaN.
    """
    m = alpha.size
    c = float(np.max(-np.diag(S)))
    A = S + c * np.eye(m)
    h = 1.0 / (2.0 * np.abs(S).sum(axis=1).max())  # ||A r|| <= c h <= 1/2

    def times(p, M):
        # p @ M for every column of p
        out = M[0][:, None] * p[0]
        for i in range(1, m):
            out += M[i][:, None] * p[i]
        return out

    def taylor(p, r):
        acc = p  # Horner form of p e^{Ar}, then the shift back
        for j in range(_TAYLOR_TERMS, 0, -1):
            acc = p + times(acc, A) * (r / j)
        return acc * np.exp(-c * r)

    E = taylor(np.eye(m), h).T  # taylor puts row i of e^{Sh} in column i

    def occupancy(x):
        x = np.asarray(x, dtype=float).reshape(-1)
        # k stays in int64; every law has underflowed long before 2^62 steps
        t = np.clip(x, 0.0, h * 2.0 ** 62)
        k, r = np.divmod(np.where(np.isnan(t), 0.0, t), h)
        k = k.astype(np.int64)
        p = np.repeat(alpha[:, None], x.size, axis=1)
        power = E
        for b in range(int(k.max(initial=0)).bit_length()):
            p = np.where((k >> b) & 1 == 1, times(p, power), p)
            power = power @ power
        p = taylor(p, r)
        p[:, x == np.inf] = 0.0
        p[:, np.isnan(x)] = np.nan
        return p

    return occupancy


def _draw_phases(rng, occ, idle):
    """One phase per column of occ (an (m, n) occupancy), with probability
    proportional to the column, and idle for a column with no mass.  This
    is Generator.choice's arithmetic (cumsum of p, divided by its last
    entry, the count of entries <= a uniform) with one rng.random draw per
    live column, so it draws what a per-point rng.choice loop draws."""
    phase = np.full(occ.shape[1], idle)
    tot = occ.sum(axis=0)
    live = tot > 0
    cdf = np.cumsum(occ[:, live] / tot[live], axis=0)
    cdf /= cdf[-1]
    phase[live] = np.sum(cdf <= rng.random(cdf.shape[1]), axis=0)
    return phase


def _make_phasetype(params, normalize):
    alpha = np.asarray(params.pop("alpha", (0.5, 0.5)), dtype=float)
    S = np.asarray(params.pop("S", ((-2.0, 0.0), (0.0, -0.5))), dtype=float)
    if alpha.ndim != 1 or S.shape != (alpha.size, alpha.size):
        raise ServiceSpecError("phase-type needs alpha (m,) and S (m, m)")
    if abs(alpha.sum() - 1.0) > 1e-12 or np.any(alpha < 0):
        raise ServiceSpecError("phase-type alpha must be a probability vector")
    if np.any(np.diag(S) >= 0) or np.any(S - np.diag(np.diag(S)) < 0):
        raise ServiceSpecError("phase-type S must be a subgenerator")
    ones = np.ones(alpha.size)
    raw_mean = float(-alpha @ np.linalg.solve(S, ones))
    if not np.isfinite(raw_mean) or raw_mean <= 0:
        raise ServiceSpecError("phase-type mean is not finite and positive")
    if normalize:
        S = S * raw_mean
    exit_rates = (-S @ ones)[:, None]  # a column: it weights occupancy rows
    mean = float(-alpha @ np.linalg.solve(S, ones))
    occupancy = _phase_occupancy(alpha, S)

    # _scaled_law's edge conventions: sf 1 for x <= 0, density and hazard 0
    # below 0; +inf reads occupancy 0, NaN reads NaN (hazard 0)
    def sf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 1.0, occupancy(x).sum(axis=0).reshape(x.shape))

    def cdf(x):
        return 1.0 - sf(x)

    def density(x):
        x = np.asarray(x, dtype=float)
        g = np.sum(exit_rates * occupancy(x), axis=0)
        return np.where(x < 0.0, 0.0, g.reshape(x.shape))

    def hazard(x):
        x = np.asarray(x, dtype=float)
        p = occupancy(x)
        h = dead_mass_ratio(np.sum(exit_rates * p, axis=0), p.sum(axis=0))
        return np.where(x < 0.0, 0.0, h.reshape(x.shape))

    rates = -np.diag(S)
    jump = S - np.diag(np.diag(S))
    with np.errstate(invalid="ignore"):
        probs = jump / rates[:, None]

    def _simulate_from(rng, phase0):
        # one CTMC passage time per entry of phase0
        out = np.zeros(phase0.shape, dtype=float)
        active = phase0.copy()
        alive = active >= 0
        while np.any(alive):
            idx = active[alive]
            out[alive] += rng.exponential(1.0 / rates[idx])
            u = rng.uniform(size=idx.size)
            nxt = np.full(idx.size, -1)
            cum = np.zeros(idx.size)
            for j in range(alpha.size):
                p = probs[idx, j]
                take = (u >= cum) & (u < cum + p)
                nxt[take] = j
                cum += p
            active[alive] = nxt
            alive = active >= 0
        return out

    def sampler(rng, size=None):
        n = int(np.prod(size)) if size is not None else 1
        phase0 = rng.choice(alpha.size, size=n, p=alpha)
        out = _simulate_from(rng, phase0)
        if size is None:
            return float(out[0])
        return out.reshape(size)

    def conditional(rng, ages):
        # phase occupancy at the attained age, then resume the chain
        ages = np.asarray(ages, dtype=float)
        flat = ages.reshape(-1)
        phase0 = _draw_phases(rng, occupancy(flat), int(np.argmax(alpha)))
        resid = _simulate_from(rng, phase0)
        return (flat + resid).reshape(ages.shape)

    return ServiceDistribution(
        name=f"phasetype(m={alpha.size})", cdf=cdf, density=density,
        hazard=hazard, support_end=np.inf, mean=mean, sampler=sampler,
        sf=sf, conditional=conditional,
    )


def _make_piecewise(params, normalize):
    # piecewise-constant density on [0, L); the one bounded-support family
    breaks = np.asarray(params.pop("breaks", (0.0, 1.0, 2.0)), dtype=float)
    values = np.asarray(params.pop("values", (0.75, 0.25)), dtype=float)
    if breaks.ndim != 1 or breaks.size < 2 or np.any(np.diff(breaks) <= 0) or breaks[0] != 0.0:
        raise ServiceSpecError("piecewise breaks must increase from 0")
    if values.size != breaks.size - 1 or np.any(values < 0):
        raise ServiceSpecError("piecewise needs one nonnegative density value per cell")
    widths = np.diff(breaks)
    total = float(values @ widths)
    if total <= 0:
        raise ServiceSpecError("piecewise density has zero mass")
    values = values / total
    raw_mean = float(values @ ((breaks[1:] ** 2 - breaks[:-1] ** 2) / 2.0))
    if normalize:
        breaks = breaks / raw_mean
        values = values * raw_mean
    L = float(breaks[-1])
    mean = float(values @ ((breaks[1:] ** 2 - breaks[:-1] ** 2) / 2.0))
    cum = np.concatenate([[0.0], np.cumsum(values * np.diff(breaks))])
    cum[-1] = 1.0

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, breaks, cum, left=0.0, right=1.0)

    def sf(x):
        return 1.0 - cdf(x)

    def density(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, values.size - 1)
        out = np.where((x >= 0.0) & (x < L), values[idx], 0.0)
        return out.reshape(np.shape(x)) if np.ndim(x) else out

    def ppf(q):
        q = np.asarray(q, dtype=float)
        return np.interp(q, cum, breaks)

    def sampler(rng, size=None):
        return ppf(rng.uniform(size=size))

    def conditional(rng, ages):
        ages = np.asarray(ages, dtype=float)
        u = rng.uniform(size=ages.shape)
        v = ppf(1.0 - u * sf(ages))
        return np.maximum(v, ages)

    return ServiceDistribution(
        name=f"piecewise(L={L:g})", cdf=cdf, density=density,
        hazard=_hazard_from(density, sf),
        support_end=L, mean=mean, sampler=sampler, sf=sf, conditional=conditional,
    )


_FAMILIES = {
    "exponential": _make_exponential,
    "lognormal": _make_lognormal,
    "weibull": _make_weibull,
    "gamma": _make_gamma,
    "pareto": _make_pareto,
    "logistic": _make_logistic,
    "phasetype": _make_phasetype,
    "piecewise": _make_piecewise,
}


def make_service_dist(spec=None, /, normalize=True, **params):
    """Build a ServiceDistribution from a family name or a spec mapping.

    Accepts make_service_dist("lognormal", sigma=0.5) or the config form
    make_service_dist({"family": "lognormal", "sigma": 0.5}).  With
    normalize=True (default) a scale parameter (rate, mu or scale) is chosen
    so the mean is 1, and giving that key as well is an error.  An unknown
    family, a key the family does not take, or a value out of range or not
    a number raises ServiceSpecError.  The law records the spec it was built
    from (family, normalize and keys) and pickles as that spec.
    """
    if isinstance(spec, dict):
        params = {**spec, **params}
        family = params.pop("family", None)
        normalize = params.pop("normalize", normalize)
    else:
        family = spec
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ServiceSpecError(f"unsupported service family: {family!r}")
    recorded = {"family": family, "normalize": normalize, **params}
    try:
        dist = _FAMILIES[family](params, normalize)  # pops the keys it takes
    except ServiceSpecError:
        raise
    except (TypeError, ValueError) as e:  # a value the builder cannot read
        raise ServiceSpecError(f"{family}: {e}") from None
    if params:
        raise ServiceSpecError(f"{family} takes no parameter(s) {sorted(params)}")
    if normalize and abs(dist.mean - 1.0) > _MEAN_TOL:
        raise ValueError(f"{family}: normalization failed, mean={dist.mean}")
    return replace(dist, spec=recorded)


def renewal_function(dist, T, dt):
    """Renewal function U on uniform_grid(T, dt).

    Solves U(t) = 1 + int_0^t g(t-s) U(s) ds by trapezoidal Volterra
    stepping; U(0) = 1 and U is nondecreasing.  First-order accurate
    (the density may be nonsmooth at 0).  The density comes from
    grid_density, so a shape<1 law stays finite at 0.
    """
    g = dist.grid_density(uniform_grid(T, dt), dt)
    U = np.ones(g.size)
    denom = 1.0 - dt * g[0] / 2.0
    if denom <= 0:
        raise ValueError("dt too large for this density at 0")
    for k in range(1, g.size):
        acc = 0.5 * g[k] * U[0] + float(g[k - 1:0:-1] @ U[1:k])
        U[k] = (1.0 + dt * acc) / denom
    return np.maximum.accumulate(U)


@dataclass(frozen=True)
class HolderReport:
    """Fitted survival-ratio Holder bound on a grid."""

    C_G: float
    gamma_G: float
    grid_used: dict

    def as_dict(self):
        return {"C_G": self.C_G, "gamma_G": self.gamma_G,
                "grid_used": self.grid_used}


def _holder_ratios(dist, x_grid, y_grid, gamma):
    x = np.asarray(x_grid, dtype=float)[:, None, None]
    y = np.asarray(y_grid, dtype=float)
    Y, Yp = np.meshgrid(y, y, indexing="ij")
    gap = np.abs(Y - Yp)[None]
    num = np.abs(dist.cdf(x + Y[None]) - dist.cdf(x + Yp[None]))
    den = dist.sf(x[:, 0, 0])[:, None, None] * gap ** gamma
    ok = (gap > 0) & (den > 0)
    return num[ok] / den[ok]


def _density_explodes(dist, z_lo, z_hi):
    # probe two depths near the low end of the touched range: a density
    # unbounded at 0 (shape < 1 laws) keeps growing as the probe descends,
    # a bounded one flattens out.  Decay toward z_hi is irrelevant.
    z1 = max(z_lo, 1e-12)
    z2 = min(z1 * 100.0, z_hi)
    if z2 <= z1:
        return False
    g1 = float(np.atleast_1d(dist.density(np.array([z1])))[0])
    g2 = float(np.atleast_1d(dist.density(np.array([z2])))[0])
    if not np.isfinite(g1):
        return True
    gmid = float(np.atleast_1d(dist.density(np.array([(z_lo + z_hi) / 2.0])))[0])
    return g1 > 1.5 * g2 and g1 > 2.0 * max(gmid, 1e-300)


def holder_check(dist, x_grid, y_grid):
    """Fit the smallest grid constant for the survival-ratio Holder bound.

    Exponent search is restricted to {1, 1/2}.  gamma=1 is reported (its
    constant is sup g / survival on the touched range) unless the density
    blows up at the low end of that range, where no finite Lipschitz
    constant survives grid refinement; then 1/2 is reported.
    """
    x = np.asarray(x_grid, dtype=float)
    y = np.asarray(y_grid, dtype=float)
    grid_used = {"x": [float(x.min()), float(x.max()), int(x.size)],
                 "y": [float(y.min()), float(y.max()), int(y.size)]}
    z_lo = float(x.min() + y.min())
    z_hi = float(x.max() + y.max())
    gamma = 0.5 if _density_explodes(dist, z_lo, z_hi) else 1.0
    return HolderReport(float(_holder_ratios(dist, x, y, gamma).max()), gamma,
                        grid_used)


def phi_op(dist, f, t):
    """x -> f(x+t) (1-G(x+t))/(1-G(x)); 0 wherever G(x) = 1."""
    if t < 0:
        raise ValueError("t must be nonnegative")

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(f(x + t), dtype=float) * dist.survival_ratio(x, t)

    return phi


def psi_op(dist, f, t):
    """(x, s) -> f(x + (t-s)^+) (1-G(x + (t-s)^+))/(1-G(x))."""
    if t < 0:
        raise ValueError("t must be nonnegative")

    def psi(x, s):
        x = np.asarray(x, dtype=float)
        lag = np.maximum(t - np.asarray(s, dtype=float), 0.0)
        return np.asarray(f(x + lag), dtype=float) * dist.survival_ratio(x, lag)

    return psi


def as_rate(spec):
    """Turn a config rate spec into a callable of t.

    Accepted forms: a real number (numpy scalars too, never a bool), a
    callable, {"const": c},
    {"affine": [a, b]} meaning a + b t, or
    {"pwlin": {"t": [...], "v": [...]}} (linear interpolation, clamped;
    t strictly increasing, one v per t, else ValueError).
    """
    if callable(spec):
        return spec
    if isinstance(spec, numbers.Real) and not isinstance(spec, bool):
        c = float(spec)
        return lambda t: np.full_like(np.asarray(t, dtype=float), c, dtype=float)
    if isinstance(spec, dict):
        if "const" in spec:
            c = float(spec["const"])
            return lambda t: np.full_like(np.asarray(t, dtype=float), c, dtype=float)
        if "affine" in spec:
            a, b = (float(v) for v in spec["affine"])
            return lambda t: a + b * np.asarray(t, dtype=float)
        if "pwlin" in spec:
            tt = np.asarray(spec["pwlin"]["t"], dtype=float)
            vv = np.asarray(spec["pwlin"]["v"], dtype=float)
            if tt.ndim != 1 or tt.shape != vv.shape:
                raise ValueError(f"t and v differ in length ({tt.size} and {vv.size})")
            if not np.all(np.diff(tt) > 0.0):
                raise ValueError(f"t must be strictly increasing, got {tt.tolist()}")
            return lambda t: np.interp(np.asarray(t, dtype=float), tt, vv)
    raise ValueError(f"unrecognized rate spec: {spec!r}")


@dataclass(frozen=True)
class ArrivalSpec:
    """Arrival stream E^N at rate lambda_bar(t) N - beta(t) sqrt(N) (the
    square-root staffing regime), drawn by times(N, T, rng).

    kind "renewal": i.i.d. interarrivals with mean 1/rate_N and variance
    (sigma2/lambda_bar)/rate_N^2, realized as a gamma law (shape
    lambda_bar/sigma2); sigma2 = lambda_bar recovers the Poisson stream;
    lambda_bar, beta and sigma2 are numbers, kept as floats.  kind
    "inhom_poisson": sampled by thinning; lambda_bar and beta may be
    numbers or rate specs understood by as_rate, and sigma2 is refused (the
    diffusion coefficient is sqrt(lambda_bar)).  A non-finite number in any
    field is a ValueError naming it; a callable rate is checked where sampled.
    """

    kind: str
    lambda_bar: object = 1.0
    beta: object = 0.0
    sigma2: float = None

    def __post_init__(self):
        if self.kind not in ("renewal", "inhom_poisson"):
            raise ValueError(f"unknown arrival kind: {self.kind!r}")
        if self.kind == "inhom_poisson" and self.sigma2 is not None:
            raise ValueError("sigma2: inhom_poisson arrivals take none")
        if self.kind == "renewal":
            lb = float(self.lambda_bar)
            s2 = lb if self.sigma2 is None else float(self.sigma2)
            if not (0 < lb < math.inf and 0 < s2 < math.inf):
                raise ValueError("renewal arrivals need finite lambda_bar, sigma2 > 0")
            for name, value in (("lambda_bar", lb), ("beta", float(self.beta)),
                                ("sigma2", s2)):
                object.__setattr__(self, name, value)
        try:  # every number in a field and its rate spec; callables are sampled
            check_finite(vars(self), "")
        except ValueError as e:
            raise ValueError(f"{e}, so the arrival rate is not admissible") from None

    def rate_fn(self, N):
        """t -> lambda^(N)(t)."""
        rootN = math.sqrt(N)
        lb = as_rate(self.lambda_bar)
        bt = as_rate(self.beta)
        return lambda t: lb(t) * N - bt(t) * rootN

    def diffusion_coeffs(self):
        """(sigma(t), beta(t)) callables for the centered-arrival diffusion."""
        bt = as_rate(self.beta)
        if self.kind == "renewal":
            return as_rate(math.sqrt(self.sigma2)), bt
        lb = as_rate(self.lambda_bar)
        return (lambda t: np.sqrt(lb(t)), bt)

    def checked_rate(self, T, N=None):
        """(rate, bound): rate_fn(N), or lambda_bar alone for N None (the fluid
        limit's rate), and its largest value on [0, T].  ValueError unless it
        is finite, and positive (renewal) or nonnegative (inhom_poisson) at
        2049 even points and every pwlin knot in [0, T]: exact for config
        rates, linear between knots; a callable is only sampled."""
        check_finite(T, "T")
        rate = as_rate(self.lambda_bar) if N is None else self.rate_fn(N)
        if self.kind == "renewal":
            bound = float(rate(0.0))
            admissible = 0.0 < bound < math.inf
        else:
            knots = [spec["pwlin"]["t"] for spec in (self.lambda_bar, self.beta)
                     if isinstance(spec, dict) and "pwlin" in spec]
            probe = np.concatenate([np.linspace(0.0, T, 2049), *knots])
            probe = np.asarray(rate(probe[(probe >= 0.0) & (probe <= T)]))
            admissible = np.all((probe >= 0.0) & (probe < np.inf))
            bound = float(np.max(probe))
        if not admissible:
            scale = "the fluid limit" if N is None else f"N={N}"
            raise ValueError(f"arrival rate not admissible for {scale} on [0,{T}]")
        return rate, bound

    def times(self, N, T, rng):
        """Arrival times in (0, T], in order, at the rate checked_rate(T, N)."""
        rate, bound = self.checked_rate(T, N)
        if self.kind == "renewal":
            # numpy's gamma at shape 1 is its exponential draw (the Poisson
            # stream); a cumsum over [t, *gaps] adds the gaps one at a time,
            # as t += dt would, and the stream ends at the first time past T
            shape = self.lambda_bar / self.sigma2
            scale = self.sigma2 / (self.lambda_bar * bound)
            t, blocks = 0.0, []
            while True:
                gaps = rng.gamma(shape, scale, size=256)
                times = np.cumsum(np.concatenate([[t], gaps]))[1:]
                cut = int(np.searchsorted(times, T, side="right"))
                blocks.append(times[:cut])
                if cut < times.size:
                    return np.concatenate(blocks)
                t = times[-1]
        # a callable rate above the bound between probe points is refused,
        # not under-sampled; exponential and uniform draws interleave on
        # one stream, so candidates go one by one
        M = bound * (1.0 + 1e-9)
        if M <= 0:
            return np.zeros(0)
        times, t = [], 0.0
        while True:
            t += rng.exponential(1.0 / M)
            if t > T:
                return np.array(times, dtype=float)
            lam = float(np.atleast_1d(rate(np.array([t])))[0])
            if lam > M:
                raise ValueError(f"arrival rate {lam} at t={t} exceeds the "
                                 f"thinning bound {M} taken from 2049 probe points")
            if rng.uniform() * M <= lam:
                times.append(t)
