"""Independent renewal-function values via truncated convolution series.

U(t) = sum_{n>=0} Gn(t) where Gn is the n-fold Stieltjes convolution of G
(G0 = 1 for t >= 0).  Computed here three ways that never touch the package:

1. exponential(1): Gn = Erlang(n, 1) cdf, so U(t) = 1 + t in closed form.
2. Gamma(shape 2, mean 1): Gn = Gamma(2n, scale 1/2) cdf; series truncated
   when the tail term drops below 1e-12.  Cross-checked against the closed
   form U(t) = 3/4 + t + exp(-4t)/4 (standard Erlang-2 renewal density
   integrated: u(t) = 1 + (1 - exp(-4t))... derived below numerically, not
   assumed).
3. A brute-force grid convolution of an arbitrary density, used to make sure
   route 2's analytic shortcut was not fooling itself.

Run:  python tests/oracles/renewal_series_oracle.py
"""
import numpy as np
from scipy import stats


def series_gamma2(t, nmax=200):
    # Gamma(2, mean 1) == Gamma(shape=2, scale=0.5); n-fold convolution is
    # Gamma(shape=2n, scale=0.5)
    total = 1.0  # n = 0 term
    for n in range(1, nmax + 1):
        term = stats.gamma.cdf(t, a=2 * n, scale=0.5)
        total += term
        if term < 1e-14:
            break
    return total


def series_grid(density, t, dt=1e-4, nmax=400):
    # grid convolution of the density with itself, accumulating cdfs
    x = np.arange(0, t + dt, dt)
    g = density(x)
    conv = g.copy()
    total = 1.0
    while nmax:
        cdf = np.trapezoid(conv[: len(x)], dx=dt)
        total += cdf
        if cdf < 1e-10:
            break
        conv = np.convolve(conv, g)[: len(x)] * dt
        nmax -= 1
    return total


def closed_gamma2(t):
    return 0.75 + t + 0.25 * np.exp(-4.0 * t)


if __name__ == "__main__":
    print("exponential closed form: U(1) =", 1.0 + 1.0)
    for t in (0.5, 1.0, 2.0):
        s = series_gamma2(t)
        c = closed_gamma2(t)
        b = series_grid(lambda x: stats.gamma.pdf(x, a=2, scale=0.5), t)
        print(f"Gamma(2) U({t}): series={s:.10f} closed={c:.10f} grid={b:.8f}")
    # frozen values for tests
    print("FROZEN U_gamma2(2.0) =", repr(series_gamma2(2.0)))
    print("FROZEN U_exp(1.0)    =", 2.0)
