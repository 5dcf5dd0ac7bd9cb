"""One system seen at three scales: events, fluid, diffusion.

Simulates an M/M/N system near critical load for growing N, overlays
the scaled headcount on the fluid solution, and compares the remaining
root-N fluctuation to (a) sampled second-order limit paths and (b) the
one-dimensional reflected-drift SDE they collapse to for memoryless
service.  Prints a quantile table instead of drawing plots.

    python3 demos/scales_side_by_side.py          # ~15 s
"""
import numpy as np

from queuelab.dists import ArrivalSpec, make_service_dist
from queuelab.limitsim import LimitGrid, LimitPlan, LimitSpec, run_limit, simulate_hw
from queuelab.microsim import InitialCondition, SimConfig, simulate
from queuelab.scalestats import counter_profile, diffusion_scale, ks_distance

BETA = 1.0
T = 2.0
REPS = 400


def scaled_samples(N, reps, seed):
    dist = make_service_dist("exponential")
    arr = ArrivalSpec("renewal", lambda_bar=1.0, beta=BETA, sigma2=1.0)
    out = np.empty(reps)
    sup_err = np.empty(reps)
    for r in range(reps):
        path = simulate(SimConfig(
            N=N, arrival=arr, service=dist, T=T,
            initial=InitialCondition(x0=N, ages="invariant"),
            seed=seed, replicate=r))
        grid = np.linspace(0.0, T, 41)
        out[r] = diffusion_scale(path, 1.0, N, np.array([T]))[0]
        sup_err[r] = np.max(np.abs(counter_profile(path, grid)["X"] / N - 1.0))
    return out, sup_err


def main():
    print(f"M/M/N at arrival rate N - {BETA} sqrt(N), invariant full start, "
          f"T={T}, {REPS} replicates per N\n")

    print("fluid scale: sup |X/N - 1| shrinks like 1/sqrt(N)")
    samples = {}
    for N in [25, 100, 400]:
        s, sup_err = scaled_samples(N, REPS, seed=7)
        samples[N] = s
        print(f"  N={N:>4}  mean sup error {sup_err.mean():.4f}   "
              f"sqrt(N) * mean = {np.sqrt(N) * sup_err.mean():.3f}")

    rng = np.random.default_rng(11)
    hw = simulate_hw(T=T, dt=2.5e-3, beta=BETA, sigma2=1.0, x0=0.0,
                     n_paths=200_000, rng=rng, record_times=(T,))[T]

    plan = LimitPlan.for_spec(LimitSpec(
        dist=make_service_dist("exponential"),
        arrival=ArrivalSpec("renewal", 1.0, beta=BETA, sigma2=1.0),
        grid=LimitGrid(T=T, dt=0.01, dx=0.05), x0=1.0, nu0={"invariant": 1.0},
        seed=13))
    spec_rng = np.array([run_limit(plan, r).Xhat[-1] for r in range(REPS)])

    print(f"\ndiffusion scale at t={T}: quantiles of sqrt(N)(X/N - 1)")
    qs = [0.1, 0.25, 0.5, 0.75, 0.9]
    head = "".join(f"  q{int(100 * q):<4}" for q in qs)
    print(f"  {'source':<28}{head}")
    for label, s in [("events, N=400", samples[400]),
                     ("measure-valued limit", spec_rng),
                     ("reflected-drift SDE", hw)]:
        row = "".join(f"  {np.quantile(s, q):+.2f}" for q in qs)
        print(f"  {label:<28}{row}")

    d1 = ks_distance(samples[400], hw)
    d2 = ks_distance(spec_rng, hw)
    print(f"\n  KS(events N=400, SDE)      = {d1:.3f}")
    print(f"  KS(limit sampler, SDE)     = {d2:.3f}")
    print("  both distances sit at the Monte Carlo noise floor for these "
          "sample sizes")


if __name__ == "__main__":
    main()
