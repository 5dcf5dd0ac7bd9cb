"""What the second-order limit sampler guarantees, path by path.

Draws Gaussian limit paths in each load regime and checks, on every
single path, the structural identities the sampler is built around:
the headcount representation (machine precision), the regime boundary
bookkeeping, and the weak age-balance residual (first order in dt,
exactly zero with the noise switched off).

    python3 demos/limit_identities.py
"""
import numpy as np

from queuelab.dists import ArrivalSpec, make_service_dist
from queuelab.limitsim import (LimitGrid, LimitPlan, LimitSpec,
                               rep_hatx_residual, run_limit, sae_residual,
                               sae_test_functions, smg_bookkeeping_residual)


def one_regime(label, lambda_bar, x0, mass, dt):
    # lambda_bar is the arrival rate and the fluid path's input in one
    spec = LimitSpec(
        dist=make_service_dist("exponential"),
        arrival=ArrivalSpec("renewal", lambda_bar=lambda_bar, beta=0.5, sigma2=1.0),
        grid=LimitGrid(T=1.0, dt=dt, dx=0.05),
        x0=x0, nu0={"invariant": mass} if mass else None,
        seed=3)
    run = run_limit(LimitPlan.for_spec(spec))
    rep = rep_hatx_residual(run)
    smg = smg_bookkeeping_residual(run)
    print(f"  {label:<14} regime={run.regime:<13} "
          f"representation {rep:.2e}   bookkeeping {smg:.2e}")
    return run


def main():
    print("per-path identities on freshly sampled limit paths "
          "(exponential service):\n")
    one_regime("under-loaded", 0.6, 0.4, 0.4, 0.01)
    crit = one_regime("critical", 1.0, 1.0, 1.0, 0.01)
    one_regime("over-loaded", 1.4, 1.3, 1.0, 0.01)

    print("\nweak age-balance residual on the critical path, "
          "f(x) = exp(-x):")
    exp_decay = sae_test_functions(make_service_dist("exponential"), {
        "exp_decay": (lambda x: np.exp(-x), lambda x: -np.exp(-x))})
    for dt in [0.04, 0.02, 0.01]:
        plan = LimitPlan.for_spec(LimitSpec(
            dist=make_service_dist("exponential"),
            arrival=ArrivalSpec("renewal", 1.0, beta=0.5, sigma2=1.0),
            grid=LimitGrid(T=1.0, dt=dt, dx=0.1), nu0={"invariant": 1.0},
            seed=5, test_functions=exp_decay))
        runs = [abs(sae_residual(run_limit(plan, r), "exp_decay"))
                for r in range(16)]
        print(f"  dt={dt:<6} mean |residual| = {np.mean(runs):.5f}")
    print("  (halving dt roughly halves the residual: first-order balance)")

    off = run_limit(LimitPlan.for_spec(LimitSpec(
        dist=make_service_dist("exponential"),
        arrival=ArrivalSpec("renewal", 1.0, beta=0.0, sigma2=1.0),
        grid=LimitGrid(T=1.0, dt=0.01, dx=0.1), nu0={"invariant": 1.0},
        noise_off=True, test_functions=exp_decay)))
    res = sae_residual(off, "exp_decay")
    print(f"\nnoise off, zero inputs: residual = {res} (exactly zero; the "
          "discretization itself is balanced)")
    assert res == 0.0


if __name__ == "__main__":
    main()
