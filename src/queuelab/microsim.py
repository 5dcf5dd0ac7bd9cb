"""Exact simulator for the FCFS N-server age-tracking queue.

The state is (arrivals so far, headcount, the multiset of in-service ages).
With FCFS and identical servers it follows from one recursion over
customers (Kiefer & Wolfowitz 1955): customer k starts at
s_k = max(a_k, earliest time a server frees) and leaves S_k later, one
replacement per customer on a heap of the servers' free times, held as
plain floats.  The loop records only s_k; the end times s_k + S_k are the
same sums taken again as one array.  A path keeps the arrival times, the
spans and the departure order (a stable sort of the end times by T).
E(t), D(t) and K(t) are searchsorted counts of arrivals, departures and
starts at or before t, X = x0 + E - D and B = b0 + K - D.  The row-ordered
event log is built from these by one more sort and cumulative sums, once,
for its readers (sim run's CSV, conservation_check).  Three tie rules fix
its row order:

    at equal times, departures come before arrivals
    equal-time departures come in customer-id order
    a service start directly follows the row that triggers it (its own
    arrival, or the departure that freed its server), and both rows carry
    the post-transition counters

No time discretization enters the path itself, so the counting identities

    D(t) = X(0) - X(t) + E(t)
    K(t) = B(t) - B(0) + D(t)          B = number in service
    N - B(t) = (N - X(t))^+
    K(t) = X(t)^N - X(0)^N + D(t)      x^N meaning min(x, N)
    every departure event moves D by exactly 1

hold to the last bit, and the tests demand exactly that.  The departure
compensator is exact too: per span, an increment of -log(1-G).  Quadrature
enters only through the restart check (whose s = 0 case is the transport
representation), first-order in its dt.

Randomness is split into independent child streams (arrivals, services,
initial data) of SeedSequence(seed, spawn_key=(replicate,)), so a
(seed, replicate) pair pins the whole path.  The arrival stream is the
spec's own (config.arrival.times(N, T, rng), which also checks its rate),
drawn first.  Service durations are drawn in blocks of 256 and used in
start order, one sampler call per 256 starts.  Invariant initial ages
invert a table the law builds once (age_table).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .dists import (GRID_RTOL, ArrivalSpec, ServiceDistribution,
                    check_finite, phi_op, psi_op, uniform_grid)

__all__ = [
    "ARRIVAL",
    "DEPARTURE",
    "SERVICE_START",
    "KIND_NAMES",
    "InitialCondition",
    "SimConfig",
    "PathRecord",
    "simulate",
    "invariant_ages",
    "conservation_check",
    "eval_age_functional",
    "compensator",
    "shift_consistency_check",
]

ARRIVAL, DEPARTURE, SERVICE_START = 0, 1, 2
KIND_NAMES = {ARRIVAL: "arrival", DEPARTURE: "departure", SERVICE_START: "service_start"}
_LOG_COLUMNS = ("ev_time", "ev_kind", "ev_id", "ev_age", "E", "D", "K", "X", "B")


@dataclass(frozen=True)
class InitialCondition:
    """Time-0 population: x0 customers, ages for the min(x0, N) in service.

    ages: explicit array, "invariant" (sampled from the stationary age
    density 1-G), or None meaning all ages 0.  Each of them is in service
    for a duration ~ G given it exceeds its age.
    """

    x0: int = 0
    ages: object = None

    def __post_init__(self):
        if self.x0 < 0:
            raise ValueError("x0 must be nonnegative")

    def explicit_ages(self, n):
        """An explicit ages list as an array, refused (ValueError naming
        ages) unless it holds n nonnegative ages, n = 0 too; None when
        ages is None or "invariant"."""
        if self.ages is None or isinstance(self.ages, str):
            return None
        ages = np.asarray(self.ages, dtype=float)
        if ages.size != n or np.any(ages < 0):
            raise ValueError(f"ages: need {n} nonnegative ages, got {ages.size}")
        return ages

    def draw_ages(self, n, dist, rng):
        ages = self.explicit_ages(n)
        if ages is not None:
            return ages
        if n == 0:
            return np.zeros(0)
        if self.ages is None:
            return np.zeros(n)
        if self.ages != "invariant":
            raise ValueError(f"unknown ages spec: {self.ages!r}")
        return invariant_ages(dist, n, rng)


@dataclass(frozen=True)
class SimConfig:
    N: int
    arrival: ArrivalSpec
    service: ServiceDistribution
    T: float
    initial: InitialCondition = field(default_factory=InitialCondition)
    seed: int = 0
    replicate: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        check_finite(self.T, "T")
        if self.T <= 0:
            raise ValueError("T must be positive")


@dataclass
class PathRecord:
    """One simulated path: arrival times in (0, T], spans by customer id
    (the b0 = min(x0, N) in service at 0 first) and the departure order
    (who leaves by T, by time, then id).  A span has theta (effective
    start, negative for an initial age), begin = max(theta, 0), end (+inf
    if in service at T) and fresh (a start, which K counts).  counts() reads
    the counters; the event log's columns (_LOG_COLUMNS) build on first read.
    """

    N: int
    T: float
    x0: int
    seed: int
    replicate: int
    initial_ages: np.ndarray
    arrivals: np.ndarray
    span_theta: np.ndarray
    span_begin: np.ndarray
    span_end: np.ndarray
    span_fresh: np.ndarray
    dep_order: np.ndarray

    def __getattr__(self, name):
        if name not in _LOG_COLUMNS:
            raise AttributeError(f"'PathRecord' object has no attribute {name!r}")
        self.__dict__.update(_event_log(self))
        return self.__dict__[name]

    @property
    def b0(self):
        return min(self.x0, self.N)

    @property
    def dep_time(self):  # dep_time and dep_age in departure order
        return self.span_end[self.dep_order]

    @property
    def dep_age(self):
        return self.dep_time - self.span_theta[self.dep_order]

    def counts(self, times):
        """(E, D, K, X, B) integer arrays at the times, right-continuous."""
        times = _on_path(self, times)
        E = np.searchsorted(self.arrivals, times, side="right")
        D = np.searchsorted(self.dep_time, times, side="right")
        K = np.searchsorted(self.span_begin[self.b0:], times, side="right")
        return E, D, K, self.x0 + E - D, self.b0 + K - D

    def counters_at(self, t):
        """(E, D, K, X, B) at time t, as ints."""
        return tuple(int(c) for c in self.counts(t))

    def ages_at(self, t):
        """Ages of everyone in service at time t (unordered)."""
        t = _on_path(self, t)
        alive = (self.span_begin <= t) & (t < self.span_end)
        return t - self.span_theta[alive]


def _on_path(path, times, nondecreasing=False):
    """times as floats; a ValueError unless all lie in [0, T] up to a
    grid's rounding (GRID_RTOL), since past T the path is unknown."""
    times = np.asarray(times, dtype=float)
    if not np.all((0 <= times) & (times <= path.T * (1 + GRID_RTOL))) or (
            nondecreasing and np.any(np.diff(times) < 0)):
        order = " nondecreasing" if nondecreasing else ""
        raise ValueError(f"times must be{order} in [0, T = {path.T}]")
    return times


def invariant_ages(dist, n, rng):
    """Sample n ages from the stationary age density (1 - G(x)) / mean."""
    x, cdf = dist.age_table  # built once per law
    return np.interp(rng.uniform(size=n), cdf, x)


def _start_times(ready, free, T, draw):
    """FCFS start times up to T by the Kiefer-Wolfowitz recursion.

    ready: when each waiting customer could first start, nondecreasing;
    free: the servers' free times, a list heapified in place.  Customer k
    starts at s = max(ready[k], min(free)) and that server frees at s plus
    k's service time.  Services come from draw() in blocks of 256, one
    call per 256 starts.  Returns the start times (a list) and the drawn
    blocks.
    """
    heapq.heapify(free)
    heapreplace = heapq.heapreplace
    start, blocks = [], []
    record = start.append
    # every ready time is at most T, so a start passes T only by waiting
    # for a server that frees after T; starts are nondecreasing, so then
    # nobody later starts by T either
    for i in range(0, ready.size, 256):
        if free[0] > T:
            break
        block = draw()
        blocks.append(block)
        for s, v in zip(ready[i:i + 256].tolist(), block.tolist()):
            f = free[0]
            if f > s:
                if f > T:
                    return start, blocks
                s = f
            heapreplace(free, s + v)
            record(s)
    return start, blocks


def simulate(config):
    """Run one path of the FCFS N-server queue by the start-time recursion."""
    N, T = config.N, float(config.T)
    dist = config.service
    ss = np.random.SeedSequence(config.seed, spawn_key=(config.replicate,))
    ss_arr, ss_svc, ss_init = ss.spawn(3)
    rng_arr = np.random.default_rng(ss_arr)
    rng_svc = np.random.default_rng(ss_svc)
    rng_init = np.random.default_rng(ss_init)
    # first, so an inadmissible rate is refused before any other work
    arrivals = config.arrival.times(N, T, rng_arr)

    x0 = config.initial.x0
    b0 = min(x0, N)
    ages0 = config.initial.draw_ages(b0, dist, rng_init)
    remaining0 = np.zeros(0)
    if b0 > 0:
        remaining0 = np.asarray(dist.conditional(rng_init, ages0)) - ages0
        remaining0 = np.maximum(remaining0, 0.0)

    # customer k: in service at 0 (k < b0), waiting at 0 (k < x0), or the
    # (k - x0)-th arrival; ready[k - b0] is when k could first start
    ready = np.concatenate([np.full(x0 - b0, -np.inf), arrivals])
    start, blocks = _start_times(
        ready, remaining0.tolist() + [0.0] * (N - b0), T,
        lambda: np.asarray(dist.sampler(rng_svc, size=256), dtype=float))
    m = len(start)
    st_t = np.asarray(start, dtype=float)
    st_end = st_t + np.concatenate([np.zeros(0), *blocks])[:m]  # the loop's sums

    end = np.concatenate([remaining0, st_end])  # departure time of customer k
    done = end <= T
    dep = np.flatnonzero(done)
    return PathRecord(
        N=N, T=T, x0=x0, seed=config.seed, replicate=config.replicate,
        initial_ages=ages0, arrivals=arrivals,
        span_theta=np.concatenate([-ages0, st_t]),
        span_begin=np.concatenate([np.zeros(b0), st_t]),
        span_end=np.where(done, end, np.inf),
        span_fresh=np.arange(b0 + m) >= b0,
        dep_order=dep[np.argsort(end[dep], kind="stable")],
    )


def _event_log(path):
    """The event log's columns, rows in time order by the three tie rules."""
    x0, b0 = path.x0, path.b0
    arrivals, st_t = path.arrivals, path.span_begin[b0:]
    dep_id, dep_t = path.dep_order, path.dep_time
    n_arr, m = arrivals.size, st_t.size
    arr_id, st_id = np.arange(x0, x0 + n_arr), np.arange(b0, b0 + m)
    # who freed each start's server: the heap popped its (free time,
    # customer) pairs in sorted order, since each pushed (end_k, k) exceeds
    # the pair popped for k (end_k >= s_k >= that free time, and k beats
    # the popped customer on a tie).  So the idle servers, (0.0, -1), pop
    # first, then the customers in departure order (a popped customer
    # freed a start s_k <= T, so it left by T)
    freed_by = np.concatenate([np.full(path.N - b0, -1), dep_id])[:m]
    # a start that waited follows the departure that freed its server,
    # otherwise its own arrival; departures precede arrivals at equal times.
    # Rows sort by time, then by one integer packing (rank, customer, start
    # row last): departures and waited starts have rank 0, arrivals and
    # the starts they trigger rank 1
    waited = st_t > np.concatenate([np.full(x0 - b0, -np.inf), arrivals])[:m]
    t = np.concatenate([dep_t, arrivals, st_t])
    n_ids = x0 + n_arr + 1  # customer id + 1 lies in [0, n_ids)
    tie = 2 * np.concatenate([dep_id + 1, n_ids + arr_id + 1,
                              np.where(waited, freed_by + 1, n_ids + st_id + 1)])
    tie[dep_id.size + n_arr:] += 1
    order = np.lexsort((tie, t))
    ev_kind = np.repeat(np.array([DEPARTURE, ARRIVAL, SERVICE_START], dtype=np.int8),
                        [dep_id.size, n_arr, m])[order]
    # every row carries post-transition counters; K moves on the row that
    # triggers a start, so a start row repeats its trigger row's counters
    entry = np.zeros(ev_kind.size, dtype=np.int64)
    entry[:-1] = ev_kind[1:] == SERVICE_START
    E = np.cumsum(ev_kind == ARRIVAL, dtype=np.int64)
    D = np.cumsum(ev_kind == DEPARTURE, dtype=np.int64)
    K = np.cumsum(entry)
    ev_id = np.concatenate([dep_id, arr_id, st_id]).astype(np.int64)[order]
    ev_age = np.concatenate([path.dep_age, np.full(n_arr, np.nan), np.zeros(m)])[order]
    return dict(ev_time=t[order], ev_kind=ev_kind, ev_id=ev_id, ev_age=ev_age,
                E=E, D=D, K=K, X=x0 + E - D, B=b0 + K - D)


def conservation_check(path):
    """Max absolute violation of each exact counting identity on the path.

    All five are integer identities; anything nonzero is a simulator bug.
    """
    E, D, K, X, B = path.E, path.D, path.K, path.X, path.B
    x0, N, b0 = path.x0, path.N, path.b0
    # departure_steps is 0 when every departure moves D by exactly 1
    steps = np.diff(np.concatenate([[0], D[path.ev_kind == DEPARTURE]]))
    return {
        "departure_balance": int(np.max(np.abs(D - (x0 - X + E)), initial=0)),
        "entry_balance": int(np.max(np.abs(K - (B - b0 + D)), initial=0)),
        "non_idling": int(np.max(np.abs((N - B) - np.maximum(N - X, 0)), initial=0)),
        "entry_balance_capped": int(np.max(np.abs(
            K - (np.minimum(X, N) - min(x0, N) + D)), initial=0)),
        "departure_steps": int(np.max(np.abs(steps - 1), initial=0)),
    }


def eval_age_functional(path, f, t):
    """<f, nu_t>: sum of f over the ages in service at time t (exact)."""
    ages = path.ages_at(t)
    return float(np.sum(f(ages))) if ages.size else 0.0


def _live_pairs(path, nodes):
    """(node index, span index) for each span live at each of the
    nondecreasing nodes (begin <= node < end), span by span."""
    lo = np.searchsorted(nodes, path.span_begin)
    counts = np.maximum(np.searchsorted(nodes, path.span_end) - lo, 0)
    span = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts  # where each span's pairs start
    return np.arange(span.size) - np.repeat(first - lo, counts), span


def compensator(path, dist, times):
    """The departure compensator A(t) = int_0^t <h, nu_s> ds, exactly, at
    each of the nondecreasing times in [0, T], up to a grid's rounding.

    A span's age grows at unit rate, so it adds Lambda(a1) - Lambda(a0),
    Lambda = -log(1-G), from its age a0 at begin to a1 at min(t, end); a
    finished span adds all of it at its departure time.  A span with
    a1 <= a0 or 1-G(a0) = 0 adds exactly 0, the dead-mass convention.
    """
    times = _on_path(path, times, nondecreasing=True)
    theta, done, dep_t = path.span_theta, path.dep_order, path.dep_time
    k, live = _live_pairs(path, times)
    span = np.concatenate([done, live])
    a0 = path.span_begin - theta
    a1 = np.concatenate([dep_t, times[k]]) - theta[span]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam0 = -np.log(dist.sf(a0))[span]
        step = -np.log(dist.sf(a1)) - lam0
    step = np.where((a1 > a0[span]) & np.isfinite(lam0), step, 0.0)
    A = np.cumsum(np.concatenate([[0.0], step[:done.size]]))
    return (A[np.searchsorted(dep_t, times, side="right")]
            + np.bincount(k, weights=step[done.size:], minlength=times.size))


def shift_consistency_check(path, dist, f, s, t, dt):
    """Restart defect: rebuild <f, nu_{s+t}> from the state at time s.

    At s = 0 it is the transport representation defect of <f, nu_t>.
    Transports the exact age population at s forward by t, adds the kernel
    of fresh entries in (s, s+t], subtracts the centered departure term of
    that window (compensator by left-rule quadrature on [s, s+t]).  O(dt).
    """
    nodes = s + uniform_grid(t, dt, "t")[:-1]
    lhs = eval_age_functional(path, f, s + t)
    S = float(np.sum(phi_op(dist, f, t)(path.ages_at(s))))
    fresh = path.span_fresh & (path.span_begin > s) & (path.span_begin <= s + t)
    lag = s + t - path.span_begin[fresh]
    Kf = float(np.sum(np.asarray(f(lag)) * dist.sf(lag)))
    psi_tf = psi_op(dist, f, s + t)  # takes absolute time r, lag s + t - r
    take = (path.dep_time > s) & (path.dep_time <= s + t)
    Qpsi = float(np.sum(psi_tf(path.dep_age[take], path.dep_time[take])))
    k, span = _live_pairs(path, nodes)
    ages = nodes[k] - path.span_theta[span]
    with np.errstate(over="ignore"):
        A = float((dist.hazard(ages) * psi_tf(ages, nodes[k])).sum()) * dt
    return lhs - (S - (Qpsi - A) + Kf)
