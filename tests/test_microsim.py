"""Simulator: exact counting identities, equality with the event loop,
determinism, policies, compensator and centered-departure readouts."""
from __future__ import annotations

import dataclasses
import heapq
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuelab.dists import ArrivalSpec, as_rate, make_service_dist
from queuelab.microsim import (
    ARRIVAL,
    DEPARTURE,
    SERVICE_START,
    InitialCondition,
    PathRecord,
    SimConfig,
    compensator,
    conservation_check,
    eval_age_functional,
    invariant_ages,
    shift_consistency_check,
    simulate,
)

EXP = make_service_dist("exponential")
LOGN = make_service_dist("lognormal", sigma=0.5)
GAMMA2 = make_service_dist("gamma", shape=2.0)
PW = make_service_dist("piecewise", breaks=[0.0, 0.5, 2.0], values=[1.2, 0.2])
DISTS = {"exp": EXP, "logn": LOGN, "gamma2": GAMMA2, "pw": PW}

POISSON = ArrivalSpec(kind="renewal", lambda_bar=1.0, beta=0.0)


def quick_config(N=5, T=2.0, x0=0, seed=0, dist=EXP, beta=0.5, **kw):
    return SimConfig(
        N=N,
        arrival=ArrivalSpec(kind="renewal", lambda_bar=1.0, beta=beta),
        service=dist, T=T,
        initial=InitialCondition(x0=x0, **kw), seed=seed,
    )


class TestExactIdentities:
    @given(
        N=st.integers(1, 25),
        x0=st.integers(0, 40),
        seed=st.integers(0, 2**31),
        dist_key=st.sampled_from(sorted(DISTS)),
        beta=st.floats(-1.0, 0.9),
        sigma2=st.floats(0.3, 2.0),
        T=st.floats(0.3, 2.0),
        ages=st.sampled_from([None, "invariant"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_counting_identities_hold_exactly(self, N, x0, seed, dist_key,
                                                  beta, sigma2, T, ages):
        beta = min(beta, 0.9 * math.sqrt(N))  # keep the arrival rate positive
        cfg = SimConfig(
            N=N,
            arrival=ArrivalSpec(kind="renewal", lambda_bar=1.0, beta=beta, sigma2=sigma2),
            service=DISTS[dist_key], T=T,
            initial=InitialCondition(x0=x0, ages=ages),
            seed=seed,
        )
        path = simulate(cfg)
        v = conservation_check(path)
        assert max(v.values()) == 0, f"identity violated: {v}"

    def test_identities_inhom_poisson(self):
        arr = ArrivalSpec(kind="inhom_poisson",
                          lambda_bar={"affine": [1.0, 0.5]}, beta={"const": 1.0})
        cfg = SimConfig(N=10, arrival=arr, service=LOGN, T=2.0,
                        initial=InitialCondition(x0=12, ages="invariant"), seed=3)
        v = conservation_check(simulate(cfg))
        assert max(v.values()) == 0, f"identity violated: {v}"

    def test_event_times_sorted_and_counters_monotone(self):
        path = simulate(quick_config(N=8, T=3.0, x0=10, seed=5, ages="invariant"))
        assert np.all(np.diff(path.ev_time) >= 0.0)
        for arr in (path.E, path.D, path.K):
            assert np.all(np.diff(arr) >= 0)


def arrival_feed(arrival, N, T, rng):
    """Reference arrival stream from the spec's own fields: yield times in
    (0, T] one at a time.  Renewal gaps (exponential when lambda_bar =
    sigma2, else gamma) come 256 to a draw and are added to a running time
    one by one; inhom_poisson candidates are thinned against the rate's
    maximum at 2049 even points and every pwlin knot."""
    rootN = math.sqrt(N)
    if arrival.kind == "renewal":
        lb, s2 = arrival.lambda_bar, arrival.sigma2
        scale = s2 / (lb * (lb * N - arrival.beta * rootN))
        if isinstance(arrival, LatticeArrivals):
            rng = _Lattice(arrival.gap)
        t = 0.0
        while True:
            block = (rng.exponential(scale, size=256) if lb == s2
                     else rng.gamma(lb / s2, scale, size=256))
            for dt in block:
                t += dt
                if t > T:
                    return
                yield t
    lam, beta = as_rate(arrival.lambda_bar), as_rate(arrival.beta)

    def rate(t):
        return lam(t) * N - beta(t) * rootN

    knots = [spec["pwlin"]["t"] for spec in (arrival.lambda_bar, arrival.beta)
             if isinstance(spec, dict) and "pwlin" in spec]
    probe = np.concatenate([np.linspace(0.0, T, 2049), *knots])
    M = float(np.max(rate(probe[(probe >= 0.0) & (probe <= T)]))) * (1.0 + 1e-9)
    if M <= 0:
        return
    t = 0.0
    while True:
        t += rng.exponential(1.0 / M)
        if t > T:
            return
        if rng.uniform() * M <= rate(np.array([t]))[0]:
            yield t


def simulate_by_events(config):
    """Reference wiring of simulate: the event-driven loop.

    Processes arrivals, service starts and departures one at a time with an
    idle-server heap and a FIFO waiting line; departures win ties, and the
    departure heap pops equal times in start order.
    """
    N, T = config.N, float(config.T)
    dist = config.service
    ss = np.random.SeedSequence(config.seed, spawn_key=(config.replicate,))
    ss_arr, ss_svc, ss_init = ss.spawn(3)
    rng_arr = np.random.default_rng(ss_arr)
    rng_svc = np.random.default_rng(ss_svc)
    rng_init = np.random.default_rng(ss_init)

    x0 = config.initial.x0
    b0 = min(x0, N)
    ages0 = config.initial.draw_ages(b0, dist, rng_init)

    span_theta, span_begin, span_end = [], [], []
    span_fresh, span_cust = [], []
    # heap entries (departure_time, sequence, server, customer, span_index)
    heap = []
    seq = 0
    idle = list(range(b0, N))
    heapq.heapify(idle)
    queue = deque(range(b0, x0))  # FIFO of initial waiters

    if b0 > 0:
        remaining0 = np.asarray(dist.conditional(rng_init, ages0)) - ages0
        remaining0 = np.maximum(remaining0, 0.0)
        for j in range(b0):
            span_theta.append(-float(ages0[j]))
            span_begin.append(0.0)
            span_end.append(np.inf)
            span_fresh.append(False)
            span_cust.append(j)
            heapq.heappush(heap, (float(remaining0[j]), seq, j, j, len(span_theta) - 1))
            seq += 1

    ev_time, ev_kind, ev_id, ev_age = [], [], [], []
    cE, cD, cK, cX, cB = [], [], [], [], []
    dep_time, dep_age = [], []
    E, D, K, X, B = 0, 0, 0, x0, b0

    def record(t, kind, cid, age):
        ev_time.append(t)
        ev_kind.append(kind)
        ev_id.append(cid)
        ev_age.append(age)
        cE.append(E)
        cD.append(D)
        cK.append(K)
        cX.append(X)
        cB.append(B)

    svc_buf = np.empty(0)
    svc_pos = 0

    def draw_service():
        nonlocal svc_buf, svc_pos
        if svc_pos >= svc_buf.size:
            svc_buf = np.asarray(dist.sampler(rng_svc, size=256), dtype=float)
            svc_pos = 0
        v = float(svc_buf[svc_pos])
        svc_pos += 1
        return v

    def begin_span(t, cid, server):
        # the caller records rows once the whole transition has settled
        nonlocal K, B, seq
        K += 1
        B += 1
        span_theta.append(t)
        span_begin.append(t)
        span_end.append(np.inf)
        span_fresh.append(True)
        span_cust.append(cid)
        heapq.heappush(heap, (t + draw_service(), seq, server, cid, len(span_theta) - 1))
        seq += 1

    feed = arrival_feed(config.arrival, N, T, rng_arr)
    next_arr = next(feed, None)
    next_cid = x0

    while True:
        t_dep = heap[0][0] if heap else np.inf
        t_arr = next_arr if next_arr is not None else np.inf
        if t_dep <= t_arr:  # departures win ties
            t = t_dep
            if t > T:
                break
            _, _, server, cid, si = heapq.heappop(heap)
            age = t - span_theta[si]
            span_end[si] = t
            D += 1
            X -= 1
            B -= 1
            dep_time.append(t)
            dep_age.append(age)
            if queue:
                cid2 = queue.popleft()
                begin_span(t, cid2, server)
                record(t, DEPARTURE, cid, age)
                record(t, SERVICE_START, cid2, 0.0)
            else:
                heapq.heappush(idle, server)
                record(t, DEPARTURE, cid, age)
        else:
            t = t_arr
            if t > T:
                break
            E += 1
            X += 1
            cid = next_cid
            next_cid += 1
            if idle:
                begin_span(t, cid, heapq.heappop(idle))
                record(t, ARRIVAL, cid, np.nan)
                record(t, SERVICE_START, cid, 0.0)
            else:
                queue.append(cid)
                record(t, ARRIVAL, cid, np.nan)
            next_arr = next(feed, None)

    # FCFS starts spans in customer order, so simulate indexes spans by id
    assert span_cust == list(range(len(span_cust))), "spans out of customer order"
    ev_time, ev_kind = np.asarray(ev_time), np.asarray(ev_kind, dtype=np.int8)
    ev_id = np.asarray(ev_id, dtype=np.int64)
    return dict(
        N=N, T=T, x0=x0, seed=config.seed, replicate=config.replicate,
        initial_ages=ages0, arrivals=ev_time[ev_kind == ARRIVAL],
        span_theta=np.asarray(span_theta), span_begin=np.asarray(span_begin),
        span_end=np.asarray(span_end), span_fresh=np.asarray(span_fresh, dtype=bool),
        dep_order=ev_id[ev_kind == DEPARTURE],
        ev_time=ev_time, ev_kind=ev_kind, ev_id=ev_id, ev_age=np.asarray(ev_age),
        E=np.asarray(cE, dtype=np.int64), D=np.asarray(cD, dtype=np.int64),
        K=np.asarray(cK, dtype=np.int64), X=np.asarray(cX, dtype=np.int64),
        B=np.asarray(cB, dtype=np.int64),
        dep_time=np.asarray(dep_time), dep_age=np.asarray(dep_age),
    )


# what a path holds, then what is read off it: the event log's columns,
# built on first read, and the departures
PATH_FIELDS = ("N", "T", "x0", "seed", "replicate", "initial_ages", "arrivals",
               "span_theta", "span_begin", "span_end", "span_fresh", "dep_order")
READ_OFF = ("ev_time", "ev_kind", "ev_id", "ev_age", "E", "D", "K", "X", "B",
            "dep_time", "dep_age")


def assert_same_path(got, want):
    """got, a PathRecord, against want, the event loop's dict: every field,
    every log column and the departures, each with its dtype and shape."""
    assert tuple(f.name for f in dataclasses.fields(PathRecord)) == PATH_FIELDS
    for name in PATH_FIELDS + READ_OFF:
        a, b = getattr(got, name), want[name]
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        else:
            assert a == b, name


class _Lattice:
    """rng stand-in whose exponential draws all equal gap, and so do its
    gamma draws at shape 1, which numpy makes by its exponential draw."""

    def __init__(self, gap):
        self.gap = gap

    def exponential(self, scale, size):
        return np.full(size, self.gap)

    def gamma(self, shape, scale, size):
        assert shape == 1.0
        return self.exponential(scale, size)


@dataclasses.dataclass(frozen=True)
class LatticeArrivals(ArrivalSpec):
    """Poisson-kind renewal arrivals with a fixed gap between them: the
    spec's own stream fed by gaps that are all `gap`."""

    gap: float = 0.25

    def times(self, N, T, rng):
        return super().times(N, T, _Lattice(self.gap))


def deterministic_law(service):
    """Every service lasts `service`; a residual is what is left of it."""
    return dataclasses.replace(
        EXP, name=f"deterministic({service:g})",
        sampler=lambda rng, size=None: np.full(size, service),
        conditional=lambda rng, ages: np.maximum(np.asarray(ages), service))


class TestEqualsEventLoop:
    """The start-time recursion against the event loop, array by array."""

    LAWS = {**DISTS, "phasetype": make_service_dist("phasetype")}
    ARRIVALS = {
        "renewal": ArrivalSpec(kind="renewal", lambda_bar=1.0, beta=0.5, sigma2=0.7),
        "inhom_poisson": ArrivalSpec(kind="inhom_poisson",
                                     lambda_bar={"affine": [1.0, 0.5]},
                                     beta={"const": 1.0}),
    }

    @given(
        N=st.integers(1, 30),
        x0_frac=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**31),
        law=st.sampled_from(sorted(LAWS)),
        arrival=st.sampled_from(sorted(ARRIVALS)),
        T=st.floats(0.3, 3.0),
        ages=st.sampled_from([None, "invariant", "explicit"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_array_equal(self, N, x0_frac, seed, law, arrival, T, ages):
        x0 = int(round(x0_frac * N))
        if ages == "explicit":
            # some ages lie past the piecewise support, so those customers
            # leave at time 0, all at once
            ages = np.random.default_rng(seed).exponential(2.0, size=min(x0, N))
        cfg = SimConfig(N=N, arrival=self.ARRIVALS[arrival], service=self.LAWS[law],
                        T=T, initial=InitialCondition(x0=x0, ages=ages), seed=seed)
        assert_same_path(simulate(cfg), simulate_by_events(cfg))

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("gap,service", [(0.25, 1.0), (0.5, 1.5), (0.25, 0.5)])
    def test_lattice_ties(self, N, gap, service):
        # times on a binary lattice: arrivals land exactly on departures
        det = deterministic_law(service)
        ties = 0
        for x0 in range(2 * N + 1):
            ages = [0.25 * (j % 4) for j in range(min(x0, N))]
            cfg = SimConfig(N=N, arrival=LatticeArrivals(kind="renewal", gap=gap),
                            service=det, T=4.0, seed=1,
                            initial=InitialCondition(x0=x0, ages=ages))
            path = simulate(cfg)
            ties += np.isin(path.dep_time, path.ev_time[path.ev_kind == ARRIVAL]).sum()
            assert_same_path(path, simulate_by_events(cfg))
        assert ties > 0, "no departure met an arrival"

    def test_equal_time_departures_start_waiters_in_id_order(self):
        # ages past the support: all four initial customers leave at t = 0
        # and the four waiters start there, one after each departure
        cfg = quick_config(N=4, x0=8, dist=PW, ages=[5.0, 6.0, 7.0, 8.0], seed=3)
        path = simulate(cfg)
        head = list(zip(path.ev_kind[:8], path.ev_id[:8]))
        assert head == [(DEPARTURE, 0), (SERVICE_START, 4), (DEPARTURE, 1),
                        (SERVICE_START, 5), (DEPARTURE, 2), (SERVICE_START, 6),
                        (DEPARTURE, 3), (SERVICE_START, 7)]
        assert np.all(path.ev_time[:8] == 0.0)
        assert_same_path(path, simulate_by_events(cfg))

    @pytest.mark.parametrize("replicate", [0, 1])
    @pytest.mark.parametrize("law", ["exp", "logn"])
    def test_heavy_traffic_shape(self, law, replicate):
        # the fclt battery's shape: about 2,300 customers and 5,700 events,
        # so the service draws span several blocks, and some starts wait
        # for a departure
        cfg = SimConfig(N=400, arrival=ArrivalSpec("renewal", 1.0, beta=1.0),
                        service=DISTS[law], T=5.0,
                        initial=InitialCondition(x0=400, ages="invariant"),
                        seed=202, replicate=replicate)
        path = simulate(cfg)
        assert path.span_fresh.sum() > 4 * 256
        assert_same_path(path, simulate_by_events(cfg))


class TestArrivalTimes:
    """The block arrival stream against the one-at-a-time reference."""

    ARRIVALS = {
        "poisson": (ArrivalSpec(kind="renewal", lambda_bar=1.0, beta=1.0), 400, 5.0),
        "gamma": (ArrivalSpec(kind="renewal", lambda_bar=1.0, beta=0.5, sigma2=0.7),
                  30, 3.0),
        "affine": (TestEqualsEventLoop.ARRIVALS["inhom_poisson"], 30, 3.0),
        "pwlin": (ArrivalSpec(kind="inhom_poisson", beta=0.0, lambda_bar={
            "pwlin": {"t": [0.0, 1.0, 3.0], "v": [1.0, 1.4, 0.8]}}), 30, 3.0),
        # the last arrival lands exactly on T: inside a block, and as the
        # last gap of a block
        "lattice-on-T": (LatticeArrivals(kind="renewal", gap=0.25), 1, 4.0),
        "lattice-block-end-on-T": (LatticeArrivals(kind="renewal", gap=1 / 64), 1, 4.0),
        "lattice-past-T": (LatticeArrivals(kind="renewal", gap=0.3), 1, 3.0),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(ARRIVALS))
    def test_bitwise_equal_to_scalar_feed(self, name, seed):
        arrival, N, T = self.ARRIVALS[name]
        got = arrival.times(N, T, np.random.default_rng(seed))
        want = np.array(list(arrival_feed(arrival, N, T, np.random.default_rng(seed))),
                        dtype=float)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if name.endswith("on-T"):
            assert got[-1] == T and got.size in (16, 256)

    def test_simulate_asks_the_arrival_only_for_times(self):
        asked = []

        class Fixed:
            """An arrival stand-in with nothing but times."""

            def times(self, N, T, rng):
                asked.append((N, T, type(rng)))
                return np.array([0.5, 1.0, 2.5])

        path = simulate(SimConfig(N=1, arrival=Fixed(), service=deterministic_law(1.0),
                                  T=3.0))
        assert asked == [(1, 3.0, np.random.Generator)]
        assert path.arrivals.tolist() == [0.5, 1.0, 2.5]
        assert path.span_begin.tolist() == [0.5, 1.5, 2.5]
        assert path.dep_order.tolist() == [0, 1]

    @pytest.mark.parametrize("T", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("kind", sorted(TestEqualsEventLoop.ARRIVALS))
    def test_non_finite_horizon_refused(self, kind, T):
        # a renewal stream past a non-finite T never ends
        arrival = TestEqualsEventLoop.ARRIVALS[kind]
        with pytest.raises(ValueError, match="^T: must be a finite number"):
            SimConfig(N=5, arrival=arrival, service=EXP, T=T)
        with pytest.raises(ValueError, match="^T: must be a finite number"):
            arrival.times(5, T, np.random.default_rng(0))


def counting_law(law):
    """law with its sf and sampler counting their calls in the returned dict."""
    calls = {"sf": 0, "sampler": 0}

    def sf(x):
        calls["sf"] += 1
        return law.sf(x)

    def sampler(rng, size=None):
        calls["sampler"] += 1
        return law.sampler(rng, size=size)

    return dataclasses.replace(law, sf=sf, sampler=sampler), calls


class TestWorkCounts:
    def test_invariant_age_table_built_once_per_law(self):
        law, calls = counting_law(LOGN)
        cfg = quick_config(N=50, x0=50, ages="invariant", dist=law)
        simulate(cfg)
        assert calls["sf"] > 0
        calls["sf"] = 0
        simulate(dataclasses.replace(cfg, replicate=1))
        assert calls["sf"] == 0

    @pytest.mark.parametrize("N, x0, T", [(400, 400, 5.0), (5, 0, 2.0), (3, 40, 1.0)])
    def test_one_sampler_call_per_256_starts(self, N, x0, T):
        law, calls = counting_law(EXP)
        path = simulate(quick_config(N=N, x0=x0, T=T, ages="invariant", dist=law))
        starts = int(path.span_fresh.sum())
        assert calls["sampler"] == math.ceil(starts / 256)

    def test_no_draw_for_a_block_nobody_starts_in(self):
        # one server, unit services, 300 waiters: exactly 256 starts by T,
        # and the 257th waiter would start after T
        det, calls = counting_law(dataclasses.replace(
            EXP, sampler=lambda rng, size=None: np.full(size, 1.0),
            conditional=lambda rng, ages: np.maximum(np.asarray(ages), 1.0)))
        path = simulate(SimConfig(N=1, arrival=POISSON, service=det, T=256.0,
                                  initial=InitialCondition(x0=301, ages=[0.0])))
        assert int(path.span_fresh.sum()) == 256
        assert calls["sampler"] == 1



class TestDeterminismAndStreams:
    def test_same_seed_same_path(self):
        a = simulate(quick_config(seed=11, x0=4, ages="invariant"))
        b = simulate(quick_config(seed=11, x0=4, ages="invariant"))
        assert np.array_equal(a.ev_time, b.ev_time)
        assert np.array_equal(a.ev_kind, b.ev_kind)
        assert np.array_equal(a.initial_ages, b.initial_ages)

    def test_replicate_index_changes_path(self):
        cfg = quick_config(seed=11, T=3.0)
        a = simulate(cfg)
        b = simulate(SimConfig(**{**cfg.__dict__, "replicate": 1}))
        assert a.ev_time.size != b.ev_time.size or not np.array_equal(a.ev_time, b.ev_time)

    def test_seed_changes_path(self):
        a = simulate(quick_config(seed=1, T=3.0))
        b = simulate(quick_config(seed=2, T=3.0))
        assert not np.array_equal(a.ev_time, b.ev_time)


class TestPoliciesAndInitialState:
    def test_fcfs_start_order_single_server(self):
        # with one server, service starts must follow arrival order
        path = simulate(quick_config(N=1, T=4.0, beta=-2.0, seed=7))
        fresh = path.span_fresh
        order = np.argsort(path.span_begin[fresh], kind="stable")
        cust = np.flatnonzero(fresh)[order]  # a span's index is its customer id
        assert np.all(np.diff(cust) > 0), "FCFS violated"

    def test_initial_overload_queues_surplus(self):
        path = simulate(quick_config(N=5, x0=9, seed=2))
        assert path.counters_at(0.0) == (0, 0, 0, 9, 5)
        assert path.initial_ages.size == 5

    def test_explicit_ages_respected(self):
        ages = [0.3, 1.1, 0.0]
        path = simulate(quick_config(N=3, x0=3, ages=ages, seed=0))
        assert np.allclose(np.sort(path.ages_at(0.0)), np.sort(ages))

    def test_initial_in_service_not_counted_as_entries(self):
        path = simulate(quick_config(N=6, x0=6, ages="invariant", seed=4, T=1.0))
        assert path.K[-1] == int(np.sum(path.span_fresh))
        assert int(np.sum(~path.span_fresh)) == 6

    def test_bad_initial_spec_rejected(self):
        with pytest.raises(ValueError):
            InitialCondition(x0=-1)
        with pytest.raises(ValueError):
            simulate(quick_config(N=3, x0=3, ages=[0.1, 0.2]))  # 2 ages for 3 slots


def invariant_ages_uniform(dist, n, rng):
    """invariant_ages with its 4097 nodes spread evenly up to the tail point,
    as it was before heavy tails got a geometric table; the reference for
    laws whose tail point is at most 32."""
    hi = 1.0
    while dist.sf(np.array([hi]))[0] > 1e-9 and hi < 1e6:
        hi *= 2.0
    x = np.linspace(0.0, min(hi, dist.support_end), 4097)
    tail = dist.sf(x)
    cdf = np.concatenate([[0.0], np.cumsum((tail[1:] + tail[:-1]) / 2.0 * np.diff(x))])
    cdf /= cdf[-1]
    return np.interp(rng.uniform(size=n), cdf, x)


class _Levels:
    """rng stand-in whose uniform draws are fixed levels, so invariant_ages
    returns its inverse table at those levels with no sampling noise."""

    def __init__(self, q):
        self.q = np.asarray(q, dtype=float)

    def uniform(self, size=None):
        return self.q


class TestInvariantAges:
    @pytest.mark.parametrize("dist", [
        EXP, LOGN, GAMMA2, PW, make_service_dist("weibull", shape=1.5),
        make_service_dist("logistic"), make_service_dist("piecewise")],
        ids=["exp", "logn", "gamma2", "pw", "weibull", "logistic", "piecewise"])
    def test_light_tail_draws_unchanged(self, dist):
        assert dist.tail_point(1e-9) <= 32.0
        a = invariant_ages(dist, 5000, np.random.default_rng(4))
        b = invariant_ages_uniform(dist, 5000, np.random.default_rng(4))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("a", [1.5, 3.5])
    def test_pareto_quantiles(self, a):
        # stationary age of Lomax(a, scale a-1): P(age > x) = (1 + x/(a-1))^-(a-1)
        q = np.array([0.25, 0.5, 0.75])
        exact = (a - 1.0) * ((1.0 - q) ** (-1.0 / (a - 1.0)) - 1.0)
        got = invariant_ages(make_service_dist("pareto", a=a), q.size, _Levels(q))
        assert np.all(np.abs(got / exact - 1.0) < 0.03), (got, exact)

    def test_tail_past_the_table_refused(self):
        # 2^20 holds all but 4.5e-2 of pareto(1.2)'s stationary age mass;
        # drawing from the truncated law would shorten every age
        with pytest.raises(ValueError, match=r"^pareto\(a=1\.2\): the stationary "
                           r"age table ends at age 1\.04858e\+06 with 0\.0453 "):
            invariant_ages(make_service_dist("pareto", a=1.2), 10,
                           np.random.default_rng(0))

    def test_exponential_invariant_is_unit_exponential(self):
        rng = np.random.default_rng(0)
        ages = invariant_ages(EXP, 40000, rng)
        assert abs(ages.mean() - 1.0) < 5.0 / math.sqrt(40000.0) * 1.5
        assert abs(np.mean(ages > 1.0) - math.exp(-1.0)) < 0.01

    def test_bounded_support_respected(self):
        rng = np.random.default_rng(1)
        ages = invariant_ages(PW, 5000, rng)
        assert ages.max() <= PW.support_end + 1e-9


class _BoundProbe:
    """rng stand-in for the thinning feed: records the exponential scale
    1/M of the first candidate and ends the feed there."""

    def __init__(self):
        self.scales = []

    def exponential(self, scale):
        self.scales.append(scale)
        return np.inf


class _CandidateAt:
    """rng stand-in for the thinning feed: its first candidate is time t,
    accepted whenever the rate there reaches half the bound."""

    def __init__(self, t):
        self.gaps = [t, np.inf]

    def exponential(self, scale):
        return self.gaps.pop(0)

    def uniform(self):
        return 0.5


class TestThinningBound:
    @staticmethod
    def bound(arrival, N, T):
        rng = _BoundProbe()
        assert arrival.times(N, T, rng).size == 0
        return 1.0 / rng.scales[0]

    def test_pwlin_peak_between_probe_points(self):
        peak = {"pwlin": {"t": [0.0, 0.3001, 1.0], "v": [1.0, 3.0, 1.0]}}
        arr = ArrivalSpec(kind="inhom_poisson", lambda_bar=peak, beta=0.0)
        assert self.bound(arr, 100, 1.0) >= 300.0

    def test_callable_spike_between_probe_points_refused(self):
        # probes sit at k/2048; the spike lives inside (614, 615)/2048, so
        # the bound misses it, and the first candidate lands in it
        lo, hi = 614.25 / 2048, 614.75 / 2048
        spike = lambda t: np.where((np.asarray(t) > lo) & (np.asarray(t) < hi),
                                   10.0, 1.0)
        arr = ArrivalSpec(kind="inhom_poisson", lambda_bar=spike, beta=0.0)
        rng = _CandidateAt(0.5 * (lo + hi))
        with pytest.raises(ValueError, match="thinning bound"):
            arr.times(100, 1.0, rng)

    def test_bound_unchanged_where_even_probe_finds_max(self):
        arr = ArrivalSpec(kind="inhom_poisson", lambda_bar={"affine": [1.0, 0.5]},
                          beta=1.0)
        rate = arr.rate_fn(50)
        even = float(np.max(rate(np.linspace(0.0, 2.0, 2049)))) * (1.0 + 1e-9)
        assert self.bound(arr, 50, 2.0) == even


def span_sum(path, dist, T):
    """The compensator at T as a sum over spans of log(1-G(a0)) -
    log(1-G(a1)), open spans cut at T (acceptance criterion 02's form)."""
    mask = path.span_begin < T
    a0 = (path.span_begin - path.span_theta)[mask]
    a1 = (np.minimum(path.span_end, T) - path.span_theta)[mask]
    return float(np.sum(np.log(dist.sf(a0)) - np.log(dist.sf(a1))))


def left_rule_compensator(path, dist, t, dt):
    """The compensator on {0, dt, ..., t} by the left rule: every span
    live at node k dt adds h(age) dt there."""
    n = int(round(t / dt))
    sums = np.zeros(n)
    for theta, begin, end in zip(path.span_theta, path.span_begin, path.span_end):
        k = np.arange(n)
        k = k[(k * dt >= begin) & (k * dt < end)]
        sums[k] += dist.hazard(k * dt - theta)
    return np.arange(n + 1) * dt, np.concatenate([[0.0], np.cumsum(sums) * dt])


class TestReadouts:
    def test_age_functional_constant_equals_busy_count(self):
        path = simulate(quick_config(N=7, x0=10, ages="invariant", seed=6, T=3.0))
        for t in (0.0, 0.7, 1.9, 2.99):
            B = path.counters_at(t)[4]
            assert eval_age_functional(path, lambda a: np.ones_like(a), t) == B

    def test_compensator_matches_exact_busy_integral_for_exp(self):
        # unit hazard: the compensator is the time integral of the busy
        # count, here at 0, at every event time and at T
        path = simulate(quick_config(N=6, x0=6, ages="invariant", seed=8, T=2.0))
        times = np.concatenate([[0.0], path.ev_time[path.ev_time <= 2.0], [2.0]])
        busy = np.array([path.counters_at(u)[4] for u in times[:-1]], dtype=float)
        exact = np.concatenate([[0.0], np.cumsum(busy * np.diff(times))])
        A = compensator(path, EXP, times)
        assert A[0] == 0.0
        assert np.all(np.diff(A) >= 0.0)
        np.testing.assert_allclose(A, exact, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dist_key", ["gamma2", "logn"])
    def test_compensator_equals_span_sum(self, dist_key):
        dist = DISTS[dist_key]
        for r in range(5):
            path = simulate(SimConfig(N=20, arrival=POISSON, service=dist, T=2.0,
                                      initial=InitialCondition(x0=20, ages="invariant"),
                                      seed=12, replicate=r))
            want = [span_sum(path, dist, 1.0), span_sum(path, dist, 2.0)]
            np.testing.assert_allclose(compensator(path, dist, [1.0, 2.0]), want,
                                       rtol=1e-12, atol=0.0)

    def test_left_rule_converges_first_order(self):
        paths = [simulate(SimConfig(N=10, arrival=POISSON, service=LOGN, T=2.0,
                                    initial=InitialCondition(x0=10, ages="invariant"),
                                    seed=21, replicate=r)) for r in range(8)]
        errs = []
        for dt in (8e-3, 4e-3, 2e-3, 1e-3):
            gaps = []
            for path in paths:
                grid, A = left_rule_compensator(path, LOGN, 2.0, dt)
                gaps.append(np.max(np.abs(A - compensator(path, LOGN, grid))))
            errs.append(np.mean(gaps))
        ratios = np.array(errs[1:]) / np.array(errs[:-1])
        assert np.all((ratios > 0.3) & (ratios < 0.7)), f"ratios {ratios}"

    def test_dead_span_adds_zero(self):
        # the span started at the support's end L leaves at once, at age L
        # where Lambda is infinite; like a dead-mass ratio it adds 0, so A
        # is the other initial span's increment until the first start
        dist = make_service_dist("piecewise")
        path = simulate(SimConfig(
            N=2, arrival=POISSON, service=dist, T=1.0,
            initial=InitialCondition(x0=2, ages=[dist.support_end, 0.3])))
        assert path.span_begin[0] == path.span_end[0] == 0.0
        first = path.span_begin[2] if path.span_begin.size > 2 else 1.0
        times = np.array([0.0, 0.5, 1.0]) * first
        a1 = np.minimum(times, path.span_end[1]) + 0.3
        A = compensator(path, dist, times)
        assert np.all(np.isfinite(A))
        np.testing.assert_allclose(A, np.log(dist.sf(0.3)) - np.log(dist.sf(a1)),
                                   rtol=1e-14, atol=0.0)

    def test_compensator_refuses_decreasing_times(self):
        path = simulate(quick_config(N=3, x0=3, seed=1))
        with pytest.raises(ValueError, match="nondecreasing"):
            compensator(path, EXP, [2.0, 1.0])

    @pytest.mark.parametrize("times", [[-0.1, 1.0], [1.0, 3.0], [0.5, np.nan, 1.0]],
                             ids=["below-0", "past-T", "nan-inside"])
    def test_compensator_refuses_times_off_the_path(self, times):
        # past T the path is unknown; a grid ending at T by rounding passes
        path = simulate(quick_config(N=3, x0=3, seed=1))
        with pytest.raises(ValueError, match=r"nondecreasing in \[0, T = "):
            compensator(path, EXP, times)
        assert np.isfinite(compensator(path, EXP, [path.T * (1 + 1e-12)])).all()

    @pytest.mark.parametrize("dist_key", ["exp", "logn"])
    def test_representation_residual_first_order(self, dist_key):
        dist = DISTS[dist_key]
        f = lambda x: np.exp(-x)
        res_coarse, res_fine = [], []
        for r in range(10):
            cfg = SimConfig(N=10, arrival=ArrivalSpec(kind="renewal", lambda_bar=1.0, beta=0.5),
                            service=dist, T=2.0,
                            initial=InitialCondition(x0=10, ages="invariant"),
                            seed=77, replicate=r)
            path = simulate(cfg)
            # the restart check from s = 0 is the representation defect
            res_coarse.append(abs(shift_consistency_check(path, dist, f, 0.0, 2.0, 4e-3)))
            res_fine.append(abs(shift_consistency_check(path, dist, f, 0.0, 2.0, 2e-3)))
        ratio = np.mean(res_fine) / np.mean(res_coarse)
        assert 0.2 < ratio < 0.9, f"halving dt gave ratio {ratio:.3f}"
        assert np.mean(res_fine) < 0.05

    def test_shift_consistency_small_midpath(self):
        vals = []
        for r in range(10):
            cfg = SimConfig(N=8, arrival=ArrivalSpec(kind="renewal", lambda_bar=1.0, beta=0.5),
                            service=GAMMA2, T=2.5,
                            initial=InitialCondition(x0=8, ages="invariant"),
                            seed=5, replicate=r)
            path = simulate(cfg)
            vals.append(abs(shift_consistency_check(path, GAMMA2, lambda x: 1.0 / (1.0 + x),
                                                    0.7, 1.3, 1e-3)))
        assert np.mean(vals) < 0.02, f"mean defect {np.mean(vals):.4f}"


class TestArrivalCounts:
    def test_renewal_rate_scaling(self):
        # E[E(T)] ~ (lam_bar N - beta sqrt N) T; check a 5 sigma band
        N, T = 100, 2.0
        lam = 1.0 * N - 1.0 * 10.0
        counts = []
        for r in range(50):
            cfg = SimConfig(N=N, arrival=ArrivalSpec(kind="renewal", lambda_bar=1.0, beta=1.0),
                            service=EXP, T=T, seed=99, replicate=r)
            counts.append(simulate(cfg).counters_at(T)[0])
        mean = np.mean(counts)
        # renewal count fluctuation ~ sqrt(sigma2/lam_bar * lam T) per path
        se = math.sqrt(lam * T / 50.0)
        assert abs(mean - lam * T) < 5.0 * se + 2.0, f"mean count {mean} vs {lam * T}"

    def test_inhom_poisson_rate(self):
        N, T = 100, 2.0
        arr = ArrivalSpec(kind="inhom_poisson", lambda_bar={"affine": [1.0, 0.5]}, beta=0.0)
        target = (1.0 * T + 0.25 * T * T) * N  # integral of the intensity
        counts = []
        for r in range(40):
            cfg = SimConfig(N=N, arrival=arr, service=EXP, T=T, seed=17, replicate=r)
            counts.append(simulate(cfg).counters_at(T)[0])
        se = math.sqrt(target / 40.0)
        assert abs(np.mean(counts) - target) < 5.0 * se, f"{np.mean(counts)} vs {target}"
