#!/usr/bin/env python3
"""queuelab benchmark: one workload at one seed, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in bench/workloads.json.  A run is closed loop and
serial: one caller repeats the workload's call (a round) until S seconds
have passed, each round starting when the previous one has returned.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
processes, from process start to the end of set-up), wall_s (median round
time), paths_per_s, peak_rss_mb, and fail_ratio as failed/attempted.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of bench/tracer.py (medians over traced rounds, per round) plus
the tracing overhead, traced wall_s against untraced wall_s.

Every round is checked: exact invariants, finite values, outputs identical
to the first round's (so a traced round must reproduce the untraced bytes),
and, at seeds with a recorded reference, agreement with bench/reference.json.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A copy with an environment record, and the
traced run's spans, are written under bench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import OUT_DIR as OUT, SPEC, Workload, reference_mismatches

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def probe_setup(workload, seed):
    """Seconds from starting a fresh process to the end of its set-up."""
    start = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(seed), repr(start)]
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"set-up probe took over {PROBE_TIMEOUT_S} s")
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return float(words[1])


def git_sha():
    """HEAD of the checkout, read from .git directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed):
    import numpy
    import scipy
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha(), "seed": seed}


class Checks:
    """Counts attempted and failed operations: paths and checked outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.bad_reference = set()
        self.reference = "not recorded for this seed"
        self.attempted = 0
        self.failed = 0

    def add(self, rnd):
        if self.first is None:
            self.first = rnd.outputs
            mism = reference_mismatches(self.workload.name, self.workload.seed,
                                        rnd.fingerprints)
            if mism is not None:
                self.bad_reference = mism
                self.reference = (f"{len(rnd.fingerprints) - len(mism)} of "
                                  f"{len(rnd.fingerprints)} outputs match")
        names = set(rnd.outputs) | set(self.first)
        bad = {k for k in names
               if k in self.bad_reference or rnd.outputs.get(k) != self.first.get(k)
               or (isinstance(rnd.outputs[k], float)
                   and not math.isfinite(rnd.outputs[k]))}
        self.attempted += rnd.paths + len(names)
        self.failed += rnd.bad_paths + len(bad)

    def add_raised(self, paths):
        n = paths + (len(self.first) if self.first else 1)
        self.attempted += n
        self.failed += n


def timed_rounds(wl, workdir, seconds, checks, tracing):
    """Run rounds until `seconds` pass; with tracing, alternate plain/traced.

    Returns (plain rounds, traced rounds as (round, tracer) pairs).
    """
    plain, traced = [], []
    end = time.perf_counter() + seconds
    while not (plain or traced) or time.perf_counter() < end:
        for trace in ((False, True) if tracing else (False,)):
            tracer = Tracer() if trace else None
            try:
                if tracer:
                    tracer.install()
                try:
                    rnd = wl.run_round(workdir, fingerprint=checks.first is None)
                finally:
                    if tracer:
                        tracer.uninstall()
            except Exception:
                traceback.print_exc()
                checks.add_raised(wl.paths)
                continue
            checks.add(rnd)
            if trace:
                traced.append((rnd, tracer))
            else:
                plain.append(rnd)
    return plain, traced


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "queuelab" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} holds no src/queuelab package to benchmark "
              "or no BENCHMARK.json", file=sys.stderr)
        return 2
    seed = SPEC["default_seed"] if args.seed is None else args.seed
    try:
        wl = Workload(args.workload, seed)
    except KeyError as e:
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2
    listed = json.loads(spec_file.read_text())
    wanted = listed["per_layer" if args.trace else "end_to_end"]

    setup = [] if args.trace else [probe_setup(wl.name, seed) for _ in range(SETUP_PROBES)]
    wl.setup()
    env = environment(seed)
    OUT.mkdir(exist_ok=True)
    stray_before = set(Path.cwd().glob("queuelab-*-out"))
    checks = Checks(wl)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        plain, traced = timed_rounds(wl, workdir, args.seconds, checks, args.trace)
    stray = set(Path.cwd().glob("queuelab-*-out")) - stray_before
    checks.attempted += 1
    checks.failed += bool(stray)
    if not plain or (args.trace and not traced):
        print("error: no round completed", file=sys.stderr)
        return 1

    walls = [r.wall_s for r in plain]
    lines = [f"workload {wl.name}  seed {seed}  trace {args.trace}  "
             f"rounds {len(plain)} plain + {len(traced)} traced  "
             f"paths/round {wl.paths}",
             "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    if args.trace:
        values = per_layer(traced, walls)
        spans_file = OUT / f"{wl.name}-seed{seed}-spans.jsonl"
        with open(spans_file, "w") as f:  # the last traced round's spans
            for i, s in enumerate(traced[-1][1].spans):
                f.write(json.dumps(s.as_dict(i)) + "\n")
        lines.append(f"spans of the last traced round -> "
                     f"{spans_file.relative_to(ROOT)}")
    else:
        wall = median(walls)
        values = {"setup_s": median(setup), "wall_s": wall,
                  "paths_per_s": wl.paths / wall,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [wall] * 3
        lines.append(f"setup_s probes {[round(x, 4) for x in setup]}")
        lines.append(f"wall_s rounds n={len(walls)} q1={q[0]:.4f} "
                     f"median={wall:.4f} q3={q[2]:.4f}")
    ratio = checks.failed / checks.attempted
    lines.append(f"reference at seed {seed}: {checks.reference}")
    if stray:
        lines.append(f"stray output directories left behind: {sorted(map(str, stray))}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        lines.append(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"{'fail_ratio':<40} {ratio:>14.6g} ratio  "
                 f"({checks.failed} failed / {checks.attempted} attempted)")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    record = {"workload": wl.name, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "round_walls_s": walls,
              "setup_probes_s": setup, "fail_ratio": ratio, "result": result}
    (OUT / f"{wl.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def per_layer(traced, plain_walls):
    """Median over traced rounds of each per-round layer metric."""
    rows = []
    for rnd, tracer in traced:
        row = layer_metrics(tracer.spans, tracer.counts)
        row["cli.bytes_written"] = rnd.bytes_written
        row["trace.spans"] = len(tracer.spans)
        rows.append(row)
    out = {k: median([r[k] for r in rows]) for k in rows[0]}
    traced_wall = median([r.wall_s for r, _ in traced])
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = median(plain_walls)
    out["trace.overhead_ratio"] = traced_wall / median(plain_walls)
    return out


if __name__ == "__main__":
    sys.exit(main())
