"""The benchmark workloads: set-up, one timed round, and output checks.

Each workload drives queuelab through its public API only: a battery
(`scalestats.verify_*`) called with a full override dict, or `cli.run` on
a validated config.  The benchmark seed goes into that dict or config and
nowhere else.  Every round of a run repeats the same call at the same
seed, so its outputs must be identical from round to round.
"""
from __future__ import annotations

import copy
import hashlib
import io
import json
import math
import shutil
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPEC = json.loads((BENCH / "workloads.json").read_text())
REFERENCE_FILE = BENCH / "reference.json"
OUT_DIR = BENCH / "out"  # results, spans and the per-run scratch directory

# Reference comparison tolerance: far above the 1e-15 re-association of a
# batched FFT, far below any change in what is computed.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# limit-cli exact identities; both sit near 1e-15 today
RESIDUAL_LIMIT = 1e-12
# files a CLI run writes that are data, not run metadata
NOT_DATA = {"manifest.json", "summary.json"}


def import_queuelab():
    """Put this checkout's src/ first on sys.path and import the package."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import queuelab
    if Path(queuelab.__file__).resolve().parent != (SRC / "queuelab").resolve():
        raise ImportError(f"queuelab imported from {queuelab.__file__}, not {SRC}")


def spec_digest(name):
    """sha256 of what a workload runs; a reference is valid only for it."""
    spec = SPEC["workloads"][name]
    runs = {k: spec[k] for k in ("entry", "overrides", "config") if k in spec}
    blob = json.dumps(runs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Round:
    """What one call produced: its wall time, paths and checked outputs."""

    wall_s: float
    paths: int
    outputs: dict              # name -> battery value or sha256 of file bytes
    bad_paths: int = 0         # paths that broke an exact invariant
    bytes_written: int = 0
    fingerprints: dict = None  # name -> reference digest, when asked for


class Workload:
    def __init__(self, name, seed):
        if name not in SPEC["workloads"]:
            raise KeyError(f"unknown workload {name!r}; "
                           f"choose from {sorted(SPEC['workloads'])}")
        self.name = name
        self.seed = int(seed)
        self.spec = SPEC["workloads"][name]
        self.layer, self.fn = self.spec["entry"].split(".")

    def setup(self):
        """Import the layers, validate the config and build the service laws."""
        import_queuelab()
        from queuelab import dists
        if self.layer == "scalestats":
            from queuelab import scalestats
            self.overrides = dict(self.spec["overrides"], seed=self.seed)
            if self.fn == "verify_moments":
                services = self.overrides["services"]
                self.paths = self.overrides["reps"] * len(services)
            else:  # verify_fclt: exponential service; Euler paths not counted
                services = ["exponential"]
                self.paths = self.overrides["des_reps"]
            self.module = scalestats
        else:
            from queuelab import cli
            raw = copy.deepcopy(self.spec["config"])
            raw["run"]["seed"] = self.seed
            self.cfg = cli.validate_config(raw)
            services = [self.cfg.model["service"]]
            self.paths = int(raw["run"].get("seeds") or raw["run"]["paths"])
            self.module = cli
        for svc in services:
            dists.make_service_dist(svc)

    def run_round(self, workdir, fingerprint=False):
        """Make the workload's one timed call and collect what it produced.

        The module attribute is looked up on every call, so a tracer that
        replaced it is honoured.
        """
        if self.layer == "scalestats":
            overrides = copy.deepcopy(self.overrides)
            fn = getattr(self.module, self.fn)
            t0 = time.perf_counter()
            reports = fn(overrides)
            wall = time.perf_counter() - t0
            outputs = {r.statistic: float(r.value) for r in reports}
            return Round(wall, self.paths, outputs,
                         fingerprints=dict(outputs) if fingerprint else None)
        out = Path(workdir) / "round"
        with redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = self.module.run(self.cfg, out=str(out))
            wall = time.perf_counter() - t0
        try:
            summary = json.loads((out / "summary.json").read_text())
            bad = self.paths if code != 0 else self._bad_paths(summary)
            outputs, nbytes, prints = {}, 0, {}
            for f in sorted(out.iterdir()):
                data = f.read_bytes()
                nbytes += len(data)
                if f.name == "manifest.json":  # holds wall time: not deterministic
                    continue
                outputs[f.name] = hashlib.sha256(data).hexdigest()
                if fingerprint and f.name not in NOT_DATA:
                    prints[f.name] = csv_fingerprint(data.decode())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Round(wall, self.paths, outputs, bad, nbytes,
                     prints if fingerprint else None)

    def _bad_paths(self, summary):
        if self.cfg.kind == "sim":
            rows = summary["per_replicate"]
            bad = sum(any(v != 0 for v in s["identity_violations"].values())
                      for s in rows)
            if summary["identities_clean"] is not True:
                bad = max(bad, 1)
        else:
            rows = summary["per_path"]
            bad = sum(not all(math.isfinite(s[k]) and abs(s[k]) <= RESIDUAL_LIMIT
                              for k in ("smg_residual", "rep_hatx_residual"))
                      for s in rows)
        return bad + max(self.paths - len(rows), 0)


def csv_fingerprint(text):
    """Numeric digest of a CSV data file that survives last-bit rounding.

    Per numeric column: fsum of |v| and of v^2; per text column: value
    counts; plus the row count.
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    cols = list(zip(*(line.split(",") for line in lines[1:]))) or [()] * len(header)
    out = {"rows": len(lines) - 1}
    for name, col in zip(header, cols):
        try:
            vals = [float(v) for v in col]
        except ValueError:
            out[name] = dict(sorted(Counter(col).items()))
            continue
        out[name] = [math.fsum(abs(v) for v in vals), math.fsum(v * v for v in vals)]
    return out


def _close(a, b):
    if isinstance(a, dict) or isinstance(b, dict):
        return (isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys()
                and all(_close(a[k], b[k]) for k in a))
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def reference_mismatches(name, seed, fingerprints):
    """Outputs that disagree with the recorded reference at this seed.

    Returns None when no reference is recorded for the seed.  A reference
    recorded for another definition of the workload counts every output
    as a mismatch, so a resized workload cannot pass against stale values.
    """
    refs = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    ref = refs.get(name, {})
    if str(seed) not in ref.get("seeds", {}):
        return None
    if ref.get("spec_sha256") != spec_digest(name):
        return set(fingerprints)
    want = ref["seeds"][str(seed)]
    return {k for k in set(want) | set(fingerprints)
            if k not in want or k not in fingerprints
            or not _close(want[k], fingerprints[k])}
