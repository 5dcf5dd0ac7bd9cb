"""Command-line front end: config-driven experiment runs.

Subcommands map one-to-one onto the library layers: `dists check`,
`sim run`, `fluid solve`, `limit run`, `verify <battery>`, and each runs a
config of its own kind only.  Every run reads one JSON config.  Its header
(schema_version, kind) is checked first, then the whole config in one pass
against the kind's closed schema in SCHEMAS, which takes only the model,
numerics and run keys that kind reads.  dists._first_error checks the
few JSON Schema keywords they use, keyword by keyword in schema order; a
stable sort by field path picks the first error, and only then is an
unknown key named.  Flags (--seed, --seeds, --paths, --jobs, --noise-off)
are run-block overrides and pass the same schema, and scalestats checks
verify overrides by the same walk.
Service specs, verify overrides, grids that dists.uniform_grid refuses
and inconsistent initial data are refused as the run builds them, before
anything is written.  A config error exits 2 naming the offending field
path, a numerical failure exits 3, and `verify` exits 1 when a battery
reports a failing statistic.  A run writes data files plus a manifest.json
recording the config hash, seeds, tool version and wall time.

Data outputs are byte-for-byte reproducible for a given config: floats
are written with repr (shortest round-trip form) and replicate order is
fixed regardless of --jobs.  The manifest is excluded from that
guarantee (wall time varies).
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import click
import numpy as np

from . import __version__
from .dists import (ArrivalSpec, ServiceSpecError, _first_error, as_rate,
                    check_finite, holder_check, make_service_dist,
                    renewal_function, uniform_grid)
from .fluid import InitialDataError, solve_fluid
from .limitsim import (LimitGrid, LimitPlan, LimitSpec, rep_hatx_residual,
                       run_limit, smg_bookkeeping_residual)
from .microsim import (KIND_NAMES, InitialCondition, SimConfig,
                       conservation_check, simulate)
from . import scalestats

__all__ = ["ExperimentConfig", "load_config", "validate_config", "run", "main"]

_NUMBERS = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_NULL = {"type": "null"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}


def _object(*required, **properties):
    """A closed object of the given properties, the named ones required."""
    return {"type": "object", "required": list(required),
            "properties": properties, "additionalProperties": False}


def _forms(*plain, **keyed):
    """A value of a plain schema or a one-key object {key: keyed[key]}."""
    return {"anyOf": [*plain, *(_object(k, **{k: v}) for k, v in keyed.items())]}


# the rate specs dists.as_rate takes from a config
_RATE_SPEC = _forms({"type": "number"}, const={"type": "number"},
                    affine={**_NUMBERS, "minItems": 2, "maxItems": 2},
                    pwlin=_object("t", "v", t=_NUMBERS, v=_NUMBERS))

# where each kind's model holds rate specs; a pwlin one must also have
# strictly increasing t and one v per t, which the schema cannot say
_RATE_FIELDS = {"sim": ("arrival.lambda_bar", "arrival.beta"),
                "limit": ("arrival.lambda_bar", "arrival.beta"),
                "fluid": ("Ebar",)}

# renewal arrivals take constant rates and sigma2; inhom_poisson takes
# rate specs and no sigma2, which its diffusion does not read
_ARRIVAL_KEYS = {
    "renewal": {"lambda_bar": _POSITIVE,
                "beta": {"type": "number"},
                "sigma2": _POSITIVE},
    "inhom_poisson": {"lambda_bar": _RATE_SPEC, "beta": _RATE_SPEC},
}
_ARRIVAL_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": list(_ARRIVAL_KEYS)}},
    "allOf": [{"if": {"required": ["kind"],
                      "properties": {"kind": {"const": kind}}},
               "then": {"properties": {"kind": {}, **keys},
                        "additionalProperties": False}}
              for kind, keys in _ARRIVAL_KEYS.items()],
}

# fluid initial data: a fluid config's model, a limit config's model.fluid
_FLUID_INIT = {
    "Ebar": _RATE_SPEC,
    "x0": {"type": "number", "minimum": 0},
    "nu0": _forms(_NULL, invariant={"type": "number"},
                  grid=_object("x", "p", x=_NUMBERS, p=_NUMBERS)),
}

_RUN_KEYS = {
    "seed": {"type": "integer", "minimum": 0},
    "seeds": {"type": "integer", "minimum": 1},
    "paths": {"type": "integer", "minimum": 1},
    "jobs": {"type": "integer", "minimum": 1},
    "noise_off": {"type": "boolean"},
    "out": {"type": "string"},
}


def _config(kind, *required, run, **blocks):
    """One kind's closed config: the header, its blocks (the named ones
    required) and a run block of the _RUN_KEYS that kind reads."""
    schema = _object("schema_version", "kind", *required,
                     schema_version={"const": 1}, kind={"const": kind},
                     run=_object(**{k: _RUN_KEYS[k] for k in run}), **blocks)
    # _errors reports in keyword order, so at the root an unknown key
    # comes before a missing block
    return {"additionalProperties": False, **schema}


SCHEMAS = {
    "sim": _config(
        "sim", "model", "numerics", run=("seed", "seeds", "jobs", "out"),
        model=_object("N", "service", "arrival",
                      N={"type": "integer", "minimum": 1}, service={},
                      arrival=_ARRIVAL_SCHEMA,
                      initial=_object(
                          x0={"type": "integer", "minimum": 0},
                          ages=_forms(_NULL, {"const": "invariant"}, {
                              "type": "array",
                              "items": {"type": "number", "minimum": 0}}))),
        numerics=_object("T", T=_POSITIVE)),
    "fluid": _config(
        "fluid", "model", "numerics", run=("out",),
        model=_object("service", service={}, **_FLUID_INIT),
        numerics=_object("T", "dt", T=_POSITIVE, dt=_POSITIVE)),
    "limit": _config(
        "limit", "model", "numerics",
        run=("seed", "paths", "jobs", "noise_off", "out"),
        model=_object("service", "arrival", "fluid", service={},
                      arrival=_ARRIVAL_SCHEMA, fluid=_object(**_FLUID_INIT),
                      x0hat={"type": "number"},
                      nu0hat=_forms(_NULL,
                                    density=_object("x", "v", x=_NUMBERS, v=_NUMBERS),
                                    atoms={"type": "array", "items": {
                                        **_NUMBERS, "minItems": 2, "maxItems": 2}})),
        numerics=_object("T", "dt", "dx", T=_POSITIVE, dt=_POSITIVE, dx=_POSITIVE,
                         x_max={"type": "number"})),
    "verify": _config("verify", run=("out",),
                      model=_object(overrides={"type": "object"})),
    "dists": _config("dists", "model", run=("out",),
                     model=_object("service", service={}),
                     numerics=_object(T=_POSITIVE, dt=_POSITIVE)),
}

# what validate_config checks before it picks a kind's schema
_HEADER = {"type": "object", "required": ["schema_version", "kind"],
           "properties": {"schema_version": {"const": 1},
                          "kind": {"enum": list(SCHEMAS)}}}


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment: kind plus model/numerics/run blocks."""

    schema_version: int
    kind: str
    model: dict
    numerics: dict
    run: dict

    @property
    def raw(self):
        return {"schema_version": self.schema_version, "kind": self.kind,
                "model": self.model, "numerics": self.numerics,
                "run": self.run}


class SchemaError(ValueError):
    pass


def _refused(field, errors, build, *args, **kwargs):
    """build(*args, **kwargs), an `errors` exception from it a config error
    at `field`; the library's message starts with the input's own name."""
    try:
        return build(*args, **kwargs)
    except errors as e:
        raise SchemaError(f"{field}{e}") from None


def validate_config(data):
    """Validate a raw dict against its kind's schema; return ExperimentConfig.

    The header (schema_version, kind) is checked first, then the whole
    config against SCHEMAS[kind] in one pass.  Raises SchemaError whose
    message starts with the offending field path.
    """
    if not isinstance(data, dict):
        raise SchemaError("(root): config must be a JSON object")
    msg = _first_error(_HEADER, data) or _first_error(SCHEMAS[data["kind"]], data)
    if msg is not None:
        raise SchemaError(msg)
    _refused("", ValueError, check_finite, data, "")
    for where in _RATE_FIELDS.get(data["kind"], ()):
        spec = data["model"]
        for key in where.split("."):
            spec = spec.get(key, {})
        if isinstance(spec, dict) and "pwlin" in spec:
            _refused(f"model.{where}.pwlin: ", ValueError, as_rate, spec)
    return ExperimentConfig(
        schema_version=data["schema_version"], kind=data["kind"],
        model=data.get("model", {}), numerics=data.get("numerics", {}),
        run=data.get("run", {}))


def load_config(path, kind=None, **flags):
    """Load and validate a config file for a command that runs `kind`.

    A config of another kind is refused before anything runs.  Every given
    flag is put into the run block first, so the schema checks flag values
    as it checks the file's.
    """
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise SchemaError(f"(root): not valid JSON ({e})")
    if isinstance(data, dict):
        other = data.get("kind")
        if kind is not None and isinstance(other, str) and other != kind \
                and other in SCHEMAS:
            raise SchemaError(f"kind: expected {kind!r}, got {other!r}")
        flags = {k: v for k, v in flags.items() if v is not None}
        if flags and isinstance(data.get("run", {}), dict):
            data["run"] = {**data.get("run", {}), **flags}
    return validate_config(data)


def _build_service(spec):
    return _refused("model.service: ", ServiceSpecError, make_service_dist, spec)


def _csv(header, columns):
    """CSV text; each column is converted once, floats with repr."""
    cells = []
    for col in columns:
        col = np.asarray(col)
        cells.append(map(repr if col.dtype.kind == "f" else str, col.tolist()))
    rows = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    return "\n".join(rows) + "\n"


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _finish(out_flag, cfg, seeds, t0, files):
    """Write the data files {name: text} and the manifest; return the dir."""
    out = Path(out_flag or cfg.run.get("out") or f"queuelab-{cfg.kind}-out")
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    blob = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    (out / "manifest.json").write_text(_json({
        "tool": "queuelab",
        "version": __version__,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seeds": seeds,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": sorted(files),
    }))
    return out


def _replicates(one, ctx, n, jobs):
    """[one(ctx, r) for r in range(n)], over `jobs` processes when jobs > 1.

    ctx is built once by the caller and pickled to the workers once per
    chunk of replicates, so at most `jobs` times; its service law crosses
    as its spec and is rebuilt there.  Results come back in replicate order.
    """
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(partial(one, ctx), range(n),
                                 chunksize=math.ceil(n / jobs)))
    return [one(ctx, r) for r in range(n)]


def _run_dists(cfg, out):
    t0 = time.time()
    dist = _build_service(cfg.model["service"])
    T, dt = float(cfg.numerics.get("T", 4.0)), float(cfg.numerics.get("dt", 1e-3))
    _refused("numerics.", ValueError, uniform_grid, T, dt)
    probe = np.linspace(0.0, min(dist.support_end, 8.0), 257)[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hz = np.asarray(dist.hazard(probe), dtype=float)
    hz = hz[np.isfinite(hz)]
    xs = np.linspace(0.0, min(dist.support_end * 0.75, 4.0), 16)
    ys = np.linspace(0.0, 4.0, 48)
    report = {
        "name": dist.name,
        "mean": float(dist.mean),
        "support_end": (None if np.isinf(dist.support_end)
                        else float(dist.support_end)),
        "hazard_max_on_probe": float(hz.max()) if hz.size else None,
        "holder": holder_check(dist, xs, ys).as_dict(),
        "renewal_U": {"T": T, "value": float(renewal_function(dist, T, dt)[-1])},
    }
    _finish(out, cfg, [], t0, {"dists_check.json": _json(report)})
    click.echo(json.dumps(report, sort_keys=True))
    return 0


def _sim_one(sim, replicate):
    path = simulate(dataclasses.replace(sim, replicate=replicate))
    kinds = [KIND_NAMES[k] for k in path.ev_kind.tolist()]
    text = _csv(["time", "kind", "E", "D", "K", "X", "in_service"],
                [path.ev_time, kinds, path.E, path.D, path.K, path.X, path.B])
    checks = conservation_check(path)
    summary = {
        "replicate": replicate,
        "events": int(path.ev_time.size),
        "final": dict(zip("EDKXB", path.counters_at(path.T))),
        "identity_violations": {k: int(v) for k, v in checks.items()},
    }
    return text, summary


def _run_sim(cfg, out):
    t0 = time.time()
    n_rep = int(cfg.run.get("seeds", 1))
    seed = int(cfg.run.get("seed", 0))
    initial = cfg.model.get("initial", {})
    if "x0" in initial:  # the schema's integer admits 3.0
        initial = {**initial, "x0": int(initial["x0"])}
    sim = SimConfig(N=int(cfg.model["N"]),
                    arrival=ArrivalSpec(**cfg.model["arrival"]),
                    service=_build_service(cfg.model["service"]),
                    T=float(cfg.numerics["T"]),
                    initial=InitialCondition(**initial),
                    seed=seed)
    _refused("model.initial.", ValueError, sim.initial.explicit_ages,
             min(sim.initial.x0, sim.N))
    results = _replicates(_sim_one, sim, n_rep, int(cfg.run.get("jobs", 1)))
    files = {f"sim_r{r:04d}.csv": text for r, (text, _) in enumerate(results)}
    summaries = [summary for _, summary in results]
    clean = all(max(s["identity_violations"].values()) == 0 for s in summaries)
    files["summary.json"] = _json({"replicates": n_rep, "identities_clean": clean,
                                   "per_replicate": summaries})
    out = _finish(out, cfg, [[seed, r] for r in range(n_rep)], t0, files)
    click.echo(f"{n_rep} replicates -> {out} (identities "
               f"{'clean' if clean else 'VIOLATED'})")
    return 0


def _run_fluid(cfg, out):
    t0 = time.time()
    dist = _build_service(cfg.model["service"])
    T, dt = float(cfg.numerics["T"]), float(cfg.numerics["dt"])
    _refused("numerics.", ValueError, uniform_grid, T, dt)
    path = _refused("model.", InitialDataError,  # raised before it steps
                    solve_fluid, dist, T, dt, Ebar=cfg.model.get("Ebar", 1.0),
                    x0=float(cfg.model.get("x0", 0.0)), nu0=cfg.model.get("nu0"))
    summary = {"regime": path.regime,
               "final": {"Xbar": float(path.Xbar[-1]),
                         "Kbar": float(path.Kbar[-1]),
                         "mass": float(path.Bbar[-1])}}
    out = _finish(out, cfg, [], t0, {
        "fluid.csv": _csv(["t", "Xbar", "Kbar", "mass", "hazard_load"],
                          [path.grid, path.Xbar, path.Kbar, path.Bbar,
                           path.Hbar]),
        "summary.json": _json(summary)})
    click.echo(f"regime {path.regime} -> {out}")
    return 0


def _limit_spec(cfg):
    """The limit run's spec; its paths differ only in the replicate index."""
    fluid = cfg.model["fluid"]
    arrival = ArrivalSpec(**cfg.model["arrival"])
    if "Ebar" in fluid and fluid["Ebar"] != arrival.lambda_bar:
        raise SchemaError(f"model.fluid.Ebar: {fluid['Ebar']!r} differs from "
                          f"model.arrival.lambda_bar {arrival.lambda_bar!r}")
    # the schema admits LimitGrid's fields only
    grid = _refused("numerics.", ValueError, LimitGrid,
                    **{k: float(v) for k, v in cfg.numerics.items()})
    return LimitSpec(dist=_build_service(cfg.model["service"]),
                     arrival=arrival, grid=grid,
                     x0=float(fluid.get("x0", 1.0)), nu0=fluid.get("nu0"),
                     x0hat=float(cfg.model.get("x0hat", 0.0)),
                     nu0hat=cfg.model.get("nu0hat"),
                     seed=int(cfg.run.get("seed", 0)),
                     noise_off=bool(cfg.run.get("noise_off", False)))


def _limit_one(plan, replicate):
    run = run_limit(plan, replicate)
    names = sorted(run.nuhat)
    text = _csv(["t", "Ehat", "Khat", "Xhat", "vhat"] + [f"nu_{n}" for n in names],
                [run.t_grid, run.Ehat, run.Khat, run.Xhat, run.vhat]
                + [run.nuhat[n] for n in names])
    summary = {"replicate": replicate, "regime": run.regime,
               "rep_hatx_residual": rep_hatx_residual(run),
               "smg_residual": smg_bookkeeping_residual(run),
               "final_Xhat": float(run.Xhat[-1])}
    return text, summary


def _run_limit(cfg, out):
    t0 = time.time()
    n_paths = int(cfg.run.get("paths", 1))
    try:
        plan = LimitPlan.for_spec(_limit_spec(cfg))
    except InitialDataError as e:  # nu0 sits in model.fluid, x0hat in model
        raise SchemaError(f"model.{'fluid.' if e.field == 'nu0' else ''}{e}") from None
    results = _replicates(_limit_one, plan, n_paths, int(cfg.run.get("jobs", 1)))
    files = {f"limit_p{p:04d}.csv": text for p, (text, _) in enumerate(results)}
    summaries = [summary for _, summary in results]
    worst = max(s["rep_hatx_residual"] for s in summaries)
    files["summary.json"] = _json({"paths": n_paths,
                                   "regime": summaries[0]["regime"],
                                   "worst_rep_hatx_residual": worst,
                                   "per_path": summaries})
    out = _finish(out, cfg, [[plan.spec.seed, p] for p in range(n_paths)], t0,
                  files)
    click.echo(f"{n_paths} limit paths ({summaries[0]['regime']}) -> {out}")
    return 0


_BATTERIES = {
    "fclt": scalestats.verify_fclt,
    "insensitivity": scalestats.verify_insensitivity,
    "moments": scalestats.verify_moments,
    "flln": scalestats.verify_flln,
    "sae": scalestats.verify_sae,
    "representation": scalestats.verify_representation,
}


def _run_verify(battery, cfg, out):
    t0 = time.time()
    if cfg is None and out is not None:
        raise SchemaError("run.out: --out writes a report only with --config")
    overrides = cfg.model.get("overrides", {}) if cfg else {}
    reports = _refused("model.overrides: ", (ServiceSpecError, scalestats.OverrideError),
                       _BATTERIES[battery], overrides)
    for r in reports:
        click.echo(r.line())
    if cfg is not None:
        _finish(out, cfg, [], t0, {f"verify_{battery}.json":
                                   _json([r.as_dict() for r in reports])})
    return 0 if scalestats.all_passed(reports) else 1


def run(cfg, battery=None, out=None):
    """Dispatch a validated config; returns the process exit code."""
    if battery is not None:
        return _run_verify(battery, cfg, out)
    if cfg.kind == "verify":
        raise SchemaError("kind: verify configs run through `verify <battery>`")
    return {"dists": _run_dists, "sim": _run_sim, "fluid": _run_fluid,
            "limit": _run_limit}[cfg.kind](cfg, out)


def _execute(fn):
    """Run a handler under the exit-code contract: 2 schema, 3 numerical."""
    try:
        code = fn()
    except SchemaError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(2)
    except (ValueError, ArithmeticError) as e:
        click.echo(f"numerical error: {e}", err=True)
        sys.exit(3)
    sys.exit(code)


_config_opt = click.option("--config", "config_path", required=True,
                           type=click.Path(exists=True, dir_okay=False))
_out_opt = click.option("--out", default=None, type=click.Path(file_okay=False))
_seed_opt = click.option("--seed", default=None, type=int)
_jobs_opt = click.option("--jobs", default=None, type=int)


@click.group()
@click.version_option(version=__version__, prog_name="queuelab")
def main():
    """Many-server queue laboratory: simulators, limits, verification."""


@main.group()
def dists():
    """Service-law tooling."""


@dists.command("check")
@_config_opt
@_out_opt
def dists_check(config_path, out):
    """Probe a service law: mean, hazard, regularity, renewal mass."""
    _execute(lambda: run(load_config(config_path, "dists"), out=out))


@main.group()
def sim():
    """Exact many-server simulation."""


@sim.command("run")
@_config_opt
@_out_opt
@_seed_opt
@click.option("--seeds", default=None, type=int,
              help="replicate count (overrides run.seeds)")
@_jobs_opt
def sim_run(config_path, out, seed, seeds, jobs):
    """Simulate replicates; one event CSV each plus a summary."""
    _execute(lambda: run(load_config(config_path, "sim", seed=seed, seeds=seeds,
                                     jobs=jobs), out=out))


@main.group()
def fluid():
    """Deterministic scaled-mean dynamics."""


@fluid.command("solve")
@_config_opt
@_out_opt
def fluid_solve(config_path, out):
    """Solve the fluid path; CSV of t, Xbar, Kbar, mass, hazard_load."""
    _execute(lambda: run(load_config(config_path, "fluid"), out=out))


@main.group()
def limit():
    """Gaussian second-order limit sampling."""


@limit.command("run")
@_config_opt
@_out_opt
@_seed_opt
@click.option("--paths", default=None, type=int,
              help="number of limit paths (overrides run.paths)")
@_jobs_opt
@click.option("--noise-off", is_flag=True, default=False,
              help="zero both Gaussian inputs (deterministic skeleton)")
def limit_run(config_path, out, seed, paths, jobs, noise_off):
    """Draw limit paths; one profile CSV each plus a summary."""
    _execute(lambda: run(load_config(config_path, "limit", seed=seed, paths=paths,
                                     jobs=jobs, noise_off=noise_off or None),
                         out=out))


@main.group()
def verify():
    """Statistical verification batteries (exit 1 on failure)."""


def _verify_command(battery):
    @verify.command(battery, short_help=f"run the {battery} battery")
    @click.option("--config", "config_path", default=None,
                  type=click.Path(exists=True, dir_okay=False))
    @_out_opt
    def _cmd(config_path, out, _battery=battery):
        def go():
            cfg = None if config_path is None else load_config(config_path, "verify")
            return run(cfg, battery=_battery, out=out)
        _execute(go)
    return _cmd


for _b in _BATTERIES:
    _verify_command(_b)


if __name__ == "__main__":
    main()
