"""CLI tests: schema gate, exit codes, output files, determinism.

Configs are tiny on purpose: every command here finishes in well under a
second so the whole module stays interactive.
"""
import json
import math
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from queuelab import cli, microsim, scalestats
from queuelab.cli import SchemaError, load_config, main, validate_config
from queuelab.dists import ArrivalSpec, make_service_dist
from queuelab.fluid import solve_fluid
from queuelab.limitsim import LimitGrid, LimitPlan, LimitSpec, run_limit
from queuelab.microsim import SimConfig, simulate

# exp-service renewal mass is exactly 1 + T; dt=1e-3 quadrature stays inside
RENEWAL_TOL = 0.01


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def sim_cfg(seeds=2, seed=7, N=10, T=1.0):
    return {"schema_version": 1, "kind": "sim",
            "model": {"N": N, "service": "exponential",
                      "arrival": {"kind": "renewal", "lambda_bar": 1.0}},
            "numerics": {"T": T},
            "run": {"seeds": seeds, "seed": seed}}


def limit_cfg(paths=2, seed=3, lambda_bar=1.0, fluid=None):
    return {"schema_version": 1, "kind": "limit",
            "model": {"service": "exponential",
                      "arrival": {"kind": "renewal", "lambda_bar": lambda_bar,
                                  "beta": 0.5},
                      "fluid": fluid or {"x0": 1.0, "nu0": {"invariant": 1.0}}},
            "numerics": {"T": 0.5, "dt": 0.01, "dx": 0.05},
            "run": {"paths": paths, "seed": seed}}


# an arrival rate and a fluid start in each regime the limit sampler solves
REGIME_LIMITS = pytest.mark.parametrize("regime, lambda_bar, fluid", [
    pytest.param(regime, lambda_bar, fluid, id=regime)
    for regime, lambda_bar, fluid in (
        ("critical", 1.0, {"x0": 1.0, "nu0": {"invariant": 1.0}}),
        ("subcritical", 0.5, {"x0": 0.5, "nu0": {"invariant": 0.5}}),
        ("supercritical", 1.5, {"x0": 1.0, "nu0": {"invariant": 1.0}}))])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, v in zip(header, line.split(",")):
            cols[h].append(v)
    return header, cols


class TestConfigValidation:
    def test_valid_config_round_trips(self):
        cfg = validate_config(sim_cfg())
        assert cfg.kind == "sim"
        assert cfg.model["N"] == 10
        assert cfg.raw["numerics"] == {"T": 1.0}

    def test_missing_block_names_it(self):
        data = sim_cfg()
        del data["numerics"]
        with pytest.raises(SchemaError, match="numerics"):
            validate_config(data)

    def test_nested_field_path_in_message(self):
        data = sim_cfg()
        data["model"]["N"] = -3
        with pytest.raises(SchemaError, match=r"model\.N"):
            validate_config(data)

    def test_run_block_unknown_key_rejected(self):
        data = sim_cfg()
        data["run"]["bogus"] = 1
        with pytest.raises(SchemaError, match=r"run.*bogus"):
            validate_config(data)

    def test_bench_cli_configs_valid(self):
        bench = Path(__file__).resolve().parents[1] / "bench" / "workloads.json"
        workloads = json.loads(bench.read_text())["workloads"]
        kinds = [validate_config(w["config"]).kind for w in workloads.values()
                 if w["entry"] == "cli.run"]
        assert sorted(kinds) == ["limit", "sim"]

    def test_wrong_schema_version(self):
        data = sim_cfg()
        data["schema_version"] = 2
        with pytest.raises(SchemaError, match="schema_version"):
            validate_config(data)

    def test_non_object_root(self):
        with pytest.raises(SchemaError, match=r"\(root\)"):
            validate_config([1, 2, 3])

    def test_malformed_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_config(str(p))

    def test_unknown_kind(self):
        data = sim_cfg()
        data["kind"] = "banana"
        with pytest.raises(SchemaError, match="kind"):
            validate_config(data)

    @pytest.mark.parametrize("faults, field", [
        ({"schema_version": 2, "model.N": -3}, "schema_version"),
        ({"kind": "banana", "run.seeds": 0}, "kind"),
        ({"model.N": -3, "numerics.T": -1.0}, "model.N"),
        ({"model.bogus": 1, "run.seeds": 0}, "model.bogus"),
        ({"numerics.T": -1.0, "run.bogus": 1}, "numerics.T"),
    ], ids=["header-model", "header-run", "model-numerics", "model-run",
            "numerics-run"])
    def test_first_faulty_block_named(self, faults, field):
        # the header is checked first, then one pass over the kind's schema
        # names the first error in path order: model, numerics, run
        data = sim_cfg()
        for where, value in faults.items():
            *parents, key = where.split(".")
            block = data
            for name in parents:
                block = block[name]
            block[key] = value
        with pytest.raises(SchemaError) as err:
            validate_config(data)
        assert str(err.value).startswith(f"{field}: "), str(err.value)

    def test_schemas_are_the_commands_kinds(self):
        # each command group runs the config kind of its name
        assert sorted(cli.SCHEMAS) == sorted(main.commands)


class TestSimRun:
    def test_outputs_and_parity_with_library(self, tmp_path):
        cfgp = write_cfg(tmp_path, sim_cfg())
        out = tmp_path / "o"
        res = CliRunner().invoke(main, ["sim", "run", "--config", cfgp,
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json", "sim_r0000.csv", "sim_r0001.csv",
                         "summary.json"]
        header, cols = read_csv(out / "sim_r0000.csv")
        assert header == ["time", "kind", "E", "D", "K", "X", "in_service"]
        path = simulate(SimConfig(
            N=10, arrival=ArrivalSpec("renewal", 1.0),
            service=make_service_dist("exponential"), T=1.0, seed=7,
            replicate=0))
        assert [int(v) for v in cols["E"]] == path.E.tolist(), (
            "CSV arrival counter must match the library path for the same "
            "seed and replicate")
        assert [int(v) for v in cols["in_service"]] == path.B.tolist()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["identities_clean"] is True
        assert summary["replicates"] == 2

    def test_each_replicate_builds_its_event_log_once(self, monkeypatch):
        built, build = [], microsim._event_log
        monkeypatch.setattr(microsim, "_event_log",
                            lambda path: built.append(path.replicate) or build(path))
        sim = SimConfig(N=10, arrival=ArrivalSpec("renewal", 1.0),
                        service=make_service_dist("exponential"), T=1.0, seed=7)
        for r in range(3):
            cli._sim_one(sim, r)
        assert built == [0, 1, 2]

    def test_seed_flag_changes_data(self, tmp_path):
        cfgp = write_cfg(tmp_path, sim_cfg(seeds=1))
        r = CliRunner()
        r.invoke(main, ["sim", "run", "--config", cfgp,
                        "--out", str(tmp_path / "a")])
        r.invoke(main, ["sim", "run", "--config", cfgp, "--seed", "99",
                        "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "sim_r0000.csv").read_bytes()
        b = (tmp_path / "b" / "sim_r0000.csv").read_bytes()
        assert a != b, "different base seed must change the event stream"

    def test_byte_determinism_and_jobs(self, tmp_path):
        cfgp = write_cfg(tmp_path, sim_cfg(seeds=3))
        r = CliRunner()
        r.invoke(main, ["sim", "run", "--config", cfgp,
                        "--out", str(tmp_path / "a")])
        r.invoke(main, ["sim", "run", "--config", cfgp,
                        "--out", str(tmp_path / "b"), "--jobs", "2"])
        for name in ["sim_r0000.csv", "sim_r0001.csv", "sim_r0002.csv",
                     "summary.json"]:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, (
                f"{name} differs between serial and --jobs 2 runs; data "
                f"outputs must be byte-for-byte reproducible")

    def test_whole_float_x0_reads_as_integer(self, tmp_path):
        # the schema's integer admits 3.0; it must run as x0 = 3
        r = CliRunner()
        for name, x0 in (("int", 3), ("float", 3.0)):
            data = sim_cfg(N=5)
            data["model"]["initial"] = {"x0": x0, "ages": "invariant"}
            res = r.invoke(main, ["sim", "run", "--config",
                                  write_cfg(tmp_path, data, f"{name}.json"),
                                  "--out", str(tmp_path / name)])
            assert res.exit_code == 0, res.output
        for name in ["sim_r0000.csv", "sim_r0001.csv"]:
            assert (tmp_path / "int" / name).read_bytes() \
                == (tmp_path / "float" / name).read_bytes()

    def test_seeds_flag_overrides_count(self, tmp_path):
        cfgp = write_cfg(tmp_path, sim_cfg(seeds=1))
        out = tmp_path / "o"
        CliRunner().invoke(main, ["sim", "run", "--config", cfgp,
                                  "--seeds", "3", "--out", str(out)])
        csvs = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
        assert csvs == ["sim_r0000.csv", "sim_r0001.csv", "sim_r0002.csv"]


class TestFluidSolve:
    # exp(-x) on [0, 8] by steps of 0.1: trapezoid mass 1 to 1e-3
    GRID = {"grid": {"x": [i / 10 for i in range(81)],
                     "p": [math.exp(-i / 10) for i in range(81)]}}

    def test_csv_matches_library_solution(self, tmp_path):
        for nu0 in ({"invariant": 1.0}, self.GRID):
            model = {"service": "exponential", "Ebar": 1.0, "x0": 1.0, "nu0": nu0}
            cfgp = write_cfg(tmp_path, {"schema_version": 1, "kind": "fluid",
                                        "model": model,
                                        "numerics": {"T": 1.0, "dt": 1e-3}})
            out = tmp_path / next(iter(nu0))
            res = CliRunner().invoke(main, ["fluid", "solve", "--config", cfgp,
                                            "--out", str(out)])
            assert res.exit_code == 0, res.output
            header, cols = read_csv(out / "fluid.csv")
            assert header == ["t", "Xbar", "Kbar", "mass", "hazard_load"]
            # the library takes the config's own nu0 dict
            ref = solve_fluid(make_service_dist("exponential"), 1.0, 1e-3,
                              Ebar=1.0, x0=1.0, nu0=model["nu0"])
            got = np.array([float(v) for v in cols["Xbar"]])
            assert np.array_equal(got, ref.Xbar), (
                "fluid CSV must reproduce the library solution exactly; repr "
                "round-trips floats")
            summary = json.loads((out / "summary.json").read_text())
            assert summary["regime"] == "critical"


class TestLimitRun:
    @REGIME_LIMITS
    def test_outputs_and_summary(self, tmp_path, regime, lambda_bar, fluid):
        cfgp = write_cfg(tmp_path, limit_cfg(lambda_bar=lambda_bar, fluid=fluid))
        out = tmp_path / "l"
        res = CliRunner().invoke(main, ["limit", "run", "--config", cfgp,
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        header, _ = read_csv(out / "limit_p0000.csv")
        assert header == ["t", "Ehat", "Khat", "Xhat", "vhat", "nu_exp_decay",
                          "nu_hazard", "nu_one", "nu_survival"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["paths"] == 2 and summary["regime"] == regime
        assert summary["worst_rep_hatx_residual"] < 1e-10, (
            "representation residual is a machine-precision identity; "
            f"got {summary['worst_rep_hatx_residual']:.3e}")

    def test_noise_off_paths_identical(self, tmp_path):
        cfgp = write_cfg(tmp_path, limit_cfg())
        out = tmp_path / "l"
        CliRunner().invoke(main, ["limit", "run", "--config", cfgp,
                                  "--noise-off", "--out", str(out)])
        a = (out / "limit_p0000.csv").read_bytes()
        b = (out / "limit_p0001.csv").read_bytes()
        assert a == b, "with both noise sources off every path is the skeleton"

    @REGIME_LIMITS
    def test_byte_determinism_and_jobs(self, tmp_path, regime, lambda_bar, fluid):
        # --jobs workers get the parent's spec and fluid path by pickle;
        # the law inside both crosses as its spec and is rebuilt there
        cfgp = write_cfg(tmp_path, limit_cfg(paths=3, lambda_bar=lambda_bar,
                                             fluid=fluid))
        r = CliRunner()
        for sub, extra in (("a", []), ("b", ["--jobs", "2"])):
            res = r.invoke(main, ["limit", "run", "--config", cfgp,
                                  "--out", str(tmp_path / sub)] + extra)
            assert res.exit_code == 0, res.output
        for name in ["limit_p0000.csv", "limit_p0001.csv", "limit_p0002.csv",
                     "summary.json"]:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, (
                f"{name} differs between serial and --jobs 2 runs; data "
                f"outputs must be byte-for-byte reproducible")

    @REGIME_LIMITS
    def test_restated_ebar_changes_no_byte(self, tmp_path, regime, lambda_bar,
                                           fluid):
        # the fluid path is driven by the arrival's lambda_bar, which
        # model.fluid.Ebar may restate; with no Ebar, lambda_bar 0.5 is
        # subcritical, not a fluid input of 1
        r = CliRunner()
        for sub, block in (("plain", fluid), ("restated", {**fluid, "Ebar": lambda_bar})):
            cfgp = write_cfg(tmp_path, limit_cfg(lambda_bar=lambda_bar, fluid=block),
                             name=f"{sub}.json")
            res = r.invoke(main, ["limit", "run", "--config", cfgp,
                                  "--out", str(tmp_path / sub)])
            assert res.exit_code == 0, res.output
        for name in ["limit_p0000.csv", "limit_p0001.csv", "summary.json"]:
            assert (tmp_path / "plain" / name).read_bytes() \
                == (tmp_path / "restated" / name).read_bytes(), name
        summary = json.loads((tmp_path / "plain" / "summary.json").read_text())
        assert summary["regime"] == regime

    @pytest.mark.parametrize("ebar", [0.5, 2, {"const": 1.0}],
                             ids=["lower", "higher-int", "const-form"])
    def test_ebar_other_than_lambda_bar_exit_two(self, tmp_path, ebar):
        data = limit_cfg()
        data["model"]["fluid"]["Ebar"] = ebar
        out = tmp_path / "x"
        res = CliRunner().invoke(main, ["limit", "run", "--config",
                                        write_cfg(tmp_path, data), "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "config error: model.fluid.Ebar: " in res.output
        assert not out.exists(), "a rejected config must write no file"

    def test_paths_flag(self, tmp_path):
        cfgp = write_cfg(tmp_path, limit_cfg(paths=1))
        out = tmp_path / "l"
        CliRunner().invoke(main, ["limit", "run", "--config", cfgp,
                                  "--paths", "3", "--out", str(out)])
        csvs = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
        assert len(csvs) == 3


class TestReplicateContext:
    """What a --jobs worker receives: the run's context, pickled whole."""

    def test_sim_config_round_trip(self):
        cfg = SimConfig(N=10, arrival=ArrivalSpec("renewal", 1.0),
                        service=make_service_dist("lognormal", sigma=0.5),
                        T=1.0, seed=7, replicate=2)
        a, b = simulate(cfg), simulate(pickle.loads(pickle.dumps(cfg)))
        assert np.array_equal(a.ev_time, b.ev_time)
        assert np.array_equal(a.X, b.X)

    def test_limit_spec_and_fluid_path_round_trip(self):
        spec = LimitSpec(dist=make_service_dist("gamma", shape=2.0),
                         arrival=ArrivalSpec("renewal", 1.0, beta=0.5),
                         grid=LimitGrid(T=0.3, dt=0.01, dx=0.1),
                         nu0={"invariant": 1.0}, seed=4)
        fl = solve_fluid(spec.dist, spec.grid.T, spec.grid.dt,  # the plan's fluid path
                         Ebar=spec.arrival.lambda_bar, x0=spec.x0, nu0=spec.nu0)
        plan = LimitPlan.for_spec(spec)  # carries the spec to the workers
        fl2, plan2 = pickle.loads(pickle.dumps((fl, plan)))
        for name in ("grid", "Xbar", "Kbar", "Bbar", "Hbar", "q0", "sf_comb"):
            assert np.array_equal(getattr(fl, name), getattr(fl2, name)), name
        x = np.linspace(0.0, 4.0, 33)
        assert np.array_equal(fl.dist.sf(x), fl2.dist.sf(x))
        a = run_limit(plan)
        b = run_limit(plan2)
        assert np.array_equal(a.Xhat, b.Xhat)
        assert all(np.array_equal(a.nuhat[n], b.nuhat[n]) for n in a.nuhat)


class CountedContext:
    """A replicate context that counts how often the parent pickles it."""

    pickles = 0

    def __reduce__(self):
        type(self).pickles += 1
        return CountedContext, ()


def square_replicate(ctx, r):
    return r * r


class TestReplicateFanOut:
    def test_context_pickled_once_per_worker(self):
        CountedContext.pickles = 0
        got = cli._replicates(square_replicate, CountedContext(), 6, 2)
        assert got == [r * r for r in range(6)], "results out of replicate order"
        assert CountedContext.pickles <= 2, (
            f"context pickled {CountedContext.pickles} times for 6 replicates "
            f"on 2 workers")


class TestDistsCheck:
    def test_report_contents(self, tmp_path):
        cfgp = write_cfg(tmp_path, {
            "schema_version": 1, "kind": "dists",
            "model": {"service": "exponential"},
            "numerics": {"T": 2.0, "dt": 1e-3}})
        out = tmp_path / "d"
        res = CliRunner().invoke(main, ["dists", "check", "--config", cfgp,
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        rep = json.loads((out / "dists_check.json").read_text())
        assert rep["name"].startswith("exponential")
        assert rep["mean"] == pytest.approx(1.0)
        assert rep["renewal_U"]["value"] == pytest.approx(3.0,
                                                          abs=RENEWAL_TOL), (
            "rate-1 exponential renewal mass at T=2 is 1 + T = 3")


class TestManifest:
    def test_manifest_fields(self, tmp_path):
        import hashlib
        data = sim_cfg(seeds=2, seed=5)
        cfgp = write_cfg(tmp_path, data)
        out = tmp_path / "o"
        CliRunner().invoke(main, ["sim", "run", "--config", cfgp,
                                  "--out", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        assert man["tool"] == "queuelab"
        assert man["seeds"] == [[5, 0], [5, 1]]
        assert man["wall_time_s"] >= 0
        assert man["outputs"] == ["sim_r0000.csv", "sim_r0001.csv",
                                  "summary.json"]
        blob = json.dumps(validate_config(data).raw, sort_keys=True,
                          separators=(",", ":"))
        assert man["config_sha256"] == hashlib.sha256(blob.encode()).hexdigest()


class TestVerifyCommand:
    QUICK = {"schema_version": 1, "kind": "verify",
             "model": {"overrides": {"N": 8, "T": 0.8, "shift": 0.4,
                                     "dt_levels": [0.01, 0.005], "reps": 4,
                                     "ratio_band": [0.05, 0.95]}}}

    def test_pass_exit_zero_and_report_file(self, tmp_path):
        cfgp = write_cfg(tmp_path, self.QUICK)
        out = tmp_path / "v"
        res = CliRunner().invoke(main, ["verify", "representation",
                                        "--config", cfgp, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "PASS" in res.output
        reports = json.loads((out / "verify_representation.json").read_text())
        assert all(r["pass"] for r in reports)

    def test_fail_exit_one(self, tmp_path):
        data = json.loads(json.dumps(self.QUICK))
        data["model"]["overrides"]["ratio_band"] = [0.4999, 0.5001]
        cfgp = write_cfg(tmp_path, data)
        res = CliRunner().invoke(main, ["verify", "representation",
                                        "--config", cfgp,
                                        "--out", str(tmp_path / "v")])
        assert res.exit_code == 1
        assert "FAIL" in res.output

    @pytest.mark.parametrize("battery, overrides", [
        ("representation", {**QUICK["model"]["overrides"], "bogus": 1}),
        ("representation", {**QUICK["model"]["overrides"],
                            "service": {"family": "paretoo"}}),
        ("representation", {**QUICK["model"]["overrides"],
                            "service": {"family": "gamma", "shape": -1.0}}),
        ("moments", {"dt": 0.001}),  # the exact compensator has no step
    ], ids=["unknown-key", "unknown-family", "bad-shape", "moments-dt"])
    def test_bad_override_exit_two(self, tmp_path, battery, overrides):
        data = {**self.QUICK, "model": {"overrides": overrides}}
        cfgp = write_cfg(tmp_path, data)
        out = tmp_path / "v"
        res = CliRunner().invoke(main, ["verify", battery, "--config", cfgp,
                                        "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "config error: model.overrides" in res.output
        assert not out.exists(), "a rejected config must write no file"

    @pytest.mark.parametrize("battery, overrides, key", [
        ("fclt", {"times": [7.0]}, "times.0"),
        ("moments", {"T_values": []}, "T_values"),
        ("flln", {"Ns": [100]}, "Ns"),
    ], ids=["fclt-time-past-T", "moments-no-T", "flln-one-N"])
    def test_nothing_to_check_exit_two(self, tmp_path, battery, overrides, key):
        cfgp = write_cfg(tmp_path, {**self.QUICK,
                                    "model": {"overrides": overrides}})
        out = tmp_path / "v"
        res = CliRunner().invoke(main, ["verify", battery, "--config", cfgp,
                                        "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"config error: model.overrides: {key}: " in res.output
        assert not out.exists(), "a rejected config must write no file"

    @pytest.mark.parametrize("battery, overrides, key", [
        ("flln", {"Ns": [0, 100]}, "Ns.0"),
        ("flln", {"seeds": 0}, "seeds"),
        ("fclt", {"N": 0}, "N"),
        ("insensitivity", {"reps": 0}, "reps"),
        ("moments", {"reps": 0}, "reps"),
        ("moments", {"ks": [0, 1]}, "ks.0"),
        ("sae", {"seeds": 0}, "seeds"),
        ("representation", {"N": 0}, "N"),
        ("representation", {"reps": -1}, "reps"),
    ], ids=["flln-N-zero", "flln-no-seeds", "fclt-N-zero",
            "insensitivity-no-reps", "moments-no-reps", "moments-k-zero",
            "sae-no-seeds", "representation-N-zero", "representation-negative-reps"])
    def test_count_below_one_exit_two(self, tmp_path, monkeypatch, battery,
                                      overrides, key):
        def no_path(*args, **kwargs):
            raise AssertionError("a path ran")

        for name in ("simulate", "simulate_hw", "run_limit", "ProcessPoolExecutor"):
            monkeypatch.setattr(scalestats, name, no_path)
        cfgp = write_cfg(tmp_path, {**self.QUICK,
                                    "model": {"overrides": overrides}})
        out = tmp_path / "v"
        res = CliRunner().invoke(main, ["verify", battery, "--config", cfgp,
                                        "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"config error: model.overrides: {key}: " in res.output
        assert not out.exists(), "a rejected config must write no file"

    @pytest.mark.parametrize("battery, overrides, message", [
        *((battery, {"seed": -1}, "seed: -1 is less than the minimum of 0")
          for battery in ("flln", "fclt", "insensitivity", "moments", "sae",
                          "representation")),
        *((battery, {"lambda_bar": 0},
           "lambda_bar: 0 is less than or equal to the minimum of 0")
          for battery in ("flln", "insensitivity", "moments", "representation")),
        ("sae", {"dx": 0}, "dx: 0 is less than or equal to the minimum of 0"),
        ("flln", {"slope_band": [-0.5]}, "slope_band: [-0.5] is too short"),
        ("flln", {"slope_band": [-0.7, -0.5, -0.3]},
         "slope_band: [-0.7, -0.5, -0.3] is too long"),
        ("sae", {"ratio_band": [0.5]}, "ratio_band: [0.5] is too short"),
        ("representation", {"ratio_band": [0.3, 0.5, 0.7]},
         "ratio_band: [0.3, 0.5, 0.7] is too long"),
        ("fclt", {"times": [0.5, 0.5]}, "times.1: 0.5 repeats times.0"),
        ("moments", {"T_values": [1.0, 1.0]}, "T_values.1: 1.0 repeats T_values.0"),
        ("moments", {"ks": [2, 2]}, "ks.1: 2 repeats ks.0"),
        ("moments", {"T_values": [-1.0]},
         "T_values.0: -1.0 is shorter than one step renewal step = 0.001"),
        ("fclt", {"times": [0.001], "euler_dt": 0.01},
         "times.0: 0.001 is shorter than one step euler_dt = 0.01"),
        ("fclt", {"times": [1.0, 1.005], "euler_dt": 0.01},
         "times.1: 1.005 is not a whole number of steps euler_dt = 0.01"),
        # every law is built before the first law's paths run, and a
        # refused law is named by its entry's path
        *((battery, {"reps": 3, "services": ["exponential",
                                             {"family": "gamma", "shape": -1.0}]},
           "services.1: gamma shape must be positive")
          for battery in ("insensitivity", "moments")),
        *((battery, {"reps": 3, "services": [{"family": "gamma", "shape": -1.0},
                                             "exponential"]},
           "services.0: gamma shape must be positive")
          for battery in ("insensitivity", "moments")),
        *((battery, {"service": {"family": "gamma", "shape": -1.0}},
           "service: gamma shape must be positive")
          for battery in ("flln", "representation")),
    ], ids=[*(f"{b}-seed-negative" for b in ("flln", "fclt", "insensitivity",
                                           "moments", "sae", "representation")),
            *(f"{b}-lambda-bar-zero" for b in ("flln", "insensitivity", "moments",
                                               "representation")),
            "sae-dx-zero", "flln-one-slope-bound", "flln-three-slope-bounds",
            "sae-one-ratio-bound", "representation-three-ratio-bounds",
            "fclt-repeated-time", "moments-repeated-T", "moments-repeated-k",
            "moments-T-below-one-step",
            "fclt-time-below-one-step", "fclt-time-between-steps",
            "insensitivity-bad-second-law", "moments-bad-second-law",
            "insensitivity-bad-first-law", "moments-bad-first-law",
            "flln-bad-law", "representation-bad-law"])
    def test_bound_override_exit_two(self, tmp_path, monkeypatch, battery,
                                     overrides, message):
        # the bounds in each battery's override schema, the list entries
        # (each named by its path) and the laws, checked before any path runs
        def no_path(*args, **kwargs):
            raise AssertionError("a path ran")

        for name in ("simulate", "simulate_hw", "run_limit", "ProcessPoolExecutor"):
            monkeypatch.setattr(scalestats, name, no_path)
        cfgp = write_cfg(tmp_path, {**self.QUICK,
                                    "model": {"overrides": overrides}})
        out = tmp_path / "v"
        res = CliRunner().invoke(main, ["verify", battery, "--config", cfgp,
                                        "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"config error: model.overrides: {message}\n" in res.output
        assert not out.exists(), "a rejected config must write no file"

    @pytest.mark.parametrize("battery, overrides, message", [
        ("flln", {"grid_dt": 0.3},
         "T: 2.0 is not a whole number of steps grid_dt = 0.3"),
        ("flln", {"fluid_dt": 0.3},
         "T: 2.0 is not a whole number of steps fluid_dt = 0.3"),
        ("insensitivity", {"N": 20, "T": 1.0, "dt": 0.35, "reps": 3},
         "T: 1.0 is not a whole number of steps dt = 0.35"),
        ("moments", {"T_values": [1.0, 1.0005]},
         "T_values.1: 1.0005 is not a whole number of steps renewal step = 0.001"),
        ("sae", {"dt_levels": [0.04, 0.03]},
         "T: 1.0 is not a whole number of steps dt_levels = 0.03"),
        ("representation", {**QUICK["model"]["overrides"], "T": 0.805},
         "T: 0.805 is not a whole number of steps dt_levels = 0.01"),
        ("representation", {**QUICK["model"]["overrides"], "shift": 0.405},
         "shift: 0.405 is not a whole number of steps dt_levels = 0.01"),
        ("representation", {**QUICK["model"]["overrides"], "shift": 0.8},
         "shift: 0.8 lies outside [0, T) with T 0.8"),
        ("flln", {"Ns": 100}, "Ns: 100 is not of type 'array'"),
        ("insensitivity", {"reps": 2.5}, "reps: 2.5 is not of type 'integer'"),
        ("fclt", {"T": "5"}, "T: '5' is not of type 'number'"),
        # a list's entries by the rule for its default's entries
        ("fclt", {"times": ["1.0"]}, "times.0: '1.0' is not of type 'number'"),
        ("flln", {"Ns": [25, 100.5]}, "Ns.1: 100.5 is not of type 'integer'"),
    ], ids=["flln-grid-dt", "flln-fluid-dt", "insensitivity-dt",
            "moments-T-value", "sae-dt-level", "representation-T",
            "representation-shift", "representation-shift-at-T",
            "flln-scalar-Ns", "insensitivity-fractional-reps", "fclt-string-T",
            "fclt-string-time", "flln-fractional-N"])
    def test_grid_or_type_override_exit_two(self, tmp_path, battery, overrides,
                                            message):
        # refused before any path runs, naming the override key
        cfgp = write_cfg(tmp_path, {**self.QUICK,
                                    "model": {"overrides": overrides}})
        out = tmp_path / "v"
        res = CliRunner().invoke(main, ["verify", battery, "--config", cfgp,
                                        "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"config error: model.overrides: {message}\n" in res.output
        assert not out.exists(), "a rejected config must write no file"

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfgp = write_cfg(tmp_path, sim_cfg())
        res = CliRunner().invoke(main, ["verify", "representation",
                                        "--config", cfgp])
        assert res.exit_code == 2

    def test_verify_kind_needs_battery_subcommand(self, tmp_path):
        cfgp = write_cfg(tmp_path, self.QUICK)
        with pytest.raises(SchemaError, match="verify"):
            from queuelab.cli import run
            run(load_config(cfgp))


class TestExitCodes:
    def test_schema_error_exit_two(self, tmp_path):
        data = sim_cfg()
        del data["numerics"]
        cfgp = write_cfg(tmp_path, data)
        res = CliRunner().invoke(main, ["sim", "run", "--config", cfgp])
        assert res.exit_code == 2
        assert "numerics" in res.output

    @pytest.mark.parametrize("arrival", [
        {"kind": "renewal", "lambda_bar": 1.0, "beta": 2.0},
        # the dip lies between the even probe points
        {"kind": "inhom_poisson", "beta": 0.0, "lambda_bar": {"pwlin": {
            "t": [0.0, 0.3, 0.3001, 0.3002, 1.0], "v": [1.0, 1.0, -1.0, 1.0, 1.0]}}},
    ], ids=["renewal", "pwlin-dip"])
    def test_inadmissible_arrival_rate_exit_three(self, tmp_path, arrival):
        data = sim_cfg(N=1)
        data["model"]["arrival"] = arrival
        res = CliRunner().invoke(main, ["sim", "run", "--config", write_cfg(tmp_path, data),
                                        "--out", str(tmp_path / "x")])
        assert res.exit_code == 3, res.output
        assert "arrival rate not admissible for N=1 on [0,1.0]" in res.output

    @pytest.mark.parametrize("kind", ["sim", "limit"])
    def test_negative_rate_exit_three_in_both_kinds(self, tmp_path, kind):
        # one admissibility rule: sim run checks lambda_bar N - beta sqrt(N),
        # limit run lambda_bar alone, the rate that drives its fluid path
        data = sim_cfg(T=0.5) if kind == "sim" else limit_cfg()
        data["model"]["arrival"] = {"kind": "inhom_poisson", "beta": 0.0, "lambda_bar": {
            "pwlin": {"t": [0.0, 0.5], "v": [-1.0, -1.0]}}}
        out = tmp_path / "x"
        res = CliRunner().invoke(main, [kind, "run", "--config", write_cfg(tmp_path, data),
                                        "--out", str(out)])
        assert res.exit_code == 3, res.output
        scale = "N=10" if kind == "sim" else "the fluid limit"
        assert (f"numerical error: arrival rate not admissible for {scale} on [0,0.5]"
                in res.output)
        assert not out.exists(), "a refused run must write no file"

    def test_numerical_error_exit_three(self, tmp_path):
        # the grid states mass 1, but its spike falls between the nodes of
        # the dt = 0.5 age grid, so the solver's B(0) misses the 1e-3 gate
        cfgp = write_cfg(tmp_path, {
            "schema_version": 1, "kind": "fluid",
            "model": {"service": "exponential", "x0": 1.0,
                      "nu0": {"grid": {"x": [0, 0.1, 0.2], "p": [0, 10, 0]}}},
            "numerics": {"T": 1.0, "dt": 0.5}})
        res = CliRunner().invoke(main, ["fluid", "solve", "--config", cfgp,
                                        "--out", str(tmp_path / "x")])
        assert res.exit_code == 3
        assert "numerical error" in res.output
        assert "nu0 mass" in res.output

    def test_tail_past_the_age_table_exit_three(self, tmp_path):
        data = sim_cfg()
        data["model"]["service"] = {"family": "pareto", "a": 1.2}
        data["model"]["initial"] = {"x0": 10, "ages": "invariant"}
        out = tmp_path / "x"
        res = CliRunner().invoke(main, ["sim", "run", "--config",
                                        write_cfg(tmp_path, data), "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert ("numerical error: pareto(a=1.2): the stationary age table ends at "
                "age 1.04858e+06 with 0.0453 of the age law's mass past it"
                in res.output)
        assert not out.exists(), "a refused run must write no file"

    @pytest.mark.parametrize("model, numerics, message", [
        # lognormal(0.01) has g(dt/2) dt / 2 >= 1 at dt 2
        ({"service": {"family": "lognormal", "sigma": 0.01}},
         {"T": 4.0, "dt": 2.0}, "dt too large for this service density at 0"),
        # the cumulative arrivals overflow in the first step
        ({"service": "exponential", "Ebar": {"const": 1e308}},
         {"T": 1.0, "dt": 0.01}, "fluid step 1 (t=0.01) is not finite"),
    ], ids=["step-too-large", "non-finite-step"])
    def test_fluid_step_error_exit_three(self, tmp_path, model, numerics, message):
        cfgp = write_cfg(tmp_path, {"schema_version": 1, "kind": "fluid",
                                    "model": model, "numerics": numerics})
        out = tmp_path / "x"
        res = CliRunner().invoke(main, ["fluid", "solve", "--config", cfgp,
                                        "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert f"numerical error: {message}" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("service", [
        "no_such_family",
        {"family": "pareto", "alpha": 3.0},
        {"family": "lognormal", "sgima": 2.0},
        {"family": "gamma", "shape": -1.0},
        {"family": "gamma", "shape": 2.0, "scale": 5.0},
        {"family": "gamma", "shape": "abc"},
    ], ids=["unknown-family", "pareto-alpha", "lognormal-sgima", "gamma-shape",
            "gamma-scale", "gamma-shape-text"])
    @pytest.mark.parametrize("command", ["fluid", "sim", "sim-jobs", "limit",
                                         "dists"])
    def test_bad_service_spec_exit_two(self, tmp_path, command, service):
        argv = {"fluid": ["fluid", "solve"], "sim": ["sim", "run"],
                "sim-jobs": ["sim", "run", "--jobs", "2"],
                "limit": ["limit", "run"], "dists": ["dists", "check"]}[command]
        data = {"fluid": {"schema_version": 1, "kind": "fluid",
                          "model": {"service": "exponential"},
                          "numerics": {"T": 1.0, "dt": 0.01}},
                "sim": sim_cfg(), "sim-jobs": sim_cfg(), "limit": limit_cfg(),
                "dists": {"schema_version": 1, "kind": "dists",
                          "model": {"service": "exponential"}}}[command]
        data["model"]["service"] = service
        cfgp = write_cfg(tmp_path, data)
        res = CliRunner().invoke(main, argv + ["--config", cfgp,
                                               "--out", str(tmp_path / "x")])
        assert res.exit_code == 2, res.output
        assert "config error: model.service" in res.output

    @pytest.mark.parametrize("argv, key", [
        (["limit", "run", "--paths", "0"], "paths"),
        (["limit", "run", "--paths", "-1"], "paths"),
        (["limit", "run", "--jobs", "0"], "jobs"),
        (["limit", "run", "--jobs", "-2"], "jobs"),
        (["sim", "run", "--jobs", "0"], "jobs"),
        (["sim", "run", "--jobs", "-1"], "jobs"),
        (["verify", "representation"], "out"),
    ], ids=["limit-paths-0", "limit-paths-neg", "limit-jobs-0", "limit-jobs-neg",
            "sim-jobs-0", "sim-jobs-neg", "verify-out-no-config"])
    def test_bad_flag_exit_two(self, tmp_path, argv, key):
        # a flag is a run-block override: the schema checks it or it is refused
        out = tmp_path / "x"
        if argv[0] != "verify":
            data = sim_cfg() if argv[0] == "sim" else limit_cfg()
            argv = argv + ["--config", write_cfg(tmp_path, data)]
        res = CliRunner().invoke(main, argv + ["--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"config error: run.{key}: " in res.output
        assert not out.exists(), "a rejected flag must write no file"

    @pytest.mark.parametrize("argv, block, key, value", [
        (["sim", "run"], "run", "paths", 7),
        (["sim", "run"], "run", "noise_off", True),
        (["limit", "run"], "run", "seeds", 2),
        (["fluid", "solve"], "run", "seed", 3),
        (["fluid", "solve"], "run", "jobs", 4),
        (["dists", "check"], "run", "seeds", 9),
        (["dists", "check"], "numerics", "bogus", 1),
        (["verify", "representation"], "run", "seed", 1),
        (["verify", "representation"], "numerics", None, {"T": 1.0}),
        (["limit", "run"], "model", "regime", "subcritical"),
        (["limit", "run"], "numerics", "tail_budget", 1e-3),
        (["fluid", "solve"], "model", "x_max", 25.0),
    ], ids=["sim-paths", "sim-noise-off", "limit-seeds", "fluid-seed",
            "fluid-jobs", "dists-seeds", "dists-numerics-bogus", "verify-seed",
            "verify-numerics", "limit-regime", "limit-tail-budget",
            "fluid-x-max"])
    def test_unread_key_exit_two(self, tmp_path, argv, block, key, value):
        # each kind takes only the model, run and numerics keys it reads;
        # a limit run's regime is its fluid path's
        data = {"sim": sim_cfg(), "limit": limit_cfg(),
                "fluid": {"schema_version": 1, "kind": "fluid",
                          "model": {"service": "exponential"},
                          "numerics": {"T": 1.0, "dt": 0.01}},
                "dists": {"schema_version": 1, "kind": "dists",
                          "model": {"service": "exponential"},
                          "numerics": {"T": 1.0, "dt": 0.01}},
                "verify": {"schema_version": 1, "kind": "verify"}}[argv[0]]
        if key is None:
            data[block] = value
        else:
            data.setdefault(block, {})[key] = value
        out = tmp_path / "x"
        res = CliRunner().invoke(main, argv + ["--config", write_cfg(tmp_path, data),
                                               "--out", str(out)])
        assert res.exit_code == 2, res.output
        field = block if key is None else f"{block}.{key}"
        assert f"config error: {field}: " in res.output
        assert not out.exists(), "a rejected config must write no file"

    @pytest.mark.parametrize("key, value", [
        ("X0", 0.5), ("x0", -1), ("nu0", {"bogus": 1.0}), ("x_max", 25.0),
        ("nu0", {"grid": {"x": [0.0, 1.0]}}), ("Ebar", {"rate": 1.0})],
        ids=["typo", "negative-x0", "bad-nu0", "x-max", "grid-without-p",
             "dict-ebar"])
    def test_limit_fluid_block_checked(self, tmp_path, key, value):
        # model.fluid takes a fluid config's initial-data keys and values
        data = limit_cfg()
        data["model"]["fluid"][key] = value
        out = tmp_path / "x"
        res = CliRunner().invoke(main, ["limit", "run", "--config",
                                        write_cfg(tmp_path, data), "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"config error: model.fluid.{key}: " in res.output
        assert not out.exists(), "a rejected config must write no file"

    @pytest.mark.parametrize("kind, where, value, field", [
        ("sim", "model.arrival.lambda_bar", {"const": 1.0},
         "model.arrival.lambda_bar"),
        ("sim", "model.arrival.beta", [0.5], "model.arrival.beta"),
        ("sim", "model.arrival.lambda_bar", "1.0", "model.arrival.lambda_bar"),
        ("sim", "model.arrival", {"kind": "inhom_poisson",
                                  "lambda_bar": {"pwlin": {"t": [0.0, 1.0]}}},
         "model.arrival.lambda_bar"),
        ("sim", "model.arrival", {"kind": "inhom_poisson", "lambda_bar": 1.0,
                                  "sigma2": 1.0}, "model.arrival.sigma2"),
        ("sim", "model.initial", {"x0": 10, "ages": "foo"},
         "model.initial.ages"),
        ("sim", "model.initial", {"x0": 10, "residual_sampling": "conditional"},
         "model.initial.residual_sampling"),
        # an explicit ages list holds min(x0, N) ages, none when x0 is 0
        ("sim", "model.initial", {"x0": 0, "ages": [0.5, 1.0, 1.5]},
         "model.initial.ages"),
        ("sim", "model.initial", {"x0": 2, "ages": [0.5, 1.0, 1.5]},
         "model.initial.ages"),
        ("fluid", "model.nu0", {"invariant": "x"}, "model.nu0"),
        ("limit", "model.nu0hat", {"atoms": [[1.0]]}, "model.nu0hat"),
        ("limit", "model.nu0hat", {"density": {"x": [0.0, 1.0]}},
         "model.nu0hat"),
        ("limit", "numerics.x_max", -1, "numerics.x_max"),
        ("limit", "numerics.x_max", 0, "numerics.x_max"),
        ("limit", "numerics.x_max", 0.04, "numerics.x_max"),
        # an explicit x_max between cell edges is not rounded to one
        ("limit", "numerics.x_max", 6.03, "numerics.x_max"),
        ("limit", "numerics.T", 0.004, "numerics.dt"),
        # the stated nu0 mass must be min(x0, 1): x0 is 0 in the fluid
        # config and 1 in the limit one
        ("fluid", "model.nu0", {"invariant": 0.4}, "model.nu0"),
        ("fluid", "model.nu0", {"grid": {"x": [0.0, 1.0, 2.0],
                                         "p": [0.25, 0.25, 0.0]}}, "model.nu0"),
        ("limit", "model.fluid.nu0", {"invariant": 0.5}, "model.fluid.nu0"),
        # Z(0), the nu0hat mass (0 here), must be the critical clamp of x0hat
        ("limit", "model.x0hat", -0.3, "model.x0hat"),
        # a step longer than the horizon, named as the step in every
        # kind; dists falls back to T = 4
        ("limit", "numerics.T", 0.008, "numerics.dt"),
        ("fluid", "numerics", {"T": 0.01, "dt": 0.1}, "numerics.dt"),
        ("dists", "numerics", {"dt": 5.0}, "numerics.dt"),
        # a horizon that is not a whole number of steps
        ("fluid", "numerics", {"T": 1.0, "dt": 0.3}, "numerics.T"),
        ("dists", "numerics", {"T": 1.0, "dt": 0.3}, "numerics.T"),
        ("limit", "numerics.T", 0.505, "numerics.T"),
        # json reads Infinity and NaN, and the schema's number admits them
        ("fluid", "numerics.T", float("inf"), "numerics.T"),
        ("fluid", "numerics.dt", float("nan"), "numerics.dt"),
        ("fluid", "model.x0", float("inf"), "model.x0"),
        ("limit", "model.x0hat", float("nan"), "model.x0hat"),
        ("limit", "numerics.x_max", float("inf"), "numerics.x_max"),
        ("sim", "model.arrival.lambda_bar", float("inf"),
         "model.arrival.lambda_bar"),
        ("sim", "model.arrival", {"kind": "inhom_poisson", "lambda_bar": {
            "pwlin": {"t": [0.0, 1.0], "v": [1.0, float("inf")]}}},
         "model.arrival.lambda_bar.pwlin.v.1"),
        ("verify", "model.overrides", {"T": float("-inf")},
         "model.overrides.T"),
        # node lists: one value per x, x strictly increasing from 0 or
        # above, and no negative density or atom age; each grid states
        # mass 1 = min(x0, 1) and each nu0hat mass 0, the clamp of x0hat 0
        ("fluid", "model", {"service": "exponential", "x0": 1.0, "nu0": {
            "grid": {"x": [0.0, 1.0], "p": [-1.0, 3.0]}}}, "model.nu0"),
        ("fluid", "model", {"service": "exponential", "x0": 1.0, "nu0": {
            "grid": {"x": [0.0, 1.0, 2.0], "p": [1.0, 0.0]}}}, "model.nu0"),
        ("fluid", "model", {"service": "exponential", "x0": 1.0, "nu0": {
            "grid": {"x": [0.0, 2.0, 1.0], "p": [1.0, 0.0, 0.0]}}}, "model.nu0"),
        ("fluid", "model", {"service": "exponential", "x0": 1.0, "nu0": {
            "grid": {"x": [-1.0, 0.0, 1.0], "p": [0.0, 1.0, 0.0]}}}, "model.nu0"),
        ("limit", "model.nu0hat", {"density": {"x": [0.0, 1.0, 2.0],
                                               "v": [0.0, 0.0]}}, "model.nu0hat"),
        ("limit", "model.nu0hat", {"density": {"x": [0.0, 2.0, 1.0],
                                               "v": [0.0, 0.0, 0.0]}}, "model.nu0hat"),
        ("limit", "model.nu0hat", {"atoms": [[-0.5, 0.0]]}, "model.nu0hat"),
    ], ids=["renewal-dict-rate", "renewal-list-beta", "renewal-string-rate",
            "pwlin-without-v", "inhom-sigma2", "ages-string",
            "initial-residual-sampling", "ages-without-x0", "ages-over-x0",
            "nu0-string-mass", "nu0hat-short-atom", "nu0hat-density-without-v",
            "x-max-negative", "x-max-zero", "x-max-below-dx",
            "x-max-not-whole-cells", "no-time-step",
            "nu0-invariant-mass", "nu0-grid-mass", "limit-nu0-mass",
            "x0hat-clamp", "limit-dt-over-T", "fluid-dt-over-T",
            "dists-dt-over-default-T", "fluid-T-not-whole-steps",
            "dists-T-not-whole-steps", "limit-T-not-whole-steps",
            "inf-fluid-T", "nan-fluid-dt", "inf-fluid-x0", "nan-limit-x0hat",
            "inf-limit-x-max", "inf-renewal-rate", "inf-pwlin-value",
            "inf-verify-override", "nu0-negative-p", "nu0-p-short",
            "nu0-x-unsorted", "nu0-x-negative", "nu0hat-v-short",
            "nu0hat-x-unsorted", "nu0hat-negative-atom"])
    def test_bad_shape_exit_two(self, tmp_path, kind, where, value, field):
        # every config shape the builders take, and every agreement between
        # initial data the run needs, is checked before anything runs;
        # limit numerics have dx = 0.05 and dt = 0.01
        data = {"sim": sim_cfg(), "limit": limit_cfg(),
                "fluid": {"schema_version": 1, "kind": "fluid",
                          "model": {"service": "exponential"},
                          "numerics": {"T": 1.0, "dt": 0.01}},
                "dists": {"schema_version": 1, "kind": "dists",
                          "model": {"service": "exponential"}},
                "verify": {"schema_version": 1, "kind": "verify",
                           "model": {}}}[kind]
        *parents, key = where.split(".")
        block = data
        for name in parents:
            block = block[name]
        block[key] = value
        argv = {"sim": ["sim", "run"], "limit": ["limit", "run"],
                "fluid": ["fluid", "solve"], "dists": ["dists", "check"],
                "verify": ["verify", "fclt"]}[kind]
        out = tmp_path / "x"
        res = CliRunner().invoke(main, argv + ["--config", write_cfg(tmp_path, data),
                                               "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"config error: {field}: " in res.output
        assert not out.exists(), "a rejected config must write no file"

    @pytest.mark.parametrize("kind, where, pwlin, message", [
        ("sim", "model.arrival.lambda_bar", {"t": [0.0, 1.0, 2.0], "v": [1.0, 2.0]},
         "t and v differ in length (3 and 2)"),
        ("sim", "model.arrival.beta", {"t": [2.0, 1.0, 0.0], "v": [0.0, 0.5, 1.0]},
         "t must be strictly increasing"),
        ("fluid", "model.Ebar", {"t": [0.0, 1.0], "v": [1.0]},
         "t and v differ in length (2 and 1)"),
        ("limit", "model.arrival.lambda_bar", {"t": [0.0, 0.0], "v": [1.0, 1.0]},
         "t must be strictly increasing"),
    ], ids=["sim-lengths", "sim-decreasing", "fluid-ebar-lengths",
            "limit-lambda-bar-repeated-knot"])
    def test_bad_pwlin_exit_two(self, tmp_path, kind, where, pwlin, message):
        # np.interp would fail on unequal lengths and silently misread a
        # t that does not increase
        data = {"sim": sim_cfg(), "limit": limit_cfg(),
                "fluid": {"schema_version": 1, "kind": "fluid",
                          "model": {"service": "exponential"},
                          "numerics": {"T": 1.0, "dt": 0.01}}}[kind]
        if kind != "fluid":
            data["model"]["arrival"] = {"kind": "inhom_poisson",
                                        "lambda_bar": 1.0, "beta": 0.0}
        *parents, key = where.split(".")
        block = data
        for name in parents:
            block = block[name]
        block[key] = {"pwlin": pwlin}
        argv = {"sim": ["sim", "run"], "limit": ["limit", "run"],
                "fluid": ["fluid", "solve"]}[kind]
        out = tmp_path / "x"
        res = CliRunner().invoke(main, argv + ["--config", write_cfg(tmp_path, data),
                                               "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"config error: {where}.pwlin: {message}" in res.output
        assert not out.exists(), "a rejected config must write no file"

    @pytest.mark.parametrize("argv, kind, data", [
        (["sim", "run"], "sim", limit_cfg()),
        (["limit", "run"], "limit", sim_cfg()),
        (["fluid", "solve"], "fluid", {"schema_version": 1, "kind": "dists",
                                       "model": {"service": "exponential"}}),
        (["dists", "check"], "dists", {"schema_version": 1, "kind": "fluid",
                                       "model": {"service": "exponential"},
                                       "numerics": {"T": 1.0, "dt": 0.01}}),
    ], ids=["sim", "limit", "fluid", "dists"])
    def test_other_kind_exit_two(self, tmp_path, argv, kind, data):
        # each command runs its own kind only
        out = tmp_path / "x"
        res = CliRunner().invoke(main, argv + ["--config", write_cfg(tmp_path, data),
                                               "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert (f"config error: kind: expected '{kind}', got '{data['kind']}'"
                in res.output)
        assert not out.exists(), "a rejected config must write no file"

    def test_missing_config_file_exit_two(self):
        res = CliRunner().invoke(main, ["sim", "run", "--config",
                                        "/nonexistent/cfg.json"])
        assert res.exit_code == 2


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "queuelab.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "queuelab" in out.stdout
