"""The benchmark's tracer names library functions by (module, attribute);
a rename in the package must fail here, not in a traced bench run.  And
every public name of the package has a caller outside the tests."""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from queuelab.dists import make_service_dist

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def load_script(path):
    """Import a script by path without writing bytecode next to it.  It is
    registered in sys.modules, where its dataclasses look up their module."""
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the script's tree as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def tracer():
    return load_script(TRACER)


def test_traced_names_resolve(tracer):
    names = [(mod, attr) for mod, attr, *_ in tracer.SPANS + tracer.COUNTED]
    names.append(("dists", "make_service_dist"))
    missing = [f"queuelab.{mod}.{attr}" for mod, attr in names
               if not hasattr(importlib.import_module(f"queuelab.{mod}"), attr)]
    assert not missing, f"bench/tracer.py traces names the package lacks: {missing}"


def test_traced_law_kernels_exist(tracer):
    law = make_service_dist("exponential")
    assert all(callable(getattr(law, k, None)) for k in tracer.LAW_KERNELS)


def _loaded_after(code, *packages):
    """The modules of the given top-level packages loaded after running
    code in a fresh interpreter, sorted."""
    code += (f"\nimport sys; print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {packages!r}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    # queuelab.cli imports every layer; scipy.special and scipy.fft are
    # imported where a law or a transform calls them, so none loads here
    loaded = _loaded_after("import queuelab.cli", "scipy")
    assert loaded == "[]", f"import queuelab.cli loaded {loaded}"


def test_cli_import_loads_no_jsonschema():
    # cli checks configs with its own walk of the schema keywords it uses;
    # jsonschema and what it pulls in are test-only
    loaded = _loaded_after("import queuelab.cli", "jsonschema", "referencing",
                           "jsonschema_specifications", "rpds", "attrs", "attr")
    assert loaded == "[]", f"import queuelab.cli loaded {loaded}"


def test_exponential_fclt_round_loads_no_scipy():
    # the exponential law and the fclt battery call no special function
    # and no FFT, so building the law and running a whole round import no
    # scipy
    loaded = _loaded_after(
        "from queuelab.dists import make_service_dist\n"
        "from queuelab.scalestats import verify_fclt\n"
        "law = make_service_dist('exponential')\n"
        "law.sf(1.0), law.hazard(1.0), law.density(1.0)\n"
        "verify_fclt({'N': 50, 'T': 1.0, 'times': [0.5, 1.0],"
        " 'des_reps': 4, 'euler_paths': 200, 'euler_dt': 0.01})", "scipy")
    assert loaded == "[]", f"an exponential fclt round loaded {loaded}"


def test_lognormal_limit_run_loads_no_scipy_linalg_or_stats(tmp_path):
    # the limit plan's age basis is sketched and factored with numpy
    # (numpy.linalg loads with numpy), and the lognormal law's kernels call
    # scipy.special only, so a whole limit run loads neither module
    cfg = {"schema_version": 1, "kind": "limit",
           "model": {"service": {"family": "lognormal", "sigma": 0.5},
                     "arrival": {"kind": "renewal", "lambda_bar": 1.0, "beta": 1.0},
                     "fluid": {"Ebar": 1.0, "x0": 1.0, "nu0": {"invariant": 1.0}}},
           "numerics": {"T": 0.5, "dt": 0.01, "dx": 0.05},
           "run": {"paths": 2}}
    loaded = ast.literal_eval(_loaded_after(
        "from queuelab import cli\n"
        f"assert cli.run(cli.validate_config({cfg!r}), "
        f"out={str(tmp_path / 'out')!r}) == 0", "scipy"))
    assert "scipy.fft" in loaded, "the run made no transform"
    banned = [m for m in loaded if m.split(".")[:2] in (["scipy", "linalg"],
                                                        ["scipy", "stats"])]
    assert not banned, f"a lognormal limit run loaded {banned}"


def test_readme_quickstart_runs(tmp_path):
    # about 1 s: the README's library example, run as a reader would, so
    # an API change cannot leave it stale
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
        PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert not any(tmp_path.iterdir()), "the quickstart wrote into its directory"


def test_no_top_level_scipy_import():
    # a module-level scipy import would load it in every process; each
    # law or transform that calls scipy imports it where it is called
    loose = []
    for path in (ROOT / "src" / "queuelab").rglob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            names = ([a.name for a in stmt.names] if isinstance(stmt, ast.Import)
                     else [stmt.module or ""] if isinstance(stmt, ast.ImportFrom)
                     else [])
            if any(n.split(".")[0] == "scipy" for n in names):
                loose.append(f"{path.relative_to(ROOT)}:{stmt.lineno}")
    assert not loose, f"module-level scipy imports: {loose}"


def _uses(path):
    """Names a file's code uses or spells as a whole string, outside its
    __all__; a def or class statement does not use the name it defines."""
    uses = Counter()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in stmt.targets):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                uses[node.value] += 1
    return uses


def test_public_names_have_callers():
    uses = Counter()
    for part in ("src", "demos", "bench"):
        for path in (ROOT / part).rglob("*.py"):
            uses += _uses(path)
    modules = [importlib.import_module(f"queuelab.{path.stem}")
               for path in (ROOT / "src" / "queuelab").glob("[!_]*.py")]
    unused = sorted(f"{m.__name__}.{name}" for m in modules
                    for name in m.__all__ if not uses[name])
    assert not unused, f"public names no library, demo or bench code uses: {unused}"


def test_process_pools_are_with_statements():
    # a pool opened as a `with` context is shut down, its workers joined,
    # however the block ends, so no library call leaves a process running
    found, loose = 0, []
    for path in (ROOT / "src").rglob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))  # keeps ids unique
        scoped = {id(n.context_expr) for n in nodes if isinstance(n, ast.withitem)}
        for n in nodes:
            if isinstance(n, ast.Call) and "ProcessPoolExecutor" in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None)):
                found += 1
                if id(n) not in scoped:
                    loose.append(f"{path.relative_to(ROOT)}:{n.lineno}")
    assert found >= 2, "expected the pools of cli._replicates and verify_fclt"
    assert not loose, f"ProcessPoolExecutor(...) outside a with statement: {loose}"


def test_only_dists_rounds_a_quotient():
    # whether a horizon is a whole number of steps is decided once, in
    # dists.uniform_grid; a layer that rounds T / dt itself can silently
    # move the horizon it was given
    sites = {}
    for path in (ROOT / "src").rglob("*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call) and "round" in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None)) \
                    and n.args and isinstance(n.args[0], ast.BinOp) \
                    and isinstance(n.args[0].op, (ast.Div, ast.FloorDiv)):
                sites.setdefault(path.stem, []).append(
                    f"{path.relative_to(ROOT)}:{n.lineno}")
    assert "dists" in sites, "expected uniform_grid's round(T / dt) in dists"
    loose = [s for stem, found in sites.items() if stem != "dists" for s in found]
    assert not loose, f"round() of a quotient outside dists: {loose}"


def test_tracer_counts_a_limit_run(tracer, tmp_path):
    # the tracer reads conv_H's field and simulate_field's result; a
    # signature change that breaks a traced bench run fails here, and so
    # does a read-out or solver inlined out of its traced layer
    from queuelab import cli
    cfg = cli.validate_config({
        "schema_version": 1, "kind": "limit",
        "model": {"service": "exponential",
                  "arrival": {"kind": "renewal", "lambda_bar": 1.0},
                  "fluid": {"Ebar": 1.0, "x0": 1.0, "nu0": {"invariant": 1.0}}},
        "numerics": {"T": 0.2, "dt": 0.02, "dx": 0.1},
        "run": {"paths": 2}})
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.run(cfg, out=str(tmp_path / "out")) == 0
    finally:
        t.uninstall()
    m = tracer.layer_metrics(t.spans, t.counts)
    assert m["limitsim.run_limit.calls"] == 2
    assert m["limitsim.conv_H.columns"] > 0
    assert m["limitsim.simulate_field.cells"] > 0
    assert m["limitsim.readout.calls"] > 0
    assert m["limitsim.solve_cmse.steps"] > 0


@pytest.mark.parametrize("name", ["fclt-des", "limit-cli"])
def test_bench_round_matches_its_reference(name, tmp_path):
    # bench/reference.json pins the outputs of the gated workloads; a
    # change that moves them fails here, not first in a bench run
    workloads = load_script(WORKLOADS)
    workload = workloads.Workload(name, 0)
    workload.setup()
    rnd = workload.run_round(tmp_path, fingerprint=True)
    assert rnd.bad_paths == 0, f"{name}: {rnd.bad_paths} paths broke an invariant"
    assert workloads.reference_mismatches(name, 0, rnd.fingerprints) == set()
