"""The demos run against the library as it is: a changed call in the
package must fail here, not when someone next runs a demo."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    res = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         cwd=cwd, env=env, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_limit_identities_demo_runs(tmp_path):
    # about 2 s; the demo asserts its own noise-off zero and writes nothing
    assert "exactly zero" in run_demo("limit_identities.py", tmp_path)
    assert not any(tmp_path.iterdir()), "the demo wrote into its working directory"


def test_fluid_relaxation_demo_runs(tmp_path):
    # about 1 s; solve_fluid in three regimes, one CSV under the working
    # directory and nothing else
    out = run_demo("fluid_relaxation.py", tmp_path)
    assert "relaxation" in out
    # the rate-1.4 path starts empty and crosses the capacity band: mixed
    regimes = {row.split()[0]: row.split()[1] for row in out.splitlines()
               if row.split()[:1] in (["0.6"], ["1.0"], ["1.4"])}
    assert regimes == {"0.6": "subcritical", "1.0": "critical", "1.4": "mixed"}
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) \
        == ["demos_out", "demos_out/fluid_regimes.csv"]
    rows = (tmp_path / "demos_out" / "fluid_regimes.csv").read_text().splitlines()
    assert rows[0] == "t,X_rate0.6,X_rate1.0,X_rate1.4" and len(rows) == 8002
