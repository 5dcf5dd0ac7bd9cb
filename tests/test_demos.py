"""The demos run against the library as it is: a changed call in the
package must fail here, not when someone next runs a demo."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_limit_identities_demo_runs(tmp_path):
    # about 2 s; the demo asserts its own noise-off zero and writes nothing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    res = subprocess.run([sys.executable, str(ROOT / "demos" / "limit_identities.py")],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    assert "exactly zero" in res.stdout
    assert not any(tmp_path.iterdir()), "the demo wrote into its working directory"
