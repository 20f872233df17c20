"""Every ``benchmarks/perf`` script imports cleanly.

The perf scripts are run by hand (``python benchmarks/perf/<name>.py``),
and the test suite otherwise imports only ``kips_harness``.  A name they
import that the library has since deleted would then go unnoticed until
someone next runs them.  Each script is loaded here the way it is run,
from its path in a fresh interpreter, but under a module name other than
``__main__``, so its top level (imports and definitions) executes and its
measurement does not.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
PERF_SCRIPTS = sorted(path for path in (REPO_ROOT / "benchmarks" / "perf").glob("*.py")
                      if not path.name.startswith("test_"))


def test_perf_scripts_are_found():
    assert len(PERF_SCRIPTS) >= 12


@pytest.mark.parametrize("script", PERF_SCRIPTS, ids=lambda path: path.stem)
def test_perf_script_imports(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")])
    loader = f"import runpy; runpy.run_path({str(script)!r}, run_name='perf_import_smoke')"
    result = subprocess.run([sys.executable, "-c", loader], cwd=REPO_ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
