"""numpy is the only runtime dependency: importing the command line and the
simulator pulls in nothing but numpy and the standard library.  The test
environment has more installed (scipy among them), so an accidental import
would otherwise pass unnoticed."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter; only the modules the sensel imports add are
# reported, so whatever the interpreter loads at start-up is left out.
PROBE = """
import json, sys
before = set(sys.modules)
import sensel.cli, sensel.sim
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_runtime_imports_only_numpy_and_the_standard_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = {name.split(".")[0] for name in json.loads(out.stdout)}
    assert "sensel" in loaded
    # multiprocessing registers the main module a second time under this name.
    allowed = set(sys.stdlib_module_names) | {"numpy", "sensel", "__mp_main__"}
    assert sorted(loaded - allowed) == []
