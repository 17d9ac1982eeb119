"""Set-up time of a fresh process: import sensel, then load each input once.

Usage: python3 perfbench/setup_probe.py SCENARIO.json [...]
Prints the elapsed seconds.  ``run.py`` starts this several times per run
with ``src`` on ``PYTHONPATH`` and reports the median as ``setup_s``.
"""

import sys
import time

started = time.perf_counter()
from sensel import model  # noqa: E402  (the import is what is timed)

for path in sys.argv[1:]:
    model.load_scenario(path)
print(repr(time.perf_counter() - started))
