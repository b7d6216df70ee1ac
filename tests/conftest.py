"""Let the CLI subprocesses that tests start import the ehrwt they test.

pytest puts ``src`` on its own ``sys.path`` (see pyproject.toml), which a
child ``python -m ehrwt.cli`` does not inherit; PYTHONPATH carries it.
"""

import os

import ehrwt

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(ehrwt.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
