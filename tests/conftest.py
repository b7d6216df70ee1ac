"""Shared test setup.

Let the CLI subprocesses that tests start import the ehrwt they test:
pytest puts ``src`` on its own ``sys.path`` (see pyproject.toml), which a
child ``python -m ehrwt.cli`` does not inherit; PYTHONPATH carries it.

Property tests run under a derandomized hypothesis profile: every run
draws the same examples, no example database replays what an earlier
run found, and there is no deadline, because timings on a shared host
are not reproducible.

Each test starts with an empty walk store, so the walks and cells a test
counts do not depend on which equal polytope an earlier test walked.
"""

import os

import pytest
from hypothesis import settings

import ehrwt
from ehrwt import geometry

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(ehrwt.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

settings.register_profile("ehrwt", derandomize=True, database=None, deadline=None)
settings.load_profile("ehrwt")


@pytest.fixture(autouse=True)
def empty_walk_store():
    geometry._walk_store.clear()
