"""Package surface: what ``import repro`` loads."""

import os
import subprocess
import sys

import pytest

import repro

_PROBE = """
import sys
import repro, repro.apps.lulesh.driver
from repro.apps.lulesh.driver import LuleshApp
LuleshApp("serial", 2).grad_fn()
print(sorted(m for m in sys.modules
             if m.startswith("repro.sanitize") or m == "networkx"))
"""


def test_gradient_path_imports_no_sanitizer_and_no_networkx():
    """The sanitizer names are exported lazily, so a gradient request
    never loads ``repro.sanitize``; the min-cut and task DAG are in-repo,
    so nothing loads networkx."""
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src_root + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_lazy_sanitizer_exports():
    from repro import LintError, RaceReport
    from repro.sanitize import lint, racecheck

    assert LintError is lint.LintError
    assert RaceReport is racecheck.RaceReport
    for name in repro.__all__:
        getattr(repro, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
