"""Each meridian4 module imports first in a fresh interpreter (no import cycle)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
_MODULES = sorted(p.stem for p in (_SRC / "meridian4").glob("*.py")
                  if p.stem not in ("__init__", "__main__"))


def test_module_list_is_complete():
    assert {"cli", "fields", "specfun", "transforms"} <= set(_MODULES)


@pytest.mark.parametrize("module", ["meridian4"] + [f"meridian4.{m}" for m in _MODULES])
def test_module_imports_first(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", f"import {module}"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("module", ["meridian4"] + [f"meridian4.{m}" for m in _MODULES])
def test_module_loads_no_test_oracle(module):
    # scipy and mpmath are oracles of the tests only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    code = f"import sys, {module}; print(sorted({{'scipy', 'mpmath'}} & set(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (r.returncode, r.stdout) == (0, "[]\n"), r.stderr
