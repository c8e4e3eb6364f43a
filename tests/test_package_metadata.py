"""The installable metadata names the package and its version."""

import os
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_setup_prints_the_package_name_and_version():
    pytest.importorskip("setuptools")
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"], cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.split() == ["repro", repro.__version__]
