"""Package metadata for ``pip install -e .`` (or ``export PYTHONPATH=src``).

The version is read from the text of ``src/repro/__init__.py`` rather than by
importing the package, so building the metadata needs no numpy.
"""

import os
import re

from setuptools import find_packages, setup

_INIT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "src", "repro", "__init__.py")


def _version() -> str:
    with open(_INIT, encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"$', handle.read(), re.M)
    if match is None:
        raise RuntimeError(f"no __version__ line in {_INIT}")
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    description=("Backward error recovery for concurrent processes with "
                 "recovery blocks: the recovery-line model and three "
                 "recovery schemes"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
