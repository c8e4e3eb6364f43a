"""The package version under its older import path; ``repro.__version__``
is the single source (importing the package loads no other module for it)."""

from repro import __version__

__all__ = ["__version__"]
