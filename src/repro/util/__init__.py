"""Shared utilities: validation, numerical integration, linear algebra, tables.

These helpers are deliberately dependency-light (numpy/scipy only) and are used by
every other sub-package.  Nothing in :mod:`repro.util` knows about recovery blocks;
it is pure plumbing.  Import from the submodule that defines a helper
(:mod:`repro.util.validation`, :mod:`~repro.util.integration`,
:mod:`~repro.util.linalg`, :mod:`~repro.util.tables`):
the package itself re-exports nothing, so loading one helper never pays for
another's scipy subpackages.
"""
