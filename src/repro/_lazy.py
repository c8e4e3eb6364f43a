"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package lists its public names against the submodules that define them;
a name's submodule is imported on first attribute access, so importing the
package loads nothing else and each command pays only for the code it runs.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair serving *exports* for *package*.

    *exports* maps each public name to the module that defines it.  A
    resolved name is bound on the package, so later lookups skip the hook.
    """
    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
