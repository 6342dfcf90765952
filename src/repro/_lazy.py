"""PEP 562 lazy re-exports for the package ``__init__`` modules.

``repro`` and every package under it re-export their public names, but
importing a package must not import every module behind those names:
``python -m repro check`` would pay for the online checkers and the
daemon before ``argparse`` runs, and a ``repro serve`` spawn for the
client, the replayer and the ordered indexes it never uses.  Each
package maps its public names to their defining modules and resolves
them on first access, so ``from repro import Aion`` works as before and
costs only what ``Aion`` needs (``tests/test_cold_start.py`` pins it).
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package_globals: Dict[str, Any], exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` / ``__dir__`` pair for one package.

    ``exports`` maps each public name to the module that defines it.  A
    resolved name is stored in the package's globals, so only the first
    access goes through ``__getattr__``.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package_globals['__name__']!r} has no attribute {name!r}"
            )
        value = package_globals[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(package_globals) | set(exports))

    return __getattr__, __dir__
