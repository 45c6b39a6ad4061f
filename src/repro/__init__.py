"""repro — a reproduction of "XML Schema Mappings" (PODS 2009).

Expressive XML schema mappings with vertical/horizontal navigation and data
comparisons, their static analysis (consistency, absolute consistency),
complexity, and composition, as defined by Amano, Libkin and Murlak.

The public API is re-exported here; see README.md for a tour.

Every package re-exports its public names lazily (PEP 562) through
:func:`_lazy_exports`: nothing is imported until a name is first read.
That first read imports the defining module and stores the value in the
package's namespace, so every later read is a plain attribute hit, and
a function that a caller rebinds by name in the loaded modules (as the
benchmark's tracing probes do) is rebound in the package too.  A name
equal to a submodule of its own package (``repro.engine.certify`` is
both a module and the function it defines) is bound when the package is
imported: importing the submodule later would otherwise leave the
module, not the function, under that name.  The helper lives here, in
the one module every import of the library loads anyway.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def _lazy_exports(
    namespace: dict[str, Any], table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose globals
    are *namespace*.

    *table* maps a defining module (relative to the package, e.g.
    ``".budget"``) to the names it exports.  An attribute that is not an
    export but names a submodule imports that submodule, as an eager
    ``__init__`` that imported it would have provided it.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    for name, module in origin.items():
        if module == f".{name}":
            __getattr__(name)
    return list(origin), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".xmlmodel.dtd": ("DTD", "parse_dtd"),
    ".xmlmodel.parser": ("parse_tree", "serialize_tree"),
    ".xmlmodel.tree": ("TreeNode", "tree"),
    ".xmlmodel.xml_io": ("from_xml", "to_xml"),
})

__version__ = "1.0.0"
