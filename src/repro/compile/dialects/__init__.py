"""Dialect registry: named, pluggable value-representation backends.

The registry maps ``--dialect`` names to singleton :class:`Dialect`
instances; :func:`get_dialect` raises :class:`DialectError` for an
unknown name.
"""

from __future__ import annotations

from typing import Any

from repro.compile.dialects.base import Dialect, DialectError, parens
from repro.compile.dialects.packed import PackedDialect
from repro.compile.dialects.plain import PlainDialect

__all__ = [
    "Dialect", "DialectError", "dialect_names", "dialect_summary",
    "get_dialect", "parens",
]

DEFAULT_DIALECT = "plain"

_REGISTRY: dict[str, Dialect] = {
    "plain": PlainDialect(),
    "packed": PackedDialect(),
}


def get_dialect(name: "str | Dialect") -> Dialect:
    if isinstance(name, Dialect):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise DialectError(
            f"unknown dialect {name!r} (registered: {known})"
        ) from None


def dialect_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def dialect_summary(sites: dict, eliminable: Any) -> dict:
    """Per-dialect eliminable-site counts (the ``/check`` response's
    ``dialects`` block).  ``eliminable`` is the plan-level set; each
    dialect may only shrink it via its per-site gate."""
    eliminable = set(eliminable)
    return {
        name: {
            "eliminable": sum(
                1 for s in eliminable if dialect.may_eliminate(sites[s])
            ),
            "sites": len(sites),
        }
        for name, dialect in sorted(_REGISTRY.items())
    }
