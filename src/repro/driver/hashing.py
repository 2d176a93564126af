"""Content hashing for incremental re-checking.

A declaration's verdicts may be replayed from a previous run only when
nothing that could influence them has changed.  In DML-lite (as in ML)
a declaration can only depend on declarations *above* it, plus the
prelude, plus the solver configuration — so we key each declaration by
a **prefix chain hash**: a running SHA-256 over

* a format-version / backend / prelude salt, then
* every declaration's source slice, in program order.

The key of declaration *i* is the digest after absorbing declarations
``0..i``.  Editing declaration *k* therefore changes the keys of *k*
and everything after it (conservatively invalidating any possible
dependent) while declarations before *k* keep their cached verdicts.
Reordering, inserting, or deleting declarations likewise invalidates
exactly the suffix from the first changed position.

Invariant: every key here is derived from program *content* (source
text, backend name, schema version) and never from in-memory object
identity.  The interned index-term IR assigns process-local node ids
(``IndexTerm.nid``) — those must never leak into these digests, or
the persisted cache would silently stop matching across processes.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.lang import ast

#: Bump when the meaning of a stored verdict changes (goal extraction,
#: solver semantics, record layout) or the store's table layout does.
SCHEMA_VERSION = 2


def prelude_hash() -> str:
    """Digest of the bundled prelude source (part of every decl key:
    a prelude edit invalidates the whole cache)."""
    from repro import programs

    return hashlib.sha256(programs.prelude_source().encode()).hexdigest()


def decl_source(source: str, decl: ast.Decl, index: int) -> str:
    """The text a declaration contributes to the chain.

    The source slice by span, disambiguated with the position so
    span-less (or identically sliced) declarations cannot collide.
    """
    return f"#{index}|{source[decl.span.start:decl.span.end]}"


def decl_keys(
    source: str,
    decls: Sequence[ast.Decl],
    *,
    backend: str,
    prelude: str | None = None,
) -> list[str]:
    """The prefix-chain key for every declaration, in program order."""
    if prelude is None:
        prelude = prelude_hash()
    chain = hashlib.sha256(
        f"repro-driver|v{SCHEMA_VERSION}|{backend}|{prelude}|".encode()
    )
    keys = []
    for index, decl in enumerate(decls):
        chain.update(decl_source(source, decl, index).encode())
        keys.append(chain.copy().hexdigest())
    return keys
