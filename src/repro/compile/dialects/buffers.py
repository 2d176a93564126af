"""Demotable array buffers: identity-stable storage that can repack.

The packed dialect stores int-valued DML arrays in compact int64
buffers (``array('q')``).  Those buffers cannot hold every Python int:
writing a value outside the int64 range raises ``OverflowError`` where
the ``plain`` dialect would simply store the bignum — a *behaviour*
divergence, not a representation one, and exactly the kind of bug the
differential fuzzer (:mod:`repro.fuzz`) exists to catch.

Because DML arrays are aliased freely (passed to functions, captured
by closures), the storage cannot be swapped by rebinding a variable —
every alias must observe the demotion.  So each dialect array is a
:class:`Buf`: a one-slot cell holding either the compact buffer or a
plain Python list.  A write whose value does not fit *repacks on
overflow*: the compact buffer is demoted to a plain list (preserving
every element as a Python int) and the write retries, so behaviour
matches ``plain`` exactly and the fast representation is kept for the
(overwhelmingly common) programs that never leave int64.

Reads stay cheap: the generated code accesses ``a.buf[i]`` directly
(one slot load; no method dispatch) in the packed dialect, and the
dunder protocol below keeps the generic checked helpers
(``_subc``/``_updc``/``len``) working unchanged on any Buf.
"""

from __future__ import annotations

from typing import Any


class Buf:
    """A demotable array cell: compact int64 storage or a plain list.

    ``buf`` is the only slot; aliases share the cell, so demotion by
    one writer is seen by every reader.
    """

    __slots__ = ("buf",)

    def __init__(self, buf: Any) -> None:
        self.buf = buf

    # -- demotion ---------------------------------------------------------

    def demote(self) -> list:
        """Switch to plain-list storage (idempotent); returns the list."""
        buf = self.buf
        if type(buf) is not list:
            self.buf = buf = list(buf)
        return buf

    # -- sequence protocol -------------------------------------------------
    #
    # The generic runtime helpers (_subc/_updc/_upd, len) drive Bufs
    # through these; the hot unchecked paths bypass them via direct
    # ``a.buf[i]`` emission in the packed dialect.

    def __len__(self) -> int:
        return len(self.buf)

    def __getitem__(self, i: int) -> Any:
        return self.buf[i]

    def __setitem__(self, i: int, value: Any) -> None:
        try:
            self.buf[i] = value
        except OverflowError:
            # Repack-on-overflow: demote to a plain list and retry, so
            # an out-of-int64-range update behaves exactly like plain.
            self.demote()[i] = value

    def __iter__(self):
        return iter(self.buf)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Buf):
            return list(self.buf) == list(other.buf)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.buf!r})"
