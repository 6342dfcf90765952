"""The host collector policy: CPython's cyclic GC stays out of checker work.

Checker state is acyclic by construction, so a collector pass inside the
batch kernel, a GC cycle or finalization frees nothing and only walks what
they are building.  Those entry points run under :func:`paused`; the
passes they defer happen between calls instead.
"""

from __future__ import annotations

import gc

__all__ = ["paused"]


class _Scope:
    __slots__ = ("_resume",)

    def __init__(self, resume: bool) -> None:
        self._resume = resume

    def __enter__(self) -> None:
        pass

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        if self._resume:
            gc.enable()


def paused() -> _Scope:
    """``with paused():`` — no collection starts inside the block.

    Re-enables only what it disabled, so nested scopes, a caller running
    with the collector off, and scopes interleaved across threads all end
    in the state they started in.  The collector is off from the call on
    (the scope object itself cannot trigger a pass): use as a ``with`` item.
    """
    resume = gc.isenabled()
    gc.disable()
    return _Scope(resume)
