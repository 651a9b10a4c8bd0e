"""Bounded memos for pure sympy steps.

A cold Table 2 pass asks sympy the same questions many times: the KKT
reconstruction, the intensity step and the printer re-``simplify`` the
same few dozen expressions hundreds of times, and Theorem 1 compares the
same pairs of intensities once per array.  sympy expressions are
immutable and compare structurally (``Float(2.0) != Integer(2)``), and
these steps are pure functions of their arguments, so a memo returns
exactly what a fresh call would.

Every memo is an :func:`functools.lru_cache` of the fixed size
:data:`MEMO_SIZE` -- a long-lived daemon analysing arbitrary sources must
not grow without limit -- and is listed in :data:`MEMOS`.  The size is not
a setting: an entry is a few small expressions, and the whole corpus uses
a few hundred.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, TypeVar

import sympy as sp

#: entries per memo
MEMO_SIZE = 2048

#: every memo made by :func:`memoized`, for inspection and tests
MEMOS: list = []

_F = TypeVar("_F", bound=Callable)


def memoized(function: _F) -> _F:
    """``lru_cache(maxsize=MEMO_SIZE)`` over a pure function of hashable
    arguments, registered in :data:`MEMOS`."""
    cached = lru_cache(maxsize=MEMO_SIZE)(function)
    MEMOS.append(cached)
    return cached  # type: ignore[return-value]


@memoized
def simplify(expr: sp.Expr) -> sp.Expr:
    """:func:`sympy.simplify` with default options."""
    return sp.simplify(expr)


@memoized
def nsimplify_rational(value: sp.Rational) -> sp.Expr:
    """:func:`sympy.nsimplify` of an exact rational.  Not the identity: it
    snaps a large-denominator rational to a nearby simple one."""
    return sp.nsimplify(value)
