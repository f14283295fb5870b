"""The one bitwise compare of two ``{leaf: array}`` mappings, and the one
fixed-order pairwise combine tree."""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

__all__ = ["first_difference", "pairwise_tree"]


def first_difference(a: Mapping, b: Mapping) -> Optional[str]:
    """The first leaf, in ``a``'s order, missing from one side or differing
    in dtype, shape or bytes; ``None`` when the two are identical.  Unlike
    ``np.array_equal``: ``-0.0`` differs from ``+0.0``, equal NaNs match,
    and fp32 never equals fp64."""
    for leaf in [*a, *(k for k in b if k not in a)]:
        if leaf not in a or leaf not in b:
            return leaf
        x, y = np.asarray(a[leaf]), np.asarray(b[leaf])
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return leaf
    return None


def pairwise_tree(values: Sequence[Any], combine: Callable) -> Any:
    """``values`` combined pairwise in a fixed order (an odd one out joins
    the next round): the same bits whatever order they were produced in."""
    vals = list(values)
    while len(vals) > 1:
        nxt = [combine(vals[i], vals[i + 1]) for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]
