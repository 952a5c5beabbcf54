"""The generator walks that every power and ball walk of the library once
took, kept as oracles for :class:`glab.groupcore.Walk` and its callers.

Each starts at a given A, not at {e}, and yields A, A·S, A·S², ... up to
the first repeat.
"""

from typing import Callable

import numpy as np

from glab.groupcore import FiniteGroup, _class_step, is_normal_mask, product_mask


def _walk(cur: np.ndarray, step: Callable):
    """Yield cur, step(cur), step(step(cur)), ... and stop just before the
    first repeat; each next value is only computed when asked for."""
    seen: set[bytes] = set()
    while (key := cur.tobytes()) not in seen:
        seen.add(key)
        yield cur
        cur = step(cur)


def class_walk(G: FiniteGroup, a: np.ndarray, s: np.ndarray):
    """Yield the class vectors a, a·s, a·s², ... and stop just before the
    first repeat, as :func:`power_walk` does for masks.

    A class vector has one boolean per class of ``G.conjugacy_classes()``;
    the union of classes it names is ``vector[cid]``.
    """
    return _walk(np.array(a, dtype=bool), _class_step(G, s))


def power_walk(G: FiniteGroup, a_mask: np.ndarray, s_mask: np.ndarray):
    """Yield A, A·S, A·S², ... and stop just before the first repeated mask.

    The masks of a walk are eventually periodic, so the walk is finite; a
    caller stops it earlier with its own test or cap.  When A and S are
    unions of classes the walk is :func:`class_walk` on their class vectors.
    """
    if is_normal_mask(G, a_mask) and is_normal_mask(G, s_mask):
        cid, reps = G.conjugacy_classes()
        return (cur[cid] for cur in class_walk(G, a_mask[reps], s_mask[reps]))
    return _walk(a_mask.copy(), lambda cur: product_mask(G, cur, s_mask))
