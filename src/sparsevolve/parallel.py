"""One ordered map over batches, on one shared thread pool.

Every per-batch pass that runs a forward uses it: the training step's
micro-batches, held-out evaluation and the Wanda calibration pass. Each item
runs ``fn`` on its own, and the results come back in item order, so a caller
that folds them in that order gets the bits of a one-after-another loop.

The worker count comes from one rule, ``workers``, on the number of items
and the activation elements of one item. Below ``INLINE_BELOW`` elements a
numpy call is too short to release the interpreter lock for long, and two
threads are slower than one, so such passes run inline. ``concurrent.futures``
is imported only when a pass actually uses threads.
"""

from __future__ import annotations

import functools
import os

import numpy as np

INLINE_BELOW = 1 << 15  # activation elements per item


def workers(n_items: int, elements: int) -> int:
    """Threads for ``n_items`` items of ``elements`` activation elements each: 1 below ``INLINE_BELOW``."""
    if elements < INLINE_BELOW:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(n_items, cpus)


def batch_elements(tree, x) -> int:
    """Activation elements of one forward over ``x``, per layer.

    An integer batch holds token ids, each embedded as a row as wide as the
    first prunable matrix's input; a float batch holds the activations.
    """
    x = np.asarray(x)
    if x.dtype.kind in "iu":
        return x.size * tree.named_prunable()[0][1].data.shape[1]
    return x.size


@functools.cache
def _pool(n: int):
    from concurrent.futures import ThreadPoolExecutor  # imported only by passes that use threads

    return ThreadPoolExecutor(max_workers=n, thread_name_prefix="sparsevolve")


def ordered_map(fn, items: list, elements: int):
    """``fn`` over ``items`` on ``workers(len(items), elements)`` threads; results in item order.

    An exception raised for an item is raised when iteration reaches that item.
    """
    n = workers(len(items), elements)
    return map(fn, items) if n <= 1 else _pool(n).map(fn, items)
