"""Counter-based random streams for reproducible, splittable sampling.

A 64-bit master seed keys a Philox generator; replicate r runs on the
stream jumped r counter-blocks ahead. Streams are disjoint, deterministic,
and independent of evaluation order, so replicates can run in parallel and
still merge into bit-identical results.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(seed: int, rep: int = 0) -> np.random.Generator:
    """Generator for replicate ``rep`` of master ``seed``.

    Replicate r starts at counter r * 2^128, the state of
    ``Philox(key=seed).jumped(r)``, set directly instead of advanced to.
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= int(rep) < 2**128:
        raise ValueError("rep must fit in 128 bits")
    return np.random.Generator(np.random.Philox(key=int(seed), counter=int(rep) << 128))
