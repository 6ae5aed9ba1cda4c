"""Counter-based random streams for reproducible, splittable sampling.

A 64-bit master seed keys a Philox generator; replicate r runs on the
stream jumped r counter-blocks ahead. Streams are disjoint, deterministic,
and independent of evaluation order, so replicates can run in parallel and
still merge into bit-identical results.

``stream`` returns a fresh generator. The samplers draw from ``_kept``
instead: one generator per thread, kept for the life of the thread and
reset to the replicate's state for every draw, which costs well under a
microsecond where building a Philox and its Generator costs several.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["stream"]

_local = threading.local()  # each thread's kept generator, as ``_local.g``
_EMPTY = (0, 0, 0, 0)


def _state(seed: int, rep: int) -> dict:
    """The Philox state of replicate ``rep`` of master ``seed``, with an empty buffer.

    Replicate r starts at counter r * 2^128, the state of
    ``Philox(key=seed).jumped(r)``, set directly instead of advanced to. A
    seed or rep that is not an integer in [0, 2^64) or [0, 2^128) is refused
    with ValueError, never truncated.
    """
    seed, rep = _integer("seed", seed, 64), _integer("rep", rep, 128)
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, rep & 0xFFFFFFFFFFFFFFFF, rep >> 64), "key": (seed, 0)},
        "buffer": _EMPTY,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _integer(name: str, value, bits: int) -> int:
    try:
        v = int(value)
        ok = v == value and 0 <= v < 1 << bits
    except (OverflowError, ValueError):  # inf, nan
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer in [0, 2^{bits}), got {value!r}")
    return v


def stream(seed: int, rep: int = 0) -> np.random.Generator:
    """A fresh generator for replicate ``rep`` of master ``seed`` (see ``_state``)."""
    g = np.random.Generator(np.random.Philox(0))
    g.bit_generator.state = _state(seed, rep)
    return g


def _kept(seed: int, rep: int) -> np.random.Generator:
    """This thread's kept generator, reset to the state ``stream(seed, rep)`` starts in.

    It is made on the thread's first draw. A forked worker inherits the
    forking thread's generator, which is reset before every use too.
    """
    state = _state(seed, rep)
    g = getattr(_local, "g", None)
    if g is None:
        g = _local.g = np.random.Generator(np.random.Philox(0))
    g.bit_generator.state = state
    return g
