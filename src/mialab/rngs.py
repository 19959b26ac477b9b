"""Seed plumbing: every randomized operation takes an explicit seed."""

from __future__ import annotations

import numbers

import numpy as np


def as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def subseed(master: int, *key: int) -> np.random.SeedSequence:
    """Deterministic child seed for (master, key) pairs.

    Used to give repetitions, training runs, and noise streams independent
    but reproducible randomness regardless of execution order.
    """
    return np.random.SeedSequence([int(master), *[int(k) for k in key]])


def _keyed_generator(seed, *key: int) -> np.random.Generator:
    """The generator of subseed(seed, *key) for an integer seed (any
    numbers.Integral), or of seed itself (a SeedSequence or Generator)."""
    return as_generator(subseed(seed, *key) if isinstance(seed, numbers.Integral) else seed)
