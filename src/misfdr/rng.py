"""Reproducible RNG streams, from one scheme: a parent seed sequence spawns one
child per replication (or draw). `stream(root, *path)` addresses a parent by a
root seed and a path, and its child r is `stream(root, *path, r)`, so runs are
bit-reproducible regardless of execution order or parallelism.
"""

from __future__ import annotations

import numpy as np


def stream(root_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by `path` under `root_seed`."""
    ss = np.random.SeedSequence(root_seed, spawn_key=tuple(path))
    return np.random.default_rng(ss)


def spawn(seed_or_rng, n: int) -> list[np.random.Generator]:
    """n independent child Generators of an int seed or a Generator."""
    children = np.random.default_rng(seed_or_rng).bit_generator.seed_seq.spawn(n)
    return [np.random.default_rng(s) for s in children]


def streams(root_seed: int, n: int, *prefix: int) -> list[np.random.Generator]:
    """n sibling substreams, indexed 0..n-1 under an optional path prefix."""
    return spawn(stream(root_seed, *prefix), n)
