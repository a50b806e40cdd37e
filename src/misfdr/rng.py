"""Reproducible RNG streams, from one scheme: `stream(root, *path)` is the
Generator of `SeedSequence(root, spawn_key=path)`, a stream addressed by a root
seed and a path. Its children are `stream(root, *path, r)`, the children
numpy's `SeedSequence.spawn` would give.

A Monte Carlo run draws from one stream: every point of a sweep with root
seed s scores the same replications, the ones `stream(s, 0, 0)` draws, in
order, and each point makes its own Generator from that path. The values
depend only on the stream and the replication count, never on the order in
which sweep points run. A sweep runs its passes in order on the calling
thread.
"""

from __future__ import annotations

import numpy as np


def stream(root_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by `path` under `root_seed`."""
    ss = np.random.SeedSequence(root_seed, spawn_key=tuple(path))
    return np.random.default_rng(ss)


def streams(root_seed: int, n: int, *prefix: int) -> list[np.random.Generator]:
    """n sibling substreams, indexed 0..n-1 under an optional path prefix."""
    return [stream(root_seed, *prefix, r) for r in range(n)]
