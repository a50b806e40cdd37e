"""Reproducible RNG streams, from one scheme: a parent seed sequence spawns one
child per replication (or draw). `stream(root, *path)` addresses a parent by a
root seed and a path, and its child r is `stream(root, *path, r)`, so runs are
bit-reproducible regardless of execution order or parallelism.

A Monte Carlo loop draws from a `Substreams` block: the children 0..n-1 of a
parent held as their PCG64 seed words, filled row by row through one
Generator. It reproduces `spawn` bit for bit without building a Generator per
child; `stream`, `spawn` and `streams` hand out numpy-made Generators and are
its independent oracle.
"""

from __future__ import annotations

import numpy as np

# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's 128-bit
# LCG multiplier (pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's coercion of a non-negative int: little-endian 32-bit words."""
    value = int(value)
    if value < 0:
        raise ValueError("seeds and path entries must be non-negative")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _mix_pool(entropy: np.ndarray, pool_size: int) -> list[np.ndarray]:
    """SeedSequence.mix_entropy of each row of an (n, L) uint32 entropy array,
    returned as the pool's columns. The hash constants do not depend on the
    data, so each step is one uint32 operation over all n rows."""
    length = entropy.shape[1]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return out ^ (out >> np.uint32(16))

    zeros = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zeros) for i in range(pool_size)]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(pool_size, length):
        for dst in range(pool_size):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    return pool


def _seed_words(pool: list[np.ndarray]) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of each row of a pool given as
    its columns: the (n, 4) PCG64 seed words, seed then sequence."""
    state = np.empty((len(pool[0]), 8), dtype=np.uint32)
    const = _INIT_B
    for i in range(8):
        value = pool[i % len(pool)] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


class Substreams:
    """A block of n sibling substreams, held as their PCG64 seed words: row r
    of the (n, 4) uint64 `words` is child r's `generate_state(4, np.uint64)`.

    `Substreams(root_seed, n, *path)` holds the children of
    `SeedSequence(root_seed, spawn_key=path)`, the streams of
    `streams(root_seed, n, *path)`; the parent is fresh, so one vectorized pass
    hashes all n. Given a Generator (or any other seed `spawn` takes),
    `Substreams(rng, n)` spawns its next n children as `spawn(rng, n)` does,
    advancing the spawn counter the same way, and hashes their pools.
    """

    def __init__(self, seed_or_rng, n: int, *path: int):
        if isinstance(seed_or_rng, (int, np.integer)):
            pool_size = 4  # numpy's default, that of SeedSequence(root_seed)
            root = _uint32_words(seed_or_rng)
            # A spawned child's root entropy is zero-padded to the pool size,
            # then followed by its spawn key, the child index last.
            prefix = root + [0] * (pool_size - len(root))
            prefix += [w for entry in path for w in _uint32_words(entry)]
            entropy = np.empty((n, len(prefix) + 1), dtype=np.uint32)
            entropy[:, :-1] = prefix
            entropy[:, -1] = np.arange(n)
            pool = _mix_pool(entropy, pool_size)
        else:
            if path:
                raise ValueError("a path addresses the children of an int root seed only")
            seed_seq = np.random.default_rng(seed_or_rng).bit_generator.seed_seq
            pools = [child.pool for child in seed_seq.spawn(n)]
            pool = list(np.array(pools, dtype=np.uint32).reshape(n, seed_seq.pool_size).T)
        self.words = _seed_words(pool)

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, rows: slice) -> Substreams:
        """The substreams `rows` of this block, sharing its seed words: row r of
        `block[a:b].fill` is row a + r of `block.fill`."""
        if not isinstance(rows, slice):
            raise TypeError("a block is indexed by a slice of its rows")
        part = object.__new__(Substreams)
        part.words = self.words[rows]
        return part

    def fill(self, out: np.ndarray) -> None:
        """Fill row r of the (n, k) float array `out` with child r's first k
        standard normals, one call per row: what its Generator gives for
        `standard_normal(k_a)` then `standard_normal(k_b)`, k_a + k_b = k. One
        Generator serves every row, its state set to each child's in turn."""
        if len(out) != len(self):
            raise ValueError("the array needs one row per substream")
        bits = np.random.PCG64(0)
        draw = np.random.Generator(bits).standard_normal
        seeded = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0, "uinteger": 0}
        for (seed_hi, seed_lo, seq_hi, seq_lo), row in zip(self.words.tolist(), out):
            # PCG64 seeding: inc = 2 seq + 1; from state 0, one LCG step, add
            # the seed, one more step.
            inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
            seeded["state"] = ((((seed_hi << 64) | seed_lo) + inc) * _PCG_MULT + inc) & _MASK128
            seeded["inc"] = inc
            bits.state = state
            draw(out=row)
