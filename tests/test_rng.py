import numpy as np
import pytest

from misfdr.rng import stream, streams

ROOTS = [0, 1, 2**32 + 5, 2**70]
PATHS = [(), (0,), (0, 6), (7, 2**33)]
SIZES = [0, 1, 3, 257]


def numpy_children(root, path, n):
    return np.random.SeedSequence(root, spawn_key=path).spawn(n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("path", PATHS, ids=str)
@pytest.mark.parametrize("root", ROOTS)
class TestSubstreamsPin:
    """The substreams `stream` addresses are numpy's spawn tree: child r of
    the stream at `path` is the stream at `path + (r,)`."""

    def test_seed_words_match_numpy_children(self, root, path, n):
        expected = [child.generate_state(4, np.uint64) for child in numpy_children(root, path, n)]
        words = [stream(root, *path, r).bit_generator.seed_seq.generate_state(4, np.uint64)
                 for r in range(n)]
        np.testing.assert_array_equal(np.reshape(words, (n, 4)), np.reshape(expected, (n, 4)))

    def test_rows_match_spawned_generators(self, root, path, n):
        # Two successive calls of each numpy child give what the addressed
        # stream gives.
        for r, child in enumerate(numpy_children(root, path, n)):
            gen = np.random.default_rng(child)
            twin = stream(root, *path, r)
            np.testing.assert_array_equal(gen.standard_normal(5), twin.standard_normal(5))
            np.testing.assert_array_equal(gen.standard_normal(3), twin.standard_normal(3))


class TestSubstreamsFromGenerator:
    def test_int_seed_matches_spawn(self):
        expected = [np.random.default_rng(s).standard_normal(6)
                    for s in numpy_children(12, (), 4)]
        for gens in (streams(12, 4), [stream(12, r) for r in range(4)]):
            np.testing.assert_array_equal([g.standard_normal(6) for g in gens], expected)


class TestStream:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            stream(-1)
