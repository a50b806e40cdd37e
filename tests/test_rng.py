import numpy as np
import pytest

from misfdr.rng import Substreams, spawn, stream

ROOTS = [0, 1, 2**32 + 5, 2**70]
PATHS = [(), (0,), (0, 6), (7, 2**33)]
SIZES = [0, 1, 3, 257]


def numpy_children(root, path, n):
    return np.random.SeedSequence(root, spawn_key=path).spawn(n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("path", PATHS, ids=str)
@pytest.mark.parametrize("root", ROOTS)
class TestSubstreamsPin:
    def test_seed_words_match_numpy_children(self, root, path, n):
        expected = [child.generate_state(4, np.uint64) for child in numpy_children(root, path, n)]
        words = Substreams(root, n, *path).words
        assert words.dtype == np.uint64 and words.shape == (n, 4)
        np.testing.assert_array_equal(words, np.reshape(expected, (n, 4)))

    def test_rows_match_spawned_generators(self, root, path, n):
        # One call per row gives what two successive calls of the child's
        # Generator give.
        out = np.empty((n, 8))
        Substreams(root, n, *path).fill(out)
        for r, gen in enumerate(spawn(stream(root, *path), n)):
            np.testing.assert_array_equal(out[r, :5], gen.standard_normal(5))
            np.testing.assert_array_equal(out[r, 5:], gen.standard_normal(3))


class TestSubstreamsFromGenerator:
    def test_int_seed_matches_spawn(self):
        expected = [g.standard_normal(6) for g in spawn(12, 4)]
        out = np.empty((4, 6))
        Substreams(12, 4).fill(out)
        np.testing.assert_array_equal(out, expected)

    def test_rows_match_two_calls_of_generator_children(self):
        gen, twin = np.random.default_rng(3), np.random.default_rng(3)
        out = np.empty((5, 7))
        Substreams(gen, 5).fill(out)
        for r, child in enumerate(spawn(twin, 5)):
            np.testing.assert_array_equal(out[r, :4], child.standard_normal(4))
            np.testing.assert_array_equal(out[r, 4:], child.standard_normal(3))

    def test_generator_children_match_spawn(self):
        gen, twin = np.random.default_rng(3), np.random.default_rng(3)
        words = Substreams(gen, 5).words
        expected = [child.bit_generator.seed_seq.generate_state(4, np.uint64)
                    for child in spawn(twin, 5)]
        np.testing.assert_array_equal(words, expected)

    def test_path_needs_an_int_root(self):
        with pytest.raises(ValueError, match="int root seed"):
            Substreams(np.random.default_rng(0), 2, 1)


class TestRowSlice:
    @pytest.mark.parametrize("root", [9, np.random.default_rng(9)], ids=["int", "generator"])
    def test_slice_fills_the_rows_of_the_whole_block(self, root):
        block = Substreams(root, 11)
        whole = np.empty((11, 8))
        block.fill(whole)
        for start, stop in [(0, 11), (0, 4), (4, 11), (3, 3), (7, 20)]:
            part = block[start:stop]
            out = np.empty((len(part), 8))
            part.fill(out)
            np.testing.assert_array_equal(out, whole[start:stop])

    def test_slice_rows_match_two_calls_of_each_child(self):
        block = Substreams(9, 11)
        out = np.empty((5, 8))
        block[4:9].fill(out)
        for r, gen in enumerate(spawn(9, 11)[4:9]):
            np.testing.assert_array_equal(out[r, :5], gen.standard_normal(5))
            np.testing.assert_array_equal(out[r, 5:], gen.standard_normal(3))

    def test_indexed_by_a_slice_only(self):
        with pytest.raises(TypeError, match="slice"):
            Substreams(0, 3)[1]


class TestFill:
    def test_each_array_needs_a_row_per_substream(self):
        with pytest.raises(ValueError, match="one row per substream"):
            Substreams(0, 3).fill(np.empty((2, 4)))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Substreams(-1, 2)
