"""`stream_rng` against numpy's own SeedSequence, the oracle of its seed blocks."""

import warnings

import numpy as np
import pytest

from wcbsim.rng import SEED_BLOCK, STREAMS, stream_rng

# the stream ids are part of the reproducibility contract, so the oracle
# spells them out instead of reading them from the module under test
STREAM_IDS = {"noise": 1, "network": 2, "event": 3, "falsepos": 4}
ROOTS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30)
EPOCHS = (0, SEED_BLOCK - 1, SEED_BLOCK, SEED_BLOCK + 1, 86_399, 999_999)


def oracle(root: int, stream: str, epoch: int) -> np.random.Generator:
    seq = np.random.SeedSequence(root, spawn_key=(STREAM_IDS[stream], epoch))
    return np.random.Generator(np.random.PCG64(seq))


def test_stream_names():
    assert sorted(STREAMS) == sorted(STREAM_IDS)


@pytest.mark.parametrize("root", ROOTS)
@pytest.mark.parametrize("stream", sorted(STREAM_IDS))
def test_matches_seed_sequence(root, stream):
    for epoch in EPOCHS:
        got, expected = stream_rng(root, stream, epoch), oracle(root, stream, epoch)
        assert got.bit_generator.state == expected.bit_generator.state, epoch
        assert np.array_equal(got.random(20), expected.random(20)), epoch


@pytest.mark.parametrize("epoch", (2**32 - 1, 2**32, 2**32 + SEED_BLOCK + 3, 2**70))
def test_epochs_past_32_bits_get_a_two_word_key(epoch):
    assert stream_rng(7, "network", epoch).bit_generator.state \
        == oracle(7, "network", epoch).bit_generator.state


def test_numpy_integer_inputs():
    root, epoch = np.int64(2**62 + 3), np.uint32(SEED_BLOCK + 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = stream_rng(root, "event", epoch)
    assert got.bit_generator.state == oracle(int(root), "event", int(epoch)).bit_generator.state
    with pytest.raises(TypeError):
        stream_rng(1.0, "event", 0)


@pytest.mark.parametrize("root,epoch", ((-1, 0), (0, -1), (-(2**40), 3), (5, -SEED_BLOCK)))
def test_negative_root_or_epoch_raises(root, epoch):
    with pytest.raises(ValueError):
        stream_rng(root, "noise", epoch)
