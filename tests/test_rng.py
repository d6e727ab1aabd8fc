"""The vectorized stream keys and the one generator set to each stream."""
import numpy as np
import pytest

from ctqw import cli
from ctqw.errors import ValidationError
from ctqw.rng import rng_stream, set_stream, stream_keys

INDICES = [0, 1, 517, 1999, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**40 + 5, 2**63 + 11, 2**64 + 5])
@pytest.mark.parametrize("path", [(31,), (), (0, 2**33)])
def test_stream_keys_equal_seed_sequence(seed, path):
    # seeds of one, two and three uint32 words; indices of one and two
    keys = stream_keys(seed, *path, indices=np.array(INDICES, dtype=np.uint64))
    expected = [np.random.SeedSequence((seed, *path, i)).generate_state(2, np.uint64) for i in INDICES]
    assert keys.dtype == np.uint64 and keys.shape == (len(INDICES), 2)
    assert keys.tolist() == np.array(expected).tolist()


def test_stream_keys_of_a_whole_task_equal_seed_sequence():
    keys = stream_keys(7, 31, indices=np.arange(2000))
    expected = np.array([np.random.SeedSequence((7, 31, i)).generate_state(2, np.uint64) for i in range(2000)])
    assert (keys == expected).all()
    assert stream_keys(7, 31, indices=np.arange(0)).shape == (0, 2)


def test_the_shared_generator_draws_as_rng_stream():
    # set to each key in turn, and back to a kept state, the one generator
    # makes each stream's draws bitwise
    keys, rng = stream_keys(3, 31, indices=np.arange(2000)), rng_stream(0)
    kept = {}
    for i in (0, 1, 517, 1999, 517):
        alone, shared = rng_stream(3, 31, i), set_stream(rng, keys[i])
        assert alone.integers(2, 11) == shared.integers(2, 11)
        assert (alone.normal(size=37) == shared.normal(size=37)).all()
        assert alone.uniform(-2.3, 6.9) == shared.uniform(-2.3, 6.9)
        kept[i] = (alone, shared.bit_generator.state)
    for i, (alone, state) in kept.items():
        rng.bit_generator.state = state
        assert (alone.choice(9, size=4, replace=False) == rng.choice(9, size=4, replace=False)).all()
        assert alone.integers(0, 9) == rng.integers(0, 9)


@pytest.mark.parametrize("seed, path", [(-1, ()), (True, ()), (1.5, ()), (3, (-1,)), (3, (False,))])
def test_stream_keys_refuse_a_seed_or_path_as_rng_stream_does(seed, path):
    with pytest.raises(ValidationError) as alone:
        rng_stream(seed, *path, 0)
    with pytest.raises(ValidationError) as keyed:
        stream_keys(seed, *path, indices=np.arange(3))
    assert str(keyed.value) == str(alone.value)


@pytest.mark.parametrize("indices", [np.array([0, -1]), np.array([0.0, 1.0]), np.zeros((2, 2), dtype=np.int64)])
def test_stream_keys_refuse_bad_indices(indices):
    with pytest.raises(ValidationError, match="stream indices must be a 1-d array of integers"):
        stream_keys(7, 31, indices=indices)


@pytest.mark.parametrize("seed", ["-1", "true"])
def test_cli_bounds_refuses_a_negative_or_boolean_seed(tmp_path, capsys, seed):
    cfg = tmp_path / "b.json"
    cfg.write_text('{"instances": 5, "seed": %s}' % seed)
    assert cli.main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    got = {"-1": "-1", "true": "True"}[seed]
    assert capsys.readouterr().err == f"error: a seed >= 0 is required: set 'seed' in the config or pass --seed, got {got}\n"
    assert not (tmp_path / "bounds.json").exists()
