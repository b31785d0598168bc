from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fracvol.rng as rng
from fracvol import NormalStream, stream_key
from fracvol.coefficients import XI_STREAM
from fracvol.rng import batch_uniforms, stream_keys


def test_uniforms_open_interval():
    u = NormalStream(stream_key(7, 0, 0)).uniforms(10_000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_normals_match_inverse_cdf_of_same_stream():
    from scipy.special import ndtri

    key = stream_key(7, 3, 1)
    u = NormalStream(key).uniforms(256)
    z = NormalStream(key).normals(256)
    assert np.array_equal(z, ndtri(u))


def test_streams_reproducible_and_distinct():
    def normals(seed, path, component):
        return NormalStream(stream_key(seed, path, component)).normals(32)

    a = normals(11, 0, 0)
    assert np.array_equal(a, normals(11, 0, 0))
    assert not np.array_equal(a, normals(11, 0, 1))
    assert not np.array_equal(a, normals(11, 1, 0))
    assert not np.array_equal(a, normals(12, 0, 0))


def test_keys_distinct_across_indices():
    keys = {
        stream_key(5, path, comp) for path in range(50) for comp in range(8)
    }
    assert len(keys) == 400


def test_normal_moments_sane():
    z = NormalStream(stream_key(3, 0, 0)).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


BIG_KEYS = [0, 1, stream_key(7, 3, 1), 2**63, 2**63 + 12345, 2**64 - 1]
# BIG_KEYS repeated up to the vectorised path's stream-count floor.
MANY_BIG_KEYS = BIG_KEYS * -(-rng._VECTOR_MIN_STREAMS // len(BIG_KEYS))


@pytest.mark.parametrize("n", [1, 3, 4, 5, 16, 1025])
def test_batch_rows_equal_single_streams(n):
    vectorised = mock.patch.object(rng, "_raw_vectorised", wraps=rng._raw_vectorised)
    for keys in (BIG_KEYS, MANY_BIG_KEYS):
        with vectorised as spy:
            u = batch_uniforms(np.array(keys, dtype=np.uint64), n)
        assert spy.called == (keys is MANY_BIG_KEYS and n <= rng._VECTOR_MAX_DRAWS)
        assert u.shape == (len(keys), n)
        for row, key in zip(u, keys):
            assert np.array_equal(row, NormalStream(key).uniforms(n))


SPECIAL_KEYS = [0, 1, 2**63, 2**64 - 1]
KEY_VALUES = st.sampled_from(SPECIAL_KEYS) | st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(KEY_VALUES, max_size=70),
    d=st.none() | st.integers(1, 3),
    n=st.integers(0, rng._VECTOR_MAX_DRAWS + 9),
    chunk=st.sampled_from([1, 5, rng._VECTOR_CHUNK]),
)
@example(keys=[], d=None, n=7, chunk=1)
@example(keys=[], d=2, n=0, chunk=5)
@example(keys=[2**64 - 1], d=None, n=rng._VECTOR_MAX_DRAWS + 1, chunk=1)
@example(keys=[2**63], d=1, n=rng._VECTOR_MAX_DRAWS, chunk=5)
@example(keys=SPECIAL_KEYS * 11, d=3, n=13, chunk=rng._VECTOR_CHUNK)
def test_vectorised_philox_equals_single_streams(keys, d, n, chunk):
    # Keys of shape (k,) or (k, d), k from 0; the vectorised routine in key
    # chunks of `chunk` blocks, called directly and through batch_uniforms,
    # with and without the stream-count floor, against one stream per key.
    if d is not None:
        keys = [[key ^ j for j in range(d)] for key in keys]
    keys = np.array(keys, dtype=np.uint64).reshape((-1,) if d is None else (-1, d))
    expected = np.array([NormalStream(int(key)).uniforms(n) for key in keys.flat])
    expected = expected.reshape(keys.shape + (n,))
    with mock.patch.object(rng, "_VECTOR_CHUNK", chunk):
        raw = rng._raw_vectorised(keys.reshape(-1), n)
        assert np.array_equal(rng._to_uniforms(raw).reshape(expected.shape), expected)
        assert np.array_equal(batch_uniforms(keys, n), expected)
        with mock.patch.object(rng, "_VECTOR_MIN_STREAMS", 0):
            assert np.array_equal(batch_uniforms(keys, n), expected)


def test_batch_keeps_key_shape():
    keys = stream_keys(3, range(4), range(2))
    u = batch_uniforms(keys, 5)
    assert u.shape == (4, 2, 5)
    assert np.array_equal(u[2, 1], NormalStream(stream_key(3, 2, 1)).uniforms(5))


def _reference_key(seed, path, component):
    """The key definition in Python integers: seed XOR splitmix64(path * phi + c + 1)."""
    mask = (1 << 64) - 1
    x = (path * 0x9E3779B97F4A7C15 + component + 1) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return (seed & mask) ^ x


def test_stream_keys_match_stream_key():
    paths = [0, 1, 17, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3]
    components = [0, 1, 2, XI_STREAM]
    for seed in (0, 11, -1, 2**64 - 1):
        keys = stream_keys(seed, paths, components)
        assert keys.dtype == np.uint64
        assert keys.shape == (len(paths), len(components))
        for i, p in enumerate(paths):
            for j, c in enumerate(components):
                expected = _reference_key(seed, p, c)
                assert int(keys[i, j]) == stream_key(seed, p, c) == expected
