"""Deterministic, splittable Gaussian streams on a counter-based generator.

Every stream is identified by (seed, path index, component index), hashed into
a 64-bit Philox key by :func:`stream_keys`, so Monte Carlo paths can be
generated in any order, or in parallel, with bit-identical output.  Every draw
of the engine (fBm paths, Brownian increments, mixing variables) is a keyed
batch: :func:`batch_uniforms` takes an array of keys and returns each stream's
draws without constructing a generator per stream, by one of two paths chosen
at a measured crossover: many short streams are computed at once,
Philox4x64-10 evaluated as arrays over every (key, block) pair, and long or
few streams are drawn by one Philox whose key and counter are reset for each
stream.  :class:`NormalStream`, one Philox instance per key, is the reference
those batches are tested against.
Uniforms come straight from the raw 64-bit counter output and normals are
produced by the inverse CDF, which keeps the mapping from counters to Gaussians
explicit and platform-stable.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .grids import is_integer

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MIX_PATH = 0x9E3779B97F4A7C15

# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC'11): the multipliers of
# words 0 and 2, split into 32-bit halves, and the Weyl increments of the two
# key words, shaped to broadcast over (word pair, key, block).
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & np.uint64(_MASK32), _PHILOX_M >> np.uint64(32)
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_ROUNDS = 10
# `batch_uniforms` computes streams as arrays when they are this short and
# this many; outside, the per-stream loop is faster (measured crossovers in
# CHANGES.md).  The arrays span at most _VECTOR_CHUNK blocks of 4 draws, about
# 140 bytes of temporaries per block.
_VECTOR_MAX_DRAWS = 64
_VECTOR_MIN_STREAMS = 128
_VECTOR_CHUNK = 1 << 13


def check_seed(seed) -> None:
    """Reject a seed that is not an integer in [0, 2^64): `stream_keys` keeps
    only its low 64 bits, so it would repeat the streams of a seed inside."""
    if not (is_integer(seed) and 0 <= seed <= _MASK64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def stream_keys(seed: int, paths, components) -> np.ndarray:
    """Keys (len(paths), len(components)) of the (path, component) substreams.

    Each key is seed XOR the splitmix64 finalizer of path * _MIX_PATH +
    component + 1, in wrapping 64-bit arithmetic.
    """
    path_hash = np.asarray(paths, dtype=np.uint64)[:, None] * np.uint64(_MIX_PATH)
    x = path_hash + (np.asarray(components, dtype=np.uint64) + np.uint64(1))
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x ^ np.uint64(int(seed) & _MASK64)


def stream_key(seed: int, path_index: int, component: int) -> int:
    """Key of the (path, component) substream: seed XOR a hash of the indices."""
    return int(stream_keys(seed, [path_index], [component])[0, 0])


def _to_uniforms(raw: np.ndarray) -> np.ndarray:
    """Overwrite raw 64-bit draws with doubles uniform on the open interval (0, 1).

    The top 53 bits, centred: ((raw >> 11) + 0.5) * 2**-53.  Returns the float
    view of `raw`; no temporary of its size is made.
    """
    raw >>= np.uint64(11)
    u = raw.view(np.float64)
    np.copyto(u, raw, casting="unsafe")
    u += 0.5
    u *= 2.0**-53
    return u


def batch_uniforms(keys, n: int) -> np.ndarray:
    """Uniforms of shape keys.shape + (n,); row j is NormalStream(key j).uniforms(n).

    Short streams, at most _VECTOR_MAX_DRAWS draws each, are computed for all
    keys at once by `_raw_vectorised` once there are _VECTOR_MIN_STREAMS of
    them; longer streams, or fewer, go through `_raw_by_stream`, one reset of
    one Philox per key.  Both give the same bits.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    vectorise = n <= _VECTOR_MAX_DRAWS and keys.size >= _VECTOR_MIN_STREAMS
    raw = (_raw_vectorised if vectorise else _raw_by_stream)(keys.reshape(-1), n)
    return _to_uniforms(raw).reshape(keys.shape + (n,))


def _raw_by_stream(keys: np.ndarray, n: int) -> np.ndarray:
    """Raw draws (keys.size, n) of 1-D uint64 keys from one Philox whose key,
    counter and buffer are reset through the public state setter before each
    key's `random_raw(n)`."""
    raw = np.empty((keys.size, n), dtype=np.uint64)
    key_words = np.zeros(2, dtype=np.uint64)
    # The state of Philox(key=k): zero counter, 128-bit key (k, 0), and
    # buffer_pos 4, which marks the 4-word output buffer as used up.
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key_words},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits = np.random.Philox(0)
    for row, key in zip(raw, keys):
        key_words[0] = key
        bits.state = fresh
        row[:] = bits.random_raw(n)
    return raw


def _raw_vectorised(keys: np.ndarray, n: int) -> np.ndarray:
    """Raw draws (keys.size, n) of 1-D uint64 keys, Philox4x64-10 computed as
    arrays over _VECTOR_CHUNK blocks of 4 draws at a time."""
    blocks = -(-n // 4)
    raw = np.empty((keys.size, n), dtype=np.uint64)
    step = max(1, _VECTOR_CHUNK // max(blocks, 1))
    for lo in range(0, keys.size, step):
        raw[lo : lo + step] = _philox_blocks(keys[lo : lo + step], blocks)[:, :n]
    return raw


def _philox_blocks(keys: np.ndarray, blocks: int) -> np.ndarray:
    """Words (keys.size, 4 * blocks) of Philox4x64-10 under keys (k, 0) at
    counters (b, 0, 0, 0) for b = 1..blocks, in block order: numpy's
    Philox(key=k) raises its counter before each block it outputs.

    Words 0 and 2 of each block ride in `x` and words 1 and 3 in `y`, each of
    shape (2, keys, blocks), so one pass multiplies both words of a round.
    The high half of each 128-bit product is built from 32-bit halves.
    """
    shape = (2, keys.size, blocks)
    key = np.zeros((2, keys.size, 1), dtype=np.uint64)
    key[0, :, 0] = keys
    x = np.zeros(shape, dtype=np.uint64)
    x[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    y = np.zeros(shape, dtype=np.uint64)
    x_lo, x_hi, t, w, hi = (np.empty(shape, dtype=np.uint64) for _ in range(5))
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_BUMP
        # hi = (x * m) >> 64; no partial sum below carries out of 64 bits
        np.bitwise_and(x, _MASK32, out=x_lo)
        np.right_shift(x, 32, out=x_hi)
        np.multiply(x_lo, _PHILOX_M_LO, out=t)
        t >>= 32
        np.multiply(x_hi, _PHILOX_M_LO, out=hi)
        t += hi
        np.bitwise_and(t, _MASK32, out=w)
        t >>= 32
        np.multiply(x_lo, _PHILOX_M_HI, out=hi)
        w += hi
        w >>= 32
        np.multiply(x_hi, _PHILOX_M_HI, out=hi)
        hi += t
        hi += w
        x *= _PHILOX_M  # the low 64 bits of the products (uint64 wraps)
        # (x0, y0, x1, y1) <- (hi1 ^ y0 ^ k0, lo1, hi0 ^ y1 ^ k1, lo0)
        y ^= key
        x, y, hi = hi[::-1], x[::-1], y
        x ^= hi
    return np.stack([x[0], y[0], x[1], y[1]], axis=-1).reshape(keys.size, 4 * blocks)


class NormalStream:
    """Uniform and Gaussian draws from a single keyed Philox substream."""

    def __init__(self, key: int):
        self._bits = np.random.Philox(key=key)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on the open interval (0, 1)."""
        return _to_uniforms(self._bits.random_raw(n))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via the inverse CDF of the uniform stream."""
        return ndtri(self.uniforms(n))
