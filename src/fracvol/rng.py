"""Deterministic, splittable Gaussian streams on a counter-based generator.

Every stream is identified by (seed, path index, component index), hashed into
a 64-bit Philox key, so Monte Carlo paths can be generated in any order, or in
parallel, with bit-identical output.  A single stream is backed by its own
Philox instance (:class:`NormalStream`); a batch of streams is drawn by one
Philox whose key and counter are reset for each stream (:func:`batch_uniforms`),
which yields the same bits without constructing a generator per stream.
Uniforms come straight from the raw 64-bit counter output and normals are
produced by the inverse CDF, which keeps the mapping from counters to Gaussians
explicit and platform-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_MIX_PATH = 0x9E3779B97F4A7C15


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

    One Philox serves the whole batch: for each key its key, counter and
    buffer are reset through the public state setter before `random_raw(n)`.
    """
    keys = np.asarray(keys, dtype=np.uint64)
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
    for row, key in zip(raw, keys.flat):
        key_words[0] = key
        bits.state = fresh
        row[:] = bits.random_raw(n)
    return _to_uniforms(raw).reshape(keys.shape + (n,))


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


@dataclass(frozen=True)
class RandomSource:
    """Factory of per-component streams for one simulated path.

    Component indices 0..d-1 are used for driver components; larger tags are
    reserved for auxiliary draws (e.g. the mixing variable).
    """

    seed: int
    path_index: int = 0

    def for_path(self, path_index: int) -> "RandomSource":
        return RandomSource(self.seed, path_index)

    def stream(self, component: int) -> NormalStream:
        return NormalStream(stream_key(self.seed, self.path_index, component))
