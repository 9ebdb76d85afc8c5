"""Deterministic random number generation.

All randomness in the package flows through this module. The design goals
are (a) byte-identical streams for a given seed across platforms and
process counts, and (b) cheap derivation of independent substreams so that
each Monte Carlo replication owns its seed and can be generated in any
order or in any worker process.

The raw bit source is the Philox counter-based generator. Counter-based
generators have no sequential hidden state: block k of the stream depends
only on (key, k), which is what makes order-independent parallel use safe.
On top of the raw 64-bit stream we apply our own fixed uniform mapping and
Box-Muller transform rather than relying on any library's normal sampler,
so the exact draw sequence is pinned by this file alone.

Since a stream is a function of (key, counter) alone (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), one generator
can serve many seeds by re-keying it through its state (counter 0, key
[seed, 0]), which skips the SeedSequence set-up of a new np.random.Philox.
_normal_rows is the one Box-Muller pass, over a chunk of seeds at a time:
normals is the chunk of one seed, and normal_chunks serves a block of
samples chunk by chunk from one generator.

The pass takes its pairs in the order of their angle's sector of
[0, 2 pi), since libm's cos and sin branch on the range of their argument
and angles in stream order leave those branches unpredicted. Each value
is still the same elementwise operation on the same operands, so the
order changes no bit of any draw.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream label used with derive_seed for restart jitter: the ASCII bytes
# of "JITT". A replication's own seed takes no label.
STREAM_JITTER = 0x4A495454


def splitmix64(value: int) -> int:
    """One step of the splitmix64 mixing function.

    Used purely as a bit mixer for seed derivation; the constants are the
    standard ones from the splitmix64 reference implementation.
    """
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = value
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Derive a substream seed from a master seed and integer labels.

    Each label is mixed in with splitmix64 so that nearby (master, parts)
    tuples give unrelated outputs. Deriving with no parts returns a mixed
    form of the master seed itself. The master and the parts may be any
    integers, numpy's included: each is taken as a Python int first.
    """
    seed = splitmix64(operator.index(master) & _MASK64)
    for part in parts:
        seed = splitmix64(seed ^ splitmix64(operator.index(part) & _MASK64))
    return seed


def _keyed(bitgen: np.random.Philox, seed: int) -> np.random.Philox:
    """bitgen moved to the start of the stream for seed: counter 0, key [seed, 0]."""
    zero = np.zeros(4, dtype=np.uint64)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": zero, "key": np.array([seed & _MASK64, 0], dtype=np.uint64)},
        "buffer": zero,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


def raw_uint64(seed: int, count: int) -> np.ndarray:
    """Return ``count`` raw 64-bit words from the Philox stream for ``seed``."""
    return _keyed(np.random.Philox(0), seed).random_raw(count)


def _open01(words: np.ndarray) -> np.ndarray:
    """The raw words mapped in place to uniforms on (0, 1], as a float64 view of them.

    Maps the top 53 bits of each word w to ((w >> 11) + 1) * 2**-53. The
    +1 shifts the support away from zero so that log() in the Box-Muller
    transform below is always finite.
    """
    words >>= np.uint64(11)
    words += np.uint64(1)
    u = words.view(np.float64)
    np.multiply(words, 2.0 ** -53, out=u)
    return u


# Leading bits of an angle's word that name its sector of [0, 2 pi) in
# _normal_rows; at most 8, the width of the keys. 3-7 bits all speed
# draw_moments by 1.17-1.31x over stream order, 6 at the top of that range.
SECTOR_BITS = 6


def _normal_rows(bitgen: np.random.Philox, seeds, shape: tuple[int, ...]) -> np.ndarray:
    """A (len(seeds), *shape) array whose row i is normals(seeds[i], shape), re-keying bitgen per seed.

    Each seed's raw words fill a row of one buffer, where the uniforms are
    formed in place. The pairs of all rows, viewed as complex (radius,
    angle), are gathered in the order of their angle's sector (the angle
    word's leading SECTOR_BITS bits; a stable argsort of 8-bit keys is one
    radix pass), transformed there, and scattered back to their own slots
    in the buffer, which the rows are views of.
    """
    total = math.prod(shape)
    pairs = (total + 1) // 2
    words = np.empty((len(seeds), 2 * pairs), dtype=np.uint64)
    for row, seed in zip(words, seeds):
        row[:] = _keyed(bitgen, seed).random_raw(2 * pairs)
    sectors = (words[:, 1::2] >> np.uint64(64 - SECTOR_BITS)).astype(np.uint8)
    order = np.argsort(sectors.reshape(-1), kind="stable")
    slots = _open01(words).view(np.complex128).reshape(-1)
    grouped = slots[order]
    radius, angle = grouped.real, grouped.imag
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    angle *= radius
    np.multiply(cos, radius, out=radius)
    slots[order] = grouped
    # an odd total drops the sine of each row's last pair
    return words.view(np.float64)[:, :total].reshape(len(seeds), *shape)


def normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal draws with a fixed Box-Muller layout.

    Consumes uniforms in pairs (u1, u2) and emits the pair

        z0 = sqrt(-2 ln u1) * cos(2 pi u2)
        z1 = sqrt(-2 ln u1) * sin(2 pi u2)

    interleaved as (z0, z1, z0, z1, ...), truncated to the requested size
    and reshaped in C order. Because u1 lies in (0, 1] the radius is always
    finite, with |z| capped near 8.6 at the 2**-53 tail.
    """
    return _normal_rows(np.random.Philox(0), [seed], shape)[0, ...]


def normal_chunks(seeds, shape: tuple[int, ...], chunk: int):
    """Yield the normals of chunk seeds at a time, as (k, *shape) arrays whose row i is normals(seed, shape).

    One generator, re-keyed per seed, serves the whole sequence, and each
    chunk takes one Box-Muller pass.
    """
    bitgen = np.random.Philox(0)
    for start in range(0, len(seeds), chunk):
        yield _normal_rows(bitgen, seeds[start : start + chunk], shape)


def uniform_rows(seeds, shape: tuple[int, ...], low: float, high: float) -> np.ndarray:
    """A (len(seeds), *shape) array whose row i is uniform(seeds[i], shape, low, high), re-keying one generator per seed."""
    bitgen, total = np.random.Philox(0), math.prod(shape)
    words = np.empty((len(seeds), total), dtype=np.uint64)
    for row, seed in zip(words, seeds):
        row[:] = _keyed(bitgen, seed).random_raw(total)
    return low + (high - low) * _open01(words).reshape(len(seeds), *shape)


def uniform(seed: int, shape: tuple[int, ...], low: float, high: float) -> np.ndarray:
    """Uniform draws on (low, high], used for start-value jitter."""
    return uniform_rows([seed], shape, low, high)[0]
