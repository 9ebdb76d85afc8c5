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
"""

from __future__ import annotations

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


def raw_uint64(seed: int, count: int) -> np.ndarray:
    """Return ``count`` raw 64-bit words from the Philox stream for ``seed``."""
    bitgen = np.random.Philox(key=seed & _MASK64)
    return bitgen.random_raw(count)


def uniform_open01(seed: int, count: int) -> np.ndarray:
    """Uniform draws on the half-open interval (0, 1].

    Maps the top 53 bits of each raw word to ((w >> 11) + 1) * 2**-53. The
    +1 shifts the support away from zero so that log() in the Box-Muller
    transform below is always finite.
    """
    raw = raw_uint64(seed, count)
    return ((raw >> np.uint64(11)) + np.uint64(1)) * (2.0 ** -53)


def normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal draws with a fixed Box-Muller layout.

    Consumes uniforms in pairs (u1, u2) and emits the pair

        z0 = sqrt(-2 ln u1) * cos(2 pi u2)
        z1 = sqrt(-2 ln u1) * sin(2 pi u2)

    interleaved as (z0, z1, z0, z1, ...), truncated to the requested size
    and reshaped in C order. Because u1 lies in (0, 1] the radius is always
    finite, with |z| capped near 8.6 at the 2**-53 tail.
    """
    total = int(np.prod(shape)) if shape else 1
    pairs = (total + 1) // 2
    u = uniform_open01(seed, 2 * pairs).reshape(pairs, 2)
    radius = np.sqrt(-2.0 * np.log(u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:total].reshape(shape)


def uniform(seed: int, shape: tuple[int, ...], low: float, high: float) -> np.ndarray:
    """Uniform draws on (low, high], used for start-value jitter."""
    total = int(np.prod(shape)) if shape else 1
    u = uniform_open01(seed, total).reshape(shape)
    return low + (high - low) * u
