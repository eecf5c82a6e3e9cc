"""Seeded pseudo-random number generation.

Every stochastic quantity in the package (encoder weights, synthetic data,
toy-training initialization) is drawn from SplitMix64 so that outputs are
bit-identical across runs and platforms. SplitMix64 advances its 64-bit state
by a fixed odd constant and scrambles it with two xor-multiply rounds; because
the state is a plain counter, whole blocks of draws can be produced with
vectorized uint64 arithmetic.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# 2**-53: maps the top 53 bits of a u64 to a double in [0, 1)
_DOUBLE_UNIT = 1.0 / (1 << 53)


def _mix_int(state: int) -> int:
    z = state & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix_block(states: np.ndarray) -> np.ndarray:
    z = states
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def derive_seed(*components) -> int:
    """Fold integers and/or strings into a single 64-bit seed, order-sensitively.

    Used to split independent streams off a master seed, e.g. per subject or
    per tracklet, without the streams overlapping. Strings fold byte by byte.
    """
    state = 0x5851F42D4C957F2D
    for c in components:
        if isinstance(c, str):
            state = _mix_int((state + len(c)) & _MASK)
            for byte in c.encode("utf-8"):
                state = ((state ^ byte) * _MIX1) & _MASK
            state = _mix_int((state + _GAMMA) & _MASK)
            continue
        state = ((state ^ (int(c) & _MASK)) * _MIX1) & _MASK
        state = _mix_int((state + _GAMMA) & _MASK)
    return state


class SplitMix64:
    """Deterministic stream of uniforms with block (vectorized) generation."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix_int(self._state)

    def block_u64(self, n: int) -> np.ndarray:
        """n raw 64-bit outputs; advances the stream exactly as n scalar calls."""
        if n < 0:
            raise ValueError(f"block size must be nonnegative, got {n}")
        with np.errstate(over="ignore"):
            steps = np.uint64(_GAMMA) * np.arange(1, n + 1, dtype=np.uint64)
            out = _mix_block(np.uint64(self._state) + steps)
        self._state = (self._state + _GAMMA * n) & _MASK
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform in [0, 1)."""
        return (self.block_u64(n) >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT

    def uniform_array(self, low: float, high: float, shape: tuple[int, ...]) -> np.ndarray:
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = self.uniforms(size)
        return (low + (high - low) * u).reshape(shape)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller (always consumes 2*ceil(n/2) uniforms)."""
        return box_muller(self.uniforms(normal_uniform_count(n)), n)


def normal_uniform_count(n: int) -> int:
    """Uniforms that n Box-Muller normals consume: 2*ceil(n/2)."""
    return 2 * ((n + 1) // 2)


def box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """n standard normals per row of u, whose last axis holds
    normal_uniform_count(n) uniforms: the u1 half, then the u2 half.

    `log`, `cos` and `sin` run on contiguous copies of the halves, so a row
    takes the same SIMD loop as a one-row call and gives the same bits.
    """
    m = (n + 1) // 2
    u1 = np.maximum(u[..., :m], _DOUBLE_UNIT)  # avoid log(0)
    u2 = u[..., m:]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return out[..., :n]
