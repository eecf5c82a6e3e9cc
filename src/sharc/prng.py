"""Seeded pseudo-random number generation.

Every stochastic quantity in the package (encoder weights, synthetic data,
toy-training initialization) is drawn from SplitMix64, so outputs are
bit-identical across runs on one host. Uniforms, and the weights drawn from
them, are the same bits on any platform; normals (through `log`, `cos` and
`sin`), scores and loss traces can move by an ulp between numpy's SIMD levels
and BLAS kernels. SplitMix64 advances its 64-bit state by a fixed odd
constant and scrambles it with two xor-multiply rounds; because the state is
a plain counter, whole blocks of draws, for one stream or for many streams
side by side and from any offset into them (`uniform_rows`), are produced
with vectorized uint64 arithmetic.
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


def _mix_rows(states: np.ndarray, n: int, offset: int) -> np.ndarray:
    """(len(states), n) raw outputs: row i is the n draws that follow the
    first `offset` draws after states[i].

    The state is a counter, so draw k of a stream mixes state + k * gamma and
    no earlier draw is computed. The three mixing rounds run in place on one
    scratch array; uint64 arithmetic wraps, so every step is exact.
    """
    z = np.arange(offset + 1, offset + n + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z = states[:, None] + z
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def uniform_rows(seeds, n: int, offset: int = 0) -> np.ndarray:
    """(len(seeds), n) doubles uniform in [0, 1); row i is bit-identical to
    SplitMix64(seeds[i]).uniforms(offset + n)[offset:]."""
    if n < 0 or offset < 0:
        raise ValueError(f"block size and offset must be nonnegative, got {n} and {offset}")
    z = _mix_rows(np.array([int(s) & _MASK for s in seeds], dtype=np.uint64), n, offset)
    z >>= np.uint64(11)
    # the top 53 bits convert exactly, so the float64 result can take z's place
    return np.multiply(z, _DOUBLE_UNIT, out=z.view(np.float64))


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

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform in [0, 1)."""
        out = uniform_rows([self._state], n)[0]
        self._state = (self._state + _GAMMA * n) & _MASK
        return out

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

    `log`, `cos` and `sin` run in place on contiguous copies of the halves,
    row by row contiguous, so a row takes the same SIMD loop as a one-row call
    and gives the same bits.
    """
    m = (n + 1) // 2
    r = np.maximum(u[..., :m], _DOUBLE_UNIT)  # avoid log(0)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = 2.0 * np.pi * u[..., m:]
    out = np.empty(r.shape[:-1] + (2 * m,))
    np.cos(theta, out=out[..., :m])
    np.sin(theta, out=out[..., m:])
    out[..., :m] *= r
    out[..., m:] *= r
    return out[..., :n]
