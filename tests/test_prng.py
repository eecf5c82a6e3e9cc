import numpy as np
import pytest

from sharc.prng import SplitMix64, box_muller, derive_seed, uniform_rows


def test_uniforms_range_and_determinism():
    u = SplitMix64(5).uniforms(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, SplitMix64(5).uniforms(10000))
    # crude uniformity: mean near 1/2, variance near 1/12
    assert abs(u.mean() - 0.5) < 0.02
    assert abs(u.var() - 1.0 / 12.0) < 0.01


def test_uniform_array_bounds():
    x = SplitMix64(11).uniform_array(-2.0, 3.0, (40, 7))
    assert x.shape == (40, 7)
    assert x.min() >= -2.0 and x.max() < 3.0


def test_normals_moments():
    z = SplitMix64(13).normals(20000)
    assert z.shape == (20000,)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_normals_odd_count():
    z = SplitMix64(13).normals(7)
    assert z.shape == (7,)
    # odd request is the even request truncated, same stream position
    z8 = SplitMix64(13).normals(8)
    assert np.array_equal(z, z8[:7])


@pytest.mark.parametrize("n", [1, 7, 8, 105])
def test_box_muller_rows_equal_one_normals_call_each(n):
    width = 2 * ((n + 1) // 2)
    rows = box_muller(SplitMix64(21).uniforms(5 * width).reshape(5, width), n)
    rng = SplitMix64(21)
    assert rows.shape == (5, n)
    for row in rows:
        assert row.tobytes() == rng.normals(n).tobytes()


@pytest.mark.parametrize("n", [0, 1, 105])
def test_uniform_rows_equal_one_stream_each(n):
    seeds = [0, 1, 2**64 - 1]
    rows = uniform_rows(seeds, n)
    assert rows.shape == (3, n) and rows.dtype == np.float64
    for seed, row in zip(seeds, rows):
        assert row.tobytes() == SplitMix64(seed).uniforms(n).tobytes()
        scalar = SplitMix64(seed)
        assert row.tolist() == [(scalar.next_u64() >> 11) * 2.0**-53 for _ in range(n)]


@pytest.mark.parametrize("offset", [0, 1, 106, 4213])
def test_uniform_rows_from_an_offset_continue_each_stream(offset):
    seeds = [0, 7, 2**64 - 1]
    rows = uniform_rows(seeds, 105, offset)
    for seed, row in zip(seeds, rows):
        assert row.tobytes() == SplitMix64(seed).uniforms(offset + 105)[offset:].tobytes()


def _scalar_continuation(seed: int, skip: int) -> list[int]:
    rng = SplitMix64(seed)
    for _ in range(skip):
        rng.next_u64()
    return [rng.next_u64() for _ in range(3)]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 105])
def test_blocks_advance_the_state_as_scalar_draws(seed, n):
    for draw, consumed in ((SplitMix64.uniforms, n), (SplitMix64.normals, n + n % 2)):
        rng = SplitMix64(seed)
        draw(rng, n)
        assert [rng.next_u64() for _ in range(3)] == _scalar_continuation(seed, consumed), draw.__name__


def test_different_seeds_differ():
    assert not np.array_equal(SplitMix64(1).uniforms(8), SplitMix64(2).uniforms(8))


def test_derive_seed_order_sensitive():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1) != derive_seed(1, 0)


def test_derive_seed_strings():
    assert derive_seed(5, "s001") == derive_seed(5, "s001")
    assert derive_seed(5, "s001") != derive_seed(5, "s002")
    assert derive_seed("ab") != derive_seed("a", "b")


def test_derive_seed_spread():
    seeds = {derive_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
