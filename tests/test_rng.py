import numpy as np
import pytest

from tourprof import rng


def test_values_block_matches_scalar_stream():
    seed = rng.derive(5, 0x5EED)
    block = rng.values(seed, 40, 300)
    assert [int(x) for x in block] == \
        [rng.value(seed, 40 + i) for i in range(300)]


def test_values_at_matches_scalar_stream():
    # scattered, repeated and unsorted indices, up to 2**62
    seed = rng.derive(7, 0x5EED)
    index = np.array([0, 5, 5, 3, 1_000_003, 2**40 + 17, 2**62], np.int64)
    assert [int(x) for x in rng.values_at(seed, index)] == \
        [rng.value(seed, int(i)) for i in index]
    assert rng.values_at(seed, index[:0]).dtype == np.uint64


def test_stream_reads_the_counter_stream_in_order():
    # Interleaved draw kinds from a nonzero start: draw i is always
    # value(seed, start + i).
    seed, start, n = rng.derive(11, 0x5EED), 1_000_003, 37
    stream = rng.Stream(seed, start)
    assert stream.cursor == start
    for i in range(5000):
        want = rng.value(seed, start + i)
        kind = i % 3
        if kind == 0:
            assert stream.next_value() == want
        elif kind == 1:
            assert stream.next_below(n) == want * n >> 64
        else:
            assert stream.next_uniform() == want / 2.0**64
        assert stream.cursor == start + i + 1


def test_stream_cursor_assignment_moves_the_stream():
    seed = rng.derive(2, 0x5EED)
    stream = rng.Stream(seed)
    for _ in range(3):
        stream.next_value()
    stream.cursor = 5125
    assert stream.next_value() == rng.value(seed, 5125)
    stream.cursor = 1
    assert stream.next_value() == rng.value(seed, 1)
    assert stream.cursor == 2


def test_stream_draws_without_the_vectorized_values(monkeypatch):
    # Stream is the scalar reference that below and the block readers
    # are checked against, so it must not read through `values`.
    def refuse(*args):
        raise AssertionError("Stream read through rng.values")
    monkeypatch.setattr(rng, "values", refuse)
    seed = rng.derive(3, 0x5EED)
    stream = rng.Stream(seed, 7)
    assert [stream.next_value() for _ in range(600)] == \
        [rng.value(seed, 7 + i) for i in range(600)]


@pytest.mark.parametrize("n", [1, 2, 63, 64, 2**15, 2**31 + 1, 2**32])
def test_below_equals_next_below(n):
    # the ends of the range and both sides of the first, middle and last
    # steps of floor(v * n / 2**64), where v * n crosses a multiple of
    # 2**64; then a block of the real stream against Stream.next_below
    edges = [0, 2**63, 2**64 - 1]
    for k in {1, max(1, n // 2), n - 1} - {0}:
        step = -(-k * 2**64 // n)           # least v with v * n >= k * 2**64
        edges += [step - 2, step - 1, step, step + 1]
    edges = [v for v in edges if 0 <= v < 2**64]
    got = rng.below(np.array(edges, dtype=np.uint64), n)
    assert got.dtype == np.int64
    assert got.tolist() == [v * n >> 64 for v in edges]
    seed = rng.derive(n, 0x5EED)
    stream = rng.Stream(seed)
    assert rng.below(rng.values(seed, 0, 2000), n).tolist() == \
        [stream.next_below(n) for _ in range(2000)]


@pytest.mark.parametrize("n", [0, -3, 2**32 + 1])
def test_below_rejects_n_out_of_range(n):
    with pytest.raises(ValueError, match="below needs 1 <= n <= 2\\*\\*32"):
        rng.below(np.zeros(3, dtype=np.uint64), n)
