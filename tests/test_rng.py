from tourprof import rng


def test_values_block_matches_scalar_stream():
    seed = rng.derive(5, 0x5EED)
    block = rng.values(seed, 40, 300)
    assert [int(x) for x in block] == \
        [rng.value(seed, 40 + i) for i in range(300)]


def test_stream_reads_the_counter_stream_in_order():
    # Interleaved draw kinds from a nonzero start, far enough to cross
    # several buffer refills: draw i is always value(seed, start + i).
    seed, start, n = rng.derive(11, 0x5EED), 1_000_003, 37
    assert 5000 > 3 * rng.BLOCK
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
    stream.cursor = 10 * rng.BLOCK + 5
    assert stream.next_value() == rng.value(seed, 10 * rng.BLOCK + 5)
    stream.cursor = 1
    assert stream.next_value() == rng.value(seed, 1)
    assert stream.cursor == 2
