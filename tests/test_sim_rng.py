"""Unit tests for seeded random streams (repro.sim.rng)."""

from repro.sim.rng import SeededStream, split_seed


def test_same_seed_label_reproduces_stream():
    a = SeededStream(7, "component")
    b = SeededStream(7, "component")
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


def test_different_labels_diverge():
    a = SeededStream(7, "one")
    b = SeededStream(7, "two")
    assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]


def test_different_seeds_diverge():
    a = SeededStream(7, "x")
    b = SeededStream(8, "x")
    assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]


def test_randint_respects_bounds():
    s = SeededStream(1, "ints")
    for _ in range(100):
        v = s.randint(10, 20)
        assert 10 <= v < 20


def test_choice_draws_from_sequence():
    s = SeededStream(1, "choice")
    seq = ["a", "b", "c"]
    assert all(s.choice(seq) in seq for _ in range(20))


def test_shuffle_is_permutation():
    s = SeededStream(1, "shuffle")
    data = list(range(10))
    shuffled = s.shuffle(list(data))
    assert sorted(shuffled) == data


def test_spawn_creates_independent_child():
    parent = SeededStream(3, "p")
    child1 = parent.spawn("c")
    child2 = SeededStream(3, "p/c")
    assert [child1.uniform() for _ in range(3)] == [child2.uniform() for _ in range(3)]


def test_split_seed_stable():
    assert split_seed(5, "label").entropy == split_seed(5, "label").entropy


def test_integers_array_shape_and_bounds():
    s = SeededStream(1, "arr")
    arr = s.integers_array(0, 4, 50)
    assert arr.shape == (50,)
    assert arr.min() >= 0 and arr.max() < 4


def test_permutation_covers_range():
    s = SeededStream(1, "perm")
    assert sorted(s.permutation(8).tolist()) == list(range(8))


def test_uniform_array_matches_scalar_draws_and_stream_state():
    a, b = SeededStream(5, "x"), SeededStream(5, "x")
    bulk = a.uniform_array(50).tolist()
    assert bulk == [b.uniform() for _ in range(50)]
    assert a.uniform() == b.uniform()  # both streams left in the same state
    assert a.uniform_array(0).tolist() == []
