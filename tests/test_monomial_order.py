import itertools
import random

import pytest

from bpcentre.monomial_order import (
    add,
    compare,
    enumerate_weight,
    generator_weight,
    in_ideal,
    max_generator_index,
    normalize,
    sort_key,
    unit_exp,
    weight,
)


def all_upto(p, bound):
    return [a for r in range(bound + 1) for a in enumerate_weight(r, p)]


def test_normalize_strips_trailing_zeros():
    assert normalize((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert normalize(()) == ()
    with pytest.raises(ValueError):
        normalize((1, -1))
    with pytest.raises(ValueError):
        normalize((1.0,))


def test_compare_examples():
    assert compare((3,), (0, 1)) == -1
    assert compare((1, 1), (2, 1)) == -1
    assert compare((2, 1), (2, 1)) == 0
    assert compare((0, 1), (3,)) == 1


def test_compare_matches_sort_key_exhaustively():
    seqs = all_upto(3, 8)
    for a, b in itertools.product(seqs, repeat=2):
        c = compare(a, b)
        k = (sort_key(a) > sort_key(b)) - (sort_key(a) < sort_key(b))
        assert c == k, (a, b)


def test_total_order_properties():
    rng = random.Random(0)
    seqs = all_upto(3, 10)
    for _ in range(500):
        a, b, c = rng.choice(seqs), rng.choice(seqs), rng.choice(seqs)
        # antisymmetry
        assert compare(a, b) == -compare(b, a)
        # totality: exactly one of <, =, > holds
        assert compare(a, b) in (-1, 0, 1)
        # transitivity
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0


def test_add_examples():
    assert add((1,), (0, 1)) == (1, 1)
    assert add((2, 1), ()) == (2, 1)
    assert add((2, 1), (1, 1)) == (3, 2)


def test_order_respects_addition_nonstrict():
    rng = random.Random(1)
    seqs = all_upto(3, 8)
    for _ in range(500):
        a, a2, b, b2 = (rng.choice(seqs) for _ in range(4))
        if compare(a, a2) <= 0 and compare(b, b2) <= 0:
            assert compare(add(a, b), add(a2, b2)) <= 0


def test_strict_translation_invariance_exhaustive():
    # alpha < alpha' of equal weight implies alpha + gamma < alpha' + gamma,
    # over all same-weight pairs up to weight 12 and all gamma up to weight 6.
    gammas = all_upto(3, 6)
    for r in range(13):
        basis = enumerate_weight(r, 3)
        for a, a2 in itertools.combinations(basis, 2):
            assert compare(a, a2) == -1
            for g in gammas:
                assert compare(add(a, g), add(a2, g)) == -1, (a, a2, g)


def test_weight_examples():
    assert weight((1,), 3) == 1
    assert weight((0, 1), 3) == 4
    assert weight((0, 0, 1), 3) == 13
    assert weight((), 3) == 0
    assert weight((0, 1), 5) == 6


def test_enumerate_weight_examples():
    assert enumerate_weight(0, 3) == [()]
    assert enumerate_weight(4, 3) == [(4,), (0, 1)]
    assert enumerate_weight(8, 3) == [(8,), (4, 1), (0, 2)]


def test_enumerate_weight_sorted_and_exhaustive():
    # Up to weight 60 the recursion reaches depth 4 at p=3, where v_4 (weight
    # 40) first appears; the brute-force search stays below weight 16.
    for p in (3, 5, 7, 11):
        for r in range(61):
            seqs = enumerate_weight(r, p)
            assert len(set(seqs)) == len(seqs) == count_weight(r, p)
            assert seqs == sorted(seqs, key=sort_key)
            for a in seqs:
                assert weight(a, p) == r
                assert a == normalize(a)
            if r >= 16:
                continue
            # brute-force cross-check by bounded search
            top = max_generator_index(r, p)
            brute = set()
            for exps in itertools.product(*(range(r + 1) for _ in range(top))):
                a = normalize(exps)
                if weight(a, p) == r:
                    brute.add(a)
            assert set(seqs) == brute


def count_weight(r, p):
    """Number of weight-r sequences by the coin-counting recurrence,
    independent of enumerate_weight."""
    counts = [1] + [0] * r
    for i in range(1, max_generator_index(r, p) + 1):
        w = generator_weight(i, p)
        for s in range(w, r + 1):
            counts[s] += counts[s - w]
    return counts[r]


def test_enumerate_weight_counts_match_recurrence():
    for p in (3, 5):
        for r in range(21):
            assert len(enumerate_weight(r, p)) == count_weight(r, p)


def test_in_ideal():
    assert in_ideal((0, 1), 1)
    assert not in_ideal((5,), 1)
    assert not in_ideal((), 4)
    assert in_ideal((0, 0, 2), 2)
    assert not in_ideal((3, 1), 2)


def test_unit_exp():
    assert unit_exp(1) == (1,)
    assert unit_exp(3) == (0, 0, 1)
    with pytest.raises(ValueError):
        unit_exp(0)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_property(p, n):
    # Every monomial outside the height-n ideal precedes every monomial
    # inside it, in each weight up to 12.
    for r in range(13):
        seqs = enumerate_weight(r, p)
        flags = [in_ideal(a, n) for a in seqs]
        assert flags == sorted(flags), (p, n, r)
