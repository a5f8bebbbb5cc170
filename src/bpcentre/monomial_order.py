"""Exponent sequences indexing monomials v^a, with the right-lexicographic order.

A monomial v^a = v_1^{a_1} v_2^{a_2} ... v_m^{a_m} is indexed by the finite
sequence a = (a_1, ..., a_m) of non-negative integers with a_m != 0 (the
empty sequence indexes 1).  Sequences are compared right-lexicographically:
reading from the highest index down, after padding with trailing zeros, so
that shorter sequences come first.  The weight of a sequence at an odd prime
p is its topological degree divided by 2(p-1); the generator with index i
has weight (p^i - 1)/(p - 1).
"""

from __future__ import annotations

Exp = tuple[int, ...]


def normalize(entries) -> Exp:
    """Strip trailing zeros; entries must be non-negative integers."""
    seq = list(entries)
    for e in seq:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponents must be non-negative integers, got {entries!r}")
    while seq and seq[-1] == 0:
        seq.pop()
    return tuple(seq)


def unit_exp(i: int) -> Exp:
    """Sequence indexing the single generator of index i >= 1."""
    if i < 1:
        raise ValueError("generator index must be >= 1")
    return (0,) * (i - 1) + (1,)


def compare(a: Exp, b: Exp) -> int:
    """Right-lex comparison, returning -1, 0 or 1.

    Both sequences are read as padded with trailing zeros and compared from
    the highest index downwards; for normalized sequences this reproduces
    the two-clause order (shorter first, then highest differing index).
    """
    n = max(len(a), len(b))
    for i in range(n - 1, -1, -1):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        if x != y:
            return -1 if x < y else 1
    return 0


def sort_key(a: Exp):
    """Sorting key equivalent to ``compare`` on normalized sequences."""
    return (len(a), tuple(reversed(a)))


def add(a: Exp, b: Exp) -> Exp:
    """Placewise sum, so that v^a * v^b = v^(a+b)."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return tuple(a)
    return tuple(map(int.__add__, a, b)) + tuple(a[len(b):])


def generator_weight(i: int, p: int) -> int:
    """Weight of the index-i generator: 1 + p + ... + p^(i-1)."""
    if i < 1:
        raise ValueError("generator index must be >= 1")
    return (p**i - 1) // (p - 1)


def weight(a: Exp, p: int) -> int:
    """Total weight sum(a_i * (p^i - 1)/(p - 1))."""
    return sum(e * generator_weight(i + 1, p) for i, e in enumerate(a))


def max_generator_index(r: int, p: int) -> int:
    """Largest generator index whose weight does not exceed r (0 if none)."""
    i = 0
    while generator_weight(i + 1, p) <= r:
        i += 1
    return i


def enumerate_weight(r: int, p: int) -> list[Exp]:
    """All sequences of weight r in ascending order: the weight-r monomial basis.

    Only generators of weight at most r can occur, those of index up to
    :func:`max_generator_index`.  The recursion yields right-lex order by
    construction: with e = 0 on the top generator it yields the shorter
    sequences, which come first; then e rises, and for each e the heads come
    out in order by induction.
    """
    if r < 0:
        raise ValueError("weight must be non-negative")

    def rec(rem: int, i: int):
        if rem == 0:
            yield ()
            return
        if i == 0:
            return
        w = generator_weight(i, p)
        for e in range(rem // w + 1):
            for head in rec(rem - e * w, i - 1):
                if e:
                    yield head + (0,) * (i - 1 - len(head)) + (e,)
                else:
                    yield head

    return list(rec(r, max_generator_index(r, p)))


def in_ideal(a: Exp, n: int) -> bool:
    """Whether v^a lies in the ideal generated by the generators above index n."""
    if n < 0:
        raise ValueError("height must be non-negative")
    return any(a[i] != 0 for i in range(n, len(a)))
