import hashlib
import json
import math
import os
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
import sympy

from bpcentre.bp_hopf import (
    CarryError,
    EtaRTable,
    GradedPoly,
    IntegralityError,
    _layout,
    check_integrality,
    coefficient_of_t,
    hazewinkel_m,
    mono_sort_key,
    substitute_m,
)
from bpcentre.dvr_arith import valuation
from bpcentre.monomial_order import add, enumerate_weight, sort_key, unit_exp, weight

# The layout of the polynomials these tests build outside a table: fields of
# 6 bits, so a product of two polynomials of weight at most 31 fits.
AT = {p: _layout(63, p) for p in (3, 5, 7)}


# ---------------------------------------------------------------------------
# independent oracle: the same recursions evaluated by sympy
# ---------------------------------------------------------------------------

def sympy_generators(p, kmax):
    v = {i: sympy.Symbol(f"v{i}") for i in range(1, kmax + 1)}
    t = {i: sympy.Symbol(f"t{i}") for i in range(1, kmax + 1)}
    m = {0: sympy.Integer(1)}
    for k in range(1, kmax + 1):
        m[k] = sympy.Rational(1, p) * sum(
            m[i] * v[k - i] ** (p**i) for i in range(k)
        )
    return v, t, m


def sympy_eta_v(p, kmax):
    v, t, m = sympy_generators(p, kmax)

    def eta_m(k):
        total = sympy.Integer(0)
        for i in range(k + 1):
            j = k - i
            tj = sympy.Integer(1) if j == 0 else t[j]
            total += m[i] * tj ** (p**i)
        return total

    eta = {}
    for k in range(1, kmax + 1):
        expr = p * eta_m(k) - sum(
            eta_m(i) * eta[k - i] ** (p**i) for i in range(1, k)
        )
        eta[k] = sympy.expand(expr)
    return eta


def poly_to_sympy(poly):
    kmax = 12
    v = {i: sympy.Symbol(f"v{i}") for i in range(1, kmax)}
    t = {i: sympy.Symbol(f"t{i}") for i in range(1, kmax)}
    total = sympy.Integer(0)
    for (vexp, texp), c in poly.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for i, e in enumerate(vexp, start=1):
            term *= v[i] ** e
        for i, e in enumerate(texp, start=1):
            term *= t[i] ** e
        total += term
    return sympy.expand(total)


@pytest.mark.parametrize("p,kmax", [(3, 4), (5, 3), (7, 2)])
def test_hazewinkel_m_against_sympy(p, kmax):
    _, _, m = sympy_generators(p, kmax)
    for k in range(kmax + 1):
        ours = poly_to_sympy(hazewinkel_m(p, k, AT[p]))  # p^k m_k
        assert sympy.expand(ours - p**k * m[k]) == 0, (p, k)


@pytest.mark.parametrize("p,kmax", [(3, 3), (5, 2), (7, 2)])
def test_eta_generators_against_sympy(p, kmax):
    table = EtaRTable(p, weight(unit_exp(kmax), p))
    oracle = sympy_eta_v(p, kmax)
    for k in range(1, kmax + 1):
        ours = poly_to_sympy(table.eta(unit_exp(k)))
        assert sympy.expand(ours - oracle[k]) == 0, (p, k)


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

def test_hazewinkel_m_small():
    # p^k m_k: m_1 = v_1/p, m_2 = v_2/p + v_1^(p+1)/p^2
    assert hazewinkel_m(3, 0, AT[3]) == GradedPoly.const(3, 1, AT[3])
    assert hazewinkel_m(3, 1, AT[3]) == GradedPoly(3, {((1,), ()): 1}, AT[3])
    assert hazewinkel_m(3, 2, AT[3]) == GradedPoly(3, {((0, 1), ()): 3, ((4,), ()): 1}, AT[3])
    assert hazewinkel_m(5, 2, AT[5]) == GradedPoly(5, {((0, 1), ()): 5, ((6,), ()): 1}, AT[5])
    for p, k in [(3, 2), (3, 3), (5, 3)]:
        assert {type(c) for c in hazewinkel_m(p, k, AT[p]).terms.values()} == {int}


def test_hazewinkel_m_rejects_even_prime():
    with pytest.raises(ValueError):
        hazewinkel_m(2, 1, AT[3])


def test_eta_unit(table_p3):
    assert table_p3.eta(()) == GradedPoly.const(3, 1, AT[3])


def test_eta_v1(table_p3):
    assert table_p3.eta((1,)) == GradedPoly(3, {
        ((1,), ()): 1,
        ((), (1,)): 3,
    }, AT[3])


def test_eta_v1_squared_top_term(table_p3):
    poly = table_p3.eta((2,))
    assert poly.pure_t_terms()[(2,)] == 9


def test_eta_v2_frozen(table_p3):
    # full expansion checked by hand and by the sympy oracle
    assert table_p3.eta((0, 1)) == GradedPoly(3, {
        ((0, 1), ()): 1,
        ((), (0, 1)): 3,
        ((3,), (1,)): -4,
        ((2,), (2,)): -18,
        ((1,), (3,)): -35,
        ((), (4,)): -27,
    }, AT[3])


def test_eta_weight_bound_enforced():
    table = EtaRTable(3, 4)
    table.eta((0, 1))
    with pytest.raises(ValueError):
        table.eta((5,))


def test_table_rejects_even_prime_and_bad_convention(tmp_path):
    with pytest.raises(ValueError):
        EtaRTable(2, 5)
    payload = EtaRTable(3, 5).to_payload()
    payload["convention"] = "araki"
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(f"cache {path}: the header differs")):
        EtaRTable(3, 5).load(path)


def test_coefficient_of_t_examples(table_p3):
    assert coefficient_of_t((1,), (1,), table_p3) == GradedPoly.const(3, 3, AT[3])
    for gamma in [(2,), (0, 1), (4, 1)]:
        assert coefficient_of_t(gamma, (), table_p3) == GradedPoly(3, {(gamma, ()): 1}, AT[3])
    assert coefficient_of_t((4,), (0, 1), table_p3).is_zero()


def test_check_integrality():
    ok, offenders = check_integrality(GradedPoly(3, {
        ((1,), ()): 1, ((), (1,)): 3,
    }, AT[3]))
    assert ok and not offenders
    bad = GradedPoly(3, {((1,), ()): Fraction(1, 3)}, AT[3])
    ok, offenders = check_integrality(bad)
    assert not ok
    assert offenders == [(((1,), ()), Fraction(1, 3))]
    # the denominator test flags exactly the terms of negative valuation
    mixed = GradedPoly(3, {
        ((2,), ()): Fraction(1, 3), ((1,), (1,)): Fraction(2, 9),
        ((), (2,)): Fraction(5, 2),
    }, AT[3])
    ok, offenders = check_integrality(mixed)
    assert not ok
    assert sorted(offenders) == sorted(
        (key, c) for key, c in mixed.items() if valuation(c, 3) < 0)
    assert offenders == [(((2,), ()), Fraction(1, 3)), (((1,), (1,)), Fraction(2, 9))]


def test_integrality_of_whole_table(table_p3, table_p5):
    for table in (table_p3, table_p5):
        for gamma in table.keys():
            ok, offenders = check_integrality(table.eta(gamma))
            assert ok, (table.p, gamma, offenders)


@pytest.mark.parametrize("p", [3, 5])
def test_top_term_law(p, table_p3, table_p5):
    table = table_p3 if p == 3 else table_p5
    for r in range(table.max_weight + 1):
        for gamma in enumerate_weight(r, p):
            pure = table.eta(gamma).pure_t_terms()
            assert pure[gamma] == Fraction(p) ** sum(gamma)
            for texp in pure:
                assert sort_key(texp) <= sort_key(gamma), (gamma, texp)


def test_counit_law(table_p3):
    for r in range(table_p3.max_weight + 1):
        for gamma in enumerate_weight(r, 3):
            assert coefficient_of_t(gamma, (), table_p3) == \
                GradedPoly(3, {(gamma, ()): 1}, AT[3])


def test_ring_map_law(table_p3):
    rng = random.Random(7)
    monos = [a for r in range(7) for a in enumerate_weight(r, 3)]
    for _ in range(25):
        a, b = rng.choice(monos), rng.choice(monos)
        if weight(add(a, b), 3) > table_p3.max_weight:
            continue
        assert table_p3.eta(add(a, b)) == table_p3.eta(a) * table_p3.eta(b)


def test_homogeneity(table_p3):
    for gamma in table_p3.keys():
        poly = table_p3.eta(gamma)
        assert poly.weight == weight(gamma, 3)


def test_substitute_m_roundtrip():
    # p*m_1 is v_1
    assert substitute_m(3, {1: GradedPoly.const(3, 1, AT[3])}) == \
        GradedPoly(3, {((1,), ()): 1}, AT[3])


def test_graded_poly_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        GradedPoly(3, {((1,), ()): 1, ((2,), ()): 1}, AT[3])


def test_graded_poly_str():
    poly = GradedPoly(3, {((1,), ()): 1, ((), (1,)): 3}, AT[3])
    assert str(poly) == "v_1 + 3*t_1"
    assert str(GradedPoly(3, {}, AT[3])) == "0"


def test_integrality_error_is_raised_on_corrupt_table():
    table = EtaRTable(3, 2)
    with pytest.raises(IntegralityError):
        table._store((1,), GradedPoly(3, {((1,), ()): Fraction(1, 3)}, AT[3]))


# ---------------------------------------------------------------------------
# cache round-trips
# ---------------------------------------------------------------------------

def test_cache_roundtrip(tmp_path):
    table = EtaRTable(3, 6).populate()
    path = tmp_path / "cache.json"
    digest = table.save(path)
    data = path.read_bytes()
    assert digest == hashlib.sha256(data).hexdigest()
    loaded = EtaRTable(3, 6)
    assert loaded.load(path) == digest
    assert data == table.to_bytes()
    assert loaded.p == table.p
    assert loaded.max_weight == table.max_weight
    for gamma in table.keys():
        assert loaded.eta(gamma) == table.eta(gamma)
    # byte-identical resave
    assert loaded.to_bytes() == table.to_bytes()
    assert loaded.fingerprint() == table.fingerprint() == digest


def test_cache_payload_shape(tmp_path):
    table = EtaRTable(3, 1).populate()
    payload = table.to_payload()
    assert payload["prime"] == 3
    assert payload["convention"] == "hazewinkel"
    assert payload["max_weight"] == 1
    assert payload["entries"][0]["v_exponents"] == []
    v1 = payload["entries"][1]
    assert v1["v_exponents"] == [1]
    assert v1["terms"] == [
        {"v_exponents": [1], "t_exponents": [],
         "coefficient_numerator": "1", "coefficient_denominator": "1"},
        {"v_exponents": [], "t_exponents": [1],
         "coefficient_numerator": "3", "coefficient_denominator": "1"},
    ]


def test_save_returns_the_bytes_it_wrote(tmp_path):
    table = EtaRTable(3, 5).populate()
    path = tmp_path / "cache.json"
    digest = table.save(path)
    assert path.read_bytes() == table.to_bytes()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert table.fingerprint() == hashlib.sha256(table.to_bytes()).hexdigest() == digest
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_failed_save_leaves_no_file(tmp_path, monkeypatch):
    table = EtaRTable(3, 5).populate()
    path = tmp_path / "cache.json"

    class Interrupted(Exception):
        pass

    real_open = open

    def open_failing_after_write(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        write = fh.write

        def partial_write(data):
            write(data[: len(data) // 2])
            raise Interrupted

        fh.write = partial_write
        return fh

    monkeypatch.setattr("builtins.open", open_failing_after_write)
    with pytest.raises(Interrupted):
        table.save(path)
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []

    # A failed save over an existing cache leaves the old bytes in place.
    digest = EtaRTable(3, 5).populate().save(path)
    old = path.read_bytes()
    assert digest == hashlib.sha256(old).hexdigest()

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        table.save(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_cache_load_errors_name_the_file(tmp_path):
    path = tmp_path / "cache.json"
    digest = EtaRTable(3, 6).populate().save(path)
    data = path.read_bytes()
    assert digest == hashlib.sha256(data).hexdigest()
    path.write_bytes(data[:500])
    with pytest.raises(ValueError, match=re.escape(f"cache {path}: entry v^(")):
        EtaRTable(3, 6).load(path)


def test_cache_load_rejects_incomplete(tmp_path):
    table = EtaRTable(3, 4).populate()
    payload = table.to_payload()
    payload["entries"] = payload["entries"][:-1]
    path = tmp_path / "broken.json"
    for document, part in ((json.dumps(payload), "the header"),
                           (json.dumps(payload, indent=2) + "\n", "entry v^(0, 1)")):
        path.write_text(document)
        with pytest.raises(ValueError, match=re.escape(f"cache {path}: {part} differs")):
            EtaRTable(3, 4).load(path)


def test_save_and_load_stream_the_document(tmp_path):
    """At p=3 W=30 the document is 7.36 MB; writing it, comparing a cache
    with it and hashing it each allocate less than an eighth of that at
    their peak: the document streams, and terms are keyed by packed ints
    with each distinct exponent rendered once."""
    table = EtaRTable(3, 30).populate()
    path = tmp_path / "cache.json"
    peaks = {}
    for name, step in (("save", table.save), ("load", table.load),
                       ("fingerprint", lambda _: table.fingerprint())):
        tracemalloc.start()
        try:
            step(path)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size == 7_356_562
    assert all(peak < size / 8 for peak in peaks.values()), (peaks, size)


def test_load_names_a_change_deep_in_a_large_entry(tmp_path):
    """v^(0, 1, 2) takes 152 kB at p=3 W=30; a byte changed near its end is
    found."""
    table = EtaRTable(3, 30).populate()
    path = tmp_path / "cache.json"
    table.save(path)
    start = 0
    for part, data in table._pieces():
        if part == "entry v^(0, 1, 2)":
            break
        start += len(data)
    assert len(data) > 150_000
    document = bytearray(path.read_bytes())
    document[start + data.rindex(b'"1"') + 1] = ord("3")  # the last denominator
    path.write_bytes(document)
    with pytest.raises(ValueError, match=re.escape(f"cache {path}: entry v^(0, 1, 2) differs")):
        EtaRTable(3, 30).load(path)


def test_load_compares_the_largest_entry_past_64_kib(tmp_path):
    """The largest piece at p=3 W=30 is v^(0, 1, 2), 152 kB, read in one go:
    a byte flipped 64 KiB into it or the file cut inside it fails naming
    it, and one byte appended fails naming the end of the document."""
    table = EtaRTable(3, 30).populate()
    path = tmp_path / "cache.json"
    table.save(path)
    document = path.read_bytes()
    pieces = list(table._pieces())
    i = max(range(len(pieces)), key=lambda i: len(pieces[i][1]))
    part, data = pieces[i]
    start = sum(len(d) for _, d in pieces[:i])
    assert part == "entry v^(0, 1, 2)" and len(data) > 150_000
    at = start + (1 << 16)
    flipped = document[:at] + bytes([document[at] ^ 1]) + document[at + 1:]
    for edited, named in ((flipped, part),
                          (document[:start + len(data) - 1], part),
                          (document + b" ", "the end of the document")):
        path.write_bytes(edited)
        with pytest.raises(ValueError, match=re.escape(f"cache {path}: {named} differs")):
            EtaRTable(3, 30).load(path)
    path.write_bytes(document)
    assert table.load(path) == hashlib.sha256(document).hexdigest()


# ---------------------------------------------------------------------------
# the direct cache writer
# ---------------------------------------------------------------------------

# SHA-256 of cache documents.  The first four are the benchmark's pins
# (bench/pins.json).  The last three are not in bench/pins.json: they pin the
# bounds W = 2^k - 1, where v_1^W and t_1^W fill their field.
PINNED_FINGERPRINTS = {
    (3, 13): "73ce6a895686d82f285b44999f3257edb1d3b1d9d51b51e076dd6522f4d5c17e",
    (3, 16): "c25337f6f7fa7bbfaed305dfa95edf9becd381549382d6b23545ad9e62d8db3b",
    (3, 20): "f29bdb6ab2286b1ed83448d59ca59cc17d71da88388279509d67e988413c6ce7",
    (5, 31): "2770de0c8204d3b2232c7507869592d515ebe5501f4b70d871c93d35f530e243",
    (3, 7): "9201707c80a1b4dca316fac37c06ab67e2d099de35c005bb9c2c55f5955d965c",
    (3, 15): "10e2d6cf27c37f93e9283f5eed2d7ef0bd74083227b2a7a3037395a79d10c84e",
    (3, 31): "ae8fc0d26fdc479b7d91736c5d1dd8341083b18cbebb542e5fd0b1f633d2f0c8",
}


@pytest.mark.parametrize("p,max_weight", [
    (3, 0), (3, 1), (3, 7), (3, 13), (3, 15), (3, 20), (3, 31), (5, 0), (5, 14), (5, 31),
    (7, 20),
])
def test_direct_writer_matches_json_encoder(p, max_weight):
    table = EtaRTable(p, max_weight).populate()
    expected = (json.dumps(table.to_payload(), indent=2) + "\n").encode("utf-8")
    assert table.to_bytes() == expected


@pytest.mark.parametrize("p,max_weight", sorted(PINNED_FINGERPRINTS))
def test_fingerprints_match_pins(p, max_weight, tmp_path):
    table = EtaRTable(p, max_weight)
    expected = PINNED_FINGERPRINTS[p, max_weight]
    path = tmp_path / "cache.json"
    assert table.fingerprint() == expected
    assert table.save(path) == hashlib.sha256(path.read_bytes()).hexdigest() == expected
    assert EtaRTable(p, max_weight).load(path) == expected


# ---------------------------------------------------------------------------
# trusted arithmetic: results agree with the validating constructor
# ---------------------------------------------------------------------------

def random_poly(rng, p, w, size):
    """A random weight-w polynomial in v and t with up to size terms."""
    terms = {}
    for _ in range(size):
        wv = rng.randint(0, w)
        key = tuple(rng.choice(enumerate_weight(part, p)) for part in (wv, w - wv))
        terms[key] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, p, p * p]))
    return GradedPoly(p, terms, AT[p])


def raw_sum(a, b, sign=1):
    out = dict(a.items())
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + sign * c
    return out


def raw_product(a, b):
    out = {}
    for (v1, t1), c1 in a.items():
        for (v2, t2), c2 in b.items():
            key = (add(v1, v2), add(t1, t2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


def same(result, expected):
    """Equal terms and weight, and no zero coefficient kept."""
    return (result == expected and result.weight == expected.weight
            and all(c != 0 for c in result.terms.values()))


@pytest.mark.parametrize("p", [3, 5])
def test_trusted_arithmetic_matches_validating_constructor(p):
    rng = random.Random(p)
    for _ in range(60):
        wa, wb = rng.randint(0, 6), rng.randint(0, 6)
        a = random_poly(rng, p, wa, rng.randint(0, 6))
        b = random_poly(rng, p, wb, rng.randint(0, 6))
        a2 = random_poly(rng, p, wa, rng.randint(0, 6))
        # a partial cancellation: a2 shares some of a's terms with opposite sign
        half = GradedPoly(p, {k: -c for k, c in list(a.items())[::2]}, AT[p])
        a2 = GradedPoly.sum(p, [a2, half])
        minus_one = GradedPoly.const(p, -1, AT[p])
        assert same(GradedPoly.sum(p, [a, a2]), GradedPoly(p, raw_sum(a, a2), AT[p]))
        assert same(GradedPoly.sum(p, [a, a2 * minus_one]),
                    GradedPoly(p, raw_sum(a, a2, -1), AT[p]))
        assert same(a * minus_one, GradedPoly(p, {k: -c for k, c in a.items()}, AT[p]))
        assert same(a * b, GradedPoly(p, raw_product(a, b), AT[p]))
        for scalar in (0, 1, -p, Fraction(2, p)):
            expected = GradedPoly(p, {k: c * scalar for k, c in a.items()}, AT[p])
            const = GradedPoly.const(p, scalar, AT[p])
            assert same(a * const, expected) and same(const * a, expected)
        n = rng.randint(0, 3)
        expected = power = GradedPoly.const(p, 1, AT[p])
        for _ in range(n):
            expected = GradedPoly(p, raw_product(expected, b), AT[p])
            power = power * b
        assert same(power, expected)
    # (v_1 + t_1)(v_1 - t_1): the v_1 t_1 terms cancel
    x = GradedPoly(p, {((1,), ()): 1, ((), (1,)): 1}, AT[p])
    y = GradedPoly(p, {((1,), ()): 1, ((), (1,)): -1}, AT[p])
    assert same(x * y, GradedPoly(p, raw_product(x, y), AT[p]))
    assert len((x * y).terms) == 2


def test_product_refuses_every_non_polynomial_operand():
    a = GradedPoly(3, {((1,), ()): 1, ((), (1,)): 3}, AT[3])
    for other in (2, Fraction(1, 3), 0.5, "2"):
        assert a.__mul__(other) is NotImplemented
        for bad in (lambda: a * other, lambda: other * a):
            with pytest.raises(TypeError):
                bad()
    assert not hasattr(a, "__rmul__") and not hasattr(a, "__pow__")
    third = a * GradedPoly.const(3, Fraction(1, 3), AT[3])
    assert dict(third.items()) == {((1,), ()): Fraction(1, 3), ((), (1,)): 1}
    assert type(dict(third.items())[((1,), ())]) is Fraction


def test_sum_of_different_weights_raises_and_cancellation_is_zero():
    a = GradedPoly(3, {((1,), ()): 1}, AT[3])
    b = GradedPoly(3, {((2,), ()): 1}, AT[3])
    const = {s: GradedPoly.const(3, s, AT[3]) for s in (-1, 0, -2)}
    for bad in (lambda: GradedPoly.sum(3, [a, b]), lambda: GradedPoly.sum(3, [a, b * const[-1]]),
                lambda: GradedPoly.sum(3, [a, b, a])):
        with pytest.raises(ValueError):
            bad()
    c = GradedPoly(3, {((1,), ()): 2, ((), (1,)): 3}, AT[3])
    for zero in (GradedPoly.sum(3, [c, c * const[-1]]), c * const[0],
                 GradedPoly.sum(3, [c, c, c * const[-2]])):
        assert zero.is_zero() and zero.weight is None
        assert zero == GradedPoly(3, {}, AT[3])
    assert GradedPoly.sum(3, [a, GradedPoly(3, {}, AT[3])]).weight == 1
    assert (GradedPoly(3, {}, AT[3]) * a).weight is None


# ---------------------------------------------------------------------------
# the packed product and integer storage
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7])
def test_packed_product_matches_tuple_product(p):
    # Weights up to 20 reach v_3 and t_3 at p = 3;
    # size 0 gives the zero polynomial, and the v and t lengths vary per term.
    rng = random.Random(100 + p)
    for _ in range(80):
        a = random_poly(rng, p, rng.randint(0, 20), rng.randint(0, 8))
        b = random_poly(rng, p, rng.randint(0, 20), rng.randint(0, 8))
        assert same(a * b, GradedPoly(p, raw_product(a, b), AT[p]))
        assert same(b * a, GradedPoly(p, raw_product(b, a), AT[p]))
    zero = GradedPoly(p, {}, AT[p])
    for x in (zero * a, a * zero, zero * zero):
        assert x.is_zero() and x.weight is None


def test_packed_product_with_unequal_lengths():
    # weight 14 at p=3: v_3 t_1, v_1^14, t_1 t_3; times eta_R(v_1) = v_1 + 3 t_1
    a = GradedPoly(3, {((0, 0, 1), (1,)): 2, ((14,), ()): -1, ((), (1, 0, 1)): Fraction(5, 3)},
                   AT[3])
    b = GradedPoly(3, {((1,), ()): 1, ((), (1,)): 3}, AT[3])
    for x, y in ((a, b), (b, a), (a, a)):
        assert same(x * y, GradedPoly(3, raw_product(x, y), AT[3]))


@pytest.mark.parametrize("k", range(2, 8))
def test_packed_product_exponents_that_fill_a_field(k):
    # a + b = 2^k - 1 is the largest exponent a field of k bits holds, at the
    # layout of weight 2^k - 1; a carry out of the v field would land in the
    # t field.
    layout = _layout(2**k - 1, 3)
    assert layout.bits == k
    for a in range(1, 2**k - 1):
        b = 2**k - 1 - a
        x = GradedPoly(3, {((a,), ()): 1, ((), (a,)): 2}, layout)
        y = GradedPoly(3, {((b,), ()): 1, ((), (b,)): -1}, layout)
        assert x * y == GradedPoly(3, raw_product(x, y), layout)
        assert dict((x * y).items())[(2**k - 1,), ()] == 1
        assert dict((x * y).items())[(), (2**k - 1,)] == -2


@pytest.mark.parametrize("max_weight", [1, 7, 8, 13, 20, 31, 32])
def test_packed_keys_of_every_monomial_up_to_the_bound(max_weight):
    """Every (v, t) monomial of weight <= W at p=3, among them v_1^W and
    t_1^W, whose exponent W is the largest a field holds (all of it at
    W = 2^k - 1): at the table's layout their keys are distinct, unpack to
    them, have no guard bit set and order them as mono_sort_key."""
    monos = [(v, t) for r in range(max_weight + 1) for s in range(r + 1)
             for v in enumerate_weight(s, 3) for t in enumerate_weight(r - s, 3)]
    assert ((max_weight,), ()) in monos and ((), (max_weight,)) in monos
    layout = _layout(max_weight, 3)
    packed = {mono: layout.pack(*mono) for mono in monos}
    assert len(set(packed.values())) == len(packed)
    assert all(layout.unpack(key) == mono for mono, key in packed.items())
    assert not any(key & layout.guard for key in packed.values())
    assert sorted(packed, key=packed.get) == sorted(packed, key=mono_sort_key)


def test_store_refuses_non_integer_coefficients():
    table = EtaRTable(3, 2)
    bad = GradedPoly(3, {((1,), ()): 1, ((), (1,)): Fraction(7, 2)}, AT[3])
    with pytest.raises(IntegralityError, match=re.escape(
            "eta_R(v^(1,)) has non-integer coefficients: ((), (1,)) -> 7/2")):
        table._store((1,), bad)
    # An integral Fraction is refused too: the table converts nothing.
    layout = table.layout
    integral = GradedPoly._trusted(
        3, {layout.pack((1,), ()): 1, layout.pack((), (1,)): Fraction(3)}, 1, layout)
    with pytest.raises(IntegralityError, match=re.escape(
            "eta_R(v^(1,)) has non-integer coefficients: ((), (1,)) -> 3")):
        table._store((1,), integral)
    assert (1,) not in table._cache


def test_built_and_loaded_tables_hold_ints(tmp_path):
    built = EtaRTable(5, 14).populate()
    built.save(tmp_path / "cache.json")
    loaded = EtaRTable(5, 14)
    loaded.load(tmp_path / "cache.json")
    for table in (built, loaded):
        assert {type(c) for g in table.keys() for c in table.eta(g).terms.values()} == {int}


# SHA-256 of the serialized tables as built with Fraction coefficients; p=3
# W=40 is the only configuration here that reaches eta_R(v_4).
CACHE_SHA256 = {
    (3, 30): "062c37d22a549d52ab483ed2e05c8221c93ad9284d349e13b941e57aa58c33a2",
    (5, 31): "2770de0c8204d3b2232c7507869592d515ebe5501f4b70d871c93d35f530e243",
    (5, 40): "05266548b36ee9c6eb6d6d14291a1dbb8691851773edf6b9ea92c428ddaf4e16",
    (7, 20): "dd95d089896c7e8268f163f013641822cf8d0cfc4f53fac46d42f1957785739e",
    (3, 40): "5e91449495cee6b440e7f4eb61de2d608dc76299d03876a71ee25a6567b54e6c",
}


@pytest.mark.parametrize("p,max_weight", list(CACHE_SHA256))
def test_table_bytes_are_unchanged(p, max_weight):
    data = EtaRTable(p, max_weight).populate().to_bytes()
    assert hashlib.sha256(data).hexdigest() == CACHE_SHA256[p, max_weight]


@pytest.mark.parametrize("p,max_weight,k", [(3, 40, 4), (5, 31, 3), (7, 57, 3)])
def test_generator_computed_before_its_powers_are_cached(p, max_weight, k):
    """On an empty table eta_R(v_k) builds each eta_R(v_{k-i})^{p^i} through
    the memo on demand; under populate every one of them is a cache hit.
    Both routes give the same value, and the powers stay in the cache."""
    fresh = EtaRTable(p, max_weight)
    assert fresh.eta(unit_exp(k)) == EtaRTable(p, max_weight).populate().eta(unit_exp(k))
    for i in range(1, k):
        assert (0,) * (k - i - 1) + (p**i,) in fresh._cache


def test_planted_non_integral_coefficient_fails_populate(monkeypatch):
    from bpcentre import bp_hopf

    real = bp_hopf.hazewinkel_m
    for k in range(3):
        real(3, k, _layout(4, 3))  # memoized, so the patched recursion below never reaches it

    def without_one_over_p(p, k, layout):
        # m_1 = v_1 instead of v_1/p: eta_R(v_2) keeps a v_1^4/3 term
        if k == 1:
            return real(p, k, layout) * GradedPoly.const(p, p, layout)
        return real(p, k, layout)

    EtaRTable(3, 4).populate()
    monkeypatch.setattr(bp_hopf, "hazewinkel_m", without_one_over_p)
    EtaRTable(3, 3).populate()  # eta_R(v_1) = 3*v_1 + 3*t_1: wrong, but integral
    with pytest.raises(IntegralityError, match=r"eta_R\(v\^\(0, 1\)\)"):
        EtaRTable(3, 4).populate()


# ---------------------------------------------------------------------------
# one layout per table, and the carry guard
# ---------------------------------------------------------------------------

def test_every_value_and_intermediate_shares_the_tables_layout():
    table = EtaRTable(3, 20).populate()
    assert table.layout == _layout(20, 3)
    assert all(table.eta(gamma).layout == table.layout for gamma in table.keys())
    for k in range(4):
        assert hazewinkel_m(3, k, table.layout).layout == table.layout
        assert hazewinkel_m(3, k, table.layout) == hazewinkel_m(3, k, AT[3])


def test_a_layout_one_bit_too_narrow_fails_at_once(narrow_layouts):
    """At p=3 W=15 fields of 3 bits hold exponents up to 7: the first product
    that reaches 8, v_1^7 * v_1, sets a guard bit and the build stops there,
    naming the entry."""
    table = EtaRTable(3, 15)
    start = time.monotonic()
    with pytest.raises(CarryError, match=re.escape(
            "eta_R(v^(8,)): a product of weight 8 overflows the fields of Layout(bound=15, bits=3")):
        table.populate()
    assert time.monotonic() - start < 2
    assert max(weight(gamma, 3) for gamma in table._cache) == 7


def test_a_deep_power_is_built_by_a_loop_on_an_empty_table():
    """eta_R(v_1^1100) walks 1100 rests down to eta_R(1); a recursion of that
    depth raised RecursionError.  eta_R(v_1) = v_1 + 3*t_1, so the value is
    the binomial expansion, and at a small bound the walk gives the value
    that populate does."""
    deep = EtaRTable(3, 1100).eta((1100,))
    assert dict(deep.items()) == {
        ((1100 - j,) if j < 1100 else (), (j,) if j else ()): math.comb(1100, j) * 3**j
        for j in range(1101)}
    for gamma in [(20,), (4, 2), (2, 0, 1)]:
        assert EtaRTable(3, 20).eta(gamma) == EtaRTable(3, 20).populate().eta(gamma)


def test_a_layout_one_bit_too_narrow_stops_the_walk(narrow_layouts):
    """On an empty table the walk builds v_1^1, ..., v_1^7 and stops at the
    first product whose exponent outgrows the narrowed fields."""
    table = EtaRTable(3, 15)
    with pytest.raises(CarryError, match=re.escape(
            "eta_R(v^(8,)): a product of weight 8 overflows the fields of Layout(bound=15, bits=3")):
        table.eta((15,))
    assert sorted(table._cache) == [(), (1,), (2,), (3,), (4,), (5,), (6,), (7,)]


def test_the_guard_bit_is_exact():
    # at the layout of weight 7 (fields of 3 bits), v_1^7 fits and v_1^8 does not
    layout = _layout(7, 3)
    v1, v1_6 = (GradedPoly(3, {((e,), ()): 1}, layout) for e in (1, 6))
    assert dict((v1 * v1_6).items()) == {((7,), ()): 1}
    with pytest.raises(OverflowError, match="a product of weight 8 overflows"):
        v1 * v1_6 * v1
    with pytest.raises(OverflowError, match=re.escape("((8,), ()) does not fit")):
        GradedPoly(3, {((8,), ()): 1}, layout)
