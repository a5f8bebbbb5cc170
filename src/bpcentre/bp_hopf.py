"""The coefficient ring and the right unit of the Brown-Peterson Hopf algebroid.

Everything is computed exactly.  The coefficient ring is Z_(p)[v_1, v_2, ...]
on the Hazewinkel generators, defined through the rational generators m_k by
the recursion p*m_k = sum_{0<=i<k} m_i v_{k-i}^{p^i} (m_0 = 1).  Co-operations
live in Z_(p)[v][t], and the right unit is the ring map determined on the
rational generators by eta_R(m_k) = sum_{i+j=k} m_i t_j^{p^i} with t_0 = 1.
Monomials are (v, t) pairs of exponent sequences.  The m_k, whose
coefficients have p-power denominators, enter the recursion for eta_R(v_k)
only as the integer polynomials p^k m_k, and the p^k eta_R(v_k) it yields is
divided by p^k exactly.  A value of eta_R is p-integral, so its coefficients
are integers: a remainder is refused, the table stores ``int`` coefficients
only, and composite values are products of integer polynomials.

A polynomial keys its terms by ints that pack each exponent into a field of
its :class:`Layout`.  A table keeps every value, and every intermediate of
its construction, at the layout of its weight bound.  The one product, of two
polynomials at one layout, is key addition; only exponent readers unpack a key.

:class:`EtaRTable` memoizes eta_R on v-monomials up to a weight bound and
serializes to a deterministic JSON document, one entry at a time, so writing,
comparing or hashing it never holds the whole document.  A cache is never
parsed: the table is always built, and a cache file counts only when it holds
exactly the bytes of that serialization (:meth:`EtaRTable.load`).
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import cache, lru_cache, reduce
from operator import or_
try:  # the built-in SHA-256: hashlib would load OpenSSL
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .dvr_arith import is_odd_prime
from .monomial_order import (
    Exp,
    enumerate_weight,
    max_generator_index,
    normalize,
    sort_key,
    unit_exp,
    weight,
)

# A mixed monomial: exponent sequences for the v and t generators.
Mono = tuple[Exp, Exp]

MONO_ONE: Mono = ((), ())

CONVENTION = "hazewinkel"


class IntegralityError(ArithmeticError):
    """A right-unit coefficient that is not an integer (p^k eta_R(v_k) not divisible
    by p^k, or not an ``int``); the message names the entry and its offenders."""


class CarryError(ArithmeticError):
    """An exponent of eta_R(v^gamma) that outgrew its packed field: the
    table's layout is too narrow for its weight bound (see Layout)."""


def mono_weight(key: Mono, p: int) -> int:
    v, t = key
    return weight(v, p) + weight(t, p)


def mono_sort_key(key: Mono):
    v, t = key
    return (sort_key(t), sort_key(v))


class Layout(namedtuple("Layout", "bound bits shift low guard")):
    """The packing of the monomials of weight at most bound into int keys.

    Fields are bits + 1 bits wide, bits = bound.bit_length(): exponent i of v
    fills field i, and exponent i of t field i from bit shift on, above the
    max_generator_index(bound, p) fields of v, so key & low is the v part
    and key >> shift the t part.  The top bit of each field is
    a guard, clear in every key.  Every generator has weight >= 1, so no
    exponent of a monomial of weight at most bound exceeds bound < 2^bits.
    Adding two keys adds exponents field by field, and two exponents below
    2^bits sum below 2^(bits+1): no carry leaves a field, and a sum with no
    guard bit set (mask guard) is the key of the product.  A product of
    weight at most bound sets none; GradedPoly.__mul__ raises OverflowError
    if one is set.  Keys order as mono_sort_key: the t part is compared
    first, and within a part a longer normalized sequence fills a higher
    field, while sequences of one length compare from the highest index down.
    """

    __slots__ = ()

    def pack(self, v: Exp, t: Exp) -> int:
        """The key of the normalized monomial (v, t); OverflowError if an
        exponent or a generator index does not fit the fields."""
        width = self.bits + 1
        fields = self.shift // width
        if max(len(v), len(t)) > fields or any(e >> self.bits for e in v + t):
            raise OverflowError(f"({v}, {t}) does not fit the fields of {self}")
        return sum(e << i * width for i, e in enumerate(v + (0,) * (fields - len(v)) + t))

    def part(self, x: int) -> Exp:
        """The normalized exponent sequence packed in x, a key's v or t part."""
        mask, exps = (1 << self.bits) - 1, []
        while x:
            exps.append(x & mask)
            x >>= self.bits + 1
        return tuple(exps)

    def unpack(self, key: int) -> Mono:
        """The (v, t) monomial of a key."""
        return self.part(key & self.low), self.part(key >> self.shift)


@cache
def _layout(bound: int, p: int) -> Layout:
    """The layout of the monomials of weight at most bound at p (see Layout)."""
    bits, fields = bound.bit_length(), max_generator_index(bound, p)
    shift = fields * (bits + 1)
    guard = sum(1 << (i + 1) * (bits + 1) - 1 for i in range(2 * fields))
    return Layout(bound, bits, shift, (1 << shift) - 1, guard)


class GradedPoly:
    """A sparse weight-homogeneous polynomial in the v and t generators.

    Immutable by convention.  The term map sends the keys of monomials,
    packed at the polynomial's layout, to non-zero coefficients, ``int`` or
    ``Fraction``, and all stored terms share one total weight.  The public
    constructor takes (v, t) monomials, stores integral values as ``int``
    and packs them at the given layout.  The one product is by another
    polynomial of the layout (a scalar is a :meth:`const`); products and
    sums never unpack a key, and :meth:`items` reads terms with exponents.
    """

    __slots__ = ("p", "terms", "weight", "layout")

    def __init__(self, p: int, terms, layout: Layout):
        clean: dict[int, int | Fraction] = {}
        w = None
        for (v, t), coeff in terms.items():
            if type(coeff) is not int and coeff.denominator == 1:
                coeff = coeff.numerator
            if coeff == 0:
                continue
            v, t = normalize(v), normalize(t)
            kw = mono_weight((v, t), p)
            if w is None:
                w = kw
            elif kw != w:
                raise ValueError(f"inhomogeneous terms: weight {kw} vs {w}")
            key = layout.pack(v, t)
            clean[key] = clean.get(key, 0) + coeff
        self._fill(p, {k: c for k, c in clean.items() if c != 0}, w, layout)

    def _fill(self, p, terms, weight, layout):
        for name, value in zip(self.__slots__, (p, terms, weight if terms else None, layout)):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("GradedPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, p: int, c, layout: Layout) -> "GradedPoly":
        return cls(p, {MONO_ONE: c}, layout)

    # -- ring structure -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GradedPoly) and self.p == other.p and (
            self.terms == other.terms if self.layout == other.layout
            else dict(self.items()) == dict(other.items()))

    __hash__ = None

    @classmethod
    def _trusted(cls, p: int, terms: dict, weight, layout: Layout) -> "GradedPoly":
        """Unchecked: keys packed at layout, non-zero coefficients, one weight."""
        poly = object.__new__(cls)
        poly._fill(p, terms, weight, layout)
        return poly

    @classmethod
    def sum(cls, p: int, polys) -> "GradedPoly":
        """The sum of one or more polynomials of one weight and layout, in one dict."""
        out: dict[int, int | Fraction] = {}
        weights, layout = set(), None
        for poly in polys:
            layout = layout or poly.layout
            if poly.p != p or poly.layout != layout:
                raise ValueError("mixed primes or layouts")
            weights.add(poly.weight)
            for key, c in poly.terms.items():
                out[key] = out.get(key, 0) + c
        weights.discard(None)
        if len(weights) > 1:
            raise ValueError(f"inhomogeneous terms: weights {sorted(weights)}")
        return cls._trusted(p, {k: c for k, c in out.items() if c}, min(weights, default=None),
                            layout)

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if self.p != other.p or self.layout != other.layout:
            raise ValueError("mixed primes or layouts")
        if not (self.terms and other.terms):
            return GradedPoly._trusted(self.p, {}, None, self.layout)
        # The sum of two keys is the key of the product monomial (see Layout).
        w = self.weight + other.weight
        a, b = self.terms.items(), other.terms.items()
        if len(a) < len(b):
            a, b = b, a
        out: dict[int, int | Fraction] = {}
        get = out.get
        for kb, cb in b:
            for ka, ca in a:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        if reduce(or_, out) & self.layout.guard:
            raise OverflowError(f"a product of weight {w} overflows the fields of {self.layout}")
        terms = out if all(out.values()) else {k: c for k, c in out.items() if c}
        return GradedPoly._trusted(self.p, terms, w if terms else None, self.layout)

    # -- structure queries --------------------------------------------

    def items(self):
        """The terms as ((v, t), coefficient) pairs, in no particular order."""
        unpack = self.layout.unpack
        return ((unpack(key), c) for key, c in self.terms.items())

    def pure_t_terms(self) -> dict[Exp, int | Fraction]:
        """Coefficients of the monomials involving only t generators."""
        part, shift, low = self.layout.part, self.layout.shift, self.layout.low
        return {part(k >> shift): c for k, c in self.terms.items() if not k & low}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):  # packed keys order as mono_sort_key
            coeff = self.terms[key]
            factors = []
            for name, exps in zip(("v", "t"), self.layout.unpack(key)):
                for i, e in enumerate(exps, start=1):
                    if e == 1:
                        factors.append(f"{name}_{i}")
                    elif e > 1:
                        factors.append(f"{name}_{i}^{e}")
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            parts.append(("- " if coeff < 0 else "+ ") + text)
        first = parts[0].removeprefix("+ ").replace("- ", "-", 1)
        return " ".join([first] + parts[1:])

    __repr__ = __str__


def check_integrality(poly: GradedPoly):
    """Whether every coefficient lies in Z_(p); offenders listed if not.

    A reduced fraction has negative valuation exactly when p divides its
    denominator, so only denominators are tested.
    """
    bad = sorted((key, c) for key, c in poly.terms.items() if c.denominator % poly.p == 0)
    return (not bad), [(poly.layout.unpack(key), c) for key, c in bad]


@lru_cache(maxsize=None)
def hazewinkel_m(p: int, k: int, layout: Layout) -> GradedPoly:
    """p^k m_k, an integer polynomial in v_1, ..., v_k packed at layout, for
    the rational generator m_k: m_0 = 1 and p*m_k = sum_{0<=i<k} m_i v_{k-i}^{p^i}.
    """
    if not is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    if k < 0:
        raise ValueError("index must be non-negative")
    if k == 0:
        return GradedPoly.const(p, 1, layout)
    return GradedPoly.sum(p, (hazewinkel_m(p, i, layout) * GradedPoly(
        p, {((0,) * (k - i - 1) + (p**i,), ()): p ** (k - 1 - i)}, layout) for i in range(k)))


def substitute_m(p: int, groups: dict[int, GradedPoly]) -> GradedPoly:
    """sum_a p^a m_a * groups[a], each p^a m_a written as its integer
    v-polynomial at the layout of groups[a]: one product per generator."""
    return GradedPoly.sum(p, (hazewinkel_m(p, a, poly.layout) * poly
                              for a, poly in groups.items()))


class EtaRTable:
    """Memoized values of the right unit on v-monomials, up to a weight bound.

    Entries are polynomials in v and t with ``int`` coefficients, homogeneous
    of the weight of their key, at the layout of the weight bound.
    Population is deterministic; reads never mutate existing entries, so a
    populated table is safe to share between threads.
    """

    def __init__(self, p: int, max_weight: int):
        if not is_odd_prime(p):
            raise ValueError("p must be an odd prime")
        if max_weight < 0:
            raise ValueError("max_weight must be non-negative")
        self.p = p
        self.max_weight = max_weight
        self.layout = _layout(max_weight, p)
        self._cache: dict[Exp, GradedPoly] = {}
        self._store((), GradedPoly.const(p, 1, self.layout))

    # -- construction ---------------------------------------------------

    def _store(self, gamma: Exp, poly: GradedPoly) -> GradedPoly:
        """Keep eta_R(v^gamma), after checking that it is of the weight of
        gamma and that its coefficients are ``int``.  A generator's value is
        built term by term, not as a product of stored values, so each of its
        terms is weighed; any other value is taken at its claimed weight."""
        w = weight(gamma, self.p)
        weighed = poly.items() if gamma and gamma == unit_exp(len(gamma)) else ()
        if (not poly.is_zero() and poly.weight != w
                or any(mono_weight(key, self.p) != w for key, _ in weighed)):
            raise IntegralityError(f"eta_R(v^{gamma}) is not homogeneous of weight {w}")
        if not set(map(type, poly.terms.values())) <= {int}:
            raise _coefficient_error(gamma, "non-integer", [
                (key, c) for key, c in poly.items() if type(c) is not int])
        self._cache[gamma] = poly
        return poly

    def _eta_generator(self, k: int) -> GradedPoly:
        # eta_R(v_k) = p*eta_R(m_k) - sum_{0<i<k} eta_R(m_i) eta_R(v_{k-i})^{p^i}
        # with eta_R(m_i) = sum_{a+j=i} m_a t_j^{p^a}; the t-parts, times p^(k-a),
        # go to groups[a], whose sum against the p^a m_a is p^k eta_R(v_k).  Each
        # eta_R(v_{k-i})^{p^i} is a table entry of lower weight, cached by populate.
        p = self.p

        def t_power(j, a, c):  # c * t_j^{p^a}, with t_0 = 1
            return GradedPoly(p, {((), (0,) * (j - 1) + (p**a,) if j else ()): c}, self.layout)

        groups = {a: GradedPoly.sum(p, [t_power(k - a, a, p ** (k - a + 1))] + [
            t_power(i - a, a, -p ** (k - a)) * self.eta((0,) * (k - i - 1) + (p**i,))
            for i in range(max(a, 1), k)
        ]) for a in range(k + 1)}
        scaled, q = substitute_m(p, groups), p**k
        if any(c % q for c in scaled.terms.values()):
            from fractions import Fraction
            raise _coefficient_error(unit_exp(k), "non-integral",
                                     [(key, Fraction(c, q)) for key, c in scaled.items() if c % q])
        quotient = {key: c // q for key, c in scaled.terms.items()}
        return GradedPoly._trusted(p, quotient, scaled.weight, self.layout)

    def eta(self, gamma) -> GradedPoly:
        """eta_R(v^gamma), memoized: a loop, not a recursion, builds the rests below it."""
        gamma = normalize(gamma)
        cached = self._cache.get(gamma)
        if cached is not None:
            return cached
        w = weight(gamma, self.p)
        if w > self.max_weight:
            raise ValueError(
                f"weight {w} exceeds the table bound {self.max_weight}"
            )
        steps = [gamma]  # each step lowers the last exponent by one, down to a stored value
        while (g := steps[-1]) not in self._cache:  # eta_R(1) is stored, so the walk ends
            steps.append(normalize(g[:-1] + (g[-1] - 1,)))
        poly = self._cache[steps.pop()]
        for g in reversed(steps):  # eta_R(v^g) = eta_R(rest of g) * eta_R(v_top)
            top = unit_exp(len(g))
            try:
                poly = self._eta_generator(len(g)) if g == top else poly * self.eta(top)
            except OverflowError as exc:  # raised by no product of weight <= max_weight
                raise CarryError(f"eta_R(v^{g}): {exc}") from None
            poly = self._store(g, poly)
        return poly

    def populate(self) -> "EtaRTable":
        for r in range(self.max_weight + 1):
            for gamma in enumerate_weight(r, self.p):
                self.eta(gamma)
        return self

    def keys(self):
        return sorted(self._cache, key=sort_key)

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> dict:
        self.populate()
        entries = []
        for gamma in self.keys():
            terms = []
            for (v, t), coeff in sorted(self._cache[gamma].items(),
                                        key=lambda kv: mono_sort_key(kv[0])):
                terms.append(
                    {
                        "v_exponents": list(v),
                        "t_exponents": list(t),
                        "coefficient_numerator": str(coeff.numerator),
                        "coefficient_denominator": str(coeff.denominator),
                    }
                )
            entries.append({"v_exponents": list(gamma), "terms": terms})
        return {
            "prime": self.p,
            "convention": CONVENTION,
            "max_weight": self.max_weight,
            "entries": entries,
        }

    def _pieces(self):
        """The canonical document as (part, bytes-like) pieces, yielded one at
        a time in order: the header, each entry v^gamma led by its separator,
        and the end.  An entry is written term by term into one bytearray.
        Terms are sorted by their stored keys, which order as mono_sort_key
        (see Layout); each distinct v or t part is rendered once."""
        self.populate()
        shift, low = self.layout.shift, self.layout.low
        text = cache(lambda x: _json_list(self.layout.part(x), 10))
        yield "the header", (f'{{\n  "prime": {self.p},\n  "convention": "{CONVENTION}",\n'
                             f'  "max_weight": {self.max_weight},\n  "entries": [').encode()
        sep = ""
        for gamma in self.keys():
            data = bytearray(f'{sep}\n    {{\n      "v_exponents": {_json_list(gamma, 6)},\n'
                             f'      "terms": ['.encode())
            row_sep = "\n"
            for k, c in sorted(self._cache[gamma].terms.items()):
                data += (f'{row_sep}        {{\n          "v_exponents": {text(k & low)},\n'
                         f'          "t_exponents": {text(k >> shift)},\n'
                         f'          "coefficient_numerator": "{c.numerator}",\n'
                         f'          "coefficient_denominator": "{c.denominator}"\n        }}'
                         ).encode()
                row_sep = ",\n"
            data += b"]\n    }" if row_sep == "\n" else b"\n      ]\n    }"
            yield f"entry v^{gamma}", data
            sep = ","
        yield "the end of the document", b"\n  ]\n}\n"

    def to_bytes(self) -> bytes:
        """``json.dumps(self.to_payload(), indent=2) + "\\n"``, written directly."""
        return b"".join(data for _, data in self._pieces())

    def save(self, path) -> str:
        """Write the serialized table piece by piece beside path, then move it
        over path, so an interrupted save leaves no partial cache; return the
        SHA-256 hex digest of the bytes written."""
        digest = sha256()
        tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
        try:
            with open(tmp, "xb") as fh:
                for _, data in self._pieces():
                    fh.write(data)
                    digest.update(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return digest.hexdigest()

    def load(self, path) -> str:
        """Compare the cache file at path, piece by piece, with this table's
        serialization and return the SHA-256 hex digest of its bytes.  Only
        the canonical document is accepted: any other raises ValueError
        naming the path and the first part that differs (the header, an
        entry v^gamma or the end of the document, which also covers bytes
        after it)."""
        digest = sha256()
        with open(path, "rb") as fh:
            for part, data in self._pieces():
                if fh.read(len(data)) != data:
                    break
                digest.update(data)
            else:
                if not fh.read(1):
                    return digest.hexdigest()
        raise ValueError(f"cache {path}: {part} differs from the table built "
                         f"for p={self.p}, max_weight={self.max_weight}")

    def fingerprint(self) -> str:
        """The SHA-256 hex digest of the serialized table."""
        digest = sha256()
        for _, data in self._pieces():
            digest.update(data)
        return digest.hexdigest()


def _coefficient_error(gamma: Exp, what: str, offenders) -> IntegralityError:
    offenders = sorted(offenders, key=lambda kv: mono_sort_key(kv[0]))
    worst = ", ".join(f"{key} -> {c}" for key, c in offenders[:3])
    return IntegralityError(f"eta_R(v^{gamma}) has {what} coefficients: {worst}")


def _json_list(items, indent: int) -> str:
    """A JSON array of integers or of already encoded items, laid out as by
    ``json.dumps`` with ``indent=2`` at the given depth."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(map(str, items)) + "\n" + " " * indent + "]"


def coefficient_of_t(gamma, beta, table: EtaRTable) -> GradedPoly:
    """The v-polynomial coefficient of t^beta in eta_R(v^gamma).

    Zero when t^beta does not occur; otherwise homogeneous of weight
    weight(gamma) - weight(beta).
    """
    p, beta, poly = table.p, normalize(beta), table.eta(gamma)
    layout = poly.layout
    tb = layout.pack((), beta) if weight(beta, p) <= layout.bound else -1
    picked = {k & layout.low: c for k, c in poly.terms.items() if k & ~layout.low == tb}
    return GradedPoly._trusted(p, picked, weight(gamma, p) - weight(beta, p), layout)
