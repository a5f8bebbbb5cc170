"""The coefficient ring and the right unit of the Brown-Peterson Hopf algebroid.

Everything is computed exactly.  The coefficient ring is Z_(p)[v_1, v_2, ...]
on the Hazewinkel generators, defined through the rational generators m_k by
the recursion p*m_k = sum_{0<=i<k} m_i v_{k-i}^{p^i} (m_0 = 1).  Co-operations
live in Z_(p)[v][t], and the right unit is the ring map determined on the
rational generators by eta_R(m_k) = sum_{i+j=k} m_i t_j^{p^i} with t_0 = 1.
Monomials are (v, t) pairs: the m_k, whose coefficients have p-power
denominators, enter the recursion for eta_R(v_k) only as the integer
polynomials p^k m_k, and the p^k eta_R(v_k) it yields is divided by p^k
exactly.  A value of eta_R is p-integral, so its coefficients are integers:
a remainder is refused, the table stores ``int`` coefficients only, and
composite values are products of integer polynomials.

:class:`EtaRTable` memoizes eta_R on v-monomials up to a weight bound and
serializes to a deterministic JSON document, one entry at a time, so writing,
comparing or hashing it never holds the whole document.  A cache is never
parsed: the table is always built, and a cache file counts only when it holds
exactly the bytes of that serialization (:meth:`EtaRTable.load`).
"""

from __future__ import annotations

import hashlib
import os
from functools import cache, lru_cache
from operator import itemgetter

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


def mono_weight(key: Mono, p: int) -> int:
    v, t = key
    return weight(v, p) + weight(t, p)


def mono_sort_key(key: Mono):
    v, t = key
    return (sort_key(t), sort_key(v))


class GradedPoly:
    """A sparse weight-homogeneous polynomial in the v and t generators.

    Immutable by convention; the term map sends mixed monomials to non-zero
    coefficients, ``int`` or ``Fraction`` (the public constructor stores
    integral values as ``int``), and all stored terms share one total weight.
    """

    __slots__ = ("p", "terms", "weight")

    def __init__(self, p: int, terms):
        clean: dict[Mono, int | Fraction] = {}
        w = None
        for key, coeff in terms.items():
            if type(coeff) is not int and coeff.denominator == 1:
                coeff = coeff.numerator
            if coeff == 0:
                continue
            v, t = key
            key = (normalize(v), normalize(t))
            kw = mono_weight(key, p)
            if w is None:
                w = kw
            elif kw != w:
                raise ValueError(f"inhomogeneous terms: weight {kw} vs {w}")
            clean[key] = clean.get(key, 0) + coeff
        clean = {k: c for k, c in clean.items() if c != 0}
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "weight", None if not clean else w)

    def __setattr__(self, *_):
        raise AttributeError("GradedPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, p: int, c) -> "GradedPoly":
        return cls(p, {MONO_ONE: c})

    @classmethod
    def v_mono(cls, p: int, alpha: Exp) -> "GradedPoly":
        return cls(p, {(alpha, ()): 1})

    # -- ring structure -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, GradedPoly)
            and self.p == other.p
            and self.terms == other.terms
        )

    __hash__ = None

    @classmethod
    def _trusted(cls, p: int, terms: dict, weight) -> "GradedPoly":
        """Unchecked: normalised keys, non-zero coefficients, one weight."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "p", p)
        object.__setattr__(poly, "terms", terms)
        object.__setattr__(poly, "weight", weight if terms else None)
        return poly

    @classmethod
    def sum(cls, p: int, polys) -> "GradedPoly":
        """The sum of polynomials of one weight, accumulated in one dict."""
        out: dict[Mono, int | Fraction] = {}
        weights = set()
        for poly in polys:
            if poly.p != p:
                raise ValueError("mixed primes")
            weights.add(poly.weight)
            for key, c in poly.terms.items():
                out[key] = out.get(key, 0) + c
        weights.discard(None)
        if len(weights) > 1:
            raise ValueError(f"inhomogeneous terms: weights {sorted(weights)}")
        return cls._trusted(p, {k: c for k, c in out.items() if c}, min(weights, default=None))

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            if not isinstance(other, int):
                from fractions import Fraction  # only a non-int operand needs it
                if not isinstance(other, Fraction):
                    return NotImplemented
            terms = {k: c * other for k, c in self.terms.items()} if other else {}
            return GradedPoly._trusted(self.p, terms, self.weight)
        if self.p != other.p:
            raise ValueError("mixed primes")
        if not (self.terms and other.terms):
            return GradedPoly._trusted(self.p, {}, None)
        # Each key is packed into one int (see _packed).  Every generator has
        # weight >= 1, so no exponent of a weight-w product exceeds w: adding
        # two packed keys adds their exponents without a carry.
        w = self.weight + other.weight
        width, shift = _layout(w, self.p)
        a, b = _packed(self.terms, width, shift), _packed(other.terms, width, shift)
        if len(a) < len(b):
            a, b = b, a
        out: dict[int, int | Fraction] = {}
        get = out.get
        for kb, cb in b:
            for ka, ca in a:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        low = (1 << shift) - 1
        terms = {(_unpack(k & low, width), _unpack(k >> shift, width)): c
                 for k, c in out.items() if c}
        return GradedPoly._trusted(self.p, terms, w if terms else None)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GradedPoly":
        if n < 0:
            raise ValueError("negative power")
        result = GradedPoly.const(self.p, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure queries --------------------------------------------

    def pure_t_terms(self) -> dict[Exp, int | Fraction]:
        """Coefficients of the monomials involving only t generators."""
        return {t: c for (v, t), c in self.terms.items() if not v}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=mono_sort_key):
            coeff = self.terms[key]
            factors = []
            for name, exps in zip(("v", "t"), key):
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


def _layout(w: int, p: int) -> tuple[int, int]:
    """(width, shift) of the packed keys of monomials of weight at most w:
    fields of w.bit_length() bits, the t part above the v part's
    max_generator_index(w, p) fields."""
    width = w.bit_length()
    return width, width * max_generator_index(w, p)


@cache
def _pack(exp: Exp, width: int) -> int:
    """Exponent i of exp in bits [i*width, (i+1)*width) of one int, memoized
    for the process."""
    x = 0
    for e in reversed(exp):
        x = x << width | e
    return x


def _packed(terms: dict, width: int, shift: int) -> list[tuple[int, int | Fraction]]:
    """(packed key, coefficient) per term: exponent i of v in bits
    [i*width, (i+1)*width), exponent i of t from bit shift + i*width on.

    For monomials of weight at most w, in the fields _layout(w, p) gives,
    every exponent fits its field and every v fits below the t fields, so
    packed keys order exactly as mono_sort_key: the t part is compared
    first, and within a part a longer normalized sequence fills a higher
    field, while sequences of one length compare from the highest index
    down (right-lexicographically)."""
    return [(_pack(v, width) | _pack(t, width) << shift, c) for (v, t), c in terms.items()]


@cache
def _unpack(x: int, width: int) -> Exp:
    """The normalised exponent sequence that _pack(exp, width) packs into x,
    memoized for the process, so equal sequences share one tuple."""
    mask, parts = (1 << width) - 1, []
    while x:
        parts.append(x & mask)
        x >>= width
    return tuple(parts)


def check_integrality(poly: GradedPoly):
    """Whether every coefficient lies in Z_(p); offenders listed if not.

    A reduced fraction has negative valuation exactly when p divides its
    denominator, so only denominators are tested.
    """
    p = poly.p
    offenders = sorted(
        ((key, coeff) for key, coeff in poly.terms.items() if coeff.denominator % p == 0),
        key=lambda kv: mono_sort_key(kv[0]),
    )
    return (not offenders), offenders


@lru_cache(maxsize=None)
def hazewinkel_m(p: int, k: int) -> GradedPoly:
    """p^k m_k, an integer polynomial in v_1, ..., v_k, for the rational
    generator m_k: m_0 = 1 and p*m_k = sum_{0<=i<k} m_i v_{k-i}^{p^i}.
    """
    if not is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    if k < 0:
        raise ValueError("index must be non-negative")
    if k == 0:
        return GradedPoly.const(p, 1)
    return GradedPoly.sum(p, (
        hazewinkel_m(p, i) * p ** (k - 1 - i) * GradedPoly.v_mono(p, unit_exp(k - i)) ** (p**i)
        for i in range(k)
    ))


def substitute_m(p: int, groups: dict[int, GradedPoly]) -> GradedPoly:
    """sum_a p^a m_a * groups[a], each p^a m_a written as its integer
    v-polynomial: one product per generator."""
    return GradedPoly.sum(p, (hazewinkel_m(p, a) * poly for a, poly in groups.items()))


class EtaRTable:
    """Memoized values of the right unit on v-monomials, up to a weight bound.

    Entries are polynomials in v and t with ``int`` coefficients, homogeneous
    of the weight of their key.  Population is deterministic; reads never
    mutate existing entries, so a populated table is safe to share between
    threads.
    """

    def __init__(self, p: int, max_weight: int):
        if not is_odd_prime(p):
            raise ValueError("p must be an odd prime")
        if max_weight < 0:
            raise ValueError("max_weight must be non-negative")
        self.p = p
        self.max_weight = max_weight
        self._cache: dict[Exp, GradedPoly] = {}

    # -- construction ---------------------------------------------------

    def _store(self, gamma: Exp, poly: GradedPoly) -> GradedPoly:
        """Keep eta_R(v^gamma), after checking that it is of the weight of
        gamma and that its coefficients are ``int``.  A generator's value is
        built term by term, not as a product of stored values, so each of its
        terms is weighed; any other value is taken at its claimed weight."""
        w = weight(gamma, self.p)
        weighed = poly.terms if gamma and gamma == unit_exp(len(gamma)) else ()
        if (not poly.is_zero() and poly.weight != w
                or any(mono_weight(key, self.p) != w for key in weighed)):
            raise IntegralityError(f"eta_R(v^{gamma}) is not homogeneous of weight {w}")
        if not all(type(c) is int for c in poly.terms.values()):
            raise _coefficient_error(gamma, "non-integer", [
                (key, c) for key, c in poly.terms.items() if type(c) is not int])
        self._cache[gamma] = poly
        return poly

    def _eta_generator(self, k: int) -> GradedPoly:
        # eta_R(v_k) = p*eta_R(m_k) - sum_{0<i<k} eta_R(m_i) eta_R(v_{k-i})^{p^i}
        # with eta_R(m_i) = sum_{a+j=i} m_a t_j^{p^a}; the t-parts, times p^(k-a),
        # go to groups[a], whose sum against the p^a m_a is p^k eta_R(v_k).
        p = self.p
        powers = {i: self.eta(unit_exp(k - i)) ** (p**i) for i in range(1, k)}

        def t_power(j, a, c):  # c * t_j^{p^a}, with t_0 = 1
            return GradedPoly(p, {((), (0,) * (j - 1) + (p**a,) if j else ()): c})

        groups = {a: GradedPoly.sum(p, [t_power(k - a, a, p ** (k - a + 1))] + [
            t_power(i - a, a, -p ** (k - a)) * powers[i] for i in range(max(a, 1), k)
        ]) for a in range(k + 1)}
        scaled, q = substitute_m(p, groups), p**k
        offenders = [(key, c) for key, c in scaled.terms.items() if c % q]
        if offenders:
            from fractions import Fraction
            raise _coefficient_error(unit_exp(k), "non-integral",
                                     [(key, Fraction(c, q)) for key, c in offenders])
        quotient = {key: c // q for key, c in scaled.terms.items()}
        return GradedPoly._trusted(p, quotient, scaled.weight)

    def eta(self, gamma) -> GradedPoly:
        """eta_R(v^gamma), computed multiplicatively and memoized."""
        gamma = normalize(gamma)
        cached = self._cache.get(gamma)
        if cached is not None:
            return cached
        w = weight(gamma, self.p)
        if w > self.max_weight:
            raise ValueError(
                f"weight {w} exceeds the table bound {self.max_weight}"
            )
        if not gamma:
            poly = GradedPoly.const(self.p, 1)
        elif gamma == unit_exp(len(gamma)):
            poly = self._eta_generator(len(gamma))
        else:
            top = unit_exp(len(gamma))
            rest = normalize(gamma[:-1] + (gamma[-1] - 1,))
            poly = self.eta(rest) * self.eta(top)
        return self._store(gamma, poly)

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
            poly = self._cache[gamma]
            terms = []
            for v, t in sorted(poly.terms, key=mono_sort_key):
                coeff = poly.terms[v, t]
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
        """The canonical document as (part, bytes) pieces, yielded one at a
        time in order: the header, each entry v^gamma led by its separator,
        and the end.  Terms are sorted by their packed keys at the table's
        weight bound, which order as mono_sort_key (see _packed); each
        distinct exponent is packed and rendered once."""
        self.populate()
        width, shift = _layout(self.max_weight, self.p)
        exp = cache(lambda e: (_pack(e, width), _json_list(e, 10)))
        yield "the header", (f'{{\n  "prime": {self.p},\n  "convention": "{CONVENTION}",\n'
                             f'  "max_weight": {self.max_weight},\n  "entries": [').encode()
        sep = ""
        for gamma in self.keys():
            rows = []
            for (v, t), c in self._cache[gamma].terms.items():
                (kv, v_text), (kt, t_text) = exp(v), exp(t)
                rows.append((kv | kt << shift, v_text, t_text, c))
            rows.sort(key=itemgetter(0))
            rows = [
                f'{{\n          "v_exponents": {v_text},\n'
                f'          "t_exponents": {t_text},\n'
                f'          "coefficient_numerator": "{c.numerator}",\n'
                f'          "coefficient_denominator": "{c.denominator}"\n        }}'
                for _, v_text, t_text, c in rows
            ]
            yield (f"entry v^{gamma}",
                   (f'{sep}\n    {{\n      "v_exponents": {_json_list(gamma, 6)},\n'
                    f'      "terms": {_json_list(rows, 6)}\n    }}').encode())
            sep = ","
        yield "the end of the document", b"\n  ]\n}\n"

    def to_bytes(self) -> bytes:
        """``json.dumps(self.to_payload(), indent=2) + "\\n"``, written directly."""
        return b"".join(data for _, data in self._pieces())

    def save(self, path) -> str:
        """Write the serialized table piece by piece beside path, then move it
        over path, so an interrupted save leaves no partial cache; return the
        SHA-256 hex digest of the bytes written."""
        digest = hashlib.sha256()
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
        digest = hashlib.sha256()
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
        digest = hashlib.sha256()
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
    beta = normalize(beta)
    poly = table.eta(gamma)
    picked = {(v, ()): c for (v, t), c in poly.terms.items() if t == beta}
    return GradedPoly(table.p, picked)
