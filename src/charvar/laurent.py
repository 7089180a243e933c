"""Exact multivariate Laurent polynomials over arbitrary-precision rationals.

A polynomial in m variables is a finite map from integer exponent vectors
(length m, entries may be negative) to nonzero rationals, each an ``int``
when integral and a ``Fraction`` otherwise, so integer data stays integer
until a division.  No floating point enters: a float coefficient is refused.
Coefficients over Q stand in for C: every matrix this package produces has
rational entries, and ranks over Q equal ranks over C for such data.

One rule gives a primitive part: ``strip_row_units`` divides a row of
polynomials by its common unit, the rational content times the monomial
floor.  Generic rank and the univariate Smith form apply it to matrix rows,
and ``unit_normal`` is that rule on a one-entry row plus a sign.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import neg, sub
from typing import Iterable, Mapping

from .errors import GenericNotEvaluable, VariableCountMismatch


class LaurentPolynomial:
    # terms never change once a constructor returns, so the hash is kept
    # in ``_hash`` on its first use
    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int,
                 terms: Mapping[tuple[int, ...], int | Fraction] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                q = _canonical(coeff)
                if q:
                    if len(exps) != nvars:
                        raise VariableCountMismatch(
                            f"exponent vector {exps} in a {nvars}-variable polynomial")
                    clean[tuple(exps)] = q
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "LaurentPolynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "LaurentPolynomial":
        exps = tuple(int(i == index) for i in range(nvars))
        return cls(nvars, {exps: 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

    def is_unit(self) -> bool:
        """Units of the Laurent ring are the single-term polynomials."""
        return len(self.terms) == 1

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentPolynomial") -> None:
        if self.nvars != other.nvars:
            raise VariableCountMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _make(self.nvars, out)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _make(self.nvars, out)

    def __neg__(self) -> "LaurentPolynomial":
        return _make(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check(other)
        out: dict[tuple[int, ...], int | Fraction] = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _make(self.nvars, out)

    def scale(self, value) -> "LaurentPolynomial":
        q = _canonical(value)
        if not q:
            return LaurentPolynomial.zero(self.nvars)
        return _make(self.nvars, {e: c * q for e, c in self.terms.items()})

    def shift(self, exponents: Iterable[int]) -> "LaurentPolynomial":
        """Multiply by the monomial with the given exponent vector."""
        d = tuple(exponents)
        return _make(self.nvars, {tuple(x + y for x, y in zip(e, d)): c
                                  for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
            return self._hash

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, character: "Character") -> int | Fraction:
        """Exact substitution at a rational character, in canonical form;
        negative exponents use rational inverses, so an integer character
        never yields a float."""
        if character.is_generic:
            raise GenericNotEvaluable("cannot evaluate at the generic point")
        coords = character.coords
        if len(coords) != self.nvars:
            raise VariableCountMismatch(
                f"character has {len(coords)} coordinates, polynomial {self.nvars}")
        total = 0
        for exps, coeff in self.terms.items():
            value = coeff
            for x, e in zip(coords, exps):
                if e:
                    value *= _power(x, e)
            total += value
        return _canonical(total)

    def divide(self, divisor: "LaurentPolynomial"
               ) -> tuple["LaurentPolynomial", "LaurentPolynomial"]:
        """(q, r) with self = q * divisor + r, by lex leading terms after
        stripping both monomial floors: the largest remaining term is
        cancelled while the divisor's leading term divides it, and moved to
        r otherwise.  r = 0 exactly when the division is exact in the
        Laurent ring; in one variable this is Euclidean division, with
        span(r) < span(divisor)."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero")
        if not self.terms:
            return self, self
        floor_f = self.monomial_floor()
        floor_g = divisor.monomial_floor()
        g0 = divisor.shift(tuple(-x for x in floor_g)).terms
        glead = max(g0)
        gcoeff = g0[glead]
        rem = dict(self.shift(tuple(-x for x in floor_f)).terms)
        quo: dict[tuple[int, ...], int | Fraction] = {}
        left: dict[tuple[int, ...], int | Fraction] = {}
        while rem:
            flead = max(rem)
            diff = tuple(a - b for a, b in zip(flead, glead))
            if any(d < 0 for d in diff):
                left[flead] = rem.pop(flead)
                continue
            coeff = _canonical(Fraction(rem[flead], gcoeff))
            quo[diff] = coeff
            for eg, cg in g0.items():
                e = tuple(a + b for a, b in zip(diff, eg))
                s = rem.get(e, 0) - coeff * cg
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        shift = tuple(a - b for a, b in zip(floor_f, floor_g))
        return (_make(self.nvars, quo).shift(shift),
                _make(self.nvars, left).shift(floor_f))

    def exact_divide(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial | None":
        """Quotient self/divisor when division is exact in the Laurent ring,
        else None (``divide`` leaves a remainder)."""
        q, r = self.divide(divisor)
        return None if r else q

    # -- degrees, content, normal forms -------------------------------------

    def exponent_range(self, var: int) -> tuple[int, int]:
        if not self.terms:
            return (0, 0)
        exps = [e[var] for e in self.terms]
        return (min(exps), max(exps))

    def degree_span(self, var: int = 0) -> int:
        """max exponent - min exponent; the Q-dimension of Lambda/(f) for
        univariate f."""
        lo, hi = self.exponent_range(var)
        return hi - lo

    def monomial_floor(self) -> tuple[int, ...]:
        """Componentwise minimum exponent vector over all terms."""
        if not self.terms:
            return (0,) * self.nvars
        its = iter(self.terms)
        floor = list(next(its))
        for e in its:
            for i, x in enumerate(e):
                if x < floor[i]:
                    floor[i] = x
        return tuple(floor)

    def leading(self) -> tuple[tuple[int, ...], int | Fraction]:
        """Lexicographically largest exponent vector and its coefficient."""
        e = max(self.terms)
        return e, self.terms[e]

    def unit_normal(self) -> "LaurentPolynomial":
        """Divide by the unit c*t^e so the result has exponent floor zero,
        content one, and positive leading coefficient.  Canonical generator
        of the principal ideal (self): ``strip_row_units`` on the row
        (self,), negated if its leading coefficient is negative."""
        [primitive] = strip_row_units([self])
        if primitive.terms and primitive.leading()[1] < 0:
            return -primitive
        return primitive

    # -- printing ------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms sorted by descending exponent vector,
        e.g. ``3*t1^2*t2^-1 - 1``."""
        if not self.terms:
            return "0"
        names = tuple(f"t{i + 1}" for i in range(self.nvars))
        chunks: list[str] = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = [f"{names[i]}^{e}" if e != 1 else names[i]
                       for i, e in enumerate(exps) if e]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.to_text()})"


def _canonical(value) -> int | Fraction:
    """The canonical form of a rational coefficient: an int when integral,
    else a Fraction.  Anything else, a float above all, is refused."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"coefficient {value!r} is not an int or a Fraction")


def _power(x: int | Fraction, e: int) -> int | Fraction:
    """x ** e exactly: ``int ** negative`` would be a float."""
    return x ** e if e > 0 else Fraction(x) ** e


def strip_row_units(row):
    """Divide a whole row by its common unit factor (rational content and
    monomial floor); preserves the row space exactly.  The content is the
    gcd of the numerators over the lcm of the denominators.  A row of int
    coefficients has the gcd of its ints as content and is divided exactly;
    only a row holding a Fraction coefficient is rescaled by a Fraction."""
    nonzero = [p for p in row if p.terms]
    if not nonzero:
        return row
    coeffs = [c for p in nonzero for c in p.terms.values()]
    fractions = [c for c in coeffs if c.__class__ is not int]
    content = (Fraction(gcd(*(c.numerator for c in coeffs)),
                        lcm(*(c.denominator for c in fractions)))
               if fractions else gcd(*coeffs))
    floor = tuple(map(min, zip(*(e for p in nonzero for e in p.terms))))
    if content == 1 and not any(floor):
        return row
    if fractions:
        return [p.shift(map(neg, floor)).scale(1 / content) if p.terms else p for p in row]
    return [_make(p.nvars, {tuple(map(sub, e, floor)): c // content
                            for e, c in p.terms.items()}) if p.terms else p for p in row]


def _make(nvars: int, terms: dict) -> LaurentPolynomial:
    """Internal fast constructor; terms must be clean but for integral
    Fractions, which Fraction arithmetic returns and this makes ints."""
    for e, c in terms.items():
        if c.__class__ is not int:
            terms[e] = _canonical(c)
    p = LaurentPolynomial.__new__(LaurentPolynomial)
    p.nvars = nvars
    p.terms = terms
    return p


class Character:
    """A rational point of the character torus (all coordinates nonzero,
    each in canonical form: an int when integral, else a Fraction), or the
    symbolic generic point."""

    __slots__ = ("coords",)

    def __init__(self, coords=None):
        if coords is None:
            self.coords = None
        else:
            vals = tuple(_canonical(x) for x in coords)
            if any(x == 0 for x in vals):
                raise ValueError("character coordinates must be nonzero")
            self.coords = vals

    @classmethod
    def trivial(cls, nvars: int) -> "Character":
        return cls((1,) * nvars)

    @property
    def is_generic(self) -> bool:
        return self.coords is None

    def describe(self) -> str | list[str]:
        if self.is_generic:
            return "generic"
        return [str(x) for x in self.coords]

    def __eq__(self, other) -> bool:
        return isinstance(other, Character) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self) -> str:
        return "Character(generic)" if self.is_generic else f"Character({self.coords})"


GENERIC = Character(None)


def pullback_character(nubar, rho: Character) -> Character:
    """Character on t_1..t_n (n the columns of nubar) induced by t_j ->
    prod_l s_l^nubar[l][j], at the rational point rho of the target torus."""
    if rho.is_generic:
        raise GenericNotEvaluable("pullback needs a rational character")
    coords = []
    for j in range(len(nubar[0])):
        value = 1
        for l, x in enumerate(rho.coords):
            e = nubar[l][j]
            if e:
                value *= _power(x, e)
        coords.append(value)
    return Character(coords)
