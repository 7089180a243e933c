"""Freely reduced words in a finitely generated free group.

A word is stored in syllable form: a tuple of (generator index, exponent)
pairs with nonzero exponents and distinct adjacent generator indices.  The
empty tuple is the identity.  All operations return freely reduced words.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Word:
    __slots__ = ("syllables",)

    def __init__(self, syllables: Iterable[tuple[int, int]] = ()):
        self.syllables = _reduce(syllables)

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def generator(cls, index: int, exponent: int = 1) -> "Word":
        if index < 0:
            raise ValueError(f"generator index must be >= 0, got {index}")
        if exponent == 0:
            return cls(())
        return cls(((index, exponent),))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(_inverse(self.syllables))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word(base.syllables * abs(n))

    def letters(self) -> Iterator[tuple[int, int]]:
        """Expand syllables into single letters (gen, +1) or (gen, -1)."""
        for g, e in self.syllables:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield (g, step)

    def is_identity(self) -> bool:
        return not self.syllables

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the identity."""
        return max((g for g, _ in self.syllables), default=-1)

    def exponent_vector(self, ngens: int) -> tuple[int, ...]:
        vec = [0] * ngens
        for g, e in self.syllables:
            vec[g] += e
        return tuple(vec)

    def to_text(self, names: tuple[str, ...] | None = None) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for g, e in self.syllables:
            name = names[g] if names is not None else f"x{g}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __repr__(self) -> str:
        return f"Word({self.to_text()})"


def _reduce(syllables: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[list[int]] = []
    for g, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([g, e])
    return tuple((g, e) for g, e in out)


def commutator(u: Word, v: Word) -> Word:
    """u v u^-1 v^-1, reduced once from the four syllable lists."""
    return Word(u.syllables + v.syllables + _inverse(u.syllables) + _inverse(v.syllables))


def _inverse(syllables):
    return tuple((g, -e) for g, e in reversed(syllables))
