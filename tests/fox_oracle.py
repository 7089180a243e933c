"""Reference Fox calculus in the integral group ring Z F.

The shipped ``charvar.fox.alexander_matrix`` goes straight from prefix
exponents to Laurent polynomials.  This module keeps the textbook route,
derivatives in Z F first and only then pushed through the quotient, so the
tests can check the calculus axioms and the fundamental identity
sum_i (dw/dx_i)(x_i - 1) = w - 1 exactly, and compare every shipped row
with the pushed derivatives.
"""

from charvar.fox import quotient_images
from charvar.laurent import LaurentPolynomial
from charvar.words import Word


class GroupRingElement:
    """An element of Z F: finite map from freely reduced words to nonzero
    integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def of_word(cls, w, coeff=1):
        return cls({w: coeff})

    @classmethod
    def one(cls):
        return cls({Word.identity(): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = u * v
                out[w] = out.get(w, 0) + cu * cv
        return GroupRingElement(out)

    def left_translate(self, u):
        """u * self for a single word u."""
        return GroupRingElement({u * w: c for w, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self):
        body = " + ".join(f"{c}*{w.to_text()}" for w, c in self.terms.items())
        return f"GroupRingElement({body or 0})"


def fox_derivative(w, generator):
    """d(w)/d(x_generator) in Z F, by the letter-by-letter product rule:
    dx/dx = 1, dy/dx = 0, d(uv)/dx = du/dx + u dv/dx, d(x^-1)/dx = -x^-1."""
    out = GroupRingElement.zero()
    prefix = Word.identity()
    for g, step in w.letters():
        letter = Word.generator(g, step)
        if g == generator:
            if step == 1:
                out = out + GroupRingElement.of_word(prefix)
            else:
                out = out + GroupRingElement.of_word(prefix * letter, -1)
        prefix = prefix * letter
    return out


def fundamental_identity_check(w, ngens):
    """Whether sum_i (dw/dx_i)(x_i - 1) = w - 1 holds exactly in Z F."""
    total = GroupRingElement.zero()
    for i in range(ngens):
        xi = GroupRingElement.of_word(Word.generator(i))
        total = total + fox_derivative(w, i) * (xi - GroupRingElement.one())
    return total == GroupRingElement.of_word(w) - GroupRingElement.one()


def push_to_laurent(element, images, m):
    """Ring map Z F -> Lambda sending a word to the monomial of its image."""
    terms = {}
    for w, c in element.terms.items():
        exps = [0] * m
        for g, e in w.syllables:
            for l in range(m):
                exps[l] += e * images[g][l]
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + c
    return LaurentPolynomial(m, terms)


def pushed_alexander_rows(presentation, q):
    """The Alexander matrix entries as oracle derivatives pushed through
    the quotient q."""
    images = quotient_images(q, presentation.ngens)
    m = len(images[0]) if images else 0
    return [[push_to_laurent(fox_derivative(r, i), images, m)
             for i in range(presentation.ngens)]
            for r in presentation.relators]
