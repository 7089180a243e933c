"""Coefficients stay in canonical form: an int when integral, otherwise a
Fraction, never a float.  The chain complexes of the catalog come from Fox
calculus, cube complexes and tensor products, so all their coefficients
are ints; only division over Q[t^±1] produces Fractions."""

import random
from fractions import Fraction

from conftest import joint_tensor, random_word

from charvar.complexes import presentation_complex
from charvar.constructions import Graph, raag_chain_model
from charvar.fox import alexander_matrix
from charvar.laurent import LaurentPolynomial
from charvar.lmatrix import LaurentMatrix, smith_univariate, univariate_divmod
from charvar.presentations import Presentation, abelianize


def matrix_coefficients(matrix):
    return [c for row in matrix.entries for p in row for c in p.terms.values()]


def complex_coefficients(complex_):
    return [c for d in complex_.differentials for c in matrix_coefficients(d)]


def all_ints(coefficients):
    return all(type(c) is int for c in coefficients)


def canonical(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


def random_presentation(rng):
    ngens = rng.randint(1, 3)
    relators = tuple(random_word(rng, ngens, 8) for _ in range(rng.randint(0, 3)))
    return Presentation(tuple(f"x{i}" for i in range(ngens)), relators)


def random_graph(rng):
    n = rng.randint(1, 5)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def random_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_poly(rng, nvars, coefficient):
    return LaurentPolynomial(nvars, {
        tuple(rng.randint(-2, 2) for _ in range(nvars)): coefficient(rng)
        for _ in range(rng.randint(0, 3))})


def test_integral_constructions_have_int_coefficients():
    rng = random.Random(23)
    for _ in range(40):
        p, q = random_presentation(rng), random_presentation(rng)
        abelian = abelianize(p)
        assert all_ints(matrix_coefficients(alexander_matrix(p, abelian)))
        cx = presentation_complex(p, abelian)
        assert all_ints(complex_coefficients(cx))
        product = joint_tensor(cx, presentation_complex(q, abelianize(q)))
        assert all_ints(complex_coefficients(product))
        nu = [[rng.randint(-2, 2) for _ in range(product.nvars)]]
        assert all_ints(complex_coefficients(product.specialize(nu)))
        model = raag_chain_model(random_graph(rng))
        assert all_ints(complex_coefficients(model))
        assert all_ints(complex_coefficients(model.specialize([[1] * model.nvars])))


def test_division_results_are_canonical():
    rng = random.Random(31)
    for coefficient in (lambda r: r.randint(-3, 3), random_rational):
        for _ in range(150):
            f = random_poly(rng, 1, coefficient)
            g = random_poly(rng, 1, coefficient)
            if g:
                assert all(canonical(x) for x in univariate_divmod(f, g))
                assert canonical((f * g).exact_divide(g))
            h = random_poly(rng, 2, coefficient)
            assert canonical(h.unit_normal())
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = LaurentMatrix(1, rows, cols, [[random_poly(rng, 1, coefficient)
                                               for _ in range(cols)]
                                              for _ in range(rows)])
            assert all(canonical(f) for f, _ in smith_univariate(m).torsion)


def test_smith_factors_of_kernel_complexes_are_canonical():
    rng = random.Random(37)
    for _ in range(40):
        p = random_presentation(rng)
        cx = presentation_complex(p, abelianize(p))
        nu = [[rng.randint(-2, 2) for _ in range(cx.nvars)]]
        for d in cx.specialize(nu).differentials:
            assert all(canonical(f) for f, _ in smith_univariate(d).torsion)
