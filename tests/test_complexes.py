import random
from fractions import Fraction

import pytest

import charvar.complexes
from charvar.complexes import (kernel_homology_univariate,
                               presentation_complex, twisted_betti,
                               window_homology)
from charvar.constructions import build_model, direct_product, free_group, surface_group
from charvar.errors import InternalInconsistency, NotUnivariate
from charvar.laurent import GENERIC, Character, LaurentPolynomial
from charvar.lmatrix import LaurentMatrix
from charvar.presentations import (abelianize, induced_on_free_part,
                                   validate_epimorphism)
from charvar.sampling import sample_character
from conftest import joint_tensor, laurent_matrix


def model_complex(p):
    return build_model(p).complex


def test_presentation_complex_torus():
    cx = model_complex(surface_group(1))
    assert cx.ranks == (1, 2, 1)
    assert cx.differentials[0].to_text_rows() == [["t1 - 1", "t2 - 1"]]
    assert cx.differentials[1].to_text_rows() == [["-t2 + 1"], ["t1 - 1"]]


def test_presentation_complex_free_and_genus2():
    assert presentation_complex(free_group(2), abelianize(free_group(2))).ranks \
        == (1, 2, 0)
    assert model_complex(surface_group(2)).ranks == (1, 4, 1)


def test_composition_zero_is_enforced():
    from charvar.complexes import TwistedComplex
    from charvar.laurent import LaurentPolynomial
    t = LaurentPolynomial.variable(0, 1)
    u = LaurentPolynomial.one(1)
    d1 = laurent_matrix(1, [[t - u]])
    d2 = laurent_matrix(1, [[t]])  # (t-1)*t != 0
    with pytest.raises(InternalInconsistency):
        TwistedComplex(1, (1, 1, 1), (d1, d2))


def test_complex_serialization():
    cx = model_complex(surface_group(1))
    assert cx.nvars == 2
    assert cx.ranks == (1, 2, 1)
    assert cx.differentials[0].to_text_rows() == [["t1 - 1", "t2 - 1"]]


def test_tensor_ranks():
    f2 = model_complex(free_group(2))
    assert joint_tensor(f2, f2).ranks == (1, 4, 4)
    g2 = model_complex(surface_group(2))
    assert joint_tensor(g2, g2).ranks == (1, 8, 18, 8, 1)


def test_tensor_unit():
    from charvar.complexes import TwistedComplex
    point = TwistedComplex(0, (1,), ())
    g2 = model_complex(surface_group(2))
    prod = joint_tensor(g2, point)
    assert prod.ranks == g2.ranks
    assert prod.differentials[0].to_text_rows() == \
        g2.differentials[0].to_text_rows()


def test_twisted_betti_torus():
    cx = model_complex(surface_group(1))
    assert twisted_betti(cx, Character((2, 3))).betti == (0, 0, 0)
    assert twisted_betti(cx, Character.trivial(2)).betti == (1, 2, 1)


def test_twisted_betti_genus2_any_nontrivial():
    cx = model_complex(surface_group(2))
    rng = random.Random(3)
    for _ in range(25):
        rho = sample_character(rng, 4, box=9)
        profile = twisted_betti(cx, rho)
        assert profile.betti == (0, 2, 0)
        assert profile.alternating_sum() == -2


def test_overstated_ranks_are_caught(monkeypatch):
    # every rank cancels from the alternating sum of the Betti numbers, so
    # only a negative Betti number can expose a wrong rank
    monkeypatch.setattr(charvar.complexes, "rank_at",
                        lambda matrix, character: matrix.cols)
    with pytest.raises(InternalInconsistency, match=r"\[-3, -1, 0\]"):
        twisted_betti(model_complex(surface_group(2)), Character((2, 3, 5, 7)))


def test_euler_invariance_random_characters():
    rng = random.Random(19)
    for p in (surface_group(1), surface_group(2), free_group(3)):
        cx = model_complex(p)
        chi = sum((-1) ** j * c for j, c in enumerate(cx.ranks))
        for _ in range(20):
            rho = sample_character(rng, cx.nvars, box=7)
            assert twisted_betti(cx, rho).alternating_sum() == chi


def test_kunneth_convolution_exact():
    rng = random.Random(77)
    fa = model_complex(surface_group(2))
    fb = model_complex(free_group(2))
    prod = joint_tensor(fa, fb)
    for _ in range(10):
        rho = sample_character(rng, prod.nvars, box=5)
        pa = twisted_betti(fa, Character(rho.coords[:4])).betti
        pb = twisted_betti(fb, Character(rho.coords[4:])).betti
        expected = [0] * (len(pa) + len(pb) - 1)
        for i, x in enumerate(pa):
            for j, y in enumerate(pb):
                expected[i + j] += x * y
        got = list(twisted_betti(prod, rho).betti)
        got += [0] * (len(expected) - len(got))
        assert got == expected


def test_semicontinuity_on_models():
    rng = random.Random(101)
    for p in (surface_group(1), surface_group(2), free_group(2)):
        cx = model_complex(p)
        generic = twisted_betti(cx, GENERIC).betti
        for _ in range(15):
            rho = sample_character(rng, cx.nvars, box=6)
            pointwise = twisted_betti(cx, rho).betti
            assert all(g <= p_ for g, p_ in zip(generic, pointwise))


def test_kernel_homology_f2xf2_diagonal():
    p = direct_product([free_group(2), free_group(2)])
    model = build_model(p)
    nu = validate_epimorphism(p, [(1,)] * 4)
    nubar = induced_on_free_part(nu, model.abelian)
    uni = model.complex.specialize(nubar)
    report = kernel_homology_univariate(uni)
    assert report.entries[2].free_rank == 1
    assert report.entries[2].infinite_dimensional
    assert report.entries[0].free_rank == 0
    assert report.entries[0].torsion_dimension == 1
    assert report.entries[1].free_rank == 0


def test_kernel_homology_torus_kernel_is_Z():
    p = surface_group(1)
    model = build_model(p)
    nu = validate_epimorphism(p, [(1,), (0,)])
    uni = model.complex.specialize(induced_on_free_part(nu, model.abelian))
    report = kernel_homology_univariate(uni)
    assert report.entries[1].free_rank == 0
    assert report.entries[1].torsion_dimension == 1
    assert not report.entries[1].infinite_dimensional


def test_kernel_homology_requires_one_variable():
    with pytest.raises(NotUnivariate):
        kernel_homology_univariate(model_complex(surface_group(1)))


def test_specialize_commutes_with_evaluation():
    cx = model_complex(surface_group(2))
    nubar = [[1, 0, 0, 0], [0, 1, 1, 0]]
    pushed = cx.specialize(nubar)
    from charvar.laurent import pullback_character
    rho = Character((Fraction(2), Fraction(-3)))
    pulled = pullback_character(nubar, rho)
    for d_low, d_high in zip(pushed.differentials, cx.differentials):
        assert d_low.evaluate(rho) == d_high.evaluate(pulled)


def test_the_product_routes_read_no_dense_grid(monkeypatch):
    # building S_2^3, its kernel homology, the pushed complex by both
    # routes and a window on each all run on sparse rows alone
    reads = []
    dense = LaurentMatrix.entries
    monkeypatch.setattr(LaurentMatrix, "entries",
                        property(lambda m: reads.append(m) or dense.fget(m)))
    model = build_model(direct_product([surface_group(2)] * 3))
    ones = [[1] * model.complex.nvars]
    model.kernel_homology(ones)
    window_homology(model.complex.specialize(ones), 3)
    window_homology(model.pushed(ones), 3)
    assert reads == []
    # the counter sees a dense read when one is made
    laurent_matrix(1, [[LaurentPolynomial.one(1)]]).entries
    assert len(reads) == 1
