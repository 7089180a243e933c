import random

import pytest

from charvar.errors import QuotientInvalid
from charvar.fox import alexander_matrix
from charvar.laurent import Character
from charvar.parser import parse_presentation
from charvar.presentations import AbelianData, Presentation, abelianize
from charvar.constructions import (bestvina_brady, cycle_graph, direct_product,
                                   free_group, surface_group)
from charvar.words import Word, commutator
from conftest import random_word
from fox_oracle import (GroupRingElement, fox_derivative,
                        fundamental_identity_check, pushed_alexander_rows)

a = Word.generator(0)
b = Word.generator(1)


def test_axioms():
    assert fox_derivative(a, 0) == GroupRingElement.one()
    assert fox_derivative(b, 0) == GroupRingElement.zero()
    assert fox_derivative(a.inverse(), 0) == GroupRingElement.of_word(a.inverse(), -1)


def test_product_rule_on_xy():
    assert fox_derivative(a * b, 0) == GroupRingElement.one()
    assert fox_derivative(a * b, 1) == GroupRingElement.of_word(a)


def test_product_rule_randomized():
    rng = random.Random(2)
    for _ in range(150):
        u = random_word(rng, 3, 8)
        v = random_word(rng, 3, 8)
        for i in range(3):
            lhs = fox_derivative(u * v, i)
            rhs = fox_derivative(u, i) + \
                fox_derivative(v, i).left_translate(u)
            assert lhs == rhs


def test_commutator_derivative():
    # d[a,b]/da = 1 - a b a^-1, by expanding the product rule by hand
    got = fox_derivative(commutator(a, b), 0)
    expected = GroupRingElement.one() - \
        GroupRingElement.of_word(a * b * a.inverse())
    assert got == expected


def test_fundamental_identity_examples():
    assert fundamental_identity_check(Word.identity(), 2)
    assert fundamental_identity_check(commutator(a, b), 2)


def test_fundamental_identity_randomized():
    rng = random.Random(97)
    for _ in range(300):
        w = random_word(rng, 4, 20)
        assert fundamental_identity_check(w, 4)


def test_chain_rule_on_w_winverse():
    rng = random.Random(55)
    for _ in range(100):
        w = random_word(rng, 3, 10)
        for i in range(3):
            assert fox_derivative(w * w.inverse(), i).is_zero()


def assert_rows_match_oracle(p):
    q = abelianize(p)
    alex = alexander_matrix(p, q)
    expected = pushed_alexander_rows(p, q)
    assert (alex.rows, alex.cols) == (len(p.relators), p.ngens)
    for j, row in enumerate(expected):
        for i, entry in enumerate(row):
            assert alex.entries[j][i] == entry, (p.describe(), j, i)


def test_alexander_rows_match_oracle_on_random_words():
    rng = random.Random(31)
    for _ in range(200):
        ngens = rng.randint(1, 4)
        w = random_word(rng, ngens, 24)
        gens = tuple(f"x{i}" for i in range(ngens))
        assert_rows_match_oracle(Presentation(gens, (w,)))


CATALOG = [surface_group(1), surface_group(2), surface_group(3),
           direct_product([free_group(2)] * 3),
           bestvina_brady(cycle_graph(4)).presentation,
           parse_presentation("gens a,b,c; rel a^3 b^-3 c^6; rel [b,c];")]


@pytest.mark.parametrize("p", CATALOG, ids=lambda p: p.name or "parsed")
def test_alexander_rows_match_oracle_on_catalog(p):
    assert_rows_match_oracle(p)


def test_alexander_torus():
    p = surface_group(1)
    alex = alexander_matrix(p, abelianize(p))
    assert alex.to_text_rows() == [["-t2 + 1", "t1 - 1"]]


def test_alexander_genus_two_vanishes_at_trivial():
    p = surface_group(2)
    alex = alexander_matrix(p, abelianize(p))
    assert (alex.rows, alex.cols) == (1, 4)
    values = alex.evaluate(Character.trivial(4))
    assert all(v == 0 for row in values for v in row)


def test_alexander_free_group_is_empty():
    p = free_group(3)
    alex = alexander_matrix(p, abelianize(p))
    assert (alex.rows, alex.cols) == (0, 3)


def test_alexander_rejects_bad_quotient():
    p = parse_presentation("gens a,b; rel a b;")
    with pytest.raises(QuotientInvalid):
        alexander_matrix(p, AbelianData(1, (), ((1, 1),), ((1,), (0,))))


def test_pushed_fundamental_identity_kills_rows():
    # row j of the Alexander matrix times (t^q(x_i) - 1) is zero over Lambda
    from charvar.laurent import LaurentPolynomial
    for p in (surface_group(2), parse_presentation(
            "gens a,b,c; rel [a,b] c^2 C^2; rel [b,c];")):
        data = abelianize(p)
        alex = alexander_matrix(p, data)
        m = data.torsion_free_rank
        images = [tuple(data.projection[l][i] for l in range(m))
                  for i in range(p.ngens)]
        for j in range(alex.rows):
            total = LaurentPolynomial.zero(m)
            for i in range(p.ngens):
                factor = LaurentPolynomial(m, {images[i]: 1}) - \
                    LaurentPolynomial.one(m)
                total = total + alex.entries[j][i] * factor
            assert total.is_zero()
