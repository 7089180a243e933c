"""The modular sandwich for generic ranks, against symbolic elimination.

``complexes.generic_ranks`` pins a generic rank between its rank mod p at
one point (below) and the bound d o d = 0 puts on it through the
neighbouring ranks (above).  A pinned rank is a proof, so it may never
differ from ``lmatrix.generic_rank``, which eliminates over the fraction
field and serves here as the independent oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import charvar.complexes
from charvar.complexes import SANDWICH_PRIME, generic_ranks, twisted_betti
from charvar.constructions import (bestvina_brady, build_model, cycle_graph,
                                   direct_product, free_group, octahedron_graph,
                                   surface_group)
from charvar.intlinalg import integer_rank, modular_rank
from charvar.laurent import GENERIC, Character, LaurentPolynomial
from charvar.lmatrix import generic_rank
from charvar.presentations import Presentation
from charvar.words import Word
from conftest import laurent_matrix, scaled

CATALOG = {
    "surface-1": surface_group(1),
    "surface-2": surface_group(2),
    "surface-3": surface_group(3),
    "free-2": free_group(2),
    "free-3": free_group(3),
    "S1xS2": direct_product([surface_group(1), surface_group(2)]),
    "S2xS2": direct_product([surface_group(2), surface_group(2)]),
    "F2^3": direct_product([free_group(2)] * 3),
    "bb-octahedron": bestvina_brady(octahedron_graph()).presentation,
    "bb-c4": bestvina_brady(cycle_graph(4)).presentation,
}


def sparse(grid):
    """The rows of a dense grid as {column: value} of their nonzero values."""
    return [{j: x for j, x in enumerate(row) if x} for row in grid]


def symbolic_ranks(cx):
    return (0, *(generic_rank(d) for d in cx.differentials), 0)


def test_modular_rank_matches_rational_rank():
    # entries in [-9, 9] keep every minor of these sizes below p, so no
    # minor vanishes mod p unless it vanishes over Q
    rng = random.Random(5)
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        density = rng.random()
        m = [[rng.randint(-9, 9) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        assert modular_rank(sparse(m), cols, SANDWICH_PRIME) == integer_rank(m)


def test_modular_rank_sees_the_prime():
    assert modular_rank(sparse([[3]]), 1, 3) == 0
    assert modular_rank(sparse([[1, 2], [2, 1]]), 2, 3) == 1  # determinant -3
    assert modular_rank(sparse([[1, 2], [2, 1]]), 2, 5) == 2
    assert modular_rank([], 0, 7) == 0


def test_evaluate_mod_is_reduction_of_evaluate():
    rng = random.Random(8)
    p = 101
    for _ in range(100):
        entries = [[LaurentPolynomial(2, {
            (rng.randint(-3, 3), rng.randint(-3, 3)):
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
            for _ in range(rng.randint(0, 3))}) for _ in range(3)] for _ in range(2)]
        m = laurent_matrix(2, entries)
        point = (rng.randint(1, p - 1), rng.randint(1, p - 1))
        exact = m.evaluate(Character(point))
        assert m.evaluate_mod(point, p) == sparse(
            [[x.numerator * pow(x.denominator, -1, p) % p for x in row]
             for row in exact])


def test_evaluate_mod_refuses_a_denominator_divisible_by_p():
    m = laurent_matrix(1, [[LaurentPolynomial(1, {(1,): Fraction(1, 14)})]])
    assert m.evaluate_mod((3,), 7) is None
    assert m.evaluate_mod((3,), 5) == [{0: 3 * pow(14, -1, 5) % 5}]
    with pytest.raises(ValueError):
        m.evaluate_mod((7,), 7)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_sandwich_pins_every_catalog_rank(name):
    cx = build_model(CATALOG[name]).complex
    ranks, route = generic_ranks(cx)
    assert ranks == symbolic_ranks(cx)
    assert route["name"] == "modular-sandwich"
    assert route["fallback_degrees"] == []
    assert twisted_betti(cx, GENERIC).betti == tuple(
        c - ranks[j] - ranks[j + 1] for j, c in enumerate(cx.ranks))


relator_words = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=8)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(relator_words, max_size=3))
def test_sandwich_never_contradicts_symbolic_rank(ngens, relators):
    words = tuple(Word([(g % ngens, e) for g, e in w]) for w in relators)
    cx = build_model(Presentation(tuple(f"x{i}" for i in range(ngens)), words)).complex
    ranks, route = generic_ranks(cx)
    symbolic = symbolic_ranks(cx)
    assert ranks == symbolic
    for j in range(1, cx.top + 1):
        if j not in route["fallback_degrees"]:
            # a pinned rank is the largest rank mod p seen at any point
            assert max(at_point[j - 1] for at_point in route["modular_ranks"]
                       if at_point[j - 1] is not None) == symbolic[j]


def count_symbolic_calls(monkeypatch):
    calls = []
    real = charvar.complexes.rank_at

    def counting(matrix, character):
        calls.append(character)
        return real(matrix, character)

    monkeypatch.setattr(charvar.complexes, "rank_at", counting)
    return calls


def use_points(monkeypatch, *points):
    monkeypatch.setattr(charvar.complexes, "sandwich_points",
                        lambda nvars: list(points))


def test_a_rank_drop_at_the_point_falls_back(monkeypatch):
    # every differential of a presentation complex vanishes at the all-ones
    # point, so its ranks mod p are 0 and no upper bound meets them
    cx = build_model(surface_group(2)).complex
    calls = count_symbolic_calls(monkeypatch)
    use_points(monkeypatch, (1, 1, 1, 1))
    ranks, route = generic_ranks(cx)
    assert route["modular_ranks"] == [[0, 0]]
    assert route["fallback_degrees"] == [1, 2]
    assert route["name"] == "symbolic"
    assert ranks == symbolic_ranks(cx) == (0, 1, 1, 0)
    assert calls == [GENERIC, GENERIC]


def test_a_second_point_is_tried_before_falling_back(monkeypatch):
    cx = build_model(surface_group(2)).complex
    calls = count_symbolic_calls(monkeypatch)
    use_points(monkeypatch, (1, 1, 1, 1), (2, 3, 5, 7))
    ranks, route = generic_ranks(cx)
    assert route["modular_ranks"] == [[0, 0], [1, 1]]
    assert route["name"] == "modular-sandwich"
    assert ranks == (0, 1, 1, 0)
    assert calls == []


def test_a_denominator_divisible_by_p_falls_back(monkeypatch):
    # the torus complex with d_2 divided by p: d_1 d_2 is still zero, but
    # d_2 cannot be reduced mod p, so only d_2 goes to symbolic rank
    torus = build_model(surface_group(1)).complex
    cx = scaled(torus, (1, Fraction(1, SANDWICH_PRIME)))
    calls = count_symbolic_calls(monkeypatch)
    ranks, route = generic_ranks(cx)
    assert [at_point[1] for at_point in route["modular_ranks"]] == [None, None]
    assert route["fallback_degrees"] == [2]
    assert route["name"] == "symbolic"
    assert ranks == (0, 1, 1, 0)
    assert len(calls) == 1


def test_only_the_asked_ranks_are_decided():
    cx = build_model(direct_product([surface_group(1), surface_group(2)])).complex
    ranks, route = generic_ranks(cx, [1])
    assert ranks == (0, 1, None, None, None, 0)
    # d_2 is reduced for the upper bound on d_1, nothing further out
    assert route["modular_ranks"] == [[1, 5, None, None]]
    with pytest.raises(ValueError):
        generic_ranks(cx, [5])


def test_generic_character_routes_through_the_sandwich(monkeypatch):
    cx = build_model(surface_group(2)).complex
    calls = count_symbolic_calls(monkeypatch)
    assert twisted_betti(cx, GENERIC).betti == (0, 2, 0)
    assert calls == []
    assert twisted_betti(cx, Character((2, 3, 5, 7))).betti == (0, 2, 0)
    assert len(calls) == 2
