"""A product's twisted Betti numbers come from its factors by Kunneth.

``GroupModel.betti`` convolves the factors' profiles; the tensor model
stays as the oracle.  The CLI must reach twisted Betti numbers of a
product only through its factor complexes.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charvar.complexes import twisted_betti
from charvar.constructions import (build_model, complete_graph,
                                   direct_product, free_group, raag,
                                   surface_group)
from charvar.laurent import GENERIC, Character
from charvar.parser import parse_presentation

from conftest import cli_calls

TORSION = parse_presentation("gens a,b,c; rel a^3 b^-3 c^6; rel [b,c];")

# surfaces of genus <= 2, free groups of rank 0..3, tori (the genus-1
# surface and Z^3), and a group whose H_1 has torsion
FACTORS = ([surface_group(1), surface_group(2)]
           + [free_group(k) for k in range(4)]
           + [raag(complete_graph(3)), TORSION])


def seeded_character(seed: int, nvars: int) -> Character:
    """A rational character with some fractional coordinates."""
    rng = random.Random(seed)
    coords = []
    for _ in range(nvars):
        num = rng.choice([x for x in range(-5, 6) if x])
        coords.append(Fraction(num, rng.randint(1, 4)))
    return Character(coords)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(range(len(FACTORS))), min_size=2, max_size=3),
       st.integers(0, 2 ** 32))
def test_convolved_profile_matches_the_tensor_model(choice, seed):
    model = build_model(direct_product([FACTORS[i] for i in choice]))
    n = model.complex.nvars
    characters = [seeded_character(seed, n), seeded_character(seed + 1, n),
                  Character.trivial(n), Character((-1,) * n), GENERIC]
    for rho in characters:
        got = model.betti(rho)
        assert got.character == rho
        assert got.betti == twisted_betti(model.complex, rho).betti, rho


def test_trailing_zero_degrees_are_cut():
    # F_0 has chain ranks (1, 0, 0); the tensor model trims its product
    # with the genus-2 surface to ranks (1, 4, 1)
    model = build_model(direct_product([free_group(0), surface_group(2)]))
    assert model.complex.ranks == (1, 4, 1)
    assert model.betti(Character.trivial(4)).betti == (1, 4, 1)
    assert model.betti(GENERIC).betti == (0, 2, 0)


def test_character_of_the_wrong_length_is_refused():
    model = build_model(direct_product([surface_group(1)] * 2))
    with pytest.raises(ValueError):
        model.betti(Character((2, 3, 5)))


S2_CUBED = ["--preset", "product-surface", "--genus", "2,2,2"]


@pytest.mark.parametrize("argv", [
    ["certify", *S2_CUBED, "--r", "3"],
    ["probe", *S2_CUBED, "--r", "3", "--trials", "8"],
    ["betti", *S2_CUBED, "--char", "generic"],
    ["betti", *S2_CUBED, "--char", "2,1/3,-1,5,3,-2,1/2,7,-3,2,5/4,-1"],
], ids=["certify", "probe", "betti-generic", "betti-rational"])
def test_product_betti_numbers_come_from_factor_complexes(monkeypatch, argv):
    factor = build_model(surface_group(2)).complex
    calls = cli_calls(monkeypatch, [("complexes", "twisted_betti"),
                                    ("lmatrix", "generic_rank")], argv)
    ranked = [args[0] for args in calls["complexes.twisted_betti"]]
    assert ranked and all(cx == factor for cx in ranked)
    assert calls["lmatrix.generic_rank"] == []
