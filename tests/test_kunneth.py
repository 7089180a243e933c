"""A product's twisted Betti numbers, its fullness verdicts and its kernel
homology come from its factors by Kunneth.

``GroupModel.betti`` convolves the factors' profiles over a field, the
generic one included, which decides every product fullness verdict, and
``GroupModel.kernel_homology`` applies the Kunneth formula over the PID
Q[t, t^-1]; the tensor model stays as the oracle.  The CLI must reach
any of them on a product only through its factor complexes.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from charvar.cli import main
from charvar.complexes import (generic_ranks, kernel_homology_univariate,
                               twisted_betti)
from charvar.constructions import (build_model, complete_graph,
                                   direct_product, free_group, raag,
                                   surface_group)
from charvar.errors import UnsupportedDegree
from charvar.jumploci import is_full_vr_product
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


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(range(len(FACTORS))), min_size=2, max_size=3))
def test_product_verdict_matches_the_tensor_model(choice):
    model = build_model(direct_product([FACTORS[i] for i in choice]))
    cx = model.complex
    # the oracle: generic ranks of the tensor model itself
    ranks, _ = generic_ranks(cx)
    # TORSION is not aspherical, so its products have degree 1 only
    top = 1 if FACTORS.index(TORSION) in choice else cx.top
    for r in range(1, top + 1):
        expected = cx.ranks[r] - ranks[r] - ranks[r + 1]
        verdict = is_full_vr_product(model, r)
        assert verdict.witness[f"generic_b{r}"] == expected, r
        assert verdict.is_full == (expected >= 1), r
        assert verdict.status == ("full" if expected else "not_full"), r
    if top < cx.top:
        with pytest.raises(UnsupportedDegree):
            is_full_vr_product(model, 2)
    else:
        assert is_full_vr_product(model, top + 1).status == "not_concluded"


@pytest.mark.parametrize("factors, r, status", [
    ([surface_group(2), free_group(2), surface_group(1)], 3, "not_full"),
    ([surface_group(2)] * 3, 2, "not_full"),
    ([free_group(2)] * 3, 3, "full"),
], ids=["S2xF2xS1-r3", "S2^3-r2", "F2^3-r3"])
def test_product_verdicts_for_any_r_and_any_factors(factors, r, status):
    verdict = is_full_vr_product(build_model(direct_product(factors)), r)
    assert verdict.status == status
    assert verdict.witness["route"]["name"] == "kunneth"


def test_certify_with_a_torus_factor_fails_definitely(capsys):
    # the torus factor has generic profile zero, so every generic Betti
    # number of S_2^3 x S_1 is zero
    code = main(["certify", "--preset", "product-surface", "--genus", "2,2,2,1",
                 "--r", "4", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["status"] == "hypothesis-failed"
    fullness = payload["result"]["evidence"]["fullness"]
    assert fullness["status"] == "not_full"
    assert fullness["witness"]["generic_b4"] == 0


@pytest.mark.parametrize("argv, genus", [
    (["certify", "--preset", "product-surface", "--genus", "2,2,2,2", "--r", "4",
      "--strategy", "generic-rank"], (2, 2, 2, 2)),
    (["jumploci", "--preset", "product-surface", "--genus", "2,3"], (2, 3)),
    # two verdicts, in degrees 1 and 2, read one generic profile
    (["jumploci", "--preset", "product-surface", "--genus", "2,2", "--r", "2"],
     (2, 2)),
], ids=["certify-S2^4", "jumploci-S2xS3", "jumploci-S2xS2-r2"])
def test_product_verdicts_rank_factor_complexes_only(monkeypatch, argv, genus):
    factors = [build_model(surface_group(g)).complex for g in genus]
    calls = cli_calls(monkeypatch, [("complexes", "generic_ranks"),
                                    ("lmatrix", "generic_rank")], argv)
    # each factor once, in order, and never the tensor model
    assert [args[0] for args in calls["complexes.generic_ranks"]] == factors
    assert calls["lmatrix.generic_rank"] == []


# Baumslag-Solitar groups BS(1,2) and BS(1,3) and the trefoil group: their
# kernel homology has torsion other than powers of t - 1 (t - 1/2,
# t - 1/3, t^2 - t + 1), so gcds and lcms of distinct factors occur
TORSION_FACTORS = [parse_presentation("gens a,t; rel t^-1 a t a^-2;"),
                   parse_presentation("gens a,t; rel t^-1 a t a^-3;"),
                   parse_presentation("gens x,y; rel x y x y^-1 x^-1 y^-1;")]
POOL = FACTORS + TORSION_FACTORS

# The oracle's Smith form on the tensor model swells its rational
# coefficients past 10^5 bits, and runs for minutes, on some products of
# TORSION or the trefoil with one another (TORSION x TORSION, TORSION x
# trefoil) or with two more factors (S_2 x TORSION x S_2); the Kunneth
# route takes a millisecond on each.  So the oracle meets these two groups
# only in pairs with a factor from outside the set.
SWELLING = {POOL.index(TORSION), POOL.index(TORSION_FACTORS[2])}


def seeded_block(rng: random.Random, width: int) -> list[int]:
    """One factor's block of a map onto Z: zero, twice a vector in
    {-1, 0, 1}^width, or such a vector."""
    kind = rng.choice(["zero", "multiple", "small"])
    if kind == "zero":
        return [0] * width
    scale = 2 if kind == "multiple" else 1
    return [scale * rng.choice([-1, 0, 1]) for _ in range(width)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(range(len(POOL))), min_size=2, max_size=3),
       st.integers(0, 2 ** 32))
def test_kunneth_kernel_homology_matches_the_tensor_model(choice, seed):
    assume(len([i for i in choice if i in SWELLING]) <= 3 - len(choice))
    model = build_model(direct_product([POOL[i] for i in choice]))
    rng = random.Random(seed)
    nubar = [[x for f in model.factors for x in seeded_block(rng, f.complex.nvars)]]
    got = model.kernel_homology(nubar)
    expected = kernel_homology_univariate(model.complex.specialize(nubar))
    assert got.to_json_dict() == expected.to_json_dict()


@pytest.mark.parametrize("choice, nubar, torsion", [
    # F_0 has chain ranks (1, 0, 0), so the products keep fewer degrees
    # than the sum of the factors' tops
    ((2, 1), [[1, 1, 1, 1]], {"t1 - 1"}),
    ((1, 2, 3), [[0, 1, 0, 2, 1]], {"t1 - 1"}),
    # Z^3 with a zero block, then with a block of 2
    ((6, 1), [[0, 0, 0, 1, 1, 0, 1]], {"t1 - 1"}),
    ((6, 1), [[2, 2, 2, 1, 0, 0, 0]], {"t1 - 1", "t1^2 - 1"}),
    # the lcm of t1 - 1 and t1 - 1/2, and of t1 - 1 and t1^2 - t1 + 1
    ((8, 1), [[1, 1, 1, 1, 1]],
     {"t1 - 1", "t1 - 1/2", "t1^2 - 3/2*t1 + 1/2"}),
    ((10, 8, 0), [[1, 0, 0, 0]],
     {"t1 - 1", "t1^2 - t1 + 1", "t1^3 - 2*t1^2 + 2*t1 - 1"}),
    ((9, 8), [[1, 0]], {"t1 - 1", "t1 - 1/3", "t1^2 - 4/3*t1 + 1/3"}),
], ids=["F0xS2", "S2xF0xF1", "Z3xS2-zero-block", "Z3xS2-block-of-2",
        "BS12xS2", "trefoilxBS12xS1", "BS13xBS12"])
def test_kunneth_kernel_homology_on_chosen_products(choice, nubar, torsion):
    model = build_model(direct_product([POOL[i] for i in choice]))
    got = model.kernel_homology(nubar)
    expected = kernel_homology_univariate(model.complex.specialize(nubar))
    assert len(got.entries) == model.complex.top + 1
    assert got.to_json_dict() == expected.to_json_dict()
    assert {f.to_text() for e in got.entries for f in e.torsion_factors} == torsion


def test_product_kernel_homology_smith_reduces_factor_matrices_only(monkeypatch):
    factor = build_model(surface_group(2)).complex
    calls = cli_calls(monkeypatch, [("lmatrix", "smith_univariate"),
                                    ("complexes", "kernel_homology_univariate")],
                      ["kernel", *S2_CUBED, "--nu", "ones", "--top-degree", "6"])
    pushed = [args[0] for args in calls["complexes.kernel_homology_univariate"]]
    assert len(pushed) == 3 and all(cx.ranks == factor.ranks for cx in pushed)
    shapes = {(m.rows, m.cols) for (m,) in calls["lmatrix.smith_univariate"]}
    assert shapes == {(1, 4), (4, 1)}


def test_kernel_of_s2_to_the_fourth(capsys):
    # the sum map S_2^4 -> Z: the Euler characteristic 16 sits in degree 4
    # as free rank, and every other degree is torsion t1 - 1 only
    assert main(["kernel", "--preset", "product-surface", "--genus", "2,2,2,2",
                 "--nu", "ones", "--top-degree", "8", "--json"]) == 0
    degrees = json.loads(capsys.readouterr().out)["result"]["degrees"]
    assert sum((-1) ** d["degree"] * d["free_rank"] for d in degrees) == 16
    assert [d["free_rank"] for d in degrees] == [0, 0, 0, 0, 16, 0, 0, 0, 0]
    assert [len(d["torsion_factors"]) for d in degrees] == [1, 15, 85, 219, 219,
                                                            85, 15, 1, 0]
    assert {f for d in degrees for f in d["torsion_factors"]} == {"t1 - 1"}
