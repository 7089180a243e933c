"""A product's twisted Betti numbers, its fullness verdicts and its kernel
homology come from its factors by Kunneth.

``GroupModel.betti`` convolves the factors' profiles over a field, the
generic one included, which decides every product fullness verdict, and
``GroupModel.kernel_homology`` applies the Kunneth formula over the PID
Q[t, t^-1]; the tensor model stays as the oracle.  The CLI must reach
any of them on a product only through its factor complexes.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import ceil, log2

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from charvar import lmatrix
from charvar.cli import main, resolve_nu
from charvar.complexes import (TwistedComplex, generic_ranks,
                               kernel_homology_univariate, tensor_complex,
                               twisted_betti)
from charvar.constructions import (_convolve, build_model, complete_graph,
                                   direct_product, free_group, raag,
                                   surface_group)
from charvar.errors import UnsupportedDegree
from charvar.jumploci import is_full_vr_product
from charvar.laurent import GENERIC, Character, pullback_character
from charvar.parser import parse_presentation
from charvar.presentations import induced_on_free_part

from chain_oracle import kunneth_kernel_homology
from conftest import cli_calls, record_calls, scaled

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
       st.booleans(), st.integers(0, 2 ** 32))
def test_convolved_profile_matches_the_tensor_model(choice, repeat, seed):
    if repeat:
        choice[-1] = choice[0]
    model = build_model(direct_product([FACTORS[i] for i in choice]))
    n = model.complex.nvars
    seeded = seeded_character(seed, n)
    characters = [seeded, seeded_character(seed + 1, n),
                  Character.trivial(n), Character((-1,) * n), GENERIC, seeded]
    if repeat:
        # the first factor's block again in the last factor's place, so the
        # factor model the two share is asked the same character twice
        width = model.factors[0].nvars
        characters.append(Character(seeded.coords[:n - width] + seeded.coords[:width]))
    for rho in characters:
        assert model.betti(rho).betti == twisted_betti(model.complex, rho).betti, rho


# a product factor: its model is itself a product model, whose F_0 factor
# leaves trailing zero ranks to trim
NESTED = direct_product([free_group(0), surface_group(1)])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(FACTORS + [NESTED]), min_size=2, max_size=3))
@example([free_group(0), TORSION])
@example([NESTED, free_group(0), TORSION])
def test_the_shape_comes_from_the_factors(factors):
    model = build_model(direct_product(factors))
    # the oracle: the tensor model itself
    cx = model.complex
    assert (model.ranks, model.nvars, model.top) == (cx.ranks, cx.nvars, cx.top)


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


def one_by_one(model, coords) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The oracle for a product's profile and chain ranks: each factor's
    ``twisted_betti`` at its own slice of ``coords`` (the generic point
    whole when coords is None), convolved one factor at a time, and cut
    where the one-by-one chain ranks end."""
    profile, ranks, start = [1], [1], 0
    for factor in model.factors:
        cx = factor.complex
        at = GENERIC if coords is None else Character(coords[start:start + cx.nvars])
        profile = _convolve(profile, twisted_betti(cx, at).betti)
        ranks = _convolve(ranks, cx.ranks)
        start += cx.nvars
    while ranks[-1] == 0:
        ranks.pop()
    return tuple(profile[:len(ranks)]), tuple(ranks)


# surfaces of genus 1-3, the 2-torus as a cube complex, free groups of rank
# 1-3, and a product factor, drawn with repeats
FOLD_FACTORS = ([surface_group(g) for g in (1, 2, 3)] + [raag(complete_graph(2))]
                + [free_group(k) for k in (1, 2, 3)] + [NESTED])
NONZERO = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(range(len(FOLD_FACTORS))), min_size=2, max_size=6),
       st.integers(1, 2), st.data())
def test_the_grouped_fold_matches_the_one_by_one_fold(choice, m, data):
    model = build_model(direct_product([FOLD_FACTORS[i] for i in choice]))
    rho = Character(data.draw(st.lists(NONZERO, min_size=m, max_size=m)))
    # each distinct factor draws one or two column blocks, and each of its
    # copies takes one of them: equal blocks for some copies, distinct for others
    pools = {}
    for i, factor in zip(choice, model.factors):
        block = st.lists(st.lists(st.integers(-2, 2), min_size=factor.nvars,
                                  max_size=factor.nvars), min_size=m, max_size=m)
        pools.setdefault(i, data.draw(st.lists(block, min_size=1, max_size=2)))
    picked = [data.draw(st.sampled_from(pools[i])) for i in choice]
    nubar = [[x for block in picked for x in block[row]] for row in range(m)]
    pulled, ranks = one_by_one(model, pullback_character(nubar, rho).coords)
    assert model.ranks == ranks
    assert model.pullback_betti(nubar, rho) == pulled
    assert model.betti(pullback_character(nubar, rho)).betti == pulled
    coords = data.draw(st.lists(NONZERO, min_size=model.nvars, max_size=model.nvars))
    assert model.betti(Character(coords)).betti == one_by_one(model, coords)[0]
    assert model.betti(GENERIC).betti == one_by_one(model, None)[0]


TREFOIL = parse_presentation("gens x,y; rel x y x y^-1 x^-1 y^-1;")
PID_FACTORS = FOLD_FACTORS + [TORSION, TREFOIL]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(range(len(PID_FACTORS))), min_size=2, max_size=6),
       st.data())
def test_the_grouped_pid_fold_matches_the_one_by_one_fold(choice, data):
    model = build_model(direct_product([PID_FACTORS[i] for i in choice]))
    # each distinct factor draws one or two one-row column blocks, and each
    # of its copies takes one of them: equal blocks for some copies,
    # distinct for others
    pools = {}
    for i, factor in zip(choice, model.factors):
        block = st.lists(st.integers(-2, 2), min_size=factor.nvars, max_size=factor.nvars)
        pools.setdefault(i, data.draw(st.lists(block, min_size=1, max_size=2)))
    picked = [data.draw(st.sampled_from(pools[i])) for i in choice]
    nubar = [[x for block in picked for x in block]]
    expected = kunneth_kernel_homology(
        [f.pushed([b]) for f, b in zip(model.factors, picked)])
    assert model.kernel_homology(nubar) == expected


def test_a_kernel_raises_each_distinct_factor_by_squaring(monkeypatch):
    # the twelve equal factors share one block of nu-bar, so the fold is one
    # power, found by squaring; folding them one by one takes eleven
    k = 12
    calls = cli_calls(monkeypatch, [("constructions", "GroupModel._runs_convolve")],
                      ["kernel", "--preset", "product-surface", "--genus",
                       ",".join(["4"] * k), "--nu", "ones", "--top-degree", "2"])
    assert len(calls["constructions.GroupModel._runs_convolve"]) <= 2 * ceil(log2(k))


def test_a_probe_folds_each_distinct_power_once(monkeypatch):
    trials, k = 100, 12
    argv = ["probe", "--preset", "product-surface", "--genus", ",".join(["4"] * k),
            "--r", str(k), "--trials", str(trials)]
    calls = cli_calls(monkeypatch, [("complexes", "twisted_betti"),
                                    ("constructions", "_convolve")], argv)
    ranked = [(id(cx), rho) for cx, rho in calls["complexes.twisted_betti"]]
    # one elimination per distinct factor character, at most
    assert len(ranked) == len(set(ranked))
    # the twelve equal factors share one block of nu-bar, so a sample folds
    # at most once and each power is found by squaring; folding the twelve
    # profiles one by one takes eleven convolutions per sample
    assert len(calls["constructions._convolve"]) <= trials + 2 * ceil(log2(k)) + k


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
        # no cells above the top, so b_(top+1) = 0 at every character
        above = is_full_vr_product(model, top + 1)
        assert above.status == "not_full"
        assert above.witness[f"generic_b{top + 1}"] == 0


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
    factors = [build_model(surface_group(g)).complex for g in dict.fromkeys(genus)]
    calls = cli_calls(monkeypatch, [("complexes", "generic_ranks"),
                                    ("lmatrix", "generic_rank")], argv)
    # each distinct factor once, in order of first appearance, and never
    # the tensor model
    assert [args[0] for args in calls["complexes.generic_ranks"]] == factors
    assert calls["lmatrix.generic_rank"] == []


# Baumslag-Solitar groups BS(1,2) and BS(1,3) and the trefoil group: their
# kernel homology has torsion other than powers of t - 1 (t - 1/2,
# t - 1/3, t^2 - t + 1), so gcds and lcms of distinct factors occur
TORSION_FACTORS = [parse_presentation("gens a,t; rel t^-1 a t a^-2;"),
                   parse_presentation("gens a,t; rel t^-1 a t a^-3;"),
                   parse_presentation("gens x,y; rel x y x y^-1 x^-1 y^-1;")]
POOL = FACTORS + TORSION_FACTORS


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
    # the oracle's Smith form on the tensor model keeps its coefficients
    # small, but its entries' spans grow into the hundreds, and it runs for
    # minutes, on some triples with TORSION twice (TORSION^3, TORSION^2 x
    # F_3, TORSION^2 x trefoil); the Kunneth route takes a millisecond on each
    assume(len(choice) == 2 or choice.count(POOL.index(TORSION)) <= 1)
    model = build_model(direct_product([POOL[i] for i in choice]))
    rng = random.Random(seed)
    nubar = [[x for f in model.factors for x in seeded_block(rng, f.complex.nvars)]]
    got = model.kernel_homology(nubar)
    expected = kernel_homology_univariate(model.complex.specialize(nubar))
    assert got.to_json_dict() == expected.to_json_dict()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(range(len(POOL))), min_size=2, max_size=3),
       st.integers(1, 2), st.integers(0, 2 ** 32))
def test_pushed_product_matches_the_pushed_tensor_model(choice, m, seed):
    # the factors pushed through their blocks and tensored in the shared
    # ring, against the tensor model (pushed through the identity) pushed
    # through the whole map
    model = build_model(direct_product([POOL[i] for i in choice]))
    rng = random.Random(seed)
    nubar = [[x for f in model.factors for x in seeded_block(rng, f.complex.nvars)]
             for _ in range(m)]
    assert model.pushed(nubar) == model.complex.specialize(nubar)


# each presentation with the complex a fold reads: the pool's and NESTED's
# models, and TORSION's complex rescaled to Fraction coefficients
FOLD_POOL = [(g, build_model(g).complex) for g in POOL + [NESTED]] + [
    (TORSION, scaled(build_model(TORSION).complex, (Fraction(3, 2), Fraction(-1, 3))))]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(range(len(FOLD_POOL))), min_size=2, max_size=3),
       st.integers(1, 2), st.integers(0, 2 ** 32))
@example([len(FOLD_POOL) - 1, len(POOL), len(FOLD_POOL) - 1], 2, 0)
def test_every_fold_passes_the_full_composite_pass_too(choice, m, seed):
    # each fold is proven by its Koszul structure over its proven factors;
    # rebuilt by the plain constructor it goes through the full-composite
    # pass, which must accept it too, and its ranks are the product's
    rng = random.Random(seed)
    pushed = [cx.specialize([seeded_block(rng, cx.nvars) for _ in range(m)])
              for cx in (FOLD_POOL[i][1] for i in choice)]
    folded = pushed[0]
    for factor in pushed[1:]:
        folded = tensor_complex(folded, factor)
        assert TwistedComplex(folded.nvars, folded.ranks, folded.differentials) == folded
    assert folded.ranks == build_model(direct_product([FOLD_POOL[i][0] for i in choice])).ranks


@pytest.mark.parametrize("spec", ["1;1;0;1;1;-1;0;-1;0;1;1;1", "pencil"],
                         ids=["kernel-workload-nu", "pencil-nu"])
def test_pushed_s2_cubed_matches_the_pushed_tensor_model(spec):
    presentation = direct_product([surface_group(2)] * 3)
    model = build_model(presentation)
    nubar = induced_on_free_part(resolve_nu(presentation, spec), model.abelian)
    pushed = model.pushed(nubar)
    assert pushed.nvars == len(nubar) == (2 if spec == "pencil" else 1)
    assert pushed == model.complex.specialize(nubar)


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
    assert {f.to_text() for e in got.entries for f, _ in e.torsion} == torsion


def test_product_kernel_homology_smith_reduces_factor_matrices_only(monkeypatch):
    factor = build_model(surface_group(2)).complex
    calls = cli_calls(monkeypatch, [("lmatrix", "smith_univariate"),
                                    ("complexes", "kernel_homology_univariate")],
                      ["kernel", *S2_CUBED, "--nu", "ones", "--top-degree", "6"])
    # the three equal factors share one model and their blocks of ones are
    # equal, so it is pushed and reduced once: one Smith form per differential
    pushed = [args[0] for args in calls["complexes.kernel_homology_univariate"]]
    assert len(pushed) == 1 and pushed[0].ranks == factor.ranks
    shapes = [(m.rows, m.cols) for (m,) in calls["lmatrix.smith_univariate"]]
    assert sorted(shapes) == [(1, 4), (4, 1)]


@pytest.mark.parametrize("top_degree", [12, 6])
def test_kernel_work_follows_the_distinct_orders(monkeypatch, top_degree):
    # S_2^6 under the sum map has 23,296 torsion summands, all Lambda/(t - 1):
    # each shown degree renders its one order once, and the fold computes the
    # gcd of each distinct pair of orders, 0 or t - 1, once
    calls = record_calls(monkeypatch, [("laurent", "LaurentPolynomial.to_text"),
                                       ("lmatrix", "univariate_gcd")])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["kernel", "--preset", "product-surface", "--genus", "2,2,2,2,2,2",
                     "--nu", "ones", "--top-degree", str(top_degree), "--json"]) == 0
    degrees = json.loads(out.getvalue())["result"]["degrees"]
    assert len(degrees) == top_degree + 1
    assert {r["order"] for d in degrees for r in d["torsion_runs"]} == {"t1 - 1"}
    rendered = calls["laurent.LaurentPolynomial.to_text"]
    assert len(rendered) == sum(bool(d["torsion_runs"]) for d in degrees)
    pairs = calls["lmatrix.univariate_gcd"]
    assert len(pairs) == len(set(pairs)) <= 4


def reduction_steps(monkeypatch):
    """Record the coefficient bits of every row the univariate Smith form's
    reduction steps return, one list entry per step."""
    steps = []
    reduce_lead = lmatrix._reduce_lead

    def recorded(row, pivot_row):
        out = reduce_lead(row, pivot_row)
        steps.append(max((abs(c).bit_length() for p in out for c in p.terms.values()),
                         default=0))
        return out

    monkeypatch.setattr(lmatrix, "_reduce_lead", recorded)
    return steps


def test_smith_on_the_s2_cubed_tensor_model_keeps_coefficients_small(monkeypatch):
    # the Smith form over Q[t, t^-1] stops at a diagonal, leaves the
    # divisibility chain to _invariant_factors, and divides no coefficient:
    # its rows stay primitive in Z[t]
    presentation = direct_product([surface_group(2)] * 3)
    model = build_model(presentation)
    nubar = induced_on_free_part(
        resolve_nu(presentation, "1;1;0;1;1;-1;0;-1;0;1;1;1"), model.abelian)
    pushed = model.complex.specialize(nubar)
    steps = reduction_steps(monkeypatch)
    report = kernel_homology_univariate(pushed)
    assert 0 < len(steps) < 1500
    assert max(steps) <= 4
    monkeypatch.undo()
    assert report == model.kernel_homology(nubar)


def test_smith_on_torsion_times_f3_does_not_swell(monkeypatch):
    # a Smith form that divides Fraction coefficients reached 197,572-bit
    # coefficients on this complex's 11 x 6 d_3 and ran for minutes
    model = build_model(direct_product([TORSION, free_group(3)]))
    nubar = [[2, -2, -3, -3, 0]]
    steps = reduction_steps(monkeypatch)
    report = kernel_homology_univariate(model.pushed(nubar))
    assert max(steps) <= 32
    monkeypatch.undo()
    assert report == model.kernel_homology(nubar)


def test_kernel_of_s2_to_the_fourth(capsys):
    # the sum map S_2^4 -> Z: the Euler characteristic 16 sits in degree 4
    # as free rank, and every other degree is torsion t1 - 1 only
    assert main(["kernel", "--preset", "product-surface", "--genus", "2,2,2,2",
                 "--nu", "ones", "--top-degree", "8", "--json"]) == 0
    degrees = json.loads(capsys.readouterr().out)["result"]["degrees"]
    assert sum((-1) ** d["degree"] * d["free_rank"] for d in degrees) == 16
    assert [d["free_rank"] for d in degrees] == [0, 0, 0, 0, 16, 0, 0, 0, 0]
    assert [sum(r["count"] for r in d["torsion_runs"]) for d in degrees] == [
        1, 15, 85, 219, 219, 85, 15, 1, 0]
    assert {r["order"] for d in degrees for r in d["torsion_runs"]} == {"t1 - 1"}
