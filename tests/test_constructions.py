import contextlib
import io
import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest

from charvar.cli import build_parser, main, resolve_group, resolve_nu
from charvar.complexes import (TwistedComplex, kernel_homology_univariate, tensor_complex,
                               twisted_betti)
from charvar.covers import finite_cover_oracle
from charvar.constructions import (Graph, bestvina_brady, build_model,
                                   complete_graph, cycle_graph,
                                   direct_product, edgeless_graph,
                                   flag_complex, free_group, octahedron_graph,
                                   parse_graph_text, pencil_numerology, raag,
                                   raag_chain_model,
                                   reduced_homology, surface_group)
from charvar.errors import GenusTooSmall, PresentationSyntaxError
from charvar.intlinalg import mat_mul
from charvar.laurent import GENERIC, Character, pullback_character
from charvar.parser import parse_presentation
from charvar.presentations import (Presentation, abelianize, induced_on_free_part,
                                   validate_epimorphism)
from charvar.sampling import sample_character
from charvar.words import Word, commutator

from conftest import all_ones_complex, cli_calls, record_calls


def euler_characteristic(p):
    """Alternating sum of the Betti numbers at the trivial character."""
    model = build_model(p)
    betti = twisted_betti(model.complex, Character.trivial(model.complex.nvars)).betti
    return sum((-1) ** j * b for j, b in enumerate(betti))


def test_surface_groups():
    t = surface_group(1)
    assert t.ngens == 2 and len(t.relators) == 1
    assert euler_characteristic(t) == 0
    g2 = surface_group(2)
    assert g2.ngens == 4 and euler_characteristic(g2) == -2
    g3 = surface_group(3)
    assert euler_characteristic(g3) == -4
    assert twisted_betti(build_model(g3).complex,
                         Character((2, 3, 5, 7, 11, 13))).betti == (0, 4, 0)
    with pytest.raises(GenusTooSmall):
        surface_group(0)


FREE_GROUPS = {
    0: ((), "punctured_surface_0_1"),
    1: (("p1",), "punctured_surface_0_2"),
    2: (("p1", "p2"), "punctured_surface_0_3"),
    3: (("p1", "p2", "p3"), "punctured_surface_0_4"),
    4: (("p1", "p2", "p3", "p4"), "punctured_surface_0_5"),
    5: (("p1", "p2", "p3", "p4", "p5"), "punctured_surface_0_6"),
    6: (("p1", "p2", "p3", "p4", "p5", "p6"), "punctured_surface_0_7"),
}


def test_free_group_presentations():
    # F_k is the sphere with k + 1 punctures, the name golden labels print
    for rank, (generators, name) in FREE_GROUPS.items():
        f = free_group(rank)
        assert f == Presentation(generators, (), name=name, aspherical=True)
        assert f.generators == generators and f.relators == ()
        assert (f.name, f.aspherical, f.factors, f.graph) == (name, True, (), None)
        assert euler_characteristic(f) == 1 - rank
    with pytest.raises(ValueError, match="free rank must be >= 0"):
        free_group(-1)


def test_direct_product_counts():
    g2 = surface_group(2)
    p = direct_product([g2, g2])
    assert p.ngens == 8
    assert len(p.relators) == 2 + 16
    assert build_model(p).complex.ranks == (1, 8, 18, 8, 1)
    f = free_group(2)
    assert build_model(direct_product([f, f])).complex.ranks == (1, 4, 4)
    with pytest.raises(ValueError):
        direct_product([g2])


@pytest.mark.parametrize("factors", [
    [surface_group(2)] * 3,
    [surface_group(1), free_group(2), surface_group(2)],
], ids=["S2^3", "S1xF2xS2"])
def test_cross_factor_relators_are_the_commutators(factors):
    # the product writes each [x, y] out as x y x^-1 y^-1; it must be the
    # word that words.commutator builds, in the same order
    p = direct_product(factors)
    offsets = [sum(f.ngens for f in factors[:i]) for i in range(len(factors))]
    own = sum(len(f.relators) for f in factors)
    expected = [commutator(Word.generator(x), Word.generator(y))
                for a, b in combinations(range(len(factors)), 2)
                for x in range(offsets[a], offsets[a] + factors[a].ngens)
                for y in range(offsets[b], offsets[b] + factors[b].ngens)]
    assert list(p.relators[own:]) == expected
    assert all(r.syllables == Word(r.syllables).syllables for r in p.relators)


def _eager_relators(factors):
    """A product's relators built in full, as a product listed them before
    it derived its commutators: each factor's relators shifted into place
    (a nested product's built the same way), then [x, y] for each pair of
    factors, x over the first one's generators and y over the second's."""
    offsets = [sum(f.ngens for f in factors[:i]) for i in range(len(factors))]
    relators = []
    for off, f in zip(offsets, factors):
        own = _eager_relators(f.factors) if f.factors else f.relators
        relators += [Word((g + off, e) for g, e in r.syllables) for r in own]
    for (off_a, fa), (off_b, fb) in combinations(zip(offsets, factors), 2):
        relators += [Word(((x, 1), (y, 1), (x, -1), (y, -1)))
                     for x in range(off_a, off_a + fa.ngens)
                     for y in range(off_b, off_b + fb.ngens)]
    return tuple(relators)


def _preset(*argv):
    return resolve_group(build_parser().parse_args(["oracle", *argv]))[0]


@pytest.mark.parametrize("product", [
    lambda: direct_product([surface_group(2)] * 3),
    lambda: direct_product([free_group(0), surface_group(1)]),
    lambda: direct_product([surface_group(2), free_group(0), free_group(3)]),
    lambda: direct_product([surface_group(1),
                            direct_product([free_group(2), surface_group(2)]),
                            parse_presentation("gens a,b,c; rel a^3 b^-3 c^6; rel [b,c];")]),
    lambda: direct_product([direct_product([free_group(1)] * 2)] * 2),
    lambda: _preset("--preset", "stallings"),
    lambda: _preset("--preset", "product-free", "--ranks", "0,2,1"),
], ids=["S2^3", "F0xS1", "S2xF0xF3", "nested", "nested-equal", "stallings", "F0xF2xF1"])
def test_derived_relators_equal_the_eager_list(product):
    p = product()
    eager = _eager_relators(p.factors)
    # the count comes first: reading it must not need the commutators
    assert p.nrelators == len(eager)
    assert p.relators == eager
    assert p.nrelators == len(p.relators)
    assert p.stored_relators == eager[:len(p.stored_relators)]
    # == and hash read the stored fields, whether or not relators were read
    fresh = product()
    assert fresh == p and hash(fresh) == hash(p)


def test_a_presentation_without_factors_stores_every_relator():
    p = parse_presentation("gens a,b,c; rel a^3 b^-3 c^6; rel [b,c];")
    assert p.relators == p.stored_relators and p.nrelators == 2
    assert surface_group(3).nrelators == 1 and free_group(2).nrelators == 0
    with pytest.raises(ValueError, match="undeclared generator"):
        Presentation(("a",), (Word.generator(1),))


@pytest.mark.parametrize("genus", range(1, 7))
def test_surface_relator_is_the_product_of_commutators(genus):
    relator = reduce(lambda w, i: w * commutator(Word.generator(2 * i), Word.generator(2 * i + 1)),
                     range(genus), Word.identity())
    assert surface_group(genus).relators == (relator,)


def test_catalog_betti_consistency():
    rng = random.Random(6)
    for g in (1, 2, 3):
        p = surface_group(g)
        cx = build_model(p).complex
        for _ in range(10):
            rho = sample_character(rng, 2 * g, box=8)
            assert twisted_betti(cx, rho).betti == (0, 2 * g - 2, 0)
        assert twisted_betti(cx, Character.trivial(2 * g)).betti == (1, 2 * g, 1)


CATALOG_PRODUCTS = {
    "product-surface": direct_product([surface_group(2), surface_group(3)]),
    "product-free": direct_product([free_group(2), free_group(3)]),
    "stallings": direct_product([free_group(2)] * 3),
}


@pytest.mark.parametrize("name", CATALOG_PRODUCTS)
def test_catalog_product_coordinates_are_the_smith_coordinates(name):
    p = CATALOG_PRODUCTS[name]
    model = build_model(p)
    assert abelianize(p) == model.abelian
    assert tuple(f.presentation for f in model.factors) == p.factors


def test_product_with_torsion_factor_has_blockwise_coordinates():
    # H_1 of the first factor is Z^2 + Z/3; whatever the Smith form of the
    # product presentation gives, the model's coordinates must be blockwise
    torsion = parse_presentation("gens a,b,c; rel a^3 b^-3 c^6; rel [b,c];")
    p = direct_product([torsion, surface_group(1)])
    model = build_model(p)
    first, second = (f.abelian for f in model.factors)
    abelian = model.abelian
    assert abelian.torsion_invariants == (3,)
    assert abelian.torsion_free_rank == 4
    assert abelian.projection == (
        tuple(row + (0, 0) for row in first.projection)
        + tuple((0, 0, 0) + row for row in second.projection))
    assert abelian.section == (
        tuple(row + (0, 0) for row in first.section)
        + tuple((0, 0) + row for row in second.section))
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    assert mat_mul([list(r) for r in abelian.projection],
                   [list(r) for r in abelian.section]) == identity
    for r in p.relators:
        vec = r.exponent_vector(p.ngens)
        assert all(sum(a * b for a, b in zip(row, vec)) == 0
                   for row in abelian.projection)
    # the blocks line up with the variables of the tensor complex: Betti
    # numbers of the product are the convolution of the factors' at the
    # restricted characters
    rng = random.Random(5)
    for _ in range(5):
        rho = sample_character(rng, 4, box=4)
        pa = twisted_betti(model.factors[0].complex, Character(rho.coords[:2])).betti
        pb = twisted_betti(model.factors[1].complex, Character(rho.coords[2:])).betti
        expected = [0] * (len(pa) + len(pb) - 1)
        for i, x in enumerate(pa):
            for j, y in enumerate(pb):
                expected[i + j] += x * y
        assert list(twisted_betti(model.complex, rho).betti) == expected


CYCLIC_2 = parse_presentation("gens a; rel a^2;")
CYCLIC_3 = parse_presentation("gens a; rel a^3;")
TORSION = parse_presentation("gens a,b,c; rel a^3 b^-3 c^6; rel [b,c];")
TREFOIL = parse_presentation("gens x,y; rel x y x y^-1 x^-1 y^-1;")
TORSION_PRODUCTS = {
    "Z2xZ3": (direct_product([CYCLIC_2, CYCLIC_3]), 0, (6,)),
    "TORSIONxT2": (direct_product([TORSION, surface_group(1)]), 4, (3,)),
    "trefoilxS2": (direct_product([TREFOIL, surface_group(2)]), 5, ()),
    "Z2x(Z3xF2)": (direct_product([CYCLIC_2, direct_product([CYCLIC_3, free_group(2)])]),
                   2, (6,)),
    "TORSIONxTORSION": (direct_product([TORSION, TORSION]), 4, (3, 3)),
}


@pytest.mark.parametrize("name", TORSION_PRODUCTS)
def test_product_h1_from_factors_is_the_smith_form_of_the_product(name):
    # the model reads H_1 off the factors; the Smith form of the whole
    # product presentation is the oracle
    p, free_rank, torsion = TORSION_PRODUCTS[name]
    model = build_model(p).abelian
    smith = abelianize(p)
    assert (model.torsion_free_rank, model.torsion_invariants) == (free_rank, torsion)
    assert (smith.torsion_free_rank, smith.torsion_invariants) == (free_rank, torsion)


S2_CUBED = ["--preset", "product-surface", "--genus", "2,2,2"]


def test_one_model_per_query(monkeypatch):
    functions = [("constructions", "build_model"), ("presentations", "abelianize"),
                 ("complexes", "tensor_complex")]
    calls = cli_calls(monkeypatch, functions, [
        "jumploci", "--preset", "product-surface", "--genus", "2,2", "--r", "2"])
    # the product model and one model its two equal factors share; only
    # that factor is abelianized, and the ideal reads the product's H_1
    assert len(calls["constructions.build_model"]) == 2
    assert len(calls["presentations.abelianize"]) == 1
    assert len(calls["complexes.tensor_complex"]) == 1
    monkeypatch.undo()
    calls = cli_calls(monkeypatch, functions, [
        "certify", *S2_CUBED, "--r", "3"])
    assert len(calls["constructions.build_model"]) == 2
    # a full verdict's spot checks are the one reader of the tensor model
    assert len(calls["complexes.tensor_complex"]) == 2
    # elsewhere a product's variables, ranks and top degree come from its
    # factors, so no other query on S_2^3 builds the tensor model
    for argv in (["probe", *S2_CUBED, "--r", "3", "--trials", "4"],
                 ["kernel", *S2_CUBED, "--nu", "ones", "--top-degree", "6"],
                 ["betti", *S2_CUBED, "--char", "generic"],
                 ["betti", *S2_CUBED, "--char", "2,1/3,-1,5,3,-2,1/2,7,-3,2,5/4,-1"],
                 ["jumploci", *S2_CUBED]):
        monkeypatch.undo()
        calls = cli_calls(monkeypatch, functions, argv)
        assert calls["complexes.tensor_complex"] == [], argv
    # generic b_2 of S_2^3 is 0, so this certificate is not established
    # (exit 2) and has no spot checks
    monkeypatch.undo()
    calls = record_calls(monkeypatch, functions)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", *S2_CUBED, "--r", "2", "--json"]) == 2
    assert calls["complexes.tensor_complex"] == []


def test_equal_factors_share_one_model():
    # each factor built on its own, so sharing rests on equality, not identity
    model = build_model(direct_product([surface_group(2), surface_group(3),
                                        surface_group(2), surface_group(2)]))
    first, other, third, fourth = model.factors
    assert third is first and fourth is first
    assert other is not first and other.nvars == 6
    assert model.nvars == 18


def test_a_shared_factor_is_pushed_once_per_distinct_block(monkeypatch):
    # S_2, S_3, S_2, S_2: the shared S_2 model under blocks a, b, a gives two
    # pushes of it, one of S_3; the memo keys on the block, not the model alone
    model = build_model(direct_product([surface_group(2), surface_group(3),
                                        surface_group(2), surface_group(2)]))
    a, b = [[1, 0, 0, 1]], [[0, 1, 1, 0]]
    nubar = [a[0] + [1] * 6 + b[0] + a[0]]
    calls = []
    specialize = TwistedComplex.specialize

    def recording(cx, matrix):
        calls.append((cx.nvars, matrix))
        return specialize(cx, matrix)

    monkeypatch.setattr(TwistedComplex, "specialize", recording)
    pushed = model.pushed(nubar)
    assert calls == [(4, a), (6, [[1] * 6]), (4, b)]
    monkeypatch.undo()
    by_factor = reduce(tensor_complex, (f.built.specialize(block)
                                        for f, block in model._blocks(nubar)))
    assert pushed == by_factor
    kernel = model.kernel_homology(nubar)
    assert kernel.to_json_dict() == kernel_homology_univariate(by_factor).to_json_dict()


def test_equal_words_with_different_facts_are_not_shared():
    s2 = surface_group(2)
    parsed = Presentation(s2.generators, s2.relators)
    assert parsed.relators == s2.relators
    model = build_model(direct_product([s2, parsed]))
    assert model.factors[0] is not model.factors[1]
    assert (model.factors[0].aspherical, model.factors[1].aspherical) == (True, False)
    # a graph picks the clique cube complex over the presentation one
    edge = raag(complete_graph(2))
    model = build_model(direct_product([edge, Presentation(edge.generators, edge.relators)]))
    assert model.factors[0] is not model.factors[1]
    # here only the inner factor's graph tells the two products apart
    named = replace(edge, graph=None)
    nested = [direct_product([edge, s2]), direct_product([named, s2])]
    assert nested[0].relators == nested[1].relators and nested[0].name == nested[1].name
    assert nested[0] != nested[1]
    model = build_model(direct_product(nested + [direct_product([edge, s2])]))
    assert model.factors[0] is not model.factors[1]
    assert model.factors[2] is model.factors[0]


def test_presentation_equality_and_hash_include_the_facts():
    s2 = surface_group(2)
    parsed = parse_presentation("gens a1,b1,a2,b2; rel [a1,b1][a2,b2];")
    assert (parsed.generators, parsed.relators) == (s2.generators, s2.relators)
    assert parsed != s2 and len({s2, parsed}) == 2
    products = [direct_product([s2, s2]), direct_product([s2, s2])]
    assert products[0] == products[1] and hash(products[0]) == hash(products[1])
    assert len(set(products)) == 1
    edge = raag(complete_graph(2))
    with_graph, without = (direct_product([f, s2]) for f in (edge, replace(edge, graph=None)))
    assert with_graph.relators == without.relators and with_graph != without


def test_a_cycle_needs_three_vertices():
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="a cycle needs at least 3 vertices"):
            cycle_graph(n)
    assert cycle_graph(3).edges == {(0, 1), (1, 2), (0, 2)}


def test_a_probe_ranks_each_factor_character_once(monkeypatch):
    argv = ["probe", *S2_CUBED, "--r", "3", "--trials", "32", "--seed", "3"]
    calls = cli_calls(monkeypatch, [("complexes", "twisted_betti")], argv)
    ranked = calls["complexes.twisted_betti"]
    monkeypatch.undo()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--json"]) == 0
    samples = json.loads(out.getvalue())["result"]["samples"]
    # the oracle: every factor's slice of every pulled-back sample
    presentation = direct_product([surface_group(2)] * 3)
    model = build_model(presentation)
    nubar = induced_on_free_part(resolve_nu(presentation, "pencil"), model.abelian)
    slices = set()
    for sample in samples:
        rho = Character([Fraction(x) for x in sample["rho"]])
        coords = pullback_character(nubar, rho).coords
        slices.update(coords[i:i + 4] for i in range(0, 12, 4))
    # one shared factor complex, ranked once at each distinct slice
    assert all(args[0] is ranked[0][0] for args in ranked)
    assert sorted(args[1].coords for args in ranked) == sorted(slices)
    assert len(slices) < len(samples)


def test_a_product_ranks_each_factor_slice_once_across_repeated_questions(monkeypatch):
    model = build_model(direct_product([surface_group(2)] * 3))
    calls = record_calls(monkeypatch, [("complexes", "twisted_betti")])
    # the first two factors share a slice, so a fresh product ranks two
    rho = Character((2, 3, -1, 5, 2, 3, -1, 5, 7, 1, 1, 2))
    first = [model.betti(rho), model.betti(GENERIC)]
    assert [model.betti(rho), model.betti(GENERIC)] == first
    asked = [args[1] for args in calls["complexes.twisted_betti"]]
    assert len(asked) == 3
    assert set(asked) == {Character((2, 3, -1, 5)), Character((7, 1, 1, 2)), GENERIC}


@pytest.mark.parametrize("argv", [
    ["certify", *S2_CUBED, "--r", "3"],
    ["probe", *S2_CUBED, "--r", "3", "--trials", "4"],
    ["kernel", "--preset", "product-surface", "--genus", "2,2"],
    ["oracle", "--preset", "product-surface", "--genus", "2,2"],
    ["window", "--preset", "product-surface", "--genus", "2,2", "--nu", "ones",
     "--radius", "1"],
], ids=["certify", "probe", "kernel", "oracle", "window"])
def test_each_query_validates_its_map_once(monkeypatch, argv):
    # the CLI only builds the images; the map is validated where it enters
    # the library, and a preset's default onto Z^2 ('pencil') that a
    # command onto Z replaces is never validated
    calls = cli_calls(monkeypatch, [("presentations", "validate_epimorphism")], argv)
    assert len(calls["presentations.validate_epimorphism"]) == 1


def test_raag_presentations():
    assert raag(edgeless_graph(2)).relators == ()
    k3 = raag(complete_graph(3))
    assert len(k3.relators) == 3
    c4 = raag(cycle_graph(4))
    assert len(c4.relators) == 4
    v = [Word.generator(i) for i in range(4)]
    assert commutator(v[0], v[1]) in c4.relators


def test_bestvina_brady():
    data = bestvina_brady(cycle_graph(4))
    assert data.connected
    assert data.nu.images == ((1,),) * 4
    disconnected = bestvina_brady(edgeless_graph(3))
    assert not disconnected.connected


def test_bb_c4_kernel_infinite_in_degree_two():
    data = bestvina_brady(cycle_graph(4))
    report = kernel_homology_univariate(all_ones_complex(cycle_graph(4)))
    assert report.entries[2].infinite_dimensional
    assert data.presentation.aspherical


def test_bb_complete_graphs_are_finite_kernels():
    # Z^n kernels are FP: no degree may show positive free rank
    for n in (2, 3, 4):
        report = kernel_homology_univariate(all_ones_complex(complete_graph(n)))
        assert [e.degree for e in report.entries if e.infinite_dimensional] == []


def test_flag_complex_examples():
    c4 = flag_complex(cycle_graph(4))
    assert reduced_homology(c4) == (0, 1)
    assert reduced_homology(flag_complex(complete_graph(3))) == (0, 0, 0)
    two_edges = parse_graph_text("v 4\ne 0 1\ne 2 3\n")
    assert reduced_homology(flag_complex(two_edges)) == (1, 0)


def _maximal_cliques_pairwise(graph):
    """Every clique that lies in no larger one, by comparing every pair."""
    cliques = [c for group in graph.cliques()[1:] for c in group]
    return tuple(sorted(c for c in cliques
                        if not any(set(c) < set(d) for d in cliques if len(d) > len(c))))


def test_flag_complex_facets_are_the_maximal_cliques():
    rng = random.Random(41)
    isolated = parse_graph_text("v 5\ne 0 1\ne 1 2\ne 0 2\ne 2 3\n")  # 4 is isolated
    assert flag_complex(isolated).facets == ((0, 1, 2), (2, 3), (4,))
    graphs = [edgeless_graph(0), complete_graph(1), isolated]
    for _ in range(30):
        n, p = rng.randint(1, 14), rng.random()
        graphs.append(Graph.from_edges(n, [e for e in combinations(range(n), 2)
                                           if rng.random() < p]))
    for graph in graphs:
        complex_ = flag_complex(graph)
        assert complex_.facets == _maximal_cliques_pairwise(graph), graph
        # every simplex is a face of a facet, and every face of a facet is one
        faces = {face for f in complex_.facets
                 for k in range(1, len(f) + 1) for face in combinations(f, k)}
        assert faces == {s for group in complex_.simplices() for s in group}


@pytest.mark.parametrize("command", [
    ["oracle"], ["alexander"], ["certify", "--r", "2"], ["probe", "--r", "2", "--trials", "4"],
    ["kernel"], ["window", "--nu", "ones", "--radius", "1"], ["betti"], ["jumploci"]],
    ids=lambda command: command[0])
@pytest.mark.parametrize("group", [["--preset", "product-surface", "--genus", "2,2"],
                                   ["--preset", "product-free", "--ranks", "2,3"]],
                         ids=["product-surface", "product-free"])
def test_no_product_is_abelianized(monkeypatch, command, group):
    # a product's H_1 and its 2-complex come from its factors' models, in
    # every command; only a factor is abelianized or given a 2-complex
    calls = cli_calls(monkeypatch, [("presentations", "abelianize"),
                                    ("complexes", "presentation_complex")],
                      [command[0], *group, *command[1:]])
    asked = [args[0] for recorded in calls.values() for args in recorded]
    assert asked and not any(p.factors for p in asked)


@pytest.mark.parametrize("command", [
    ["certify", "--r", "2"], ["probe", "--r", "2", "--trials", "4"], ["kernel"],
    ["window", "--nu", "ones", "--radius", "1"], ["jumploci"], ["betti"]],
    ids=lambda command: command[0])
@pytest.mark.parametrize("group", [["--preset", "product-surface", "--genus", "2,2"],
                                   ["--preset", "product-free", "--ranks", "4,4"]],
                         ids=["product-surface", "product-free"])
def test_no_commutator_is_built_where_none_is_read(monkeypatch, command, group):
    # each factor relator is built once by the catalog and shifted once
    # into the product; the 16 commutators are never built.  jumploci's
    # minors are refused by their count (8 generators, 18 and 16 relators),
    # so it never assembles the Alexander matrix either
    stored = len(_preset(*group).stored_relators)
    calls = cli_calls(monkeypatch, [("words", "Word.__init__")],
                      [command[0], *group, *command[1:]])
    assert len(calls["words.Word.__init__"]) <= 2 * stored


@pytest.mark.parametrize("group", [["--preset", "product-surface", "--genus", "2,2"],
                                   ["--preset", "product-free", "--ranks", "4,4"]],
                         ids=["product-surface", "product-free"])
def test_the_oracle_rewrites_every_commutator(group):
    # the Schreier side rewrites every relator, the derived commutators
    # included, exactly as it rewrites the product's relators built in full
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["oracle", *group, "--nu", "first", "--json"]) == 0
    p = _preset(*group)
    eager = Presentation(p.generators, _eager_relators(p.factors))
    nu = resolve_nu(p, "first")
    expected = finite_cover_oracle(eager, nu).to_json_dict()
    assert json.loads(out.getvalue())["result"]["subgroup_relators"] == \
        expected["subgroup_relators"]
    assert len(eager.relators) == len(p.stored_relators) + 16


def test_raag_complex_shapes():
    assert all_ones_complex(cycle_graph(4)).ranks == (1, 4, 4)
    single = all_ones_complex(edgeless_graph(1))
    assert single.ranks == (1, 1)
    assert single.differentials[0].to_text_rows() == [["t1 - 1"]]
    assert all_ones_complex(complete_graph(3)).ranks == (1, 3, 3, 1)


def test_raag_model_agrees_with_tensor_route():
    # C_4's group is F_2 x F_2: homology must agree degree by degree as
    # module invariants (free rank and the runs of invariant factors)
    cube = kernel_homology_univariate(all_ones_complex(cycle_graph(4)))
    p = direct_product([free_group(2), free_group(2)])
    model = build_model(p)
    nu = validate_epimorphism(p, [(1,)] * 4)
    tensor = kernel_homology_univariate(
        model.complex.specialize(induced_on_free_part(nu, model.abelian)))
    assert len(cube.entries) == len(tensor.entries)
    for e_cube, e_tensor in zip(cube.entries, tensor.entries):
        assert e_cube.free_rank == e_tensor.free_rank
        assert e_cube.torsion == e_tensor.torsion


def test_raag_k3_kernel_is_Z2():
    report = kernel_homology_univariate(all_ones_complex(complete_graph(3)))
    dims = [None if e.free_rank else e.torsion_dimension for e in report.entries]
    assert dims == [1, 2, 1, 0]


def test_octahedron_is_triple_product_shape():
    graph = octahedron_graph()
    assert raag_chain_model(graph).ranks == (1, 6, 12, 8)
    report = kernel_homology_univariate(all_ones_complex(graph))
    assert report.entries[3].infinite_dimensional
    assert not report.entries[2].infinite_dimensional


def test_pencil_numerology_examples():
    data = pencil_numerology([2, 2, 2])
    assert data.branch_sizes == (2, 2, 2)
    assert data.critical_points == 8
    assert data.euler_x == -8
    assert data.to_json_dict()["finiteness_verdict"] == "F_2 but not FP_3"
    assert all(entry["ok"] for entry in data.riemann_hurwitz_audit())
    assert data.homotopy_module_note()["critical_points"] == 8

    data4 = pencil_numerology([2, 2, 2, 2])
    assert data4.critical_points == 16
    assert data4.euler_x == 16
    assert data4.to_json_dict()["finiteness_verdict"] == "F_3 but not FP_4"

    data2 = pencil_numerology([3, 2])
    assert data2.critical_points == 8
    assert data2.to_json_dict()["finiteness_verdict"] is None
    assert data2.to_json_dict()["flags"]


def test_pencil_rejects_small_genus():
    with pytest.raises(GenusTooSmall):
        pencil_numerology([2, 1])
    with pytest.raises(ValueError):
        pencil_numerology([2])


def test_riemann_hurwitz_audit_up_to_genus_ten():
    for g in range(2, 11):
        data = pencil_numerology([g, g])
        assert all(entry["ok"] for entry in data.riemann_hurwitz_audit())
        assert data.branch_sizes == (2 * g - 2,) * 2


def test_graph_text_roundtrip():
    g = parse_graph_text("# comment\nv 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n")
    assert g.nverts == 4
    assert g.edges == cycle_graph(4).edges


def test_a_second_v_line_is_refused_at_its_line():
    # a second vertex count would silently replace the first, as a second
    # gens statement would in the presentation language
    with pytest.raises(PresentationSyntaxError, match="line 3, column 1: duplicate v line"):
        parse_graph_text("v 3\ne 0 1\nv 5\n")
