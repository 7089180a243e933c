import ast
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, Poly, gcd, symbols

from charvar import jumploci
from charvar.complexes import twisted_betti
from charvar.constructions import build_model, direct_product, free_group, surface_group
from charvar.errors import TooManyMinors
from charvar.jumploci import V1Ideal, is_full_v1, is_full_vr_product, v1_ideal
from charvar.laurent import Character, LaurentPolynomial
from charvar.parser import parse_presentation
from charvar.presentations import Presentation
from charvar.sampling import sample_character
from charvar.words import Word
from conftest import joint_tensor
from test_api_surface import all_definitions, referenced_names


def b1_jumps(p, rho, model=None):
    """Whether rho lies in the degree-one depth-one jump locus of p."""
    model = model or build_model(p)
    return twisted_betti(model.complex, rho).betti[1] >= 1


def test_in_variety_torus_examples():
    p = surface_group(1)
    assert not b1_jumps(p, Character((2, 3)))
    assert b1_jumps(p, Character.trivial(2))


def test_in_variety_genus2_everywhere():
    p = surface_group(2)
    model = build_model(p)
    rng = random.Random(8)
    for _ in range(20):
        rho = sample_character(rng, 4, box=9)
        assert b1_jumps(p, rho, model)
    assert b1_jumps(p, Character.trivial(4), model)


def test_v1_ideal_refuses_too_many_minors_before_the_alexander_matrix(monkeypatch):
    model = build_model(direct_product([surface_group(2), surface_group(3)]))

    def unreachable(*args):
        raise AssertionError("the Alexander matrix was built")

    monkeypatch.setattr(jumploci, "alexander_matrix", unreachable)
    with pytest.raises(TooManyMinors) as err:
        v1_ideal(model, 1)
    assert str(err.value) == "31245500 minors exceeds ceiling 20000"


def test_v1_ideal_torus():
    ideal = v1_ideal(build_model(surface_group(1)), 1)
    assert sorted(g.to_text() for g in ideal.generators) == ["t1 - 1", "t2 - 1"]
    assert ideal.trivial_character_b1 == 2
    assert not ideal.to_json_dict()["zero_ideal"]


def test_v1_ideal_free_group_is_zero_by_shape():
    ideal = v1_ideal(build_model(free_group(2)), 1)
    assert ideal.to_json_dict()["zero_ideal"] and ideal.by_shape
    assert ideal.generators == ()


def test_v1_ideal_genus2_depth2_no_minors():
    ideal = v1_ideal(build_model(surface_group(2)), 2)
    assert ideal.to_json_dict()["zero_ideal"] and ideal.by_shape
    assert ideal.minor_size == 2


def test_v1_ideal_unit_when_depth_too_deep():
    ideal = v1_ideal(build_model(surface_group(1)), 2)
    assert ideal.to_json_dict()["unit_ideal"]


def test_v1_ideal_with_a_unit_minor_is_the_unit_ideal():
    # <a, b | a>: the Alexander matrix is the row (1, 0), whose minor 1 is
    # a unit, so no nontrivial character has b_1 >= 1
    model = build_model(Presentation(("a", "b"), (Word.generator(0),)))
    ideal = v1_ideal(model, 1)
    assert [g.to_text() for g in ideal.generators] == ["1"]
    printed = ideal.to_json_dict()
    assert printed["unit_ideal"] and not printed["zero_ideal"]
    assert not is_full_v1(model).is_full


def test_v1_ideal_of_coprime_generators_in_one_variable_is_the_unit_ideal():
    # neither generator is a unit, but t^2 + t + 1 - t (t + 1) = 1
    model = build_model(parse_presentation("gens a,b; rel a^-1 b b a^-1 b;"))
    printed = v1_ideal(model, 1).to_json_dict()
    assert printed["generators"] == ["t1 + 1", "t1^2 + t1 + 1"]
    assert printed["unit_ideal"] and not printed["zero_ideal"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(any),
                min_size=1, max_size=3))
def test_v1_ideal_in_one_variable_is_unit_exactly_when_the_gcd_is(coefficients):
    gens = tuple(LaurentPolynomial(1, {(e,): c for e, c in enumerate(cs)})
                 for cs in coefficients)
    # the oracle: sympy's gcd over Q[t] of the generators; t is a unit of
    # Q[t, t^-1], so the ideal is the unit ideal exactly when it is a monomial
    t = symbols("t")
    g = reduce(gcd, (Poly(cs[::-1], t, domain=QQ) for cs in coefficients))
    ideal = V1Ideal(gens, 1, 1, by_shape=False)
    assert ideal.to_json_dict()["unit_ideal"] == (len(g.terms()) == 1)


def test_zero_set_consistency():
    # nontrivial rho is in the zero set of the ideal iff b_1 >= t there
    rng = random.Random(15)
    for p in (surface_group(1), surface_group(2)):
        model = build_model(p)
        ideal = v1_ideal(model, 1)
        for _ in range(25):
            rho = sample_character(rng, model.complex.nvars, box=6)
            in_zero_set = all(g.evaluate(rho) == 0 for g in ideal.generators)
            assert in_zero_set == b1_jumps(p, rho, model)


def test_is_full_v1_verdicts():
    full_g2 = is_full_v1(build_model(surface_group(2)))
    assert full_g2.is_full and full_g2.to_json_dict()["method"] == "generic-rank"
    assert full_g2.witness["generic_b1"] == 2

    not_full = is_full_v1(build_model(surface_group(1)))
    assert not not_full.is_full
    assert not_full.status == "not_full"
    assert not_full.witness["generic_b1"] == 0

    full_f2 = is_full_v1(build_model(free_group(2)))
    assert full_f2.is_full


def punctured_curve(genus, punctures):
    """The fundamental group of the genus-g curve with n >= 1 punctures,
    free on a1, b1, ..., ag, bg, p1, ..., p(n-1): rank 2g + n - 1."""
    names = ([f"{x}{i}" for i in range(1, genus + 1) for x in "ab"]
             + [f"p{i}" for i in range(1, punctures)])
    return Presentation(tuple(names), (), name=f"punctured_surface_{genus}_{punctures}",
                        aspherical=True)


CURVE_GROUPS = ([surface_group(g) for g in range(1, 6)]
                + [free_group(k) for k in range(1, 6)]
                + [punctured_curve(g, n)
                   for g, n in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2))])


@pytest.mark.parametrize("p", CURVE_GROUPS, ids=lambda p: p.name)
def test_curve_group_fullness_matches_euler_characteristic(p):
    # a curve group's locus is full exactly when chi < 0, since the twisted
    # Euler characteristic does not depend on the character; the sandwich
    # must reach that verdict on its own, with no symbolic fallback
    model = build_model(p)
    betti = twisted_betti(model.complex, Character.trivial(model.complex.nvars)).betti
    chi = sum((-1) ** j * b for j, b in enumerate(betti))
    verdict = is_full_v1(model)
    route = verdict.witness["route"]
    assert verdict.to_json_dict()["method"] == "generic-rank"
    assert route["name"] == "modular-sandwich" and route["fallback_degrees"] == []
    assert verdict.is_full == (chi < 0)


def test_one_function_owns_the_degree_rule():
    # certify, the probe and the generic-rank verdict all call it
    owners = [f"{module[:-3]}.{qualname}"
              for module, qualname, node in all_definitions()
              if isinstance(node, ast.FunctionDef)
              and any(isinstance(c, ast.Constant) and c.value == "degree r must be >= 1"
                      for c in ast.walk(node))]
    assert owners == ["jumploci.check_degree"]
    callers = {f"{module[:-3]}.{qualname}"
               for module, qualname, node in all_definitions()
               if isinstance(node, ast.FunctionDef)
               and "check_degree" in referenced_names(node, skip=())}
    assert callers == {"jumploci.generic_rank_verdict", "certify.certify_non_fp",
                       "certify.generic_vanishing_probe"}


def test_fullness_soundness_sampled():
    rng = random.Random(44)
    for p in (surface_group(2), free_group(2)):
        model = build_model(p)
        assert is_full_v1(model).is_full
        for _ in range(30):
            rho = sample_character(rng, model.complex.nvars, box=10)
            assert b1_jumps(p, rho, model)
        assert b1_jumps(p, Character.trivial(model.complex.nvars), model)
        order2 = Character((Fraction(-1),) * model.complex.nvars)
        assert b1_jumps(p, order2, model)


def product_model(factors):
    return build_model(direct_product(factors))


def test_is_full_vr_product_verdicts():
    full = is_full_vr_product(product_model([surface_group(2)] * 3), 3)
    assert full.is_full and full.to_json_dict()["method"] == "generic-rank"
    assert full.witness["generic_b3"] == 8
    assert full.witness["route"]["name"] == "kunneth"
    assert all(s["b_r"] >= 1 for s in full.witness["spot_checks"])

    f2_cubed = is_full_vr_product(product_model([free_group(2)] * 3), 3)
    assert f2_cubed.is_full

    # a torus factor has generic profile zero, so the product's is zero
    mixed = is_full_vr_product(
        product_model([surface_group(2), surface_group(1)]), 2)
    assert not mixed.is_full
    assert mixed.status == "not_full"
    assert mixed.witness["generic_b2"] == 0

    # r need not be the number of factors: S_2^3 has generic profile
    # concentrated in degree 3
    below = is_full_vr_product(product_model([surface_group(2)] * 3), 2)
    assert below.status == "not_full" and below.witness["generic_b2"] == 0

    with pytest.raises(ValueError):
        is_full_vr_product(product_model([surface_group(2)] * 3), 0)


def test_product_lower_bound_kunneth():
    rng = random.Random(61)
    factors = [surface_group(2), free_group(2)]
    models = [build_model(f) for f in factors]
    prod = joint_tensor(models[0].complex, models[1].complex)
    for _ in range(10):
        rho = sample_character(rng, prod.nvars, box=5)
        b1a = twisted_betti(models[0].complex, Character(rho.coords[:4])).betti[1]
        b1b = twisted_betti(models[1].complex, Character(rho.coords[4:])).betti[1]
        b2 = twisted_betti(prod, rho).betti[2]
        assert b2 >= b1a * b1b
