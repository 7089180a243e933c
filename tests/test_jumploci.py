import random
from fractions import Fraction

import pytest

from charvar.complexes import tensor_complex, twisted_betti
from charvar.constructions import (build_model, direct_product, free_group,
                                   punctured_surface_group, surface_group)
from charvar.jumploci import is_full_v1, is_full_vr_product, v1_ideal
from charvar.laurent import Character
from charvar.sampling import sample_character


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


def test_v1_ideal_torus():
    ideal = v1_ideal(build_model(surface_group(1)), 1)
    assert sorted(g.to_text() for g in ideal.generators) == ["t1 - 1", "t2 - 1"]
    assert ideal.trivial_character_b1 == 2
    assert not ideal.zero_ideal


def test_v1_ideal_free_group_is_zero_by_shape():
    ideal = v1_ideal(build_model(free_group(2)), 1)
    assert ideal.zero_ideal and ideal.by_shape
    assert ideal.generators == ()


def test_v1_ideal_genus2_depth2_no_minors():
    ideal = v1_ideal(build_model(surface_group(2)), 2)
    assert ideal.zero_ideal and ideal.by_shape
    assert ideal.minor_size == 2


def test_v1_ideal_unit_when_depth_too_deep():
    ideal = v1_ideal(build_model(surface_group(1)), 2)
    assert ideal.unit_ideal


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
    assert full_g2.is_full and full_g2.method == "generic-rank"
    assert full_g2.witness["generic_b1"] == 2

    not_full = is_full_v1(build_model(surface_group(1)))
    assert not not_full.is_full
    assert not_full.status == "not_full"
    assert not_full.witness["generic_b1"] == 0

    full_f2 = is_full_v1(build_model(free_group(2)))
    assert full_f2.is_full


CURVE_GROUPS = ([surface_group(g) for g in range(1, 6)]
                + [free_group(k) for k in range(1, 6)]
                + [punctured_surface_group(g, n)
                   for g, n in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2))])


@pytest.mark.parametrize("p", CURVE_GROUPS, ids=lambda p: p.tags["name"])
def test_curve_group_fullness_matches_euler_characteristic(p):
    # a curve group's locus is full exactly when chi < 0, since the twisted
    # Euler characteristic does not depend on the character; the sandwich
    # must reach that verdict on its own, with no symbolic fallback
    model = build_model(p)
    betti = twisted_betti(model.complex, Character.trivial(model.complex.nvars)).betti
    chi = sum((-1) ** j * b for j, b in enumerate(betti))
    verdict = is_full_v1(model)
    route = verdict.witness["route"]
    assert verdict.method == "generic-rank"
    assert route["name"] == "modular-sandwich" and route["fallback_degrees"] == []
    assert verdict.is_full == (chi < 0)


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
    assert full.is_full and full.method == "generic-rank"
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
    prod = tensor_complex(models[0].complex, models[1].complex)
    for _ in range(10):
        rho = sample_character(rng, prod.nvars, box=5)
        b1a = twisted_betti(models[0].complex, Character(rho.coords[:4])).betti[1]
        b1b = twisted_betti(models[1].complex, Character(rho.coords[4:])).betti[1]
        b2 = twisted_betti(prod, rho).betti[2]
        assert b2 >= b1a * b1b
