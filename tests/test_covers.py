import pytest

from charvar.covers import finite_cover_oracle, index_two_subgroup
from charvar.constructions import free_group, surface_group
from charvar.errors import NotSurjective, ZeroMap
from charvar.presentations import EpimorphismToZm, validate_epimorphism


def test_f2_cover_is_free_of_rank_three():
    p = free_group(2)
    nu = validate_epimorphism(p, [(1,), (1,)])
    report = finite_cover_oracle(p, nu)
    assert report.subgroup.ngens == 3  # Nielsen-Schreier: 2*2 - 1
    assert report.subgroup.relators == ()
    assert report.b1_cover == 3
    assert (report.b1_trivial_character, report.b1_order2_character) == (2, 1)
    assert report.consistent


def test_torus_cover_is_Z2():
    p = surface_group(1)
    nu = validate_epimorphism(p, [(1,), (0,)])
    report = finite_cover_oracle(p, nu)
    assert report.b1_cover == 2
    assert (report.b1_trivial_character, report.b1_order2_character) == (2, 0)
    assert report.consistent


def test_genus2_cover_is_genus_three():
    p = surface_group(2)
    for images in ([(1,), (0,), (0,), (0,)], [(1,), (1,), (1,), (1,)],
                   [(3,), (2,), (0,), (1,)]):
        nu = validate_epimorphism(p, images)
        report = finite_cover_oracle(p, nu)
        assert report.b1_cover == 6  # unramified double cover has genus 3
        assert report.b1_trivial_character == 4
        assert report.b1_order2_character == 2
        assert report.consistent


def test_subgroup_presentation_counts():
    p = surface_group(2)
    nu = validate_epimorphism(p, [(1,), (0,), (0,), (0,)])
    sub = index_two_subgroup(p, nu)
    assert sub.ngens == 2 * 4 - 1
    assert len(sub.relators) == 2  # one per relator and coset


def test_index_two_needs_odd_generator():
    p = surface_group(1)
    nu = validate_epimorphism(p, [(1,), (0,)])
    # fabricate an even map bypassing validation: ngens=2, both images even
    from charvar.presentations import EpimorphismToZm
    bad = EpimorphismToZm(1, ((2,), (0,)))
    with pytest.raises(ValueError):
        index_two_subgroup(p, bad)
    assert nu.target_rank == 1


@pytest.mark.parametrize("images, error", [
    (((3,), (0,), (0,), (0,)), NotSurjective),
    (((0,),) * 4, ZeroMap),
], ids=["index-3", "zero"])
def test_the_oracle_refuses_a_map_that_is_not_onto(images, error):
    with pytest.raises(error):
        finite_cover_oracle(surface_group(2), EpimorphismToZm(1, images))
