import random

import pytest

from charvar.errors import NotSurjective, RelatorNotKilled, ZeroMap
from charvar.parser import parse_presentation
from charvar.presentations import (abelianize, induced_on_free_part,
                                   validate_epimorphism)
from charvar.constructions import direct_product, free_group, surface_group
from charvar.words import Word
from conftest import random_word


def test_abelianize_genus_two():
    data = abelianize(surface_group(2))
    assert data.torsion_free_rank == 4
    assert data.torsion_invariants == ()


def test_abelianize_torsion():
    p = parse_presentation("gens a; rel a^2;")
    data = abelianize(p)
    assert data.torsion_free_rank == 0
    assert data.torsion_invariants == (2,)


@pytest.mark.parametrize("text,projection,section,torsion", [
    # the first takes the Smith form's divisibility-fix branch
    ("gens a,b,c; rel a^-2 b^4; rel b^6 c^-3;",
     ((2, 1, 2),), ((0,), (1,), (0,)), (6,)),
    ("gens a,b,c; rel a^2 b^3; rel a^-3 b^2 c^5;",
     ((15, -10, 13),), ((-5,), (-5,), (2,)), ()),
])
def test_h1_coordinates_are_pinned(text, projection, section, torsion):
    # the integer Smith form's step order picks these coordinates, and every
    # Alexander polynomial and character the CLI prints is written in them
    data = abelianize(parse_presentation(text))
    assert data.projection == projection
    assert data.section == section
    assert data.torsion_invariants == torsion


def test_abelianize_free_group():
    data = abelianize(free_group(2))
    assert data.torsion_free_rank == 2
    assert data.torsion_invariants == ()


def project(data, vec):
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in data.projection)


def test_projection_kills_relators_exactly():
    p = parse_presentation("gens a,b,c; rel a^2 b^-3 c; rel [a,b] c^5;")
    data = abelianize(p)
    for r in p.relators:
        assert project(data, r.exponent_vector(3)) == (0,) * data.torsion_free_rank


def test_projection_section_identity():
    p = parse_presentation("gens a,b,c; rel a^2 b^4;")
    data = abelianize(p)
    m = data.torsion_free_rank
    # projection composed with section is the identity on Z^m
    for j in range(m):
        col = [data.section[i][j] for i in range(3)]
        assert project(data, col) == tuple(1 if l == j else 0 for l in range(m))


def test_validate_bb_diagonal():
    p = direct_product([free_group(2), free_group(2)])
    nu = validate_epimorphism(p, [(1,)] * 4)
    assert nu.target_rank == 1


def test_validate_genus_two_pattern():
    p = surface_group(2)
    nu = validate_epimorphism(p, [(1, 0), (0, 1), (0, 0), (0, 0)])
    assert nu.of_word(p.relators[0]) == (0, 0)


def test_not_surjective_reports_the_index():
    p = surface_group(1)
    with pytest.raises(NotSurjective) as err:
        validate_epimorphism(p, [(2,), (0,)])
    assert "index 2" in str(err.value)


def test_rank_deficient_images_rejected_without_matrix():
    p = surface_group(2)
    with pytest.raises(NotSurjective) as err:
        validate_epimorphism(p, [(1, 0), (2, 0), (0, 0), (0, 0)])
    assert "rank-1 sublattice" in str(err.value)


def test_zero_map_rejected():
    with pytest.raises(ZeroMap):
        validate_epimorphism(surface_group(1), [(0,), (0,)])


def test_relator_not_killed():
    p = parse_presentation("gens a,b; rel a b;")
    with pytest.raises(RelatorNotKilled) as err:
        validate_epimorphism(p, [(1,), (1,)])
    assert err.value.index == 0


TORSION = parse_presentation("gens a,b,c; rel a^3 b^-3 c^6; rel [b,c];")


@pytest.mark.parametrize("first", [True, False], ids=["TORSIONxS2", "S2xTORSION"])
def test_a_product_reports_the_index_of_its_own_relator(first):
    # a -> 1 leaves TORSION's relator a^3 b^-3 c^6 alive; the product reads
    # only its factors' relators, but reports the index in its own list
    groups = [TORSION, surface_group(2)] if first else [surface_group(2), TORSION]
    p = direct_product(groups)
    a = "a_f1" if first else "a_f2"
    with pytest.raises(RelatorNotKilled) as err:
        validate_epimorphism(p, [(int(g == a),) for g in p.generators])
    assert err.value.index == (0 if first else 1)


def test_a_product_lists_its_factors_relators_first():
    p = direct_product([TORSION, direct_product([surface_group(1)] * 2), free_group(2)])
    shifted, offset = [], 0
    for f in p.factors:
        shifted += [Word((g + offset, e) for g, e in r.syllables) for r in f.relators]
        offset += f.ngens
    assert list(p.relators[:len(shifted)]) == shifted
    # the rest, commutators of two factors' generators, die in every Z^m
    assert all(not any(r.exponent_vector(p.ngens)) for r in p.relators[len(shifted):])


def test_normal_closure_maps_to_zero():
    # products of conjugates of relators always die under a valid map
    p = surface_group(2)
    nu = validate_epimorphism(p, [(1,), (0,), (0, ), (0,)])
    rng = random.Random(23)
    for _ in range(100):
        w = Word.identity()
        for _ in range(rng.randint(1, 4)):
            u = random_word(rng, 4, 8)
            r = p.relators[0] if rng.random() < 0.5 else p.relators[0].inverse()
            w = w * u * r * u.inverse()
        assert nu.of_word(w) == (0,)


def test_induced_map_on_free_part():
    p = surface_group(2)
    nu = validate_epimorphism(p, [(1, 0), (0, 1), (0, 0), (0, 0)])
    data = abelianize(p)
    nubar = induced_on_free_part(nu, data)
    assert len(nubar) == 2 and len(nubar[0]) == 4


def test_product_abelianization_is_blockwise():
    p = direct_product([surface_group(1), surface_group(1)])
    data = abelianize(p)
    assert data.torsion_free_rank == 4
    assert data.projection == ((1, 0, 0, 0), (0, 1, 0, 0),
                               (0, 0, 1, 0), (0, 0, 0, 1))


def _dense_presentation(seed, relators=4, gens="abcdef"):
    """Relators with a random exponent on every generator, in [-4, 4]."""
    rng = random.Random(seed)
    rels = "".join(
        f" rel {' '.join(f'{g}^{rng.randint(-4, 4)}' for g in gens)};"
        for _ in range(relators))
    return parse_presentation(f"gens {','.join(gens)};{rels}")


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("presentation,projection,section", [
    (direct_product([surface_group(2)] * 3), _identity(12), _identity(12)),
    (parse_presentation("gens a,b,c; rel a^3 b^-3 c^6; rel [b,c];"),
     ((1, 1, 0), (-2, 0, 1)), ((0, 0), (1, 0), (0, 1))),
    (parse_presentation("gens x,y; rel x y x y^-1 x^-1 y^-1;"),
     ((1, 1),), ((0,), (1,))),
    (parse_presentation("gens a,t; rel t^-1 a t a^-2;"),
     ((0, 1),), ((0,), (1,))),
    (_dense_presentation(3),
     ((-2613, 1570, 2933, -3495, 669, 513),
      (51827, -31140, -58174, 69321, -13269, -10175)),
     ((0, 0), (188, 1265), (-131, -781), (0, 0), (321, 1272), (-245, -1065))),
], ids=["s2^3", "torsion", "trefoil", "bs12", "dense4x6"])
def test_abelianize_coordinates_are_pinned(presentation, projection, section):
    # U and U^-1 of the integer Smith form fix these, so they move only
    # with its row operations
    data = abelianize(presentation)
    assert data.projection == projection
    assert data.section == section
