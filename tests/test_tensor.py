"""The tensor product of chain models equals the textbook lift-and-add
assembly of ``tensor_oracle``, and the d o d = 0 proof of every assembled
complex, read against its factors' Koszul structure, still catches a broken
assembly, at both places a product's complex is assembled: its tensor model
and its factors pushed to Z."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import charvar.constructions
from charvar.complexes import TwistedComplex, tensor_complex
from charvar.constructions import (build_model, complete_graph, direct_product,
                                   free_group, raag, surface_group)
from charvar.errors import InternalInconsistency
from charvar.laurent import LaurentPolynomial
from charvar.lmatrix import LaurentMatrix
from charvar.parser import parse_presentation

import tensor_oracle
from conftest import joint_tensor, scaled


# a torsion presentation whose Fox entries carry negative exponents, with
# its differentials rescaled to Fraction coefficients
PARSED = scaled(build_model(parse_presentation(
    "gens a,b,c; rel a^3 b^-3 c^6; rel [b,c];")).complex,
    (Fraction(3, 2), Fraction(-1, 3)))

FACTORS = ([build_model(surface_group(g)).complex for g in (1, 2)]
           + [build_model(free_group(k)).complex for k in range(4)]
           + [build_model(raag(complete_graph(3))).complex,
              TwistedComplex(0, (1,), ()), PARSED])


def test_parsed_factor_has_fractions_and_negative_exponents():
    terms = [t for d in PARSED.differentials for row in d.entries for p in row
             for t in p.terms.items()]
    assert any(isinstance(c, Fraction) for _, c in terms)
    assert any(x < 0 for e, _ in terms for x in e)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(range(len(FACTORS))), min_size=2, max_size=3))
def test_tensor_complex_matches_the_oracle(choice):
    shipped = oracle = FACTORS[choice[0]]
    for i in choice[1:]:
        shipped = joint_tensor(shipped, FACTORS[i])
        oracle = tensor_oracle.tensor_complex(oracle, FACTORS[i])
        assert shipped == oracle


def test_factors_in_different_rings_are_refused():
    with pytest.raises(ValueError, match="factors live in 4 and 2 variables"):
        tensor_complex(FACTORS[1], FACTORS[0])


S1_SQUARED = direct_product([surface_group(1)] * 2)

# the two places a product's complex is assembled, with its variable count:
# the tensor model over the joint ring, and the factors pushed to Z by a
# map nonzero on every generator, then tensored in that ring
CALL_SITES = {
    "tensor-model": (lambda: build_model(S1_SQUARED).complex, 4),
    "pushed": (lambda: build_model(S1_SQUARED).pushed([[1, 1, 1, 1]]), 1),
}


def break_assembly(monkeypatch, broken):
    """Route every product assembly through ``broken``, which takes the
    shipped ``tensor_complex`` and the two factors; ``constructions`` binds
    ``tensor_complex`` by import, so that binding is the one replaced."""
    monkeypatch.setattr(charvar.constructions, "tensor_complex",
                        lambda a, b: broken(tensor_complex, a, b))


def unsigned_assembly(monkeypatch):
    # without (-1)^p on the d_B term the cross terms d_A (x) d_B add up
    # instead of cancelling; negation is neutered only inside the assembly
    def unsigned(real, a, b):
        with monkeypatch.context() as m:
            m.setattr(LaurentPolynomial, "__neg__", lambda p: p)
            return real(a, b)

    break_assembly(monkeypatch, unsigned)


def dropped_d_a_entry(monkeypatch):
    # the assembly reads the first factor's d_1 without its first entry; the
    # stand-in factor skips the d o d = 0 check a TwistedComplex would make
    def drop_first(real, a, b):
        d = a.differentials[0]
        rows = [dict(row) for row in d.sparse_rows]
        del rows[0][min(rows[0])]
        d_1 = LaurentMatrix._from_rows(d.nvars, d.rows, d.cols, rows)
        return real(SimpleNamespace(nvars=a.nvars, ranks=a.ranks, top=a.top,
                                    differentials=(d_1, *a.differentials[1:])), b)

    break_assembly(monkeypatch, drop_first)


@pytest.mark.parametrize("site", CALL_SITES)
def test_dropped_koszul_sign_is_caught(monkeypatch, site):
    unsigned_assembly(monkeypatch)
    with pytest.raises(InternalInconsistency, match="is nonzero"):
        CALL_SITES[site][0]()


@pytest.mark.parametrize("site", CALL_SITES)
def test_dropped_d_a_entry_is_caught(monkeypatch, site):
    dropped_d_a_entry(monkeypatch)
    with pytest.raises(InternalInconsistency, match="is nonzero"):
        CALL_SITES[site][0]()


def test_unbroken_assemblies_build():
    for assemble, nvars in CALL_SITES.values():
        assert assemble().nvars == nvars


def changed_cells(monkeypatch, change):
    """Let ``change`` edit the sparse rows of the assembled differentials
    of every fold, given the fold's factors, before the fold is proven."""
    prove = TwistedComplex.__post_init__

    def changed(cx, factors):
        if factors is not None:
            rows = [[dict(row) for row in d.sparse_rows] for d in cx.differentials]
            change(rows, *factors)
            object.__setattr__(cx, "differentials", tuple(
                LaurentMatrix._from_rows(d.nvars, d.rows, d.cols, r)
                for d, r in zip(cx.differentials, rows)))
        prove(cx, factors)

    monkeypatch.setattr(TwistedComplex, "__post_init__", changed)


# S_1 x S_1 has chain ranks (1, 2, 1) x (1, 2, 1); degree 1 is A_0 (x) B_1
# in columns 0, 1 then A_1 (x) B_0 in columns 2, 3, so cell (0, 0) of d_1 is
# the d_B entry (0, 0) with the sign (-1)^0, in a block with one more
# nonzero cell, (0, 1)
def flip_a_d_b_cell(rows, a, b):
    assert rows[0][0][0] == b.differentials[0].sparse_rows[0][0] and rows[0][0][1].terms
    rows[0][0][0] = -rows[0][0][0]


def drop_a_d_b_cell(rows, a, b):
    assert rows[0][0][0] == b.differentials[0].sparse_rows[0][0]
    del rows[0][0][0]


# row 3 of d_2 is e_1 (x) f_0 in A_1 (x) B_0 and column 1 is e_0 (x) f_0 in
# A_1 (x) B_1: a d_A cell would need the row in A_0 (x) B_1, a d_B cell the
# same e_1, so the cell lies outside every block
def add_a_stray_cell(rows, a, b):
    assert 1 not in rows[1][3]
    rows[1][3][1] = LaurentPolynomial.one(a.nvars)


@pytest.mark.parametrize("change", [flip_a_d_b_cell, drop_a_d_b_cell, add_a_stray_cell],
                         ids=["flipped-d_b-sign", "dropped-d_b-cell", "stray-cell"])
@pytest.mark.parametrize("site", CALL_SITES)
def test_one_changed_cell_is_caught(monkeypatch, site, change):
    changed_cells(monkeypatch, change)
    with pytest.raises(InternalInconsistency, match="is nonzero"):
        CALL_SITES[site][0]()
