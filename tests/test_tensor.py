"""The tensor product of chain models equals the textbook lift-and-add
assembly of ``tensor_oracle``, and the d o d = 0 check of every assembled
complex still catches a broken assembly, padded or in a shared ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import charvar.complexes
from charvar.complexes import TwistedComplex, tensor_complex
from charvar.constructions import (build_model, complete_graph, direct_product,
                                   free_group, raag, surface_group)
from charvar.errors import InternalInconsistency
from charvar.laurent import LaurentPolynomial
from charvar.parser import parse_presentation

import tensor_oracle
from conftest import scaled


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
        shipped = tensor_complex(shipped, FACTORS[i])
        oracle = tensor_oracle.tensor_complex(oracle, FACTORS[i])
        assert shipped == oracle


S1_SQUARED = direct_product([surface_group(1)] * 2)


def padded():
    """The product's tensor model over the joint ring."""
    return build_model(S1_SQUARED).complex


def shared_ring():
    """The factors pushed to Z by a map nonzero on every generator, then
    tensored in that ring."""
    return build_model(S1_SQUARED).pushed([[1, 1, 1, 1]])


def unsigned_assembly(monkeypatch):
    # without (-1)^p on the d_B term the cross terms d_A (x) d_B add up
    # instead of cancelling; negation is neutered only inside the assembly
    real = charvar.complexes._tensor

    def unsigned(a, b, padded):
        with monkeypatch.context() as m:
            m.setattr(LaurentPolynomial, "__neg__", lambda p: p)
            return real(a, b, padded)

    monkeypatch.setattr(charvar.complexes, "_tensor", unsigned)


def dropped_d_a_entry(monkeypatch):
    real = charvar.complexes._pad_entries
    asked = []

    def drop_first(d, left, right, nvars):
        columns = real(d, left, right, nvars)
        if not asked:
            # the first columns asked for are the first factor's d_1
            columns[0][0] = LaurentPolynomial.zero(nvars)
        asked.append(d)
        return columns

    monkeypatch.setattr(charvar.complexes, "_pad_entries", drop_first)


def test_dropped_koszul_sign_is_caught(monkeypatch):
    unsigned_assembly(monkeypatch)
    with pytest.raises(InternalInconsistency, match="is nonzero"):
        padded()


def test_dropped_koszul_sign_is_caught_in_a_shared_ring(monkeypatch):
    unsigned_assembly(monkeypatch)
    with pytest.raises(InternalInconsistency, match="is nonzero"):
        shared_ring()


def test_dropped_d_a_entry_is_caught(monkeypatch):
    dropped_d_a_entry(monkeypatch)
    with pytest.raises(InternalInconsistency, match="is nonzero"):
        padded()


def test_dropped_d_a_entry_is_caught_in_a_shared_ring(monkeypatch):
    dropped_d_a_entry(monkeypatch)
    with pytest.raises(InternalInconsistency, match="is nonzero"):
        shared_ring()


def test_unbroken_assemblies_build():
    assert padded().nvars == 4
    assert shared_ring().nvars == 1
