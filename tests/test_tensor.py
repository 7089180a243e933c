"""The tensor product of chain models equals the textbook lift-and-add
assembly of ``tensor_oracle``, and the d o d = 0 check of every assembled
complex still catches a broken assembly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import charvar.complexes
import charvar.constructions
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


def test_dropped_koszul_sign_is_caught(monkeypatch):
    # without (-1)^p on the d_B term the cross terms d_A (x) d_B add up
    # instead of cancelling; negation is neutered only inside the build
    real = charvar.complexes.tensor_complex

    def unsigned(a, b):
        with monkeypatch.context() as m:
            m.setattr(LaurentPolynomial, "__neg__", lambda p: p)
            return real(a, b)

    monkeypatch.setattr(charvar.constructions, "tensor_complex", unsigned)
    with pytest.raises(InternalInconsistency, match="is nonzero"):
        build_model(direct_product([surface_group(1)] * 2))


def test_dropped_d_a_entry_is_caught(monkeypatch):
    real = charvar.complexes._pad_entries

    def drop_first(d, left, right, nvars):
        columns = real(d, left, right, nvars)
        if right and d.rows == 1:
            # the first entry of the first factor's d_1
            columns[0][0] = LaurentPolynomial.zero(nvars)
        return columns

    monkeypatch.setattr(charvar.complexes, "_pad_entries", drop_first)
    with pytest.raises(InternalInconsistency, match="is nonzero"):
        build_model(direct_product([surface_group(1)] * 2))
