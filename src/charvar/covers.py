"""Index-2 subgroup presentations by Reidemeister-Schreier rewriting.

For a surjection nu: G -> Z, the preimage of 2Z has index 2; its ordinary
first Betti number must equal the sum of the twisted first Betti numbers of
G at the two characters factoring through Z/2.  That identity is an
independent consistency check on the whole Fox-calculus pipeline: its left
side is computed here from scratch with no Laurent machinery (Schreier
rewriting of every relator and an integer rank), and only its right side
reads the chain model (``build_model``): its H_1 and its twisted Betti
numbers, which on a product come from the factors by Kunneth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import build_model
from .errors import NotUnivariate
from .intlinalg import integer_rank
from .laurent import Character
from .presentations import (EpimorphismToZm, Presentation, induced_on_free_part,
                            validate_epimorphism)
from .words import Word


@dataclass(frozen=True)
class CoverReport:
    subgroup: Presentation
    b1_cover: int
    b1_trivial_character: int
    b1_order2_character: int

    @property
    def consistent(self) -> bool:
        return self.b1_cover == self.b1_trivial_character + self.b1_order2_character

    def to_json_dict(self) -> dict:
        return {
            "subgroup_generators": list(self.subgroup.generators),
            "subgroup_relators": [r.to_text(self.subgroup.generators)
                                  for r in self.subgroup.relators],
            "b1_cover": self.b1_cover,
            "b1_trivial_character": self.b1_trivial_character,
            "b1_order2_character": self.b1_order2_character,
            "consistent": self.consistent,
        }


def index_two_subgroup(presentation: Presentation, nu: EpimorphismToZm) -> Presentation:
    """Presentation of nu^-1(2Z) on the Schreier generators.

    Transversal {1, x0} with x0 any generator of odd image; the trivial
    Schreier pair (1, x0) is discarded, leaving 2n - 1 generators and one
    rewritten relator per relator and coset.
    """
    if nu.target_rank != 1:
        raise NotUnivariate("the index-two subgroup needs a map onto Z")
    parity = [abs(nu.images[i][0]) % 2 for i in range(presentation.ngens)]
    if 1 not in parity:
        raise ValueError("no generator has odd image; map is not onto Z")
    odd = parity.index(1)

    # Schreier generator table: gens[(coset, generator)] -> subgroup index
    names: list[str] = []
    table: dict[tuple[int, int], int | None] = {}
    for coset in (0, 1):
        for g in range(presentation.ngens):
            if coset == 0 and g == odd:
                table[(coset, g)] = None  # the trivial Schreier generator
            else:
                table[(coset, g)] = len(names)
                names.append(f"{presentation.generators[g]}_c{coset}")

    def rewrite(word: Word, start_coset: int) -> Word:
        out = []
        coset = start_coset
        for g, step in word.letters():
            if step == 1:
                idx = table[(coset, g)]
                coset ^= parity[g]
            else:
                coset ^= parity[g]
                idx = table[(coset, g)]
            if idx is not None:
                out.append((idx, step))
        return Word(out)

    relators = []
    for r in presentation.relators:
        for coset in (0, 1):
            rewritten = rewrite(r, coset)
            if not rewritten.is_identity():
                relators.append(rewritten)
    return Presentation(tuple(names), tuple(relators))


def finite_cover_oracle(presentation: Presentation, nu: EpimorphismToZm) -> CoverReport:
    """Check b_1(index-2 subgroup) = b_1(G, trivial) + b_1(G, order-2).

    The left side is ordinary homology of the Reidemeister-Schreier
    presentation; the right side is the model's twisted b_1 at the two
    characters pulled back from Z -> {+1, -1}, in the model's H_1
    coordinates (a twisted b_1 does not depend on the basis).  Raises as
    ``validate_epimorphism`` does unless nu is onto.
    """
    nu = validate_epimorphism(presentation, nu.images)
    subgroup = index_two_subgroup(presentation, nu)
    exponents = subgroup.exponent_matrix()
    b1_cover = subgroup.ngens - integer_rank(exponents)

    model = build_model(presentation)
    nubar = induced_on_free_part(nu, model.abelian)
    b1 = {v: model.pullback_betti(nubar, Character((v,)))[1] for v in (1, -1)}
    return CoverReport(
        subgroup=subgroup,
        b1_cover=b1_cover,
        b1_trivial_character=b1[1],
        b1_order2_character=b1[-1],
    )
