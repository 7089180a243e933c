"""Alexander matrices: Fox derivatives pushed through an abelian quotient.

The Fox derivative d(w)/d(x_g) is the sum, over the letters x_g^{+-1} of
w, of +u for a letter x_g read after the prefix u and of -u x_g^{-1} for a
letter x_g^{-1} read after u.  Pushed through a quotient q: F -> Z^m, a
prefix u becomes the monomial t^{q(u)}, so one pass over each relator with
a running prefix exponent yields its whole row.  The integral identity
sum_i (dw/dx_i)(x_i - 1) = w - 1 survives the push as d_1 d_2 = 0, which
every ``presentation_complex`` checks.
"""

from __future__ import annotations

from .errors import QuotientInvalid
from .laurent import LaurentPolynomial
from .lmatrix import LaurentMatrix
from .presentations import AbelianData, Presentation


def quotient_images(q: AbelianData, ngens: int) -> list[tuple[int, ...]]:
    """Per-generator images in Z^m under q's projection onto the free part."""
    return [tuple(row[i] for row in q.projection) for i in range(ngens)]


def alexander_matrix(presentation: Presentation, q: AbelianData) -> LaurentMatrix:
    """Relators x generators matrix of pushed-forward Fox derivatives.

    Entry (j, i) is the image of d(r_j)/d(x_i) under Z F -> Lambda induced
    by q's projection onto the free part, which must kill every relator.
    """
    n = presentation.ngens
    images = quotient_images(q, n)
    m = len(images[0]) if images else 0
    rows = []
    for idx, r in enumerate(presentation.relators):
        row: list[dict[tuple[int, ...], int]] = [{} for _ in range(n)]
        prefix = (0,) * m
        for g, step in r.letters():
            after = tuple(a + step * b for a, b in zip(prefix, images[g]))
            # x after u adds +t^q(u); x^-1 after u adds -t^q(u x^-1)
            key = prefix if step == 1 else after
            prefix = after
            terms = row[g]
            terms[key] = terms.get(key, 0) + step
        # the prefix after the last letter is q(r_j)
        if any(prefix):
            raise QuotientInvalid(f"relator {idx} is not killed by the quotient")
        rows.append([LaurentPolynomial(m, terms) for terms in row])
    return LaurentMatrix(m, len(presentation.relators), n, rows)
