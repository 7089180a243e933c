import contextlib
import importlib
import io
import random
import sys
from fractions import Fraction

import charvar.cli
from charvar.complexes import TwistedComplex
from charvar.laurent import LaurentPolynomial
from charvar.lmatrix import LaurentMatrix
from charvar.words import Word


def random_word(rng: random.Random, ngens: int, max_len: int) -> Word:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.randrange(ngens), rng.choice((1, -1))))
    return Word(letters)


def laurent_matrix(nvars: int, rows) -> LaurentMatrix:
    """The matrix with the given rows of Laurent polynomials."""
    rows = [list(r) for r in rows]
    return LaurentMatrix(nvars, len(rows), len(rows[0]) if rows else 0, rows)


def zero_matrix(nvars: int, rows: int, cols: int) -> LaurentMatrix:
    return laurent_matrix(nvars, [[LaurentPolynomial.zero(nvars)] * cols
                                  for _ in range(rows)])


def substitute_exponents(p: LaurentPolynomial, matrix) -> LaurentPolynomial:
    """p under the ring map t^e -> s^(M e) for an integer matrix M (new
    variables x p.nvars), term by term; terms may merge or cancel.  The
    cellwise oracle for ``LaurentMatrix.substitute_exponents``."""
    out: dict = {}
    for exps, coeff in p.terms.items():
        new = tuple(sum(a * e for a, e in zip(row, exps)) for row in matrix)
        out[new] = out.get(new, 0) + coeff
    return LaurentPolynomial(len(matrix), out)


def entrywise_product(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """a b by the plain triple sum over every index, zero entries included:
    the oracle for the packed sparse product and the d o d = 0 check."""
    zero = LaurentPolynomial.zero(a.nvars)
    return LaurentMatrix(a.nvars, a.rows, b.cols, [
        [sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), zero)
         for j in range(b.cols)] for i in range(a.rows)])


def scaled(cx: TwistedComplex, factors) -> TwistedComplex:
    """cx with its j-th differential multiplied by factors[j - 1]; scaling
    by nonzero constants keeps every composite zero."""
    scale = [LaurentPolynomial.constant(cx.nvars, f) for f in factors]
    return TwistedComplex(cx.nvars, cx.ranks, tuple(
        LaurentMatrix(d.nvars, d.rows, d.cols, [[p * s for p in row] for row in d.entries])
        for d, s in zip(cx.differentials, scale)))


def monic_univariate(p: LaurentPolynomial) -> LaurentPolynomial:
    """For one variable: the monic polynomial with nonzero constant term
    that generates the same ideal as p."""
    if not p.terms:
        return p
    lo, _ = p.exponent_range(0)
    shifted = p.shift((-lo,))
    _, lead = shifted.leading()
    return shifted.scale(Fraction(1, lead))


def cli_calls(monkeypatch, functions, argv):
    """Run the CLI with every module binding of each (module, name) in
    ``functions`` wrapped by a recorder, and return the positional
    arguments of every call, per function."""
    calls = {}
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "charvar" or name.startswith("charvar.")]
    for module_name, attr in functions:
        key = f"{module_name}.{attr}"
        original = getattr(importlib.import_module(f"charvar.{module_name}"), attr)
        calls[key] = []

        def recorder(*args, _calls=calls[key], _original=original, **kwargs):
            _calls.append(args)
            return _original(*args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, recorder)
    with contextlib.redirect_stdout(io.StringIO()):
        assert charvar.cli.main(argv + ["--json"]) == 0
    return calls

