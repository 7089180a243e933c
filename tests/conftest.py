import contextlib
import importlib
import io
import random
import sys
from fractions import Fraction

import charvar.cli
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

