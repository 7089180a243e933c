"""Reference invariant factors over Q[t, t^-1], one summand at a time.

The shipped ``charvar.lmatrix._invariant_factors`` takes runs, (order,
multiplicity) pairs, and swaps min(c, k) copies of two runs at once.  Here
every summand enters the chain on its own, so the tests can compare the
two chains on any multiset of orders.
"""

from charvar.lmatrix import univariate_divmod, univariate_gcd


def invariant_factors(orders) -> tuple:
    """The invariant factors of the sum of the Lambda/(x), x in ``orders``
    monic with nonzero constant term: an ascending divisibility chain
    without units.  Each x enters from the top by the swaps Lambda/(d) (+)
    Lambda/(x) = Lambda/(lcm) (+) Lambda/(gcd), carrying the gcd down until
    it is a unit or equals the entry it meets."""
    chain = []
    for x in orders:
        j = len(chain)
        while j and not x.is_unit():
            d = chain[j - 1]
            if x == d:
                break
            g = univariate_gcd(d, x)
            if g == x:  # every copy of d stays
                while j and chain[j - 1] == d:
                    j -= 1
                continue
            chain[j - 1] = univariate_divmod(d * x, g)[0]
            x, j = g, j - 1
        if not x.is_unit():
            chain.insert(j, x)
    return tuple(chain)


def expand(runs) -> list:
    """Each order of ``runs`` once per copy, in order."""
    return [x for x, k in runs for _ in range(k)]
