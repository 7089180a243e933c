"""Reference invariant factors over Q[t, t^-1], one summand at a time.

The shipped ``charvar.lmatrix._invariant_factors`` takes runs, (order,
multiplicity) pairs, and swaps min(c, k) copies of two runs at once.  Here
every summand enters the chain on its own, so the tests can compare the
two chains on any multiset of orders.  ``kunneth_kernel_homology`` is the
reference for a product's kernel homology: its Kunneth fold over the PID
takes one factor and one summand at a time.
"""

from functools import cache
from itertools import groupby, product

from charvar.complexes import (KernelDegreeEntry, KernelHomologyReport,
                               kernel_homology_univariate)
from charvar.laurent import LaurentPolynomial
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


def kunneth_kernel_homology(pushed) -> KernelHomologyReport:
    """The kernel homology over Lambda of the product of the complexes
    ``pushed``, one per factor copy, each already pushed to one variable:
    each factor's ``kernel_homology_univariate``, folded by Kunneth over
    the PID one factor and one summand at a time.  Lambda/(x) (x)
    Lambda/(y) and Tor(Lambda/(x), Lambda/(y)) are both Lambda/gcd(x, y),
    one degree apart, with Lambda = Lambda/(0) and no Tor for it.  Degrees
    end where the chain ranks of the product end: at the sum of the
    factors' highest degrees with cells."""
    zero = LaurentPolynomial.zero(1)
    gcd = cache(univariate_gcd)
    orders = [[zero]]
    for cx in pushed:
        entries = kernel_homology_univariate(cx).entries
        folded = [[] for _ in range(len(orders) + len(entries))]
        for (p, xs), e in product(enumerate(orders), entries):
            for x, y in product(xs, [zero] * e.free_rank + expand(e.torsion)):
                folded[p + e.degree].append(gcd(x, y))
                if x and y:
                    folded[p + e.degree + 1].append(gcd(x, y))
        orders = folded
    top = sum(max(j for j, c in enumerate(cx.ranks) if c) for cx in pushed)
    return KernelHomologyReport(tuple(
        KernelDegreeEntry(n, degree.count(zero), tuple(
            (x, len(list(copies)))
            for x, copies in groupby(invariant_factors(o for o in degree if o))))
        for n, degree in enumerate(orders[:top + 1])))
