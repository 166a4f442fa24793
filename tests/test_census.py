"""Every coprime cyclic extension A x| Z_m of order at most 47 against the naive oracles.

The census splits into classes by `isomorphic` against one representative
each. Every "yes" is proved by exhaustive verification of its mu, and every
two representatives of one order are refuted by `naive_isomorphic`, so the
partition by `isomorphic` is the partition into isomorphism classes. gamma is
checked against `naive_gamma` on each representative; a "yes" has already
matched the gamma of its group against that of the representative.
"""

import itertools

from corpus import census, naive_gamma, naive_isomorphic
from grpext.decomp import standard_decomposition
from grpext.iso import build_mu, isomorphic, verify_isomorphism


def test_census_to_order_47_matches_the_naive_oracles():
    groups = census(47)
    reps: dict[int, list] = {}
    for n, G in groups:
        for R in reps.setdefault(n, []):
            result = isomorphic(R, G)
            if result.is_isomorphic:
                assert verify_isomorphism(R, G, build_mu(result.witness), mode="exhaustive"), G.name
                break
        else:
            assert standard_decomposition(G).gamma == naive_gamma(G), G.name
            reps[n].append(G)
    pairs = [pair for same_order in reps.values() for pair in itertools.combinations(same_order, 2)]
    for R, S in pairs:
        assert not naive_isomorphic(R, S), (R.name, S.name)
    assert (len(groups), sum(map(len, reps.values())), len(pairs)) == (323, 113, 156)
