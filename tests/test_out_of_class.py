"""Out-of-class ground truth: direct products with S3, Q8 and D4 against a naive predicate.

The inputs are the direct products, up to 64 elements, of every group of the
census to order 10 (the corpus's S3, Z2^3 and D5 among them) with S3, Q8 and
D4; then S3, Q8, D4, S4 and S4 x Z2 themselves. S4 and S4 x Z2 have the
non-abelian derived subgroup A4. Each is paired with a relabelled copy of its
table. `naive_in_class` decides from first principles whether a group is a
coprime cyclic extension of an abelian group. Exactly where it says no,
`isomorphic` raises NotInClassError and `grpext isomorphic` exits 2, in both
orders; everywhere else gamma is `naive_gamma` and the pair is isomorphic by
an exhaustively verified witness, in both orders.
"""

import random

import pytest

from corpus import (
    census,
    closure,
    cyclic_table_spec,
    dihedral_table,
    direct_product,
    naive_gamma,
    naive_in_class,
    quaternion_table,
    relabel,
    symmetric_table,
    write_table,
)
from grpext import cli
from grpext.blackbox import table_group
from grpext.decomp import standard_decomposition
from grpext.errors import NotInClassError
from grpext.iso import isomorphic, verify_isomorphism


def _inputs():
    factors = [symmetric_table(3), quaternion_table(), dihedral_table(4)]
    products = [
        direct_product(G, K)
        for n, G in census(10)
        for K in factors
        if n * len(closure(K, K.generators)) <= 64
    ]
    S4 = symmetric_table(4)
    return products + factors + [S4, direct_product(S4, table_group(cyclic_table_spec(2), name="Z2"))]


def test_products_and_s4_are_out_of_class_exactly_where_the_naive_predicate_says(tmp_path, capsys):
    inputs = _inputs()
    outside = 0
    for i, G in enumerate(inputs):
        H = relabel(G, random.Random(i))
        paths = [tmp_path / f"{i}-g.grp", tmp_path / f"{i}-h.grp"]
        write_table(paths[0], G)
        write_table(paths[1], H)
        in_class = naive_in_class(G)
        outside += not in_class
        for (X, Y), argv in (((G, H), paths), ((H, G), paths[::-1])):
            code = cli.main(["isomorphic", *map(str, argv), "--verify", "exhaustive"])
            assert code == (0 if in_class else 2), G.name
            if not in_class:
                assert capsys.readouterr().err.startswith("error no "), G.name
                with pytest.raises(NotInClassError):
                    isomorphic(X, Y)
                continue
            capsys.readouterr()
            assert standard_decomposition(X).gamma == naive_gamma(G), G.name
            witness = isomorphic(X, Y).witness
            assert verify_isomorphism(witness, mode="exhaustive"), G.name
    assert (len(inputs), outside) == (76, 65)


def test_the_naive_predicate_holds_on_the_census_to_order_47():
    assert all(naive_in_class(G) for _, G in census(47))
