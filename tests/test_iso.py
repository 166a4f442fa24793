import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (
    ISOMORPHIC_PAIRS,
    build,
    closure,
    corpus_names,
    cyclic_table_spec,
    dihedral_table,
    expected_isomorphic,
    corpus_entry,
    make_matrix,
    mixed_generators,
    naive_gamma,
    naive_is_isomorphism,
    naive_isomorphic,
    random_generators,
    relabel,
    represent,
    second_presentations,
    semidirect,
    strip_mu,
    walked_order,
    with_generators,
)
from grpext import abelian, autring, iso
from grpext.blackbox import group_pow, table_group
from grpext.decomp import GroupContext, StandardDecomposition, find_decomposition, standard_decomposition
from grpext.errors import InvariantBreachError, MalformedInputError, NotInClassError
from grpext.iso import (
    ABELIAN_MISMATCH,
    GAMMA_MISMATCH,
    NO_CONJUGATING_K,
    IsomorphismWitness,
    build_mu,
    conjugation_action,
    isomorphic,
    verify_isomorphism,
)

IDENT2 = [[1, 0], [0, 1]]


def test_conjugation_action_abelian_is_identity():
    G = semidirect((8, 9), 1, IDENT2)
    sd = standard_decomposition(G)
    action = conjugation_action(sd)
    for block in action.blocks:
        assert block == autring.identity_matrix(block.ptype)


def test_conjugation_action_order21_groups():
    G = build("G21a")
    action = conjugation_action(standard_decomposition(G))
    assert [b.rows for b in action.blocks] == [((2,),)]
    H = build("G21b")
    action = conjugation_action(standard_decomposition(H))
    assert [b.rows for b in action.blocks] == [((4,),)]  # x -> x^{-3} = x^4


@pytest.mark.parametrize("name", corpus_names())
def test_conjugation_action_equals_the_joint_table_reference(name):
    # column i is y g_i y^{-1} decomposed over the whole basis of A in one table
    for G in (build(name), mixed_generators(build(name))):
        sd = standard_decomposition(G)
        basis, y = sd.a_basis, sd.y
        joint = abelian.DecompositionTable(G, basis.elements, basis.orders)
        columns = [joint.decompose(G.mul(G.mul(y, g), G.inv(y))) for g in basis.elements]
        rows = [[column[i] for column in columns] for i in range(len(columns))]
        assert conjugation_action(sd) == autring.blocks_from_rows(basis.orders, rows)


def test_a1009_action_builds_no_table(monkeypatch):
    # the sweep leaves the table over the 1009-part of A on the basis it returns
    G = semidirect((1009,), 1008, [[11]])
    sd = standard_decomposition(G)
    built, real = [], abelian.DecompositionTable.__init__

    def counted(self, H, elements, orders):
        built.append(tuple(elements))
        real(self, H, elements, orders)

    monkeypatch.setattr(abelian.DecompositionTable, "__init__", counted)
    conjugation_action(sd)
    assert built == []


def test_isomorphic_to_itself():
    G = build("G21a")
    result = isomorphic(G, build("G21a"))
    assert result.is_isomorphic and result.witness.k == 1


def test_remark_pair_needs_k_two():
    G, H = build("G21a"), build("G21b")
    result = isomorphic(G, H)
    assert result.is_isomorphic
    assert result.witness.k == 2
    # at the matrix level: (2) is not conjugate to (4), but (4)^2 = (2)
    ptype = autring.PType(7, (1,))
    two = make_matrix(ptype, [[2]])
    four = make_matrix(ptype, [[4]])
    assert autring.conjugacy(two, four, order_cap=3) is None
    assert autring.star_pow(four, 2) == two


def test_remark_pair_mu_is_exhaustively_verified():
    G, H = build("G21a"), build("G21b")
    result = isomorphic(G, H)
    mu = build_mu(result.witness)
    assert mu(G.identity) == H.identity
    y1 = G.parse_element("0;1")
    assert mu(y1) == H.parse_element("0;2")  # y1 -> y2^2 is forced by k = 2
    assert verify_isomorphism(result.witness, mode="exhaustive")


def test_failure_reasons():
    assert isomorphic(build("Z3xZ4"), build("G21a")).failed_condition == GAMMA_MISMATCH
    # same gamma, different abelian type
    assert (
        isomorphic(build("Z9xZ2_inv"), build("swap18")).failed_condition == ABELIAN_MISMATCH
    )
    # same gamma and type, no conjugating power
    assert (
        isomorphic(build("Z3^2xZ4_W"), build("Z3^2xZ4_diag")).failed_condition
        == NO_CONJUGATING_K
    )


def test_witness_satisfies_matrix_condition():
    G, H = build("Z7xZ6_a"), build("Z7xZ6_b")
    result = isomorphic(G, H)
    assert result.is_isomorphic
    m1 = conjugation_action(result.witness.source)
    m2 = conjugation_action(result.witness.target)
    assert result.witness.action == m1  # the relator proof reads M1 from the witness
    m2k = autring.blocks_pow(m2, result.witness.k)
    for x, b1, b2 in zip(result.witness.psi_blocks.blocks, m1.blocks, m2k.blocks):
        assert autring.star_mul(x, b1) == autring.star_mul(b2, x)


@pytest.mark.parametrize(
    "pair",
    [("D7", "D7_table"), ("A4", "A4_table"), ("Z5xZ4_a", "Z5xZ4_b"), ("Z13xZ3_a", "Z13xZ3_b")],
)
def test_isomorphic_pairs_with_mu_verification(pair):
    G, H = build(pair[0]), build(pair[1])
    result = isomorphic(G, H)
    assert result.is_isomorphic
    assert verify_isomorphism(result.witness, mode="exhaustive")


def test_symmetry_on_sample():
    names = ["G21a", "G21b", "Z3xZ4", "A4", "swap18", "Z9xZ2_inv"]
    for a, b in itertools.combinations(names, 2):
        assert isomorphic(build(a), build(b)).is_isomorphic == isomorphic(
            build(b), build(a)
        ).is_isomorphic


def test_agreement_with_oracle_sample():
    names = ["G21a", "G21b", "A4", "A4_table", "Z3xZ4", "Z12_table", "Z5xZ4_a", "Z5xZ4_b"]
    for a, b in itertools.combinations(names, 2):
        got = isomorphic(build(a), build(b)).is_isomorphic
        assert got == naive_isomorphic(build(a), build(b))
        assert got == expected_isomorphic(a, b)


def test_transitivity_within_class():
    a, b, c = build("Z7xZ6_a"), build("Z7xZ6_b"), semidirect((7,), 6, [[5]])
    assert isomorphic(a, b).is_isomorphic
    assert isomorphic(b, c).is_isomorphic
    assert isomorphic(a, c).is_isomorphic


def _with_psi(witness, rows, ptype=None):
    """The witness with its one psi-block replaced by rows, an endomorphism of ptype (by
    default the block's own) that need not be a unit."""
    (block,) = witness.psi_blocks.blocks
    return dataclasses.replace(witness, psi_blocks=autring.AutBlocks((autring.validate_M(ptype or block.ptype, rows),)))


def _identity_blocks(p, exps):
    return autring.AutBlocks((autring.identity_matrix(autring.PType(p, exps)),))


def _refuted_witnesses():
    """(why, witness, modes) for witnesses whose mu is not an isomorphism; each check of
    the proofs refuses one, in the modes listed."""
    both = ("exhaustive", "sampled")
    w21 = isomorphic(build("G21a"), build("G21b")).witness
    w21_self = isomorphic(build("G21a"), build("G21a")).witness
    z3_s3 = semidirect((3, 3), 2, [[1, 0], [0, 2]])
    w_z3_s3 = isomorphic(z3_s3, z3_s3).witness
    (psi,) = w_z3_s3.psi_blocks.blocks
    sheared = [[psi.rows[0][0], (psi.rows[0][1] + 1) % 3], list(psi.rows[1])]
    z3_2 = semidirect((3, 3), 1, [[1, 0], [0, 1]])
    w_z3_2 = isomorphic(z3_2, z3_2).witness
    Z3, Z9 = (table_group(cyclic_table_spec(n)) for n in (3, 9))
    twice_b = abelian.AbelianBasis(Z3, (1, 1), (3, 3))
    z3_ident = _identity_blocks(3, (1,))
    z3_claimed = dataclasses.replace(standard_decomposition(Z3), gamma=2, y=Z3.identity)
    s3 = standard_decomposition(build("S3_table"))
    # Z7 x| Z6 by 2, of order 3, decomposed at m = 6: y of order 6, A = Z7 (its standard
    # gamma is 3, with A = Z14). y -> y^4 keeps the relators but maps onto G21a only
    sd42 = find_decomposition(6, GroupContext(semidirect((7,), 6, [[2]]))).found
    w42 = IsomorphismWitness(1, _identity_blocks(7, (1,)), sd42, sd42, conjugation_action(sd42))
    # <y^2, A> of index 2 in it: y^2 acts on A as G21a's y1 does
    into_42 = dataclasses.replace(sd42, gamma=3, y=group_pow(sd42.G, sd42.y, 2))
    z9 = standard_decomposition(Z9)
    w_z9 = IsomorphismWitness(1, _identity_blocks(3, (2,)), z9, standard_decomposition(z3_2), _identity_blocks(3, (2,)))
    twice_b_target = StandardDecomposition(1, twice_b, Z3.identity)
    return [
        # y1 -> y2^2 onto a second G21a: a bijection that breaks y a y^-1 = a^2
        ("wrong k", dataclasses.replace(w21_self, k=2), both),
        # a psi that no longer commutes with the action
        ("perturbed psi", _with_psi(w_z3_s3, sheared), both),
        # psi = 0 maps G21a onto <y2>: a homomorphism, not one-to-one and not onto
        ("singular psi", _with_psi(w21, [[0]]), both),
        # Z3^2 onto Z3 through a target basis (b, b): a homomorphism onto H, so only
        # the one-to-one check refuses it. The relators hold, as the target is not a
        # decomposition of H: only exhaustive mode refuses it
        ("smaller target", dataclasses.replace(w_z3_2, target=twice_b_target), ("exhaustive",)),
        # G21a onto <y^2, A> of Z7 x| Z6, a target that does not cover H: an injective
        # homomorphism that keeps the relators, so only exhaustive mode's check of H's
        # generators refuses it
        ("larger target", dataclasses.replace(w21, k=1, psi_blocks=_identity_blocks(7, (1,)), target=into_42),
         ("exhaustive",)),
        # y1 = 1 of a Z3 claimed as gamma = 2 maps to y2 of S3: the edge 1 -> 1 y1, and
        # the relator y a y^-1 = a in H, refuse it
        ("identity of T off 1", IsomorphismWitness(1, z3_ident, z3_claimed, s3, z3_ident), both),
        # y1 -> y1^4 of order 3, with gcd(4, 6) = 2: a homomorphism onto Z7 x| Z3
        ("k not prime to gamma", dataclasses.replace(w42, k=4), both),
        # gamma 6 against gamma 3: y1 -> y2 onto G21a, whose y2 acts by 2, not by M1's 4
        ("gamma mismatch", dataclasses.replace(w42, target=w21_self.target), both),
        # G21a into Z7 x| Z6 decomposed at gamma 6: y1 -> y^2 keeps every relator of gamma 3,
        # so the relator proof needs equal gamma, as |H| = gamma |A| is its premise
        ("gamma into a larger H", dataclasses.replace(w21, psi_blocks=_identity_blocks(7, (1,)), target=sd42), both),
        # Z9 onto Z3^2, whose first basis element keeps every relator of the type (9)
        ("type mismatch", w_z9, both),
        # psi over Z_11 maps a to a^7 = 1, a unit mod 11 but not mod 7
        ("psi of another type", _with_psi(w21_self, [[7]], autring.PType(11, (1,))), both),
        # G21b's psi (4) relabelled over Z_11: a bijection of the closure, as the closure
        # reads only the generator images; the moduli 11 against the type (7) refuse it
        ("relabelled psi", _with_psi(w21, w21.psi_blocks.rows, autring.PType(11, (1,))), both),
    ]


def test_verify_isomorphism_detects_bad_maps():
    refused = _refuted_witnesses()
    for mode in ("exhaustive", "sampled"):
        for g, h in (("G21a", "G21b"), ("G21a", "G21a")):
            assert verify_isomorphism(isomorphic(build(g), build(h)).witness, mode=mode)
    for why, witness, modes in refused:
        assert not naive_is_isomorphism(witness.source.G, witness.target.G, strip_mu(witness)), why
        for mode in modes:
            assert not verify_isomorphism(witness, mode=mode), (why, mode)
    with pytest.raises(MalformedInputError, match="unknown verification mode 'bogus'"):
        verify_isomorphism(refused[0][1], mode="bogus")


def test_exhaustive_mode_checks_the_witness_arithmetic_first():
    # psi relabelled over another prime keeps its rows, so the closure alone would map
    # G21a onto G21b; both modes refuse it by arithmetic, with no oracle call
    G, H = build("G21a"), build("G21b")
    witness = isomorphic(G, H).witness
    for p in (11, 13):
        relabelled = _with_psi(witness, witness.psi_blocks.rows, autring.PType(p, (1,)))
        before = (G.operation_count, H.operation_count)
        for mode in ("exhaustive", "sampled"):
            assert not verify_isomorphism(relabelled, mode=mode), (p, mode)
        assert (G.operation_count, H.operation_count) == before


def test_the_proof_refuses_a_decomposition_that_does_not_cover_g():
    # each case: a forged witness that passes the arithmetic, the closure's error, and the
    # relator in G that the relator proof names, or None where the source (y1 = 1, G's
    # generators outside <y1>A1) lies outside the relator proof's premise and only the
    # closure counts
    G, H = build("G21a"), build("G21b")
    witness = isomorphic(G, H).witness
    sd = witness.source
    onto_z7 = dataclasses.replace(witness, target=standard_decomposition(table_group(cyclic_table_spec(7))))
    Z9, S3 = table_group(cyclic_table_spec(9)), build("S3_table")
    z3 = standard_decomposition(table_group(cyclic_table_spec(3)))
    (t1, t2) = [x for x in closure(S3, S3.generators) if x != S3.identity and S3.mul(x, x) == S3.identity][:2]
    klein = standard_decomposition(semidirect((2, 2), 1, IDENT2))
    klein_ident, z3_ident = _identity_blocks(2, (1, 1)), _identity_blocks(3, (1,))
    z9_as_z3 = StandardDecomposition(1, abelian.AbelianBasis(Z9, (1,), (3,)), Z9.identity)
    s3_as_klein = StandardDecomposition(1, abelian.AbelianBasis(S3, (t1, t2), (2, 2)), S3.identity)
    y1_is_1 = dataclasses.replace(sd, gamma=1, y=G.identity)
    ys_are_1 = dataclasses.replace(
        witness, source=dataclasses.replace(sd, y=G.identity), target=dataclasses.replace(witness.target, y=H.identity)
    )
    cases = [
        # <A1> has the 7 elements claimed, and mu maps it onto Z7, but G's generators leave it
        (dataclasses.replace(onto_z7, source=y1_is_1), "outside the closure", None),
        # y1 of order 3 under gamma = 1: the closure passes the 7 elements claimed
        (dataclasses.replace(onto_z7, source=dataclasses.replace(sd, gamma=1)), r"more than \|G\| = 7 ", r"y\^gamma"),
        # y1 = y2 = 1: the closure holds A1's 7 elements of the 21 claimed
        (ys_are_1, r"7 elements, not \|G\| = 21", r"y a_1 y\^-1"),
        # the generator 1 of Z9 claimed of order 3
        (IsomorphismWitness(1, z3_ident, z9_as_z3, z3, z3_ident), r"more than \|G\| = 3 ", r"a_1\^q_1"),
        # two transpositions of S3 claimed as a basis of Z2^2
        (IsomorphismWitness(1, klein_ident, s3_as_klein, klein, klein_ident), r"more than \|G\| = 4 ", r"\[a_1, a_2\]"),
    ]
    for bad, closure_message, relators in cases:
        with pytest.raises(InvariantBreachError, match=closure_message):
            verify_isomorphism(bad, mode="exhaustive")
        if relators is not None:
            with pytest.raises(InvariantBreachError, match=f"relator {relators} fails in G"):
                verify_isomorphism(bad)
    # gamma = 6 claims 42 elements against H's gamma 3: arithmetic refuses it in both modes
    gamma_6 = dataclasses.replace(witness, source=dataclasses.replace(sd, gamma=6))
    before = (G.operation_count, H.operation_count)
    assert not verify_isomorphism(gamma_6) and not verify_isomorphism(gamma_6, mode="exhaustive")
    assert (G.operation_count, H.operation_count) == before
    # an action that is not y1's: the closure does not read it, the relators refuse it
    (block,) = witness.action.blocks
    not_y1s = dataclasses.replace(witness, action=autring.AutBlocks((autring.identity_matrix(block.ptype),)))
    assert verify_isomorphism(not_y1s, mode="exhaustive")
    with pytest.raises(InvariantBreachError, match=r"relator y a_1 y\^-1 fails in G"):
        verify_isomorphism(not_y1s)


def test_every_relabelled_d6_is_out_of_class_against_s3():
    # the sweep's best decomposition of D6 has order 6; the cover proof refuses it,
    # whichever side comes first, before any witness or mu exists
    G, D6 = build("S3_table"), dihedral_table(6)
    for seed in range(200):
        H = relabel(D6, random.Random(seed))
        for pair in ((G, H), (H, G)):
            with pytest.raises(NotInClassError):
                isomorphic(*pair)


def test_verify_isomorphism_sampled_mode(monkeypatch):
    # the default mode is the relator proof: no closure of G and no table over <y>A, and
    # at most 40 oracle calls in all on the order-21 pair
    G, H = build("G21a"), build("G21b")
    witness = isomorphic(G, H).witness
    monkeypatch.setattr(iso, "_prove", lambda w: pytest.fail("the check ran the closure"))
    monkeypatch.setattr(iso, "build_mu", lambda w: pytest.fail("the check factored elements"))
    before = G.operation_count + H.operation_count
    assert verify_isomorphism(witness)
    assert G.operation_count + H.operation_count - before <= 40


def test_each_side_decomposed_once():
    G, H = build("Z3^2xZ4_W"), build("Z3^2xZ4_W")
    result = isomorphic(G, H)
    assert result.is_isomorphic
    # one standard decomposition and one conjugation action per side, nothing more
    for used in (G, H):
        fresh = build("Z3^2xZ4_W")
        conjugation_action(standard_decomposition(fresh))
        assert used.operation_count == fresh.operation_count


def test_alternative_generators_do_not_change_verdicts():
    G = build("swap18")
    alt = with_generators(G, [G.parse_element("1,0;1"), G.parse_element("0,0;1")])
    assert isomorphic(G, alt).is_isomorphic
    assert isomorphic(alt, build("Z9xZ2_inv")).failed_condition == ABELIAN_MISMATCH


def _per_k_conjugacy_search(G, H):
    """Reference k-search: conjugacy on every block for each k coprime with gamma."""
    sd1, sd2 = standard_decomposition(G), standard_decomposition(H)
    gamma = sd1.gamma
    m1 = conjugation_action(sd1)
    m2 = conjugation_action(sd2)
    for k in range(1, gamma + 1):
        if math.gcd(k, gamma) != 1:
            continue
        m2k = autring.blocks_pow(m2, k)
        found = []
        for b1, b2 in zip(m1.blocks, m2k.blocks):
            conj = autring.conjugacy(b1, b2, order_cap=gamma)
            if conj is None:
                break
            found.append(conj)
        else:
            return k, autring.AutBlocks(tuple(found))
    return None


_ISOMORPHIC_CORPUS_PAIRS = sorted(
    {(a, a) for a in corpus_names()}
    | {pair for p in ISOMORPHIC_PAIRS for pair in itertools.permutations(sorted(p))}
)


@pytest.mark.parametrize("pair", _ISOMORPHIC_CORPUS_PAIRS, ids="-".join)
def test_k_search_matches_per_k_conjugacy_loop(pair):
    result = isomorphic(build(pair[0]), build(pair[1]))
    want = _per_k_conjugacy_search(build(pair[0]), build(pair[1]))
    assert result.is_isomorphic
    assert (result.witness.k, result.witness.psi_blocks) == want


# (qs, m, action of G, action of H, k of the reference search or None)
BEYOND_1X1_PAIRS = [
    # irreducible 2x2 block of order 24 (eigenvalues in F_121 outside F_11) against its 7th power
    ((11, 11), 24, [[0, 1], [1, 2]], [[4, 4], [4, 1]], 5),
    # mixed exponents (1, 1, 2): an irreducible 2x2 run and a 1x1 run mod 25; H is a conjugate of its cube
    ((5, 5, 25), 8, [[0, 3, 1], [1, 0, 3], [5, 10, 7]], [[0, 2, 3], [1, 0, 2], [0, 0, 18]], 3),
    # scalar against non-scalar blocks of the same order: no k
    ((11, 11), 10, [[2, 0], [0, 2]], [[2, 0], [0, 4]], None),
]


@pytest.mark.parametrize("qs,m,a,b,k", BEYOND_1X1_PAIRS)
def test_k_search_matches_per_k_conjugacy_loop_beyond_1x1_blocks(qs, m, a, b, k):
    result = isomorphic(semidirect(qs, m, a), semidirect(qs, m, b))
    want = _per_k_conjugacy_search(semidirect(qs, m, a), semidirect(qs, m, b))
    if k is None:
        assert want is None
        assert result.failed_condition == NO_CONJUGATING_K
    else:
        assert want[0] == k
        assert (result.witness.k, result.witness.psi_blocks) == want


def test_k_search_matches_per_k_conjugacy_loop_at_the_last_unit():
    result = isomorphic(semidirect((211,), 210, [[2]]), semidirect((211,), 210, [[106]]))
    want = _per_k_conjugacy_search(semidirect((211,), 210, [[2]]), semidirect((211,), 210, [[106]]))
    assert want[0] == 209
    assert (result.witness.k, result.witness.psi_blocks) == want


def _count_charpolys(monkeypatch):
    """The power k of every BlockDiagGF.charpolys call."""
    powers = []
    real = autring.BlockDiagGF.charpolys

    def charpolys(self, k=1):
        powers.append(k)
        return real(self, k)

    monkeypatch.setattr(autring.BlockDiagGF, "charpolys", charpolys)
    return powers


def test_conflicting_determinant_congruences_answer_no_before_any_power(monkeypatch):
    # 5^k = 3 in F_7* gives k = 5 mod 6, and 2^k = 2 in F_13* gives k = 1 mod 12
    G = semidirect((7, 13), 12, [[3, 0], [0, 2]])
    H = semidirect((7, 13), 12, [[5, 0], [0, 2]])
    assert _per_k_conjugacy_search(G, H) is None
    powers = _count_charpolys(monkeypatch)
    assert isomorphic(G, H).failed_condition == NO_CONJUGATING_K
    assert powers == [1] * 4  # the targets of M1 and the determinants of M2, two blocks each


def test_large_gamma_k_search_evaluates_one_power(monkeypatch):
    # A_p x| Z_{p-1} at p = 1 000 003: 2 is a primitive root, H acts by its 5th power,
    # so k = 5^{-1} mod p - 1; the linear scan made 133 334 charpolys calls here
    p = 1_000_003
    G, H = semidirect((p,), p - 1, [[2]]), semidirect((p,), p - 1, [[32]])
    powers = _count_charpolys(monkeypatch)
    result = isomorphic(G, H)
    assert result.witness.k == 400_001
    # the target and the determinants of M2, the one power scanned, then conjugacy's
    # comparison of its two inputs
    assert powers == [1, 1, 400_001, 1, 1]


def _linear_charpoly_scan(G, H):
    """Reference: the least unit k <= gamma, tried one by one, for which psi(M2)^k has
    the block characteristic polynomials of psi(M1); None when there is none."""
    sd1, sd2 = standard_decomposition(G), standard_decomposition(H)
    gamma = sd1.gamma
    targets = [autring.psi(b).charpolys() for b in conjugation_action(sd1).blocks]
    psi2 = [autring.psi(b) for b in conjugation_action(sd2).blocks]
    for k in range(1, gamma + 1):
        if math.gcd(k, gamma) == 1 and all(v.charpolys(k) == t for v, t in zip(psi2, targets)):
            return k
    return None


@st.composite
def _action_pairs(draw):
    """(qs, m, action of G, action of H), both of order dividing m: diagonal on Z_p x Z_r or
    on Z_p^2, with m odd in some cases so that k may be even, or any 2 x 2 on Z_p^2. H acts
    by a conjugate of a power of G's action, or by one drawn like G's."""
    if draw(st.booleans()):
        p, r, m = draw(st.sampled_from([(5, 7, 12), (7, 11, 30), (11, 13, 60), (7, 13, 3), (7, 19, 9)]))
        r = p if draw(st.booleans()) else r
        qs = (p, r)
        roots = [[v for v in range(1, q) if pow(v, m, q) == 1] for q in qs]

        def action():
            return ((draw(st.sampled_from(roots[0])), 0), (0, draw(st.sampled_from(roots[1]))))

        t = t_inv = ((1, 0), (0, 1))  # conjugation leaves a diagonal action as it is
    else:
        p = draw(st.sampled_from([3, 5, 7]))
        qs, m = (p, p), p * p - 1

        def unit():
            (w, x), (y, z) = rows = [[draw(st.integers(0, p - 1)) for _ in "ab"] for _ in "ab"]
            assume((w * z - x * y) % p)
            return rows

        def action():
            rows = unit()
            assume(autring.mat_pow(rows, m, qs) == autring.mat_pow(rows, 0, qs))
            return rows

        (w, x), (y, z) = t = unit()
        d = pow(w * z - x * y, -1, p)
        t_inv = ((z * d, -x * d), (-y * d, w * d))
    a = action()
    if draw(st.booleans()):
        power = autring.mat_pow(a, draw(st.integers(1, m)), qs)
        b = autring.mat_mul(autring.mat_mul(t, power, qs), t_inv, qs)
    else:
        b = action()
    return qs, m, [list(row) for row in a], [list(row) for row in b]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_action_pairs())
def test_narrowed_k_search_equals_the_linear_charpoly_scan(pair):
    qs, m, a, b = pair
    G, H = semidirect(qs, m, a), semidirect(qs, m, b)
    result = isomorphic(G, H)
    if result.failed_condition in (GAMMA_MISMATCH, ABELIAN_MISMATCH):
        return
    assert (result.witness.k if result.is_isomorphic else None) == _linear_charpoly_scan(G, H)


# the k-search pairs of the kscan-large-gamma benchmark workload: (A, m, action of G, of H)
KSCAN_PAIRS = [((211,), 210, 2, 106), ((1009,), 1008, 11, 367), ((1009,), 1008, 11, 121), ((1019,), 1018, 2, 510)]


@pytest.mark.parametrize("qs,m,a,b", KSCAN_PAIRS)
def test_action_block_orders_from_gamma_match_the_walk(qs, m, a, b):
    for G in (semidirect(qs, m, [[a]]), semidirect(qs, m, [[b]])):
        sd = standard_decomposition(G)
        for block in conjugation_action(sd).blocks:
            walked = walked_order(block, sd.gamma)
            assert autring.matrix_order(block, multiple=sd.gamma) == walked
            assert autring.matrix_order(block, sd.gamma) == walked


def test_a1009_decision_finds_orders_from_gamma(monkeypatch):
    # conjugation_action proved M^gamma = 1, so no order is walked power by power
    counts = {"star_mul": 0, "order_products": 0}
    inside = []
    real_star, real_mat_mul, real_order = autring.star_mul, autring.mat_mul, autring.matrix_order

    def star_mul(*args):
        counts["star_mul"] += 1
        return real_star(*args)

    def mat_mul(*args):
        counts["order_products"] += bool(inside)
        return real_mat_mul(*args)

    def matrix_order(*args, **kwargs):
        inside.append(args)
        try:
            return real_order(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(autring, "star_mul", star_mul)
    monkeypatch.setattr(autring, "mat_mul", mat_mul)
    monkeypatch.setattr(autring, "matrix_order", matrix_order)
    result = isomorphic(semidirect((1009,), 1008, [[11]]), semidirect((1009,), 1008, [[367]]))
    assert result.witness.k == 1007
    assert counts["star_mul"] + counts["order_products"] <= 500


def _count_calls_by_conjugacy(monkeypatch, name):
    """Calls of autring.<name> made inside conjugacy and elsewhere."""
    counts = {"in_conjugacy": 0, "elsewhere": 0}
    inside = []
    real, real_conjugacy = getattr(autring, name), autring.conjugacy

    def counted(*args, **kwargs):
        counts["in_conjugacy" if inside else "elsewhere"] += 1
        return real(*args, **kwargs)

    def conjugacy(*args, **kwargs):
        inside.append(args)
        try:
            return real_conjugacy(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(autring, name, counted)
    monkeypatch.setattr(autring, "conjugacy", conjugacy)
    return counts


def test_a1009_k_search_runs_no_rcf(monkeypatch):
    # 121^k = 11 has no solution in F_1009*, as 11 has even order: no k is tried at all
    counts = _count_calls_by_conjugacy(monkeypatch, "rcf")
    result = isomorphic(semidirect((1009,), 1008, [[11]]), semidirect((1009,), 1008, [[121]]))
    assert result.failed_condition == NO_CONJUGATING_K
    assert counts == {"in_conjugacy": 0, "elsewhere": 0}


@pytest.mark.parametrize(
    "make_pair",
    [
        lambda: (semidirect((1009,), 1008, [[11]]), semidirect((1009,), 1008, [[367]])),
        lambda: (build("G21a"), build("G21b")),
        lambda: (semidirect((25, 31, 31), 3, [[1, 0, 0], [0, 5, 0], [0, 0, 25]]),
                 semidirect((25, 31, 31), 3, [[1, 0, 0], [0, 25, 0], [0, 0, 5]])),
        lambda: (semidirect((11, 11), 24, [[0, 1], [1, 2]]), semidirect((11, 11), 24, [[4, 4], [4, 1]])),
    ],
    ids=["a1009", "G21", "a25-31-31", "a11-11"],
)
def test_no_decision_calls_rcf(monkeypatch, make_pair):
    # conjugacy decides by characteristic polynomials and averages a random endomorphism
    counts = _count_calls_by_conjugacy(monkeypatch, "rcf")
    assert isomorphic(*make_pair()).is_isomorphic
    assert counts == {"in_conjugacy": 0, "elsewhere": 0}


# (G, H, matrix_order calls): two per conjugacy call, one conjugacy call per block of the found k
PROVED_ONCE_PAIRS = [
    (semidirect((1009,), 1008, [[11]]), semidirect((1009,), 1008, [[121]]), 0),  # no k
    (semidirect((25, 31, 31), 3, [[1, 0, 0], [0, 5, 0], [0, 0, 25]]),
     semidirect((25, 31, 31), 3, [[1, 0, 0], [0, 25, 0], [0, 0, 5]]), 4),  # k = 1, two blocks
]


@pytest.mark.parametrize("G,H,calls", PROVED_ONCE_PAIRS, ids=["a1009-no", "a25-31-31"])
def test_decision_finds_block_orders_only_inside_conjugacy(monkeypatch, G, H, calls):
    # conjugation_action proves the action facts once; conjugacy alone checks its precondition
    counts = _count_calls_by_conjugacy(monkeypatch, "matrix_order")
    isomorphic(G, H)
    assert counts == {"in_conjugacy": calls, "elsewhere": 0}


def test_conjugacy_takes_psi_once_per_input(monkeypatch):
    # A 25 31 31, two blocks per side: blocks_from_rows in each load and in each
    # conjugation_action, psi in isomorphic, and per conjugacy call psi of each input
    # and the unit test of its one averaged draw
    calls = []
    real = autring.is_in_R
    monkeypatch.setattr(autring, "is_in_R", lambda u: calls.append(u) or real(u))
    G = semidirect((25, 31, 31), 3, [[1, 0, 0], [0, 5, 0], [0, 0, 25]])
    H = semidirect((25, 31, 31), 3, [[1, 0, 0], [0, 25, 0], [0, 0, 5]])
    assert isomorphic(G, H).witness.k == 1
    assert len(calls) == (2 + 2) + (2 + 2) + (2 + 2) + 2 * 3


def _count_conjugacy_calls(monkeypatch):
    calls = []
    real = autring.conjugacy

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(autring, "conjugacy", counted)
    return calls


@pytest.mark.parametrize(
    "make_pair",
    [
        lambda: (build("G21a"), build("G21b")),
        lambda: (build("Z20xZ3"), build("Z20xZ3")),
        lambda: (semidirect((211,), 210, [[2]]), semidirect((211,), 210, [[106]])),
        lambda: (semidirect((11, 11), 24, [[0, 1], [1, 2]]), semidirect((11, 11), 24, [[4, 4], [4, 1]])),
    ],
)
def test_yes_calls_conjugacy_once_per_action_block(monkeypatch, make_pair):
    calls = _count_conjugacy_calls(monkeypatch)
    result = isomorphic(*make_pair())
    assert result.is_isomorphic
    assert len(calls) == len(result.witness.psi_blocks.blocks)


@pytest.mark.parametrize(
    "make_pair",
    [
        lambda: (build("Z3^2xZ4_W"), build("Z3^2xZ4_diag")),
        # action orders 12 vs 6 with the same gamma: every k is tried and fails
        lambda: (semidirect((13,), 12, [[2]]), semidirect((13,), 12, [[4]])),
        lambda: (semidirect((11, 11), 10, [[2, 0], [0, 2]]), semidirect((11, 11), 10, [[2, 0], [0, 4]])),
    ],
)
def test_no_conjugating_k_never_calls_conjugacy(monkeypatch, make_pair):
    calls = _count_conjugacy_calls(monkeypatch)
    assert isomorphic(*make_pair()).failed_condition == NO_CONJUGATING_K
    assert calls == []


def test_mu_equals_the_strip_reference_on_every_element():
    pairs = [(name, name) for name in corpus_names()]
    for pair in sorted(map(sorted, ISOMORPHIC_PAIRS)):
        pairs += [tuple(pair), tuple(reversed(pair))]
    for a, b in pairs:
        G, H = build(a), build(b)
        witness = isomorphic(G, H).witness
        mu, reference = build_mu(witness), strip_mu(witness)
        for g in closure(G, G.generators):
            assert mu(g) == reference(g), (a, b, g)


def test_build_mu_refuses_a_group_above_the_exhaustive_limit():
    # |G| = 1 017 072: build_mu maps by the closure of G, so it refuses before any product
    G, H = semidirect((1009,), 1008, [[11]]), semidirect((1009,), 1008, [[367]])
    witness = isomorphic(G, H).witness
    before = (G.operation_count, H.operation_count)
    with pytest.raises(MalformedInputError, match="exhaustive verification refused: subgroup has more than 1024"):
        build_mu(witness)
    assert (G.operation_count, H.operation_count) == before


def test_build_mu_refuses_a_map_that_is_not_a_homomorphism():
    # y1 -> y2 from G21a onto G21b breaks y a y^-1 = a^2: an edge of the closure gives
    # an element a second image
    witness = dataclasses.replace(isomorphic(build("G21a"), build("G21b")).witness, k=1)
    with pytest.raises(InvariantBreachError, match="not a homomorphism"):
        build_mu(witness)
    assert not verify_isomorphism(witness, mode="exhaustive")


def test_build_mu_refuses_a_code_outside_g():
    G = build("G21a")
    mu = build_mu(isomorphic(G, build("G21b")).witness)
    assert len({mu(g) for g in closure(G, G.generators)}) == 21
    for code in (21, -1, 10**9):
        with pytest.raises(MalformedInputError, match=f"unknown element code {code}"):
            mu(code)


def test_a_psi_block_off_its_entry_rule_is_refused_by_arithmetic():
    # the 3-part of A has type (3, 9): entry (2,1) of its block must be divisible by 3.
    # ((1, 0), (1, 1)) is a unit mod 3 with the right moduli, so before H's relators
    # only the entry rule refuses it
    G = semidirect((3, 9), 2, IDENT2)
    witness = isomorphic(G, G).witness
    two, three = witness.psi_blocks.blocks
    off_rule = autring.AutMatrix(three.ptype, ((1, 0), (1, 1)))
    assert three.ptype.moduli == (3, 9) and autring.is_in_R(off_rule)
    forged = dataclasses.replace(witness, psi_blocks=autring.AutBlocks((two, off_rule)))
    before = G.operation_count
    assert not verify_isomorphism(forged)
    assert G.operation_count == before
    assert not verify_isomorphism(forged, mode="exhaustive")


def test_exhaustive_verification_maps_each_element_once(monkeypatch):
    # the proof builds mu along its closure, not by build_mu: in G it multiplies each
    # edge x -> x t of the Cayley graph over T = (y1,) + the basis of A1 once, x != 1
    G, H = build("G21a"), build("G21b")
    witness = isomorphic(G, H).witness
    T = (witness.source.y,) + witness.source.a_basis.elements
    edges = sorted((x, t) for x in closure(G, G.generators) if x != G.identity for t in T)
    monkeypatch.setattr(iso, "build_mu", lambda w: pytest.fail("the proof factored elements"))
    products = []
    mul = G.mul
    monkeypatch.setattr(G, "mul", lambda a, b: products.append((a, b)) or mul(a, b))
    assert verify_isomorphism(witness, mode="exhaustive")
    assert sorted(products) == edges
    assert len(edges) == 40


def test_verification_maps_each_element_once(monkeypatch):
    # no proof maps an element by build_mu: the closure builds mu along its edges, and
    # the relators map only y1 and the basis of A1
    witness = isomorphic(build("G21a"), build("G21b")).witness
    monkeypatch.setattr(iso, "build_mu", lambda w: pytest.fail("the proof factored elements"))
    for mode in ("exhaustive", "sampled"):
        assert verify_isomorphism(witness, mode=mode)


def test_verification_multiplies_along_the_cayley_graph_edges():
    # the proof's products: one in G and one in H per edge x -> x t with x != 1 over
    # T = (y1,) + the basis of A1, plus the powers in H that give mu(T)
    G, H = build("G21a"), build("G21b")
    witness = isomorphic(G, H).witness
    sd1, sd2 = witness.source, witness.target
    T = (sd1.y,) + sd1.a_basis.elements
    (psi,) = witness.psi_blocks.blocks
    before = H.operation_count
    group_pow(H, sd2.y, witness.k)
    group_pow(H, sd2.a_basis.elements[0], psi.rows[0][0])
    powers = H.operation_count - before
    edges = len(closure(G, G.generators)) * len(T) - len(T)
    before_g, before_h = G.operation_count, H.operation_count
    assert verify_isomorphism(witness, mode="exhaustive")
    assert (G.operation_count - before_g, H.operation_count - before_h) == (edges, edges + powers)
    assert (edges, powers) == (40, 3)


def test_sampled_verification_above_the_limit_attempts_no_closure(monkeypatch):
    # |G| = 1 017 072: the relator proof runs no closure and builds no table. The draws
    # it replaces factored 20 000 elements through build_mu's table over <y>A
    G, H = semidirect((1009,), 1008, [[11]]), semidirect((1009,), 1008, [[367]])
    witness = isomorphic(G, H).witness
    monkeypatch.setattr(iso, "_prove", lambda w: pytest.fail("the check ran the closure"))
    monkeypatch.setattr(iso, "build_mu", lambda w: pytest.fail("the check factored elements"))
    before = (G.operation_count, H.operation_count)
    assert verify_isomorphism(witness)
    assert G.operation_count - before[0] <= 100 and H.operation_count - before[1] <= 100


@pytest.mark.parametrize("name", sorted(second_presentations()))
def test_second_presentation_is_isomorphic_to_the_first(name):
    # one round of conjugated commutators spans a proper subgroup of G' here,
    # and A_m came out too small for every m
    G, H = second_presentations()[name]
    n = len(closure(H, H.generators))
    assert standard_decomposition(G).group_order == n
    result = isomorphic(G, H)
    assert result.is_isomorphic
    assert verify_isomorphism(result.witness, mode="exhaustive")


def test_relabelled_tables_are_isomorphic_to_the_original():
    rng = random.Random(1)
    wrong = []
    for name in corpus_names():
        if corpus_entry(name).order > 64:
            continue
        G = build(name)
        for i in range(15):
            if not isomorphic(G, relabel(G, rng)).is_isomorphic:
                wrong.append((name, i))
    assert wrong == []


_AT_MOST_64 = [name for name in corpus_names() if corpus_entry(name).order <= 64]


def _decides_yes_at_the_naive_gamma(G, H):
    # and H's decomposition meets the definition: A abelian and normal, |A| * gamma = |H|
    result = isomorphic(G, H)
    assert result.is_isomorphic
    assert verify_isomorphism(result.witness, mode="exhaustive")
    sd = result.witness.target
    assert result.witness.source.gamma == sd.gamma == naive_gamma(H)
    part = set(closure(H, list(sd.a_basis.elements)))
    assert len(part) * sd.gamma == len(closure(H, H.generators))
    basis = sd.a_basis.elements
    assert all(H.mul(a, b) == H.mul(b, a) for a in basis for b in basis)
    assert all(H.mul(H.mul(g, a), H.inv(g)) in part for g in H.generators for a in basis)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(_AT_MOST_64), st.integers(0, 2**32))
def test_random_generating_sets_decide_yes(name, seed):
    _decides_yes_at_the_naive_gamma(build(name), random_generators(name, random.Random(seed)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from([name for name in _AT_MOST_64 if corpus_entry(name).semidirect]),
    st.integers(0, 2**32),
)
def test_ladder_representations_decide_yes(name, seed):
    _decides_yes_at_the_naive_gamma(build(name), represent(name, random.Random(seed)))
