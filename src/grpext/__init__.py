"""Isomorphism testing for coprime cyclic extensions of abelian groups."""

from .abelian import AbelianBasis, abelian_basis, element_order
from .autring import (
    AutBlocks,
    AutMatrix,
    BlockDiagGF,
    PType,
    conjugacy,
    enumerate_R,
    is_in_R,
    matrix_order,
    psi,
    star_mul,
    validate_M,
)
from .blackbox import (
    GroupHandle,
    SemidirectGroupSpec,
    TableGroupSpec,
    commutator_generators,
    cyclic_group,
    load_group,
    semidirect_group,
    table_group,
)
from .classes import brute_force_class_count, class_representatives, count_classes
from .decomp import (
    StandardDecomposition,
    find_decomposition,
    standard_decomposition,
)
from .iso import IsoResult, IsomorphismWitness, build_mu, isomorphic, verify_isomorphism

__version__ = "0.1.0"
