"""Exact graded S_n-representation data of the coinvariant ring and of
Springer fibers, with equivariant log-concavity and unimodality checks.

All arithmetic is exact integer arithmetic; there is no floating point
anywhere in the package.
"""

__version__ = "0.1.0"

from .combinatorics import (
    Partition,
    charge,
    conjugate,
    centralizer_size,
    dimension,
    enumerate_ssyt,
    enumerate_syt,
    format_partition,
    hook_lengths,
    major_index,
    n_stat,
    parse_partition,
    partitions_of,
)
from .polynomials import IntPoly
from .characters import build_character_table, character_table, character_value
from .graded import (
    build_graded_table,
    check_duality,
    fake_degree_hook,
    fake_degree_projection,
    fake_degree_syt,
    find_nonunimodal_fake_degrees,
    graded_character_poly,
    graded_table,
    poincare_polynomial,
    stabilization_check,
)
from .kronecker import build_kronecker_table, kronecker_coefficient, kronecker_table
from .verify import (
    betti_log_concavity,
    d_vector,
    low_degree_harness,
    tensor_pair_multiplicity,
    verify_d_unimodality,
    verify_flag_log_concavity,
)
from .springer import (
    kostka_foulkes_poly,
    springer_counterexample_search,
    springer_graded_table,
    verify_springer_log_concavity,
)
