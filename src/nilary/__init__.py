"""Finite-ring workbench.

Build small rings from Cayley tables, enumerate their ideal lattices,
classify ideals against the nilary family of predicates (completely
nilary, weakly (p-)nilary, (p-)nilary, primary, completely
prime/semiprime) with concrete witnesses, and verify the accompanying
propositions over a ring corpus.
"""

from .classify import (
    PREDICATE_NAMES,
    PropertyReport,
    Verdict,
    Witness,
    classify_ideal,
    classify_ring,
    clear_caches,
    full_report,
    ideal_product,
    is_completely_left_primary,
    is_completely_nilary,
    is_completely_prime,
    is_completely_right_primary,
    is_completely_semiprime,
    is_left_primary,
    is_nilary,
    is_p_left_primary,
    is_p_nilary,
    is_p_right_primary,
    is_prime_ideal,
    is_right_primary,
    is_semiprime_ideal,
    is_weakly_nilary,
    is_weakly_nilary_onesided,
    is_weakly_p_nilary,
    power_chain,
    ring_context,
    some_power_contained,
)
from .corpus import CorpusConfig, build_builtin_corpus, build_rings, builtin_specs
from .hunt import HuntMatch, HuntQuery, parse_query, run_hunt
from .ideals import (
    KINDS,
    LEFT,
    RIGHT,
    TWO_SIDED,
    Ideal,
    IdealLattice,
    element_power_in,
    enumerate_ideals,
    enumerate_ideals_bruteforce,
    ideal_generated_by,
    ideal_sum,
    is_commutative,
    make_quotient,
    principal_ideal,
    zero_ideal,
)
from .replay import replay_report, replay_verdict
from .rings import (
    Characteristic,
    Ring,
    SizeCapError,
    ValidationReport,
    characteristic,
    element_is_nilpotent,
    element_powers,
    make_direct_sum,
    make_matrix_ring,
    make_upper_triangular,
    make_zero_mul,
    make_zn,
    matrix_entry_index,
    validate_ring,
)
from .specs import RingSpecError, load_ring_file, parse_ring_spec, write_ring_file
from .theorems import CASE_IDS, CASES, TheoremResult, Violation, run_all

__version__ = "0.1.0"
