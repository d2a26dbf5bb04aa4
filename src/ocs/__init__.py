"""Exact combinatorics of orbit configuration spaces.

Dowling-style posets of partial colored partitions, their Whitney homology,
the generating-function factorization of the collision spectral sequence's
first page, and the rational geometry of generation loci for representation
stability, all in exact integer/rational arithmetic with brute-force
cross-checks at desk scale.
"""

from .errors import CapExceeded, DomainError, InputError
from .groups import (
    GroupTable,
    GSetSpec,
    WreathElement,
    cyclic_group,
    embeds,
    group_from_json,
    group_from_table,
    gset_from_json,
    orbits_and_stabilizers,
    subgroup_table,
)
from .posets import (
    Poset,
    chain_poset,
    connected_components,
    direct_product,
    from_covers,
    induced_subposet,
    is_isomorphic,
    lower_interval,
    mobius,
    poset_from_json,
    poset_to_json,
    proper_part,
)
from .homology import (
    lefschetz_character,
    reduced_homology,
    whitney_homology,
)
from .dowling import (
    DowlingElement,
    DowlingSpec,
    bottom_element,
    build_poset,
    count_elements_species,
    covers_of,
    element_to_string,
    factor_interval,
    parse_element,
    spec_from_json,
    spec_from_orbit_data,
    spec_partition,
    spec_single_point,
    spec_to_json,
    wreath_act,
)
from .series import (
    SpaceInput,
    WeightedSeries,
    bm_betti,
    closed_form_euler,
    e1_series,
    e1_table,
    euler_series,
    main_factor,
    orbit_factor,
    orbit_generator_dim,
    series_exp,
    space_from_json,
)
from .stability import (
    GenerationLocus,
    StabilityReport,
    StabilityStep,
    bottom_step,
    classify_step,
    iterate_report,
    locus_from_space,
    quotient_series,
    verify_generator_bound,
)
from .symrep import (
    ClassFunction,
    character_table,
    decompose,
    partitions_of,
    stable_multiplicity_check,
    whitney_character,
)

__version__ = "0.1.0"
