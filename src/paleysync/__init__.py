"""Generalized Paley graphs over GF(p^n): exact clique / independence /
chromatic numbers with certificates, character-sum spectra with the
closed-form Lovasz theta, and a synchronization classifier for the
1-dimensional affine groups generated by translations and power-residue
multiplications."""

from .classify import (
    NON_SYNCHRONIZING,
    SYNCHRONIZING,
    UNKNOWN,
    Classification,
    Reason,
    classify,
    exhaustive_decision,
    fast_paths,
    primitivity,
)
from .errors import (
    BadDivisorError,
    BadInputError,
    DegenerateMError,
    EmptySubsetError,
    InvalidWitnessError,
    NotOddPrimeError,
    NotUndirectedError,
    OracleMismatchError,
    SizeLimitError,
    TooLargeError,
)
from .gf import (
    FieldSpec,
    FieldTables,
    build_field,
    divisors,
    factorize,
    is_prime,
    prime_power,
    subfield_elements,
    subgroup_coset,
)
from .invariants import (
    InvariantCertificate,
    SearchResult,
    brute_force_invariants,
    chromatic_number,
    clique_number,
    independence_number,
    k_colorable,
    paley_certificate,
    product_certificate,
    subfield_clique,
    verify_certificate,
)
from .paley import (
    Graph,
    OrbitalFamily,
    PaleyParams,
    build_paley,
    complement,
    graph_from_edges,
    multiplier_map,
    normalize_params,
    orbital_family,
    relabel,
    union_graph,
    validate_graph,
)
from .spectral import (
    SpectralReport,
    eigen_oracle,
    feasible_clique_sizes,
    gauss_periods,
    theta_pair,
)

__version__ = "0.1.0"
