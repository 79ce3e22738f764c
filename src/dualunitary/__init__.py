"""Two-qudit dual-unitary gates, their correlation channels, and the ergodic
hierarchy of the brickwork circuits built from them.

Importing the package loads numpy only.  scipy is imported on first use by
the three functions that call it: the spectrum matching of constructions and
the expm kicks of constructions.perturbed_two_unitary and
haar_mc.max_mixing_rate.  No `dualu` command calls them."""

__version__ = "0.1.0"

from .channels import (
    ChannelSpectrum,
    ErgodicReport,
    build_m_minus,
    build_m_plus,
    channel_spectrum,
    check_norm_and_bounds,
    classify_ergodicity,
    classify_gate,
    deflate_trivial,
    inhomogeneous_bound,
    lightcone_correlation_prediction,
)
from .circuit_sim import CircuitConfig, CircuitSimulator, weyl_basis
from .constructions import (
    MRTrace,
    block_channel_forms,
    block_diagonal_gate,
    cat_family,
    cat_fourier_local_lambda1,
    cat_map,
    classify_permutation,
    diagonal_dual_sample,
    enumerate_dual_permutations,
    fixtures,
    mr_iterate,
    mrt_iterate,
    ols_pair,
    permutation_gate,
    two_unitary_permutation,
    unistochastic_reduction,
)
from .haar_mc import (
    MCEstimate,
    avg_mixing_rate,
    avg_norm_power,
    avg_spectral_radius,
    haar_monomial_oracle,
    max_mixing_rate,
    sample_haar,
    substream,
)
from .invariants import (
    DualityClass,
    SchmidtSpectrum,
    classify_duality,
    entangling_power,
    invariants_report,
    mixing_thresholds,
    operator_entanglement,
    operator_entanglement_swapped,
    schmidt_spectrum,
    swap_entanglement,
    threshold_report,
)
from .qubit_exact import (
    cartan_gate,
    ep_cartan,
    general_su2_cubic,
    mu_prime,
    nu_plus_exact,
    nu_prime,
    restricted_v_cubic,
    restricted_w_spectrum,
)
from .tensor_ops import (
    ValidationError,
    gate_from_json,
    gate_to_json,
    max_entangled_vector,
    partial_transpose_t1,
    partial_transpose_t2,
    realign_r1,
    realign_r2,
    sandwich_locals,
    swap_operator,
    unitarity_defect,
    verify_reshuffle_identities,
)
