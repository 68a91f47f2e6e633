"""Spin-1 chain state-transfer toolkit.

Simulates chains of three-level systems: SWAP-gate construction from the
combined Heisenberg interaction, parity-resolved spectra of candidate
couplings, perfect qutrit transfer through an engineered two-band
Hamiltonian confined to the single-excitation subspace, and one-end
tomography of the chain parameters.  The names exported here are those that
the command-line interface, the benchmark and the acceptance tests use.
"""

__version__ = "0.1.0"

from .hamiltonians import (  # noqa: F401
    ChainSpec,
    SpecError,
    chain_hamiltonian,
    candidate_two_site,
    engineered_sigma_block,
    heisenberg_two_site,
    mix_two_site,
    project_to_sigma,
    pst_preset,
    sigma_leakage,
    squared_sum_two_site,
    swap_check,
    transfer_couplings,
)
from .dynamics import (  # noqa: F401
    AmplitudeScan,
    amplitude_scan,
    mirror_check,
    qutrit_fidelity_series,
    qutrit_transfer_fidelity,
)
from .linalg import ChainOperator, EvolutionCache, HermitianEigenSystem, eig_hermitian  # noqa: F401
from .parity import ParitySplit, parity_spectrum  # noqa: F401
from .spin_ops import basis_index  # noqa: F401
from .tomography import (  # noqa: F401
    MeasurementRecord,
    SpectralData,
    TomographyResult,
    extract_spectrum,
    full_tomography,
    jacobi_reconstruct,
    probability_mode_analysis,
    read_record_csv,
    synthesize_record,
    tomography_from_records,
    write_record_csv,
)
