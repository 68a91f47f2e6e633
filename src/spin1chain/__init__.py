"""Spin-1 chain state-transfer toolkit.

Simulates chains of three-level systems: SWAP-gate construction from the
combined Heisenberg interaction, parity-resolved spectra of candidate
couplings, perfect qutrit transfer through an engineered two-band
Hamiltonian confined to the single-excitation subspace, and one-end
tomography of the chain parameters.
"""

__version__ = "0.1.0"

from .hamiltonians import (  # noqa: F401
    ChainSpec,
    SigmaBasis,
    SpecError,
    chain_hamiltonian,
    candidate_two_site,
    engineered_sigma_block,
    h12,
    heisenberg_two_site,
    mix_two_site,
    project_to_sigma,
    pst_preset,
    sigma_leakage,
    sigma_projector,
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
from .linalg import EvolutionCache, HermitianEigenSystem, eig_hermitian  # noqa: F401
from .parity import (  # noqa: F401
    ParitySplit,
    mirroring_feasibility_report,
    parity_spectrum,
)
from .spin_ops import (  # noqa: F401
    ChainOperator,
    SiteOperator,
    basis_index,
    basis_label,
    embed,
    ladder_identity_check,
    site_operator,
    two_site,
)
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
