"""Full-space memory smoke at n = 7, each kind in a fresh process.

The mirror analyses and both eigensystem self-checks of a 3^7-state chain stay
within the memory of its largest sector: mirror_check, parity_spectrum,
reconstruction_residual and unitarity_deviation must pass and the process must
peak below 400 MB (187 MB for O5 and 51 MB for Heisenberg on numpy 2.4; with the
dense 2187 x 2187 eigenvector matrix and its products they took 543 and 421 MB).
"""

import pytest

FULL_SPACE_N7 = """
import resource, sys
import numpy as np
import spin1chain
from spin1chain.linalg import evolution_cache
ham = spin1chain.chain_hamiltonian(spin1chain.ChainSpec(n=7, kind=sys.argv[1]))
spin1chain.mirror_check(ham, np.pi)
spin1chain.parity_spectrum(ham, kind='chain_mirror')
es = evolution_cache(ham).eigensystem
scale = max(float(np.max(np.abs(ham.values))), 1.0)
checks = es.reconstruction_residual(ham) / scale, es.unitarity_deviation()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(sys.argv[1], checks, f'{peak:.0f} MB')
sys.exit(not (max(checks) < 1e-10 and peak < 400))
"""


@pytest.mark.parametrize("kind", ["O5", "heisenberg"])
def test_full_space_memory_at_n7(kind, run_limited):
    result = run_limited(FULL_SPACE_N7, kind)
    assert result.returncode == 0, result.stdout + result.stderr
