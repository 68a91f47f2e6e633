import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import spin1chain

# n = 9 full-space cases run in a child process under this address-space
# limit: without the dense cap they ask numpy for a 5.8 GiB matrix, which
# then fails with MemoryError instead of exhausting the machine's memory
CHILD_ADDRESS_SPACE = 3 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.fixture
def run_limited():
    """Run ``python -c code *args`` under the address-space limit, killed after ``timeout``
    seconds (subprocess.TimeoutExpired); returns the CompletedProcess."""
    src = str(Path(spin1chain.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(code, *args, timeout=300):
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env=env, preexec_fn=_limit_address_space, timeout=timeout)

    return run
