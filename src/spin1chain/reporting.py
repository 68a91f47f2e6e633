"""Deterministic CSV/JSON artifact writers and the run manifest.

All floating-point output is printed with 17 significant digits so rerun
artifacts are byte-identical; manifests carry everything needed to
reproduce a run (command, inputs, parameters, seed, tool version) and
deliberately no timestamps.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__


_FLOAT = "%.17g"


def fmt(x):
    """Render a float with 17 significant digits (bit-stable round trip)."""
    return _FLOAT % float(x)


def write_csv(path, header, rows):
    """Write a header line, then one line of ``fmt``-rendered values per row.

    ``rows`` is a 2-d array or any iterable of equal-length rows.  The whole
    table is rendered by one %-format, byte-identical to ``fmt`` per value.
    """
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows),
                       dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if table.size:
            line = ",".join([_FLOAT] * table.shape[1]) + "\n"
            fh.write(line * table.shape[0] % tuple(table.ravel().tolist()))


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility sidecar written next to every CLI artifact."""

    command: str
    spec_path: str | None
    parameters: dict
    outputs: tuple
    seed: int | None
    version: str = __version__

    def write(self, path):
        write_json(path, asdict(self))
        return path


def resolve_output_dir(explicit=None):
    """Output directory: --output-dir flag, else $SPIN1CHAIN_OUTPUT_DIR, else cwd."""
    out = explicit or os.environ.get("SPIN1CHAIN_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out
