"""Deterministic CSV/JSON artifact writers and the run manifest.

All floating-point output is printed with 17 significant digits so rerun
artifacts are byte-identical; manifests carry everything needed to
reproduce a run (command, inputs, parameters, seed, tool version) and
deliberately no timestamps.

CSV tables are rendered by a numpy kernel whose bytes equal ``%.17g`` per
value.  For ±0 and for finite values with ``1e-280 <= |x| < 1e281`` it
takes the exponent from ``log10``, corrected on the unrounded scaled
value, and the 17 digits ``D = round(|x| * 10**(16 - e))`` from a Dekker
double-double product with ``10**(16 - e)`` held as an exact (hi, lo)
pair, which is accurate to about 1e-14 units.  A value whose remainder
lies within ``TIE_MARGIN`` of a rounding tie, and every value outside that
window (NaN, ±inf, subnormals, the extreme exponents), is rendered by
``%.17g`` itself and written into its place in the row.  Each value is
laid out in a 32-byte field from lookup tables, and its bytes are cut out
of the field by one row of a table of kept columns per (first, last)
column pair.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__


_FLOAT = "%.17g"
# the fallback's format: %.17g of a float64 is at most 24 characters
# ("-2.2250738585072014e-308"), padded here to that width with spaces
_PADDED = "%-24.17g"

# rows rendered per block, which bounds the kernel's scratch arrays
CSV_CHUNK_ROWS = 4096
# |x| window of the kernel: the Dekker split and products neither overflow
# nor underflow inside it
FAST_MIN, FAST_MAX = 1e-280, 1e281
# largest |floor(log10|x|)| inside the window, one estimate error included
_E_MAX = 281
# a scaled value whose remainder is this close to one half goes to %.17g
TIE_MARGIN = 1e-6

# field of one value, 32 bytes wide: columns 0-7 one uint64 from a table
# (the sign, the "0.000" of small numbers, the lead digit and for q >= 0 the
# point), the other 16 digits in columns 8-23 as four uint32-aligned groups
# of 4, then the exponent and the separator, written right after the last
# kept digit
_WIDTH = 32
_LEAD = 7
_EXP_OFFSETS = np.arange(6)  # exponent characters and separator


def _digit_tables():
    """ASCII of every 4-digit group as one uint32, and for the group in place
    i = 0..3 of the 16 digits after the lead, the place (1-16) of its last
    nonzero digit among those 16, or 0 if the group is 0."""
    k = np.arange(10000)
    ascii4 = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    groups = (ascii4 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    zeros = (k % 10 == 0).astype(np.int64) + (k % 100 == 0) + (k % 1000 == 0)
    last = np.where(k > 0, 4 * np.arange(1, 5)[:, None] - zeros, 0)
    return groups, last.astype(np.uint8)


def _split(a):
    """Dekker's split of float64 ``a`` into two 26-bit halves."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


def _prefix_table():
    """Columns 0-7 of a field as one uint64, at ``((min(q, 0) + 4) * 2 + negative)
    * 10 + lead digit``: for q < 0 the sign, "0.", -q - 1 zeros and the lead
    digit in column 7, for q >= 0 the sign, the lead digit in column 6 and the
    point; the columns before the sign are "0" and never kept."""
    prefixes = []
    for small in range(-4, 1):
        for sign in ("", "-"):
            for lead in "0123456789":
                body = f"0.{'0' * (-small - 1)}{lead}" if small < 0 else f"{lead}."
                prefixes.append((sign + body).rjust(8, "0"))
    return np.frombuffer("".join(prefixes).encode(), dtype=np.uint64)


def _pow10_table():
    """``10**(16 - e)`` for ``e`` in ``[-_E_MAX, _E_MAX]`` as the rows (hi, lo,
    split of hi): hi the correctly rounded double, lo the correctly rounded
    remainder."""
    hi, lo = [], []
    for e in range(-_E_MAX, _E_MAX + 1):
        k = 16 - e
        if k >= 0:
            h = float(10 ** k)
            low = float(10 ** k - int(h))
        else:
            q = 10 ** -k
            h = 1 / q
            num, den = h.as_integer_ratio()
            low = (den - num * q) / (den * q)
        hi.append(h)
        lo.append(low)
    hi = np.array(hi)
    return np.stack((hi, np.array(lo)) + _split(hi), axis=1)


def _keep_table():
    """Row ``start * _WIDTH + end`` keeps a field's columns ``start .. end + 1``:
    its first character through the separator that follows the last."""
    start, end = np.divmod(np.arange(_WIDTH * _WIDTH)[:, None], _WIDTH)
    columns = np.arange(_WIDTH)
    return (columns >= start) & (columns <= end + 1)


_GROUPS, _GROUP_LAST = _digit_tables()
_PREFIXES = _prefix_table()
_POW10 = _pow10_table()
_KEEP = _keep_table()


def _scaled(a, e):
    """``a * 10**(16 - e)`` as an unevaluated sum ``p + r``, p a double."""
    hi, lo, hh, hl = _POW10.take(e + _E_MAX, axis=0).T
    p = a * hi
    ah, al = _split(a)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    return p, err + a * lo


def _render(block, field):
    """CSV lines of a 2-d float64 block, every value as ``%.17g``, as uint8.

    ``field`` is a C-ordered uint8 work array of ``block.size`` rows of
    ``_WIDTH`` columns; every column that the lines keep is written first."""
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0
    fast = zero | ((a >= FAST_MIN) & (a < FAST_MAX))
    a = np.where(fast & ~zero, a, 1.0)

    # exponent from log10, corrected on the unrounded scaled value p + r
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, e)
    low = (p - 1e16) + r < 0
    high = (p - 1e17) + r >= 0
    fix = np.flatnonzero(low | high)
    if fix.size:
        e[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], r[fix] = _scaled(a[fix], e[fix])
    whole = np.floor(r)
    frac = r - whole
    fast &= np.abs(frac - 0.5) >= TIE_MARGIN
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e += carry
    digits[zero] = 0

    # the lead digit and the other 16 in groups of 4, each a quotient and a
    # remainder by floor division, which numpy does faster than divmod
    upper = digits // 10 ** 8
    lower = digits - upper * 10 ** 8
    lead = upper // 10 ** 8
    upper -= lead * 10 ** 8
    groups = []
    for half in (upper, lower):
        top = half // 10 ** 4
        groups += [top, half - top * 10 ** 4]
    # the place of the last nonzero digit among the 16, 0 if all are 0
    last = _GROUP_LAST[0][groups[0]]
    for place, group in enumerate(groups[1:], start=1):
        np.maximum(last, _GROUP_LAST[place][group], out=last)

    # %g layout: the prefix puts the lead digit in column 6 and the point
    # after it when q >= 0; digits 1..q move one column left and the point
    # follows digit q
    fixed = (e >= -4) & (e < 17)
    q = np.where(fixed, e, 0)
    small = np.minimum(q, 0)
    neg = np.signbit(x)
    field.view(np.uint64)[:, 0] = _PREFIXES[((small + 4) * 2 + neg) * 10 + lead]
    words = field.view(np.uint32)
    for column, group in enumerate(groups, start=(_LEAD + 1) // 4):
        words[:, column] = _GROUPS[group]
    for c in range(1, q.max() + 1):
        np.copyto(field[:, _LEAD - 1 + c], field[:, _LEAD + c], where=q >= c)
    base = np.arange(0, field.size, _WIDTH)
    flat = field.reshape(-1)
    moved = np.flatnonzero(q > 0)
    flat[base[moved] + _LEAD + q[moved]] = ord(".")
    start = _LEAD - 1 + small - neg
    end = np.where(last > q, _LEAD + last, _LEAD - 1 + q)

    # exponent and separator right after the last kept character
    sep = np.full((rows, cols), ord(","), dtype=np.uint8)
    sep[:, -1] = ord("\n")
    sep = sep.ravel()
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = (_PADDED * slow.size) % tuple(x[slow].tolist())
        chars = np.frombuffer(text.encode(), dtype=np.uint8).reshape(slow.size, -1)
        field[slow, :chars.shape[1]] = chars
        start[slow], end[slow], fixed[slow] = 0, (chars != ord(" ")).sum(axis=1) - 1, True
    flat[base + end + 1] = sep
    sci = np.flatnonzero(~fixed)
    if sci.size:
        mag = np.abs(e[sci])
        hundreds, tens = np.divmod(mag, 100)
        tens, units = np.divmod(tens, 10)
        sign = np.where(e[sci] < 0, ord("-"), ord("+"))
        wide = mag >= 100
        chars = np.stack([np.full(sci.size, ord("e")), sign,
                          np.where(wide, hundreds + ord("0"), tens + ord("0")),
                          np.where(wide, tens, units) + ord("0"),
                          np.where(wide, units + ord("0"), sep[sci]),
                          sep[sci]], axis=1)
        flat[(base[sci] + end[sci] + 1)[:, None] + _EXP_OFFSETS] = chars
        end[sci] += 4 + wide

    return flat[_KEEP[start * _WIDTH + end].ravel()]


def fmt(x):
    """Render a float with 17 significant digits (bit-stable round trip)."""
    return _FLOAT % float(x)


def write_csv(path, header, rows):
    """Write a header line, then one line of ``fmt``-rendered values per row.

    ``rows`` is a 2-d array or any iterable of equal-length rows.  The table
    is rendered ``CSV_CHUNK_ROWS`` rows at a time by the numpy kernel of the
    module docstring, byte-identical to ``fmt`` per value: it covers ±0 and
    ``FAST_MIN <= |x| < FAST_MAX``, and every other value (NaN and ±inf
    included) and every value within ``TIE_MARGIN`` of a rounding tie is
    rendered by ``%.17g`` itself.
    """
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows),
                       dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if table.size:
            # one field for every block: the first write into fresh memory
            # costs several times a later one
            field = np.empty((min(table.shape[0], CSV_CHUNK_ROWS) * table.shape[1], _WIDTH),
                             dtype=np.uint8)
            for i in range(0, table.shape[0], CSV_CHUNK_ROWS):
                block = table[i:i + CSV_CHUNK_ROWS]
                fh.write(_render(block, field[:block.size]))


def json_text(payload):
    """``payload`` as JSON text: indented by 2, keys sorted, newline-terminated."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload):
    """Write ``json_text(payload)`` to ``path`` and return that text."""
    text = json_text(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


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
