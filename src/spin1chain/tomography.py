"""One-end chain tomography from first-site measurement records.

The pipeline mirrors what an experiment limited to the first site can do:
initialize an up (or down) excitation on site 1, record the survival
amplitude f(t) = <e1| exp(i s H_band t) |e1> on a uniform time grid,
retrieve the band eigenvalues and their first-site overlap weights by the
matrix-pencil method, and rebuild the unique Jacobi (tridiagonal) matrix
with that spectral data by a Lanczos recurrence.  The up band yields
|a_i| and B_i + C_i, the down band |b_i| and C_i - B_i, which disentangle
into the field profiles B and C.

Only coupling magnitudes are recoverable; signs must be known by
assumption.  Probability-only records determine eigenvalue gaps and
weight products, not absolute energies - that diagnostic lives in
:func:`probability_mode_analysis`.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .hamiltonians import down_block, engineered_sigma_block, up_block
from .linalg import eig_hermitian
from .reporting import write_csv

CHANNELS = ("up", "down")
MODES = ("amplitude", "probability")


@dataclass(frozen=True)
class MeasurementRecord:
    """First-site record: times plus amplitudes f(t) or probabilities |f(t)|^2."""

    times: np.ndarray
    values: np.ndarray
    channel: str
    mode: str
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.mode == "probability":
            vals = np.asarray(self.values, dtype=float)
            if np.any((vals < -1e-12) | (vals > 1 + 1e-12)):
                raise ValueError("probabilities must lie in [0, 1]")
        else:
            vals = np.asarray(self.values, dtype=complex)
            if self.shots is None and np.any(np.abs(vals) > 1 + 1e-9):
                raise ValueError("survival amplitudes must satisfy |f| <= 1")
        object.__setattr__(self, "values", vals)

    def grid_step(self, rtol=1e-9):
        steps = np.diff(self.times)
        dt = float(steps[0])
        if np.any(np.abs(steps - dt) > rtol * max(dt, 1.0)):
            raise ValueError("record does not have a uniform time grid")
        return dt


@dataclass(frozen=True)
class SpectralData:
    """Band eigenvalues with squared first-site overlaps, ascending."""

    eigenvalues: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        evals = np.asarray(self.eigenvalues, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if evals.shape != wts.shape or evals.ndim != 1:
            raise ValueError("eigenvalues and weights must be matching 1-d arrays")
        order = np.argsort(evals)
        object.__setattr__(self, "eigenvalues", evals[order])
        object.__setattr__(self, "weights", wts[order])
        if np.any(self.weights < -1e-9):
            raise ValueError("weights must be nonnegative")
        if abs(float(np.sum(wts)) - 1.0) > 1e-8:
            raise ValueError("weights must sum to 1")


def band_matrix(spec, channel):
    if channel == "up":
        return up_block(spec)
    if channel == "down":
        return down_block(spec)
    raise ValueError(f"unknown channel {channel!r}")


def band_spectral_data(spec, channel):
    """Ground-truth eigenvalues and first-site weights of one band."""
    es = eig_hermitian(band_matrix(spec, channel))
    weights = np.abs(es.eigenvectors[0, :]) ** 2
    return SpectralData(es.eigenvalues, weights)


def synthesize_record(spec, channel, mode, times, shots=None, seed=None):
    """Simulate a first-site measurement record for an engineered chain.

    Amplitude mode returns f(t) (with ``shots``, the real and imaginary
    parts are each estimated from a binomial interference measurement of
    ``shots`` trials per point); probability mode returns |f(t)|^2
    (with ``shots``, binomially sampled counts).
    """
    times = np.asarray(times, dtype=float)
    sd = band_spectral_data(spec, channel)
    f = kernels.phase_series(sd.eigenvalues, sd.weights.astype(complex), times,
                             float(spec.time_sign))
    if mode == "amplitude":
        values = f
        if shots is not None:
            rng = np.random.default_rng(seed)
            p_re = np.clip((1 + f.real) / 2, 0.0, 1.0)
            p_im = np.clip((1 + f.imag) / 2, 0.0, 1.0)
            re = 2 * rng.binomial(int(shots), p_re) / shots - 1
            im = 2 * rng.binomial(int(shots), p_im) / shots - 1
            values = re + 1j * im
    elif mode == "probability":
        values = np.abs(f) ** 2
        if shots is not None:
            rng = np.random.default_rng(seed)
            values = rng.binomial(int(shots), np.clip(values, 0.0, 1.0)) / shots
    else:
        raise ValueError(f"mode must be one of {MODES}")
    return MeasurementRecord(times=times, values=values, channel=channel, mode=mode,
                             shots=shots, seed=seed)


# ---------------------------------------------------------------------------
# matrix-pencil harmonic retrieval
# ---------------------------------------------------------------------------

def matrix_pencil(values, dt, order=None, t_start=0.0, sign=1, sv_tol=1e-8):
    """Frequencies and complex weights of y_k = sum_j w_j exp(i*sign*E_j*(t0+k*dt)).

    Hankel data matrix with pencil parameter L = K // 2; the signal
    subspace comes from the top ``order`` right singular vectors and the
    shifted pencil's eigenvalues give the unit-circle poles.  When
    ``order`` is None it is chosen from the singular-value profile
    (relative threshold ``sv_tol``).  Returns (E ascending, weights,
    diagnostics dict).
    """
    y = np.asarray(values, dtype=complex)
    K = y.shape[0]
    L = K // 2
    if K < 4:
        raise ValueError("need at least 4 samples for the pencil")
    hank = np.empty((K - L, L + 1), dtype=complex)
    for m in range(K - L):
        hank[m, :] = y[m:m + L + 1]
    _, svals, vh = np.linalg.svd(hank)
    if order is None:
        order = int(np.sum(svals > svals[0] * sv_tol))
        order = max(order, 1)
    if order > min(hank.shape) - 1:
        raise ValueError(f"model order {order} too large for {K} samples")
    diagnostics = {
        "singular_values": svals,
        "sv_ratio": float(svals[order - 1] / svals[0]),
        "ill_conditioned": bool(svals[order - 1] / svals[0] < sv_tol),
        "order": int(order),
    }
    w = vh[:order, :]
    poles = np.linalg.eigvals(np.linalg.pinv(w[:, :-1].T) @ w[:, 1:].T)
    angles = np.angle(poles)
    diagnostics["nyquist_margin"] = float(np.pi - np.max(np.abs(angles)))
    diagnostics["aliasing_risk"] = bool(np.max(np.abs(angles)) > 0.995 * np.pi)
    energies = sign * angles / dt
    # least-squares weights against the unit-modulus model (poles are
    # projected onto the unit circle; Hermitian dynamics guarantees it)
    tgrid = t_start + dt * np.arange(K)
    vand = np.exp(1j * sign * np.outer(tgrid, energies))
    weights, *_ = np.linalg.lstsq(vand, y, rcond=None)
    order_idx = np.argsort(energies)
    return energies[order_idx], weights[order_idx], diagnostics


def extract_spectrum(record, order, sv_tol=1e-8):
    """Recover band eigenvalues and first-site weights from an amplitude record.

    The record is modeled as f(t) = sum_j w_j exp(+i E_j t) (records taken
    with the opposite exponent sign must be conjugated first, as
    :func:`full_tomography` does).  Requires a uniform grid satisfying the
    sampling bound max|E| * dt < pi (violations surface as an aliasing
    flag).  Weights are renormalized to sum 1; a weight below -1e-9 is
    flagged as unphysical.
    """
    if record.mode != "amplitude":
        raise ValueError("spectral extraction needs an amplitude-mode record")
    if record.times.size < 4 * order:
        raise ValueError(f"need at least {4 * order} samples for model order {order}")
    dt = record.grid_step()
    energies, weights, diagnostics = matrix_pencil(
        record.values, dt, order=order, t_start=float(record.times[0]), sv_tol=sv_tol)
    weights = weights.real
    diagnostics["negative_weight"] = bool(np.any(weights < -1e-9))
    diagnostics["weight_sum"] = float(np.sum(weights))
    weights = np.clip(weights, 0.0, None)
    weights = weights / np.sum(weights)
    return SpectralData(energies, weights), diagnostics


def jacobi_reconstruct(spectral_data, weight_floor=1e-10, gap_floor=1e-10):
    """Unique Jacobi matrix with the given spectrum and first-row weights.

    Runs the Lanczos three-term recurrence on diag(E) seeded with the
    vector sqrt(w) (fully reorthogonalized).  Returns (diagonal,
    off-diagonal) with positive off-diagonals.  Repeated eigenvalues make
    the problem non-unique and are rejected, as are weights that vanish
    (a decoupled chain) or fall below ``weight_floor``.
    """
    evals = spectral_data.eigenvalues
    wts = spectral_data.weights
    m = evals.shape[0]
    if m > 1 and np.min(np.diff(evals)) < gap_floor:
        raise ValueError("repeated eigenvalues: the Jacobi matrix is not unique")
    k_min = int(np.argmin(wts))
    if wts[k_min] <= 0.0:
        raise ValueError(
            f"the first-site overlap weight of eigenvalue index {k_min} is zero: the chain "
            "decouples, or the record does not resolve that level; either way the far "
            "section is invisible from site 1")
    if wts[k_min] < weight_floor:
        raise ValueError(
            f"smallest first-site weight {wts[k_min]:.2e} (eigenvalue index {k_min}) is "
            f"below the weight floor {weight_floor:.0e}: the far section of the chain "
            "is below the weight the floor resolves")
    q = np.sqrt(wts)
    q = q / np.linalg.norm(q)
    basis = np.zeros((m, m))
    basis[:, 0] = q
    diag = np.zeros(m)
    off = np.zeros(max(m - 1, 0))
    for k in range(m):
        u = evals * basis[:, k]
        diag[k] = basis[:, k] @ u
        if k == m - 1:
            break
        u = u - diag[k] * basis[:, k]
        if k > 0:
            u = u - off[k - 1] * basis[:, k - 1]
        u -= basis[:, :k + 1] @ (basis[:, :k + 1].T @ u)
        norm = np.linalg.norm(u)
        if norm < 1e-13:
            raise ValueError("Lanczos breakdown: spectral data is inconsistent")
        off[k] = norm
        basis[:, k + 1] = u / norm
    return diag, off


@dataclass(frozen=True)
class TomographyResult:
    """Estimated chain parameters with per-channel fit residuals."""

    a_abs: np.ndarray
    b_abs: np.ndarray
    B: np.ndarray
    C: np.ndarray
    residuals: dict
    diagnostics: dict

    def to_json_dict(self):
        return {
            "a_abs": list(map(float, self.a_abs)),
            "b_abs": list(map(float, self.b_abs)),
            "B": list(map(float, self.B)),
            "C": list(map(float, self.C)),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "diagnostics": {
                k: {kk: _json_scalar(vv) for kk, vv in v.items()} if isinstance(v, dict)
                else _json_scalar(v)
                for k, v in self.diagnostics.items()
            },
        }


def _json_scalar(v):
    if isinstance(v, np.ndarray):
        return [float(x) for x in v]
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    return v


def _channel_estimate(record, order):
    sd, diagnostics = extract_spectrum(record, order)
    diag, off = jacobi_reconstruct(sd)
    model = kernels.phase_series(sd.eigenvalues, sd.weights.astype(complex),
                                 record.times, 1.0)
    residual = float(np.max(np.abs(model - record.values)))
    diagnostics["fit_residual"] = residual
    return diag, off, residual, diagnostics


def tomography_from_records(record_up, record_down, order, extra_diagnostics=None):
    """Parameter estimation from one amplitude record per excitation channel.

    Records must follow the exp(+iEt) convention.  The up channel yields
    the couplings |a_i| and diagonals B_i + C_i, the down channel |b_i| and
    C_i - B_i; the field profiles follow as half sum and half difference.
    """
    for rec, channel in ((record_up, "up"), (record_down, "down")):
        if rec.mode != "amplitude":
            raise ValueError(
                "tomography requires amplitude records; probability records only "
                "determine eigenvalue gaps (see probability_mode_analysis)")
        if rec.channel != channel:
            raise ValueError(f"expected a {channel}-channel record, got {rec.channel}")
    d_up, a_abs, res_up, diag_up = _channel_estimate(record_up, order)
    d_down, b_abs, res_down, diag_down = _channel_estimate(record_down, order)
    diagnostics = {"up": diag_up, "down": diag_down}
    if extra_diagnostics:
        diagnostics.update(extra_diagnostics)
    return TomographyResult(
        a_abs=a_abs,
        b_abs=b_abs,
        B=(d_up - d_down) / 2.0,
        C=(d_up + d_down) / 2.0,
        residuals={"up_fit": res_up, "down_fit": res_down},
        diagnostics=diagnostics,
    )


def full_tomography(hidden_spec, times, mode="amplitude", shots=None, seed=None):
    """End-to-end parameter estimation treating ``hidden_spec`` as unknown.

    Only the synthesized measurement records are consumed downstream.
    Both excitation channels are processed independently; the band
    diagonals combine into B_i = (d_up - d_down)/2, C_i = (d_up + d_down)/2.
    Probability-mode records cannot fix absolute energies, so this
    entry point requires amplitude mode.
    """
    if mode != "amplitude":
        raise ValueError(
            "full tomography requires amplitude records; probability records "
            "only determine eigenvalue gaps (see probability_mode_analysis)")
    seeds = {"up": seed, "down": None if seed is None else seed + 1}
    records = {}
    for ch in CHANNELS:
        rec = synthesize_record(hidden_spec, ch, "amplitude", times, shots=shots,
                                seed=seeds[ch])
        # time_sign is a known convention of the record, not an unknown:
        # undo it so extraction always sees exp(+iEt)
        values = rec.values if hidden_spec.time_sign == 1 else np.conj(rec.values)
        records[ch] = MeasurementRecord(times=rec.times, values=values, channel=ch,
                                        mode="amplitude", shots=shots, seed=seeds[ch])
    return tomography_from_records(
        records["up"], records["down"], hidden_spec.n,
        extra_diagnostics={"shots": shots if shots is not None else 0,
                           "seed": seed if seed is not None else -1},
    )


# ---------------------------------------------------------------------------
# record files
# ---------------------------------------------------------------------------

def write_record_csv(record, path):
    """Write a record as CSV: header ``t,re,im`` (amplitude) or ``t,p`` (probability)."""
    if record.mode == "amplitude":
        write_csv(path, ("t", "re", "im"),
                  np.column_stack((record.times, record.values.real, record.values.imag)))
    else:
        write_csv(path, ("t", "p"), np.column_stack((record.times, record.values)))
    return path


def read_record_csv(path, channel, shots=None):
    """Read a record CSV; the mode is inferred from the header row.

    Pass the ``shots`` used to take the data when it is shot-sampled, so
    the statistical |f| <= 1 violations of amplitude records are accepted.
    A row whose field count differs from the header's raises ValueError
    naming its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        numbered = [(number, line.strip().split(","))
                    for number, line in enumerate(fh, start=2) if line.strip()]
    if header not in ("t,re,im", "t,p"):
        raise ValueError(f"unrecognized record header {header!r}; expected 't,re,im' or 't,p'")
    width = header.count(",") + 1
    for number, fields in numbered:
        if len(fields) != width:
            raise ValueError(f"{path}, line {number}: {len(fields)} fields where the header "
                             f"{header!r} has {width}")
    rows = [fields for _, fields in numbered]
    times = np.array([float(r[0]) for r in rows])
    if header == "t,re,im":
        mode, values = "amplitude", np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    else:
        mode, values = "probability", np.array([float(r[1]) for r in rows])
    return MeasurementRecord(times=times, values=values, channel=channel, mode=mode,
                             shots=shots)


@dataclass(frozen=True)
class GapReport:
    """Distinct eigenvalue gaps and pair-weight amplitudes from |f(t)|^2.

    ``gaps`` are the recovered distinct nonzero |E_j - E_k| values;
    ``pair_weights`` the corresponding sums of w_j * w_k over pairs at that
    gap; ``dc`` the zero-frequency component sum_j w_j^2.  Assigning
    absolute eigenvalues from gaps alone is not attempted.
    """

    gaps: tuple
    pair_weights: tuple
    dc: float
    diagnostics: dict = field(default_factory=dict)


def probability_mode_analysis(record, gap_tol=1e-6, sv_tol=1e-7):
    """Retrieve the gap structure of a recurrence-probability record.

    |f(t)|^2 = sum_{j,k} w_j w_k cos((E_j - E_k) t) is a real harmonic
    signal whose frequencies are the spectral gaps; the retrieval folds
    the +-frequency pairs and reports one-sided amplitudes (sum of
    w_j w_k per distinct gap).
    """
    if record.mode != "probability":
        raise ValueError("gap analysis needs a probability-mode record")
    dt = record.grid_step()
    energies, weights, diagnostics = matrix_pencil(
        record.values.astype(complex), dt, order=None,
        t_start=float(record.times[0]), sv_tol=sv_tol)
    gaps = {}
    dc = 0.0
    for e, w in zip(energies, weights.real):
        if abs(e) * dt < gap_tol:
            dc += w
            continue
        key = None
        for g in gaps:
            if abs(abs(e) - g) < gap_tol * max(1.0, g):
                key = g
                break
        if key is None:
            gaps[abs(e)] = w
        else:
            gaps[key] += w
    ordered = sorted(gaps)
    # each distinct gap appears as a +- pair; the one-sided pair weight is
    # half of the summed cosine amplitude
    return GapReport(
        gaps=tuple(float(g) for g in ordered),
        pair_weights=tuple(float(gaps[g] / 2.0) for g in ordered),
        dc=float(dc),
        diagnostics=diagnostics,
    )
