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

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels
from .hamiltonians import CHANNELS, band_eigensystem
from .linalg import MAX_DENSE_DIM
from .reporting import write_csv

MODES = ("amplitude", "probability")
# smallest first-site weight a reconstruction accepts
WEIGHT_FLOOR = 1e-10


class AmplitudeBoundError(ValueError):
    """An amplitude record without ``shots`` has a value with |f| > 1."""


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
        if not np.all(np.isfinite(times)):
            raise ValueError("record times must be finite (a NaN or inf is present)")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        vals = np.asarray(self.values, dtype=float if self.mode == "probability" else complex)
        if not np.all(np.isfinite(vals)):
            raise ValueError("record values must be finite (a NaN or inf is present)")
        if self.mode == "probability":
            if np.any((vals < -1e-12) | (vals > 1 + 1e-12)):
                raise ValueError("probabilities must lie in [0, 1]")
        elif self.shots is None and np.any(np.abs(vals) > 1 + 1e-9):
            raise AmplitudeBoundError("survival amplitudes must satisfy |f| <= 1")
        object.__setattr__(self, "values", vals)

    def grid_step(self):
        """The sampling step; steps may differ by 1e-9 relative to max(dt, 1)."""
        steps = np.diff(self.times)
        dt = float(steps[0])
        if np.any(np.abs(steps - dt) > 1e-9 * max(dt, 1.0)):
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


def band_spectral_data(spec, channel):
    """Ground-truth eigenvalues and first-site weights of one band."""
    energies, vectors = band_eigensystem(spec, channel)
    return SpectralData(energies, np.abs(vectors[0]) ** 2)


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

# subspace iteration stops when the top ``order`` singular values change by
# at most this much, relative to the largest, between two iterations
SUBSPACE_TOL = 1e-13
# sketch columns beyond ``order`` (Halko, Martinsson & Tropp 2011)
OVERSAMPLING = 10
# the sketch is fixed, so a rerun gives the same bits
SKETCH_SEED = 20110
# a record whose Hankel matrix has at most this many columns takes the dense
# pencil, whatever its length or noise: the iteration's fixed cost per
# product pair is too large a part of the dense pencil's there (one BLAS
# thread, best of 7 x 200 calls on a 2-vCPU VM: two real pairs cost 0.33 ms
# against the dense pencil's 0.19 ms at K = 64, and 1.2 against 3.8 ms at
# K = 256).  Like every record with ``order`` given, such a record is probed
# first, and the probe picks the dense pencil's Gram or SVD route
DENSE_PENCIL_COLS = 128


def _hankel_product(y_hat, block, rows):
    """``H @ block`` for the ``rows``-row Hankel matrix ``H[m, j] = y[m + j]``.

    ``y_hat`` is ``fft(y)`` and ``rows + block.shape[0] == y.size + 1``, so
    each column is a circular correlation of the record that never wraps:
    O(K log K) per column, and H is never formed.  ``H^H @ u`` is
    ``conj(_hankel_product(y_hat, conj(u), cols))``, since H^T is the
    ``cols``-row Hankel matrix of the same record.
    """
    spread = np.fft.ifft(block, n=y_hat.size, axis=0, norm="forward")
    return np.fft.ifft(y_hat[:, None] * spread, axis=0)[:rows]


# The pencil reads the signal subspace from the forward-backward data matrix
# Z = [X, P conj(X) P] of X = H^T (X[i, m] = y[i + m], L + 1 rows; P the
# exchange matrix).  Poles on the unit circle, which Hermitian dynamics
# gives, make Z centro-Hermitian, and the sparse unitary Q of Unitary ESPRIT
# (Haardt & Nossek 1995) makes it real: with S = sqrt(2) Q^H, the real
# T = [Re(S X), Im(S X)] equals Q^H Z Q' for a unitary Q', so T has Z's
# singular values and S^H u / sqrt(2) turns T's left singular vectors u
# into Z's.  Of S's L + 1 rows, row i < (L + 1) // 2 is e_i + e_{L-i}, the
# middle row (L even) is sqrt(2) e_{L/2}, and the row (L + 1) // 2 + i
# after it is -1j (e_i - e_{L-i}): S and S^H are sums and differences of
# mirrored rows, and T those of mirrored windows of the record.


def _to_real(v):
    """``S @ v`` as (re, im) pairs, for a block ``v`` of L + 1 rows given as
    the (re, im) float pairs of its entries; the [..., 0] part is ``Re(S @ v)``."""
    half, odd = divmod(v.shape[0], 2)
    out = np.empty(v.shape)
    mirror = v[::-1][:half]
    np.add(v[:half], mirror, out=out[:half])
    np.multiply(v[half:half + odd], np.sqrt(2.0), out=out[half:half + odd])
    # -1j (v_i - v_mirror): (Im, -Re) of the difference
    np.subtract(v[:half, ..., 1], mirror[..., 1], out=out[half + odd:, ..., 0])
    np.subtract(mirror[..., 0], v[:half, ..., 0], out=out[half + odd:, ..., 1])
    return out


def _from_real(u):
    """``S^H @ u`` for a real block ``u`` of L + 1 rows."""
    half, odd = divmod(u.shape[0], 2)
    top = u[:half] + 1j * u[half + odd:]
    return np.concatenate((top, np.sqrt(2.0) * u[half:half + odd], top[::-1].conj()))


def _shows_noise(y, order, sv_tol):
    """Whether the record's thin (K - order) x (order + 1) Hankel matrix has an
    (order+1)-th singular value above ``sv_tol`` times its largest: a noise
    floor, or more than ``order`` frequencies.  A record of rank ``order``
    (noise-free) has none.  Needs ``2 * order < K``."""
    thin = np.linalg.svd(sliding_window_view(y, order + 1), compute_uv=False)
    return bool(thin[order] > sv_tol * thin[0])


def _pencil_svd(y, noisy, width):
    """The top ``width`` singular values of T at L = K // 2, and their left
    singular vectors as the rows of vt, the largest first.

    T is built from the record's mirrored windows.  Row i of X, the window
    y[i:i+K-L], is read as its (re, im) pairs, so T's columns come as
    (re, im) pairs of [Re(S X), Im(S X)]: a permutation of T's columns,
    which changes no singular value or left singular vector.  ``y`` must be
    contiguous.

    A record without a noise floor (not ``noisy``) takes T^T = QR and the
    SVD of the (L+1)x(L+1) R.  T is C-ordered, so T^T is Fortran-ordered, the
    layout LAPACK works in: the QR copies it column by column (the QR of a
    C-ordered T^T took 1.1-1.2 times as long at K = 768 and 2048).  A
    ``noisy`` record takes the eigenvectors of the Gram matrix T T^T, and
    each singular value as the norm of its vector's row of vt T, formed for
    the top ``width`` rows only; the Rayleigh quotient has no first-order
    error, so every value lies within about 1e-13 times the largest of the
    SVD's.  The Gram moves the top ``order`` vectors by about
    eps s[0]^2 / (s[order-1]^2 - s[order]^2) (Davis-Kahan), less than the
    noise floor above ``sv_tol`` moves them; on a record of rank ``order``
    it would lose the small weights, so such records keep the SVD.
    """
    L = y.shape[0] // 2
    cols, size = L + 1, y.shape[0] - L
    t = _to_real(sliding_window_view(y, size).view(float).reshape(cols, size, 2))
    t = t.reshape(cols, 2 * size)
    if noisy:
        _, vecs = np.linalg.eigh(t @ t.T)
        vt = vecs.T[::-1][:width]
        return np.linalg.norm(vt @ t, axis=1), vt
    r = np.linalg.qr(t.T, mode="r")
    _, svals, vt = np.linalg.svd(r, full_matrices=False)
    return svals[:width], vt[:width]


def _iterations_needed(svals, order):
    """Subspace iterations to SUBSPACE_TOL, projected from the block's singular values.

    Each iteration shrinks the error of the top ``order`` values by about
    ``r**-2``, r = s[order-1] / s[p-1], from about s[order-1] at the start.
    """
    lead, top, last = svals[order - 1], svals[0], svals[-1]
    if lead <= SUBSPACE_TOL * top or last == 0.0:
        return 1.0
    if lead <= last:
        return np.inf
    return float(np.log(lead / (SUBSPACE_TOL * top)) / (2.0 * np.log(lead / last)))


def _subspace_svd(y, order, dense_allowed):
    """Top left singular vectors of the L = K // 2 pencil's T by subspace iteration.

    Blocked iteration from a seeded real Gaussian sketch of
    ``order + OVERSAMPLING`` columns, with QR between the products, all in
    real arithmetic: ``T^T @ b`` is the Hankel product of ``conj(S^H b)``
    split into its real and imaginary rows, and ``T @ q`` the real form of
    the Hankel product of X with ``q[:rows] - 1j q[rows:]``, one FFT
    product each.  A noisy record needs a number of product pairs set by
    the gap between singular values ``order`` and ``order + OVERSAMPLING``;
    a record of rank ``order`` (noise-free) stops after two.  Returns
    (singular values of the block, vt with the top ``order`` rows first),
    or (None, None) when ``dense_allowed`` and the projected iterations
    would cost more columns than the dense pencil's L + 1.  Without a dense
    route it raises ValueError when the iteration stops improving.
    """
    K = y.shape[0]
    rows, cols = K - K // 2, K // 2 + 1
    width = min(order + OVERSAMPLING, cols)
    y_hat = np.fft.fft(y)
    rng = np.random.default_rng(SKETCH_SEED)
    block = rng.standard_normal((cols, width))
    svals = change = None
    done = 0
    while True:
        product = _hankel_product(y_hat, _from_real(block).conj(), rows)
        q, _ = np.linalg.qr(np.concatenate((product.real, product.imag)))
        # block holds an orthonormal basis of T q; its R gives the values
        product = _hankel_product(y_hat, q[:rows] - 1j * q[rows:], cols)
        block, tri = np.linalg.qr(_to_real(product.view(float).reshape(cols, width, 2))[..., 0])
        new = np.linalg.svd(tri, compute_uv=False)
        done += 1
        previous, change = change, (None if svals is None
                                    else float(np.max(np.abs(new[:order] - svals[:order]))))
        svals = new
        if change is not None and change <= SUBSPACE_TOL * svals[0]:
            u_tri, svals, _ = np.linalg.svd(tri)
            return svals, (block @ u_tri).T
        if dense_allowed:
            if max(_iterations_needed(svals, order), done + 1) * width > cols:
                return None, None
        elif previous is not None and change >= previous:
            raise ValueError(
                f"the subspace iteration of the {rows}x{cols} pencil stopped improving at a "
                f"change of {change / svals[0]:.1e} of the largest singular value (ratio "
                f"{svals[order - 1] / svals[-1]:.3f} between singular values {order} and "
                f"{width}): the record does not separate {order} frequencies from its noise")


def _dense_cap_check(K):
    """Raise ValueError if the dense pencil of ``K`` samples is past the dense cap."""
    L = K // 2
    if L + 1 > MAX_DENSE_DIM:
        raise ValueError(
            f"the full pencil of a record of {K} samples needs a {K - L}x{L + 1} Hankel "
            f"matrix, above the dense cap {MAX_DENSE_DIM}: shorten the record")


def _shift_poles(w):
    """Eigenvalues of the least-squares shift Psi, w[:, :-1]^T Psi = w[:, 1:]^T,
    for rows w that are sqrt(2) times orthonormal vectors (LS-ESPRIT, Roy &
    Kailath 1989).  Since w w^H = 2I, the normal matrix is 2I - conj(c) c^T,
    c = w[:, -1], so Psi takes one order x order solve and no SVD."""
    c = w[:, -1]
    normal = 2.0 * np.eye(c.shape[0]) - np.outer(c.conj(), c)
    return np.linalg.eigvals(np.linalg.solve(normal, w[:, :-1].conj() @ w[:, 1:].T))


def _vandermonde(times, dt, energies):
    """exp(i E_j t_k) on the uniform grid ``times`` of step ``dt``, from the
    phase-sum kernel's block table: about 2 sqrt(K) order exponentials."""
    base, table = kernels.block_phases(times, dt, energies, 1.0)
    return (base[:, None] * table).reshape(-1, energies.shape[0])[:times.shape[0]]


def matrix_pencil(values, dt, order=None, t_start=0.0, sv_tol=1e-8):
    """Frequencies and complex weights of y_k = sum_j w_j exp(i*E_j*(t0+k*dt)).

    Forward-backward (unitary) matrix pencil with pencil parameter L: the
    signal subspace is spanned by the top ``order`` left singular vectors
    of Z = [X, P conj(X) P], X the (L+1)-row Hankel matrix of the record
    and P the exchange matrix, and the shifted pencil's eigenvalues give
    the unit-circle poles.  Unit-circle poles make Z centro-Hermitian, so
    every route works in real arithmetic on its real form T, which has the
    same singular values and is built from sums and differences of the
    record's windows (Haardt & Nossek 1995; see :func:`_pencil_svd`).
    When ``order`` is None it is the number of singular values above
    ``sv_tol`` times the largest, and a record with no floor below that
    threshold raises ValueError.

    L is K // 2 on every route, where the pencil's variance under noise is
    near its lowest (Hua & Sarkar 1990: L between K/3 and K/2).  An
    ``order`` past min(K - L, L + 1) - 1 is refused first (by the dense
    cap's message past the cap).  Then every record with ``order`` is
    probed once, before any factorization: the thin (K - order) x
    (order + 1) Hankel matrix, whose (order+1)-th singular value is above
    ``sv_tol`` times the largest unless the record has rank ``order``
    (:func:`_shows_noise`).  The probe, K and ``order`` alone pick the
    route:

    ==========================================  ===================  ===================
    record with ``order``                       probe: rank order    probe: noise floor
    ==========================================  ===================  ===================
    L + 1 <= DENSE_PENCIL_COLS                  QR + SVD             Gram
    L + 1 > DENSE_PENCIL_COLS, 8 order >= L     iterate; hand-back   Gram
                                                -> QR + SVD
    L + 1 > DENSE_PENCIL_COLS, 8 order < L      iterate; hand-back   iterate; hand-back
                                                -> QR + SVD          -> Gram
    ==========================================  ===================  ===================

    "iterate" is real subspace iteration on FFT products
    (:func:`_subspace_svd`: O(K log K) per column, O(K order) memory); it
    hands a record back when its projected iterations would cost more
    columns than L + 1.  The dense pencil takes O(K^3) time, O(K^2) memory
    and raises ValueError past the dense cap: "Gram" is the eigh of T T^T,
    "QR + SVD" the QR of T^T and the SVD of its (L+1)x(L+1) R factor (see
    :func:`_pencil_svd`).  Without ``order`` (probability mode) nothing is
    probed, the QR + SVD runs, and the order and its refusal are read from
    all L + 1 singular values.  Every route reports the top
    min(order + OVERSAMPLING, L + 1) singular values of Z in
    ``singular_values``.

    The poles are the eigenvalues of the least-squares shift of the signal
    rows, solved in closed form (:func:`_shift_poles`), and
    ``pole_modulus_deviation`` is their largest ||z| - 1|: the energies
    read only their angles.  The weights are the least-squares fit of the
    record by unit-modulus exponentials, whose K x order Vandermonde comes
    from the phase-sum kernel's block table (:func:`_vandermonde`).
    Returns (E ascending, weights, diagnostics dict).
    """
    # contiguous: the dense pencil reads its windows as float pairs
    y = np.ascontiguousarray(values, dtype=complex)
    K = y.shape[0]
    if K < 4:
        raise ValueError("need at least 4 samples for the pencil")
    L = K // 2
    max_order = min(K - L, L + 1) - 1
    if order is not None:
        if order < 1:
            raise ValueError(f"model order must be at least 1, got {order}")
        if order > max_order:
            _dense_cap_check(K)
            raise ValueError(f"model order {order} too large for {K} samples")
    noisy = order is not None and _shows_noise(y, order, sv_tol)
    svals = None
    if order is not None and L + 1 > DENSE_PENCIL_COLS and (8 * order < L or not noisy):
        svals, vt = _subspace_svd(y, order, L + 1 <= MAX_DENSE_DIM)
    if svals is None:
        _dense_cap_check(K)
        # probability mode picks its order from all L + 1 values, then cuts them
        svals, vt = _pencil_svd(y, noisy,
                                L + 1 if order is None else min(order + OVERSAMPLING, L + 1))
        if order is None:
            order = max(int(np.sum(svals > svals[0] * sv_tol)), 1)
            if order > max_order:
                raise ValueError(
                    f"{order} of {svals.size} singular values exceed the relative threshold "
                    f"{sv_tol:.0e} (smallest ratio {svals[-1] / svals[0]:.2e}): the record "
                    "shows no floor below the threshold, so its noise, or more frequencies "
                    f"than {K} samples resolve, lies above it")
            svals = svals[:min(order + OVERSAMPLING, L + 1)]
    diagnostics = {
        "singular_values": svals,
        "sv_ratio": float(svals[order - 1] / svals[0]),
        "ill_conditioned": bool(svals[order - 1] / svals[0] < sv_tol),
        "order": int(order),
    }
    # rows of w: the top order left singular vectors of Z, times sqrt(2)
    poles = _shift_poles(_from_real(vt[:order].T).T)
    angles = np.angle(poles)
    diagnostics["pole_modulus_deviation"] = float(np.max(np.abs(np.abs(poles) - 1.0)))
    diagnostics["nyquist_margin"] = float(np.pi - np.max(np.abs(angles)))
    diagnostics["aliasing_risk"] = bool(np.max(np.abs(angles)) > 0.995 * np.pi)
    energies = angles / dt
    # least-squares weights against the unit-modulus model (poles are
    # projected onto the unit circle; Hermitian dynamics guarantees it)
    vand = _vandermonde(t_start + dt * np.arange(K), dt, energies)
    weights, *_ = np.linalg.lstsq(vand, y, rcond=None)
    order_idx = np.argsort(energies)
    return energies[order_idx], weights[order_idx], diagnostics


def extract_spectrum(record, order):
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
        record.values, dt, order=order, t_start=float(record.times[0]))
    weights = weights.real
    diagnostics["negative_weight"] = bool(np.any(weights < -1e-9))
    diagnostics["weight_sum"] = float(np.sum(weights))
    weights = np.clip(weights, 0.0, None)
    weights = weights / np.sum(weights)
    return SpectralData(energies, weights), diagnostics


def jacobi_reconstruct(spectral_data):
    """Unique Jacobi matrix with the given spectrum and first-row weights.

    Runs the Lanczos three-term recurrence on diag(E) seeded with the
    vector sqrt(w) (fully reorthogonalized).  Returns (diagonal,
    off-diagonal) with positive off-diagonals.  Repeated eigenvalues make
    the problem non-unique and are rejected (gaps below 1e-10), as are
    weights that vanish (a decoupled chain) or fall below WEIGHT_FLOOR.
    """
    evals = spectral_data.eigenvalues
    wts = spectral_data.weights
    m = evals.shape[0]
    if m > 1 and np.min(np.diff(evals)) < 1e-10:
        raise ValueError("repeated eigenvalues: the Jacobi matrix is not unique")
    k_min = int(np.argmin(wts))
    if wts[k_min] <= 0.0:
        raise ValueError(
            f"the first-site overlap weight of eigenvalue index {k_min} is zero: the chain "
            "decouples, or the record does not resolve that level; either way the far "
            "section is invisible from site 1")
    if wts[k_min] < WEIGHT_FLOOR:
        raise ValueError(
            f"smallest first-site weight {wts[k_min]:.2e} (eigenvalue index {k_min}) is "
            f"below the weight floor {WEIGHT_FLOOR:.0e}: the far section of the chain "
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
    # the grid the pencil fitted, which hand-made record times may miss by 1e-9
    times = record.times[0] + record.grid_step() * np.arange(record.times.size)
    model = kernels.phase_series(sd.eigenvalues, sd.weights.astype(complex), times, 1.0)
    residual = float(np.max(np.abs(model - record.values)))
    diagnostics["fit_residual"] = residual
    return diag, off, residual, diagnostics


def tomography_from_records(record_up, record_down, order):
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
    return TomographyResult(
        a_abs=a_abs,
        b_abs=b_abs,
        B=(d_up - d_down) / 2.0,
        C=(d_up + d_down) / 2.0,
        residuals={"up_fit": res_up, "down_fit": res_down},
        diagnostics={"up": diag_up, "down": diag_down},
    )


def synthesize_records(spec, mode, times, shots, seed):
    """The (up, down) records of one chain (see :func:`synthesize_record`).

    The down channel is sampled with ``seed + 1``, so the two channels'
    shot noise is independent.
    """
    return tuple(synthesize_record(spec, channel, mode, times, shots=shots,
                                   seed=None if seed is None else seed + k)
                 for k, channel in enumerate(CHANNELS))


def synthesized_tomography(hidden_spec, records):
    """Parameter estimation from the (up, down) amplitude records of ``hidden_spec``.

    ``records`` are as :func:`synthesize_records` returns them; only they
    are consumed downstream, apart from the chain length and the time
    sign.  Both excitation channels are processed independently; the band
    diagonals combine into B_i = (d_up - d_down)/2, C_i = (d_up + d_down)/2.
    """
    # time_sign is a known convention of the record, not an unknown:
    # undo it so extraction always sees exp(+iEt)
    if hidden_spec.time_sign != 1:
        records = [replace(rec, values=np.conj(rec.values)) for rec in records]
    up, down = records
    result = tomography_from_records(up, down, hidden_spec.n)
    return replace(result, diagnostics={
        **result.diagnostics,
        "shots": up.shots if up.shots is not None else 0,
        "seed": up.seed if up.seed is not None else -1})


def full_tomography(hidden_spec, times, shots=None, seed=None):
    """End-to-end parameter estimation treating ``hidden_spec`` as unknown.

    Synthesizes both channels' amplitude records and passes them to
    :func:`synthesized_tomography`.  Probability records cannot fix
    absolute energies: they only determine eigenvalue gaps (see
    :func:`probability_mode_analysis`).
    """
    return synthesized_tomography(
        hidden_spec, synthesize_records(hidden_spec, "amplitude", times, shots, seed))


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
    Every refusal names ``path``: a file that is not UTF-8 text, an unknown
    header and a record that :class:`MeasurementRecord` refuses (of the same
    type, so an :class:`AmplitudeBoundError` stays one) raise ValueError with
    the path, and a row whose field count differs from the header's or whose
    field is no number with the path and its line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            numbered = [(number, line.strip().split(","))
                        for number, line in enumerate(fh, start=2) if line.strip()]
    except UnicodeDecodeError as error:
        raise ValueError(f"{path}: not UTF-8 text ({error})") from None
    if header not in ("t,re,im", "t,p"):
        raise ValueError(f"{path}: unrecognized record header {header!r}; "
                         f"expected 't,re,im' or 't,p'")
    width = header.count(",") + 1
    for number, fields in numbered:
        if len(fields) != width:
            raise ValueError(f"{path}, line {number}: {len(fields)} fields where the header "
                             f"{header!r} has {width}")
    try:
        columns = np.array([fields for _, fields in numbered], dtype=float)
    except ValueError:
        # the first field that the same conversion refuses, by its line
        for number, fields in numbered:
            try:
                np.array(fields, dtype=float)
            except ValueError as error:
                raise ValueError(f"{path}, line {number}: {error}") from None
        raise
    columns = columns.reshape(-1, width).T.copy()
    times = columns[0]
    if header == "t,re,im":
        # the arithmetic of float(re) + 1j * float(im); an inf field (rejected
        # below) makes a nan on the way
        with np.errstate(invalid="ignore"):
            mode, values = "amplitude", columns[1] + 1j * columns[2]
    else:
        mode, values = "probability", columns[1]
    try:
        return MeasurementRecord(times=times, values=values, channel=channel, mode=mode,
                                 shots=shots)
    except ValueError as error:
        raise type(error)(f"{path}: {error}") from error


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


def probability_mode_analysis(record):
    """Retrieve the gap structure of a recurrence-probability record.

    |f(t)|^2 = sum_{j,k} w_j w_k cos((E_j - E_k) t) is a real harmonic
    signal whose frequencies are the spectral gaps; the retrieval folds
    the +-frequency pairs and reports one-sided amplitudes (sum of
    w_j w_k per distinct gap).  Frequencies within 1e-6 (relative to
    max(1, gap)) are one gap, and those with |E| dt below 1e-6 the DC term.
    """
    if record.mode != "probability":
        raise ValueError("gap analysis needs a probability-mode record")
    dt = record.grid_step()
    energies, weights, diagnostics = matrix_pencil(
        record.values.astype(complex), dt, order=None,
        t_start=float(record.times[0]), sv_tol=1e-7)
    gaps = {}
    dc = 0.0
    for e, w in zip(energies, weights.real):
        if abs(e) * dt < 1e-6:
            dc += w
            continue
        key = None
        for g in gaps:
            if abs(abs(e) - g) < 1e-6 * max(1.0, g):
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
