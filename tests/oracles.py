"""Slow, literal reference implementations used only by the tests.

Nothing here shares code with the package internals: eigen decompositions
run classic Jacobi rotations, the estimator is assembled by nested loops
over its defining sums or from the SVD of the inputs' QR factor, the
transition moments are one einsum over the whole path, wavelet basis
vectors come from an explicit coefficient-upsampling cascade, the
stationary covariance is the plain fixed-point iteration, trajectories
step the autoregression one state at a time, and function values and
kernel entries add the sine modes one by one.  Everything targets tiny
instances and favours obviousness over speed.  The exceptions are the two
route references at the end, which keep the one-transform-per-function
scoring that the package's cached coefficient matrices replaced.
"""

import math

import numpy as np

from banach_ar1.model import evaluate_via_spline
from banach_ar1.wavelet import WaveletBasisSpec, besov_sup_norm, daubechies_filter, dwt_forward


def jacobi_eigh(matrix, tol=1e-14, max_sweeps=100):
    """Symmetric eigendecomposition by cyclic Jacobi rotations.

    Returns (values, vectors) with values descending and vectors in columns.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(np.abs(a).max(), 1e-300)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) <= tol * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        if off <= tol * scale:
            break
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], v[:, order]


def oracle_estimator(states, k):
    """The truncated componentwise estimator by literal summation.

    Both moment matrices are averaged over the observed transitions; the
    projection and the eigenvalue division follow the defining sum term by
    term.
    """
    states = np.asarray(states, dtype=float)
    m = states.shape[0] - 1
    p = states.shape[1]
    cov = np.zeros((p, p))
    cross = np.zeros((p, p))
    for i in range(m):
        for row in range(p):
            for col in range(p):
                cov[row, col] += states[i, row] * states[i, col] / m
                cross[row, col] += states[i + 1, row] * states[i, col] / m
    values, vectors = jacobi_eigh(cov)
    rho = np.zeros((p, p))
    for j in range(k):
        u_j = vectors[:, j]
        image = np.zeros(p)
        for row in range(p):
            for col in range(p):
                image[row] += cross[row, col] * u_j[col]
        projected = np.zeros(p)
        for h in range(k):
            u_h = vectors[:, h]
            projected += float(u_h @ image) * u_h
        rho += np.outer(projected, u_j) / values[j]
    return rho


def transition_sums(states):
    """sum X_i X_i^T and sum X_(i+1) X_i^T over every transition of the states X_0..X_(n-1).

    Each is one einsum over the transition index, with no blocks, so it
    shares no summation order with the package's TransitionMoments.
    """
    states = np.asarray(states, dtype=float)
    inputs, outputs = states[:-1], states[1:]
    return np.einsum("ij,ik->jk", inputs, inputs), np.einsum("ij,ik->jk", outputs, inputs)


def _synthesis_step(approx, detail, low, high):
    """One periodic upsampling step, explicit scalar loops."""
    length = 2 * len(approx)
    out = [0.0] * length
    for k in range(len(approx)):
        for i in range(len(low)):
            out[(2 * k + i) % length] += low[i] * approx[k] + high[i] * detail[k]
    return out


def cascade_basis(spec: WaveletBasisSpec) -> np.ndarray:
    """Rows are the discrete orthonormal basis vectors, one per coefficient.

    Each row is synthesized from a unit coefficient by the explicit
    upsampling cascade.  Row order matches the dyadic coefficient
    layout of WaveletCoeffs.values: scaling block first, then detail levels
    coarse to fine.
    """
    low = list(daubechies_filter(spec.order))
    high = [(-1.0) ** i * low[len(low) - 1 - i] for i in range(len(low))]

    def synthesize(alpha, betas):
        current = list(alpha)
        for detail in betas:
            current = _synthesis_step(current, detail, low, high)
        return current

    n_coarse = 2**spec.coarse_level
    zero_alpha = [0.0] * n_coarse
    zero_betas = [[0.0] * 2**j for j in spec.levels]
    rows = []
    for k in range(n_coarse):
        alpha = list(zero_alpha)
        alpha[k] = 1.0
        rows.append(synthesize(alpha, zero_betas))
    for idx, j in enumerate(spec.levels):
        for k in range(2**j):
            betas = [list(b) for b in zero_betas]
            betas[idx][k] = 1.0
            rows.append(synthesize(zero_alpha, betas))
    return np.array(rows)


def oracle_norms(samples, spec: WaveletBasisSpec):
    """(sup, l1, l2) of the wavelet coefficients via O(L^2) inner products."""
    samples = np.asarray(samples, dtype=float)
    basis = cascade_basis(spec)
    scale = 2.0 ** (-(spec.max_level + 1) / 2.0)
    coeffs = [scale * float(row @ samples) for row in basis]
    sup = max(abs(c) for c in coeffs)
    l1 = sum(abs(c) for c in coeffs)
    l2 = math.sqrt(sum(c * c for c in coeffs))
    return sup, l1, l2, np.array(coeffs)


def lyapunov_fixed_point(rho, q, iterations=500):
    """Iterate Sigma <- rho Sigma rho^T + q from q until it stabilizes."""
    rho = np.asarray(rho, dtype=float)
    q = np.asarray(q, dtype=float)
    sigma = q.copy()
    for _ in range(iterations):
        nxt = rho @ sigma @ rho.T + q
        if np.abs(nxt - sigma).max() <= 1e-15 * max(np.abs(nxt).max(), 1e-300):
            return nxt
        sigma = nxt
    return sigma


def stepped_trajectory(n, rho, root, x0, rng, burn_in=0):
    """X_0..X_n of X_i = rho X_{i-1} + root z_i, stepped one state at a time.

    The standard normals z_i are drawn as one (burn_in + n) x p block from
    rng; the first burn_in steps from x0 are not recorded.
    """
    rho = np.asarray(rho, dtype=float)
    root = np.asarray(root, dtype=float)
    z = rng.standard_normal((burn_in + n, rho.shape[0]))
    x = np.array(x0, dtype=float)
    states = []
    for i in range(burn_in + n):
        if i >= burn_in:
            states.append(x)
        x = rho @ x + root @ z[i]
    states.append(x)
    return np.array(states)


def truncated_normal_variance_factor(cut=3.0):
    """Variance of a standard normal conditioned on |Z| <= cut."""
    phi = math.exp(-0.5 * cut * cut) / math.sqrt(2.0 * math.pi)
    inner_mass = math.erf(cut / math.sqrt(2.0))
    return 1.0 - 2.0 * cut * phi / inner_mass


def qr_factor_estimator(states, k):
    """The truncated estimator with eigenpairs from the inputs' QR factor.

    With inputs = Q R, the eigenvalues of the transition-averaged covariance
    are the squared singular values of the small triangular factor R over
    n - 1, and its eigenvectors are R's right singular vectors.  This keeps
    SVD-grade conditioning, which a Gram-matrix eigensolve gives up, so it
    is the reference for ill-conditioned spectra.  Needs k <= min(n - 1, p).
    """
    states = np.asarray(states, dtype=float)
    inputs, outputs = states[:-1], states[1:]
    m = inputs.shape[0]
    _, sigma, vt = np.linalg.svd(np.linalg.qr(inputs, mode="r"))
    u_k = vt[:k].T
    cross = outputs.T @ inputs / m
    return u_k @ ((u_k.T @ cross @ u_k) / (sigma[:k] ** 2 / m)) @ u_k.T


def grid_values(x, grid_len):
    """sum_j x_j sqrt(2) sin(j pi t) at the dyadic midpoints t = (i + 1/2) / grid_len, mode by mode."""
    t = (np.arange(grid_len) + 0.5) / grid_len
    values = np.zeros(grid_len)
    for j, coefficient in enumerate(np.asarray(x, dtype=float), start=1):
        values += coefficient * math.sqrt(2.0) * np.sin(j * math.pi * t)
    return values


def kernel_value(c_diag, s, t):
    """sum_j C_j phi_j(s) phi_j(t) at one point pair, term by term."""
    return sum(c * 2.0 * math.sin(j * math.pi * s) * math.sin(j * math.pi * t) for j, c in enumerate(c_diag, start=1))


def spline_errors(truth, predicted, coarse_step, spec: WaveletBasisSpec):
    """Spline-mode errors, one replication at a time: sup |DWT(spline(truth) - spline(predicted))|."""

    def on_grid(x):
        return evaluate_via_spline(x, coarse_step, spec.grid_len)

    return [besov_sup_norm(dwt_forward(on_grid(t) - on_grid(p), spec)) for t, p in zip(truth, predicted)]


def trace_report_by_mode(phi, spec: WaveletBasisSpec):
    """(trace_sum, n_sup, v_sup) of the eigenfunction family, one transform per mode, summed mode by mode."""
    trace = 0.0
    v_sup = 0.0
    per_position = np.zeros(spec.grid_len)
    for row in phi:
        coeffs = dwt_forward(row, spec)
        flat = coeffs.values
        trace += float(flat @ flat)
        v_sup = max(v_sup, besov_sup_norm(coeffs))
        per_position += flat * flat
    return trace, float(per_position.max()), v_sup
