"""Independent dense-matrix oracles for the numerical tests.

Everything here recomputes package quantities from their definitions by a
deliberately different route: Kronecker products instead of bit operations,
matrix exponentials instead of weight vectors, density-matrix eigenbases
instead of Hamiltonian eigenbases, fractional matrix powers, and numerical
quadrature instead of closed forms.  No code is
shared with the package beyond numpy itself.

The oracles are slow and accuracy-limited by design; callers pick dimensions
and temperatures inside each oracle's comfort zone (noted per function).
"""

import numpy as np
import scipy.linalg

# Same pair floor the library documents for the QFI pair sum.
PAIR_FLOOR = 1e-15

# Single-site matrices: spin-up is index 0, sigma^+ raises toward it.
SINGLE_SITE = {
    "I": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "+": np.array([[0, 1], [0, 0]], dtype=complex),
    "-": np.array([[0, 0], [1, 0]], dtype=complex),
}


def pauli_string_oracle(coefficient, factors, n_sites):
    """coefficient times the Kronecker product over sites 0..n-1 (site 0
    leftmost) of the factor's matrix, the identity where none is given."""
    by_site = dict(factors)
    out = np.array([[complex(coefficient)]])
    for site in range(n_sites):
        out = np.kron(out, SINGLE_SITE[by_site.get(site, "I")])
    return out


def xx_hamiltonian_oracle(n_sites, coupling, field, boundary):
    """J sum_bonds (x x + y y) + h sum_i z_i, summed term by term in the
    order bonds (i, i+1), then the wrap bond for a periodic chain of more
    than two sites, x before y, then the field."""
    dim = 2**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    bonds = [(i, i + 1) for i in range(n_sites - 1)]
    if boundary == "periodic" and n_sites > 2:
        bonds.append((n_sites - 1, 0))
    for i, j in bonds:
        for axis in ("x", "y"):
            h += pauli_string_oracle(coupling, ((i, axis), (j, axis)), n_sites)
    if field != 0.0:
        for i in range(n_sites):
            h += pauli_string_oracle(field, ((i, "z"),), n_sites)
    return h


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + m.conj().T) / 2.0


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    # fix the phase ambiguity so the distribution is Haar-like
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def thermal_state(h_mat, beta):
    """rho = exp(-beta H) / Z via scipy's expm; beta = inf gives the
    uniform projector onto the ground degeneracy group (tol 1e-12)."""
    h_mat = np.asarray(h_mat, dtype=complex)
    if np.isinf(beta):
        evals, vecs = np.linalg.eigh(h_mat)
        ground = evals <= evals.min() + 1e-12
        cols = vecs[:, ground]
        return cols @ cols.conj().T / int(ground.sum())
    dim = h_mat.shape[0]
    shift = float(np.linalg.eigvalsh(h_mat).min())
    rho = scipy.linalg.expm(-beta * (h_mat - shift * np.eye(dim)))
    return rho / np.trace(rho).real


def eigh_thermal_state(h_mat, beta):
    """rho = exp(-beta H) / Z from one dense eigh of the whole matrix, with
    the weights formed from logs.  Unlike thermal_state's expm this stays
    accurate at huge finite beta (1e8), where scaling and squaring loses
    about nine digits."""
    evals, vecs = np.linalg.eigh(np.asarray(h_mat, dtype=complex))
    logw = -beta * (evals - evals.min())
    weights = np.exp(logw - np.logaddexp.reduce(logw))
    return (vecs * weights) @ vecs.conj().T


def variance_oracle(rho, o_mat):
    rho = np.asarray(rho, dtype=complex)
    o = np.asarray(o_mat, dtype=complex)
    mean = np.trace(rho @ o).real
    return float(np.trace(rho @ o @ o).real - mean**2)


def qfi_oracle(rho, o_mat):
    """QFI from the density matrix's own eigendecomposition, as a plain
    double loop over level pairs."""
    p, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    p = np.clip(p, 0.0, None)
    o = v.conj().T @ np.asarray(o_mat, dtype=complex) @ v
    total = 0.0
    for m in range(p.size):
        for n in range(p.size):
            tot = p[m] + p[n]
            if tot >= PAIR_FLOOR:
                total += 2.0 * (p[n] - p[m]) ** 2 / tot * abs(o[m, n]) ** 2
    return total


def skew_oracle(rho, o_mat, alpha):
    """I_alpha = tr(rho O^2) - tr(rho^alpha O rho^(1-alpha) O) through
    fractional powers of the clipped eigenvalues."""
    p, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    p = np.clip(p, 0.0, None)
    o = v.conj().T @ np.asarray(o_mat, dtype=complex) @ v
    first = float(np.trace(np.diag(p) @ o @ o).real)
    second = float(np.trace(np.diag(p**alpha) @ o @ np.diag(p ** (1.0 - alpha)) @ o).real)
    return first - second


def qv_oracle(rho, o_mat, points=64):
    """Quantum variance as the alpha-average of I_alpha by Gauss-Legendre
    quadrature on (0, 1).

    The integrand contains exp(r alpha) with r a log weight ratio, so the
    64-point rule is trustworthy only for beta * spectral width up to a few
    tens: keep dim <= 16 and beta <= 2 at unit coupling.
    """
    x, w = np.polynomial.legendre.leggauss(points)
    alphas = 0.5 * (x + 1.0)
    weights = 0.5 * w
    return float(sum(wi * skew_oracle(rho, o_mat, ai) for ai, wi in zip(alphas, weights)))


def correlation_oracle(h_mat, rho, o_mat, t):
    """C(t) = tr(rho O(t) O) with O(t) = e^{iHt} O e^{-iHt} via expm."""
    h_mat = np.asarray(h_mat, dtype=complex)
    o = np.asarray(o_mat, dtype=complex)
    u = scipy.linalg.expm(1j * h_mat * t)
    return complex(np.trace(np.asarray(rho, dtype=complex) @ u @ o @ u.conj().T @ o))


def weighted_pair_set_oracle(energies, o_eig, omega_tol):
    """A weighted pair set the long way, from a dense eigenbasis matrix.

    The pairs are the upper triangle of the symmetrized pattern
    (O != 0) | (O != 0)^T, or every pair m <= n when o_eig is None, with the
    entries O_mn (real when no entry has an imaginary part).  Their
    frequency clusters come from greedy clustering of the whole multiset of
    gaps omega_mn, their mirrors -omega_mn and one 0.0: sort, open a
    cluster at every step above omega_tol, take member means, then make
    them sign-symmetric as (r - r[::-1]) / 2.  Returns (rows, cols, labels,
    omegas, values), labels being the clusters of the gaps omega_mn
    themselves; values is None without an operator.
    """
    energies = np.asarray(energies, dtype=float)
    dim = energies.size
    if o_eig is None:
        pattern, values = np.ones((dim, dim), dtype=bool), None
    else:
        o = np.asarray(o_eig)
        pattern = (o != 0) | (o != 0).T
    rows, cols = np.nonzero(np.triu(pattern))
    if o_eig is not None:
        values = o[rows, cols]
        if np.iscomplexobj(values) and not values.imag.any():
            values = np.ascontiguousarray(values.real)
    gaps = energies[rows] - energies[cols]
    multiset = np.concatenate((gaps, -gaps, [0.0]))
    order = np.argsort(multiset, kind="stable")
    ordered = multiset[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ordered) > omega_tol) + 1))
    counts = np.diff(np.append(starts, ordered.size))
    means = np.add.reduceat(ordered, starts) / counts
    labels = np.empty(multiset.size, dtype=np.intp)
    labels[order] = np.repeat(np.arange(means.size), counts)
    return rows, cols, labels[: rows.size], (means - means[::-1]) / 2.0, values
