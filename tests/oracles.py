"""Independent dense-matrix oracles for the numerical tests.

Everything here recomputes package quantities from their definitions by a
deliberately different route: Kronecker products instead of bit operations,
matrix exponentials instead of weight vectors, density-matrix eigenbases
instead of Hamiltonian eigenbases, fractional matrix powers, and numerical
quadrature instead of closed forms.  No code is
shared with the package beyond numpy itself.  pair_sum_references and
qfi_matrix_reference are the exception to the different route: they keep the
package's whole-array pair-sum formulas, so that its chunked pass can be
checked against them bit for bit.  comb_weight_reference is another: the
per-frequency nearest-tooth rule that comb_bound_check's one search must
reproduce bit for bit.

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


def reflection_permutation(n_sites):
    """perm with (P v)[s] = v[perm[s]] for the site reflection P: j -> n-1-j,
    read off each index's binary string (site 0 its leftmost digit)
    reversed."""
    return np.array([int(format(s, f"0{n_sites}b")[::-1], 2) for s in range(2**n_sites)])


def eigenvector_matrix(spectral):
    """The dense unitary V of a decomposition, H = V diag(E) V^dag: each
    block's eigenvectors placed at its basis rows and eigen-columns, exact
    zeros elsewhere."""
    out = np.zeros((spectral.dim, spectral.dim), dtype=spectral.block_vectors[0].dtype)
    for (rows, cols), v in zip(spectral.blocks, spectral.block_vectors):
        out[rows[:, None], cols] = v
    return out


def degeneracy_groups(energies, tol):
    """(start, stop) index ranges of the degenerate groups of an ascending
    spectrum: a step above tol between neighbours opens a new group."""
    groups, start = [], 0
    for i in range(1, len(energies)):
        if energies[i] - energies[i - 1] > tol:
            groups.append((start, i))
            start = i
    return groups + [(start, len(energies))]


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


def cluster_oracle(values, tol, symmetric=False):
    """Greedy 1-d clustering with a stable sort: sort, open a cluster at
    every step above tol, take member means.  Returns (reps, labels), the
    means ascending and each value's cluster.

    With symmetric=True the multiset must be symmetric under negation, as
    the gaps E_m - E_n over every ordered pair are, and a cluster structure
    that is not mirror symmetric is refused (ValueError); the means are
    then made exactly sign-symmetric as (r - r[::-1]) / 2, the middle one
    exactly 0.0.  This is the reference for the package's clustering of a
    complete pair set.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ordered) > tol) + 1))
    counts = np.diff(np.append(starts, ordered.size))
    reps = np.add.reduceat(ordered, starts) / counts
    if symmetric:
        if not np.array_equal(counts, counts[::-1]):
            raise ValueError("cluster structure is not symmetric under negation")
        reps = (reps - reps[::-1]) / 2.0
    labels = np.empty(values.size, dtype=np.intp)
    labels[order] = np.repeat(np.arange(reps.size), counts)
    return reps, labels


def weighted_pair_set_oracle(energies, o_eig, omega_tol):
    """A weighted pair set the long way, from a dense eigenbasis matrix.

    The pairs are the upper triangle of the symmetrized pattern
    (O != 0) | (O != 0)^T, or every pair m <= n when o_eig is None, with the
    entries O_mn (real when no entry has an imaginary part).  Their
    frequency clusters are cluster_oracle's sign-symmetric clusters of the
    whole multiset of gaps omega_mn, their mirrors -omega_mn and one 0.0.
    Returns (rows, cols, labels, omegas, values), labels being the clusters
    of the gaps omega_mn themselves, with rows, cols and labels int32;
    values is None without an operator.
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
    reps, labels = cluster_oracle(np.concatenate((gaps, -gaps, [0.0])), omega_tol, symmetric=True)
    # the set stores its level indices and labels as int32
    index = (rows.astype(np.int32), cols.astype(np.int32), labels[: rows.size].astype(np.int32))
    return (*index, reps, values)


def _ordered_pair_sum_reference(term, rows, cols, values, weights, log_weights):
    """sum over ordered pairs (a, b) of term(p_a, p_b, ln p_a, ln p_b)
    |O_ab|^2, each pair m <= n giving (m, n) and, off the diagonal, (n, m),
    formed over every pair at once."""
    p, lw = weights, log_weights
    pm, pn, lm, ln = p[rows], p[cols], lw[rows], lw[cols]
    both = term(pm, pn, lm, ln) + np.where(rows != cols, term(pn, pm, ln, lm), 0.0)
    return float(np.sum(both * np.abs(values) ** 2))


def _qv_term_reference(pm, pn, lm, ln):
    mask = pn + pm >= PAIR_FLOOR
    with np.errstate(invalid="ignore"):
        r = ln - lm
    small = np.abs(r) < 1e-6
    safe = np.where(small, 1.0, r)
    with np.errstate(invalid="ignore", divide="ignore"):
        exact = pn - (pn - pm) / safe
    rs = np.where(small & mask, r, 0.0)
    series = pm * (rs / 2.0 + rs**2 / 3.0 + rs**3 / 8.0)
    return np.where(mask, np.where(small, series, exact), 0.0)


def pair_sum_references(rows, cols, values, energies, weights, log_weights, beta, alpha):
    """The six scalar pair sums of an operator's pairs m <= n (rows, cols,
    values O_mn) as whole-array formulas, one term array over every pair
    summed by np.sum: the references that the package's chunked pass must
    equal bit for bit.  Returns a dict keyed by route name; the skew
    information is of order alpha."""
    p = weights
    tot = p[rows] + p[cols]
    qfi_w = np.zeros_like(tot)
    np.divide((p[cols] - p[rows]) ** 2, tot, out=qfi_w, where=tot >= PAIR_FLOOR)
    # tanh(beta omega / 2), with the gaps within the degeneracy threshold
    # 1e-9 max(1, |E|_max) set to 0 at beta = inf
    omega = energies[rows] - energies[cols]
    with np.errstate(invalid="ignore", over="ignore"):
        t = np.tanh(beta * omega / 2.0)
    if np.isinf(beta):
        t[np.abs(omega) <= 1e-9 * max(1.0, float(np.abs(energies).max()))] = 0.0
    abs2 = np.abs(values) ** 2
    diag = rows == cols
    mean = float(np.dot(p[rows[diag]], values[diag].real))
    sums = (rows, cols, values, weights, log_weights)
    second = _ordered_pair_sum_reference(lambda pm, pn, lm, ln: pn, *sums)
    return {
        "qfi_spectral": float(4.0 * np.sum(qfi_w * abs2)),
        "qfi_via_susceptibility": float(4.0 * np.sum(t * (p[cols] - p[rows]) * abs2)),
        "qfi_via_structure_factor": float(4.0 * np.sum(t**2 * (p[cols] + p[rows]) * abs2)),
        "skew_information": _ordered_pair_sum_reference(
            lambda pm, pn, lm, ln: pn - pn**alpha * pm ** (1.0 - alpha), *sums
        ),
        "quantum_variance": _ordered_pair_sum_reference(_qv_term_reference, *sums),
        "eth_qfi": 4.0 * (second - mean**2),
    }


def qfi_matrix_reference(generators, weights, dim):
    """The QFI matrix over generators given as pairs m <= n (rows, cols,
    values O_mn), as whole-array formulas: the union of their pairs from
    np.unique of the keys m * dim + n, each generator's values there (0
    where it has none), and [F]_ab = sum over the union of
    4 (p_n - p_m)^2 / (p_n + p_m) Re[(O_a)_mn (O_b)_mn^*]."""
    keys = np.unique(np.concatenate([r.astype(np.int64) * dim + c for r, c, _ in generators]))
    rows, cols = np.divmod(keys, dim)
    vals = []
    for r, c, v in generators:
        full = np.zeros((dim, dim), dtype=v.dtype)
        full[r, c] = v
        vals.append(full[rows, cols])
    p = weights
    tot = p[rows] + p[cols]
    w = np.zeros_like(tot)
    np.divide((p[cols] - p[rows]) ** 2, tot, out=w, where=tot >= PAIR_FLOOR)
    w = 4.0 * w
    d = len(generators)
    out = np.zeros((d, d))
    for a in range(d):
        for b in range(a, d):
            out[a, b] = out[b, a] = float(np.sum(w * (vals[a] * vals[b].conj()).real))
    return out


def comb_weight_reference(omegas, weights, omega, tol):
    """A comb's weight at one frequency, 0 when absent: the tooth np.argmin
    of |omegas - omega| picks over every tooth (the first of any tie), when
    it lies within tol."""
    if omegas.size == 0:
        return 0.0
    i = int(np.argmin(np.abs(omegas - omega)))
    if abs(omegas[i] - omega) <= tol:
        return float(weights[i].real)
    return 0.0


def fit_frequency_oracle(h_mat, a_mat):
    """(omega, residual) of the least-squares fit [H, A] = omega A from two
    dense matrix products: omega = Re<A, [H, A]> / <A, A> and residual =
    |[H, A] - omega A| / |A| in the Frobenius norm."""
    h = np.asarray(h_mat, dtype=complex)
    a = np.asarray(a_mat, dtype=complex)
    norm_sq = float(np.vdot(a, a).real)
    comm = h @ a - a @ h
    omega = float(np.vdot(a, comm).real) / norm_sq
    return omega, float(np.linalg.norm(comm - omega * a)) / np.sqrt(norm_sq)


def operator_support_oracle(o_mat, n_sites, rtol=1e-10):
    """The sites an operator acts on, by partial trace: site s lies outside
    the support when tracing it out and tensoring the identity back in
    reproduces O elementwise within rtol * max |O|."""
    mat = np.asarray(o_mat, dtype=complex)
    tol = rtol * float(np.abs(mat).max())
    tensor = mat.reshape((2,) * (2 * n_sites))
    support = set()
    for s in range(n_sites):
        reduced = np.trace(tensor, axis1=s, axis2=n_sites + s) / 2.0
        rebuilt = np.zeros_like(tensor)
        index = [slice(None)] * (2 * n_sites)
        for b in range(2):
            index[s] = index[n_sites + s] = b
            rebuilt[tuple(index)] = reduced
        if np.abs(rebuilt - tensor).max() > tol:
            support.add(s)
    return frozenset(support)


def block_gram_oracle(members, weights, o_eig):
    """(gram, corr, floor) of explicit eigenbasis members from dense
    matrices, as one stacked einsum: gram[i, j] = sum_mn p_n conj(A_i)_mn
    (A_j)_mn, corr[j] = sum_mn p_n conj(A_j)_mn O_mn = <A_j^dag O>, and the
    Gram floor (dim eps)^2 s, s the largest column norm^2 among the members.
    """
    arr = np.stack([np.asarray(m, dtype=complex) for m in members])
    p = np.asarray(weights, dtype=float)
    conj = arr.conj()
    gram = np.einsum("imn,jmn,n->ij", conj, arr, p, optimize=True)
    corr = np.einsum("imn,mn,n->i", conj, np.asarray(o_eig, dtype=complex), p, optimize=True)
    s = float(np.einsum("imn,imn->in", conj, arr).real.max())
    return gram, corr, (arr.shape[1] * np.finfo(float).eps) ** 2 * s


def local_cap_oracle(width, a_eig, o_eig, weights, slack=1e-9):
    """(cap, holds) of the strict-locality cap from dense eigenbasis
    matrices: cap = width^2 / 4 for a support of width contiguous sites,
    holds when |<A^dag O>|^2 / <A^dag A> <= cap + slack."""
    gram, corr, _ = block_gram_oracle([a_eig], weights, o_eig)
    cap = width**2 / 4.0
    return cap, bool(abs(corr[0]) ** 2 / gram[0, 0].real <= cap + slack)


def staggered_z_qfi_oracle(n_sites, coupling, field, beta):
    """Closed-form QFI of the staggered-z generator sum_j (-1)^j z_j / 2 on
    the open XX chain, through its Jordan-Wigner modes: with the mode
    energies eps_k = 4 J cos(k pi / (n + 1)) - 2 h, their Fermi occupations
    f_k and q = n + 1 - k, F = 2 sum_{k != q} (f_k - f_q)^2 /
    (f_k + f_q - 2 f_k f_q).  The denominator is written as f_k g_q + g_k
    f_q with g = 1 - f computed on its own, and f_k - f_q through tanh, so
    cold occupations keep their precision; at beta = inf a term with
    f_k = f_q is 0."""
    k = np.arange(1, n_sites + 1)
    eps = 4.0 * coupling * np.cos(k * np.pi / (n_sites + 1)) - 2.0 * field
    with np.errstate(invalid="ignore", over="ignore"):
        x = beta * eps
        f, g = 1.0 / (np.exp(x) + 1.0), 1.0 / (np.exp(-x) + 1.0)
        t = np.tanh(x / 2.0)
    q = n_sites - k  # index of mode n + 1 - k
    num = ((t[q] - t) / 2.0) ** 2
    den = f * g[q] + g * f[q]
    terms = np.divide(num, den, out=np.zeros(n_sites), where=(k != q + 1) & (num != 0.0))
    return 2.0 * float(terms.sum())
