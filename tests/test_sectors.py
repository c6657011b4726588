"""Differential tests for the sector-blocked diagonalization and the
weighted pair set.

diagonalize splits H along the connected components of its nonzero pattern.
Every quantity must agree with the dense route: np.linalg.eigvalsh of the
whole matrix, the dense product V^dag O V, the density-matrix oracles, and,
for the XX chains, a decomposition built from one dense eigh.  The pair set
of a block-sparse operator holds only its nonzero pairs; every route, bound
and comb evaluated on it must match the oracles, the same quantity on the
dense matrix, and the set of all pairs.  The preset pipeline, which builds
the pair set from Pauli-string entries and eigenbasis blocks with no dense
matrix, must give the pair set of the dense route.
"""

import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from qfidyn import (
    BlockOperator,
    DomainError,
    NumericError,
    PauliString,
    SparseOperator,
    SpectralDecomposition,
    comb_bound_check,
    diagonalize,
    eth_lower_bound,
    eth_qfi,
    eth_qfi_from_comb,
    eth_thermal_gap,
    gibbs_weights,
    qfi_from_dynsym,
    qfi_matrix,
    qfi_spectral,
    qfi_via_structure_factor,
    qfi_via_susceptibility,
    quantum_variance,
    qv_lower_bound,
    response_comb,
    skew_information,
    skew_lower_bound,
    structure_factor_comb,
    trivial_complete_set,
)
from qfidyn import operators
from qfidyn.dynsym import default_omega_tol
from qfidyn.models import preset, preset_operators, solve_preset
from qfidyn.operators import GENERATOR_KINDS, SpinChainSpec, _keys, xx_hamiltonian_strings
from qfidyn.spectral import _components
from oracles import (
    cluster_oracle,
    eigenvector_matrix,
    eigh_thermal_state,
    pair_sum_references,
    qfi_matrix_reference,
    qfi_oracle,
    qv_oracle,
    random_hermitian,
    reflection_permutation,
    skew_oracle,
    thermal_state,
    variance_oracle,
    weighted_pair_set_oracle,
)

BETAS = (0.0, 1e-12, 1.0, 1e8, math.inf)


def _block(rng, size, is_complex):
    m = random_hermitian(rng, size)
    return m if is_complex else m.real.copy()


def block_case(seed, sizes, copies, is_complex, noise):
    """A Hermitian matrix whose pattern splits into dense blocks of the given
    sizes, plus a copy of block i for each i in copies (an exact cross-block
    degeneracy, split by 1e-15 noise when noise is set), in a random basis
    order.  Returns (h, the basis index set of each block)."""
    rng = np.random.default_rng(seed)
    blocks = [_block(rng, size, is_complex) for size in sizes]
    for i in copies:
        twin = blocks[i % len(sizes)]
        if noise:
            twin = twin + 1e-15 * _block(rng, twin.shape[0], is_complex)
        blocks.append(twin)
    dim = sum(b.shape[0] for b in blocks)
    perm = rng.permutation(dim)
    h = np.zeros((dim, dim), dtype=complex if is_complex else float)
    h[np.ix_(perm, perm)] = scipy.linalg.block_diag(*blocks)
    bounds = np.cumsum([0] + [b.shape[0] for b in blocks])
    return h, [np.sort(perm[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def block_sparse_operator(rng, sets, is_complex):
    """A Hermitian operator with the entries between a random symmetric
    subset of block pairs set to exactly zero."""
    dim = sum(s.size for s in sets)
    o = random_hermitian(rng, dim)
    if not is_complex:
        o = o.real.copy()
    for a in range(len(sets)):
        for b in range(a, len(sets)):
            if rng.random() < 0.4:
                o[np.ix_(sets[a], sets[b])] = 0.0
                o[np.ix_(sets[b], sets[a])] = 0.0
    return o


case = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "sizes": st.lists(st.integers(1, 4), min_size=1, max_size=4),
        "copies": st.lists(st.integers(0, 3), max_size=3),
        "is_complex": st.booleans(),
        "noise": st.booleans(),
    }
)


@given(params=case)
def test_blocks_energies_and_eigenbasis_match_the_dense_route(params):
    h, sets = block_case(**params)
    spectral = diagonalize(h)
    assert sorted(tuple(rows) for rows, _ in spectral.blocks) == sorted(tuple(s) for s in sets)
    scale = max(1.0, float(np.abs(spectral.energies).max()))
    assert np.abs(spectral.energies - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
    v = eigenvector_matrix(spectral)
    assert np.abs(v.conj().T @ v - np.eye(h.shape[0])).max() <= 1e-12
    rng = np.random.default_rng(params["seed"] + 1)
    o = block_sparse_operator(rng, sets, params["is_complex"])
    # the upper triangle links block a to b without linking b to a
    for op in (o, np.triu(o)):
        got = spectral.to_eigenbasis(op)
        assert np.abs(got - v.conj().T @ op @ v).max() <= 1e-12 * max(1.0, np.abs(op).max())


# layouts a dense site-basis input may come in, each holding the same values
LAYOUTS = {
    "C order": lambda m: m,
    "Fortran order": np.asfortranarray,
    # every second row and column of a larger array: a view with strides
    # of neither order
    "strided view": lambda m: np.repeat(np.repeat(m, 2, axis=0), 2, axis=1)[::2, ::2],
    "complex, zero imaginary part": lambda m: m + 0j,
}


@given(params=case, layout=st.sampled_from(sorted(LAYOUTS)))
def test_entry_block_finder_recovers_the_planted_blocks(params, layout):
    h, sets = block_case(**params)
    planted = sorted(tuple(s) for s in sets)
    assert sorted(tuple(c) for c in _components(SparseOperator.from_dense(h))) == planted
    # a dense input, in any layout, is read as the entries of its
    # SparseOperator, so every result is the same bit for bit
    dense = diagonalize(LAYOUTS[layout](h))
    sparse = diagonalize(SparseOperator.from_dense(h))
    for spectral in (dense, sparse):
        assert sorted(tuple(rows) for rows, _ in spectral.blocks) == planted
    assert np.array_equal(dense.energies, sparse.energies)
    for got, want in zip(dense.block_vectors, sparse.block_vectors):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(eigenvector_matrix(dense), eigenvector_matrix(sparse))
    rng = np.random.default_rng(params["seed"] + 1)
    o = block_sparse_operator(rng, sets, params["is_complex"])
    got = dense.to_eigenblocks(LAYOUTS[layout](o)).products
    want = sparse.to_eigenblocks(SparseOperator.from_dense(o)).products
    assert list(got) == list(want)
    for pair, block in want.items():
        assert got[pair].dtype == block.dtype and np.array_equal(got[pair], block)


@given(params=case, beta=st.sampled_from(BETAS))
def test_block_routes_match_the_density_matrix_oracle(params, beta):
    h, sets = block_case(**params)
    spectral = diagonalize(h)
    ens = gibbs_weights(spectral, beta)
    rng = np.random.default_rng(params["seed"] + 2)
    o = block_sparse_operator(rng, sets, params["is_complex"])
    o_eig = spectral.to_eigenbasis(o)
    # expm is accurate up to moderate beta only; 1e8 takes the eigh oracle
    rho = eigh_thermal_state(h, beta) if beta == 1e8 else thermal_state(h, beta)
    want = qfi_oracle(rho, o)
    # At finite beta an energy error eps moves each weight by up to 2 beta eps
    # relative, and the QFI by up to 24 beta eps <O^2>.  Across a degenerate
    # pair the two solvers differ by ~1e-16 (the blocked one keeps exact
    # copies exact), which at beta = 1e8 is a 1e-8 shift of the weights: an
    # ill-conditioned input, not a fault of either route.
    eps = np.abs(spectral.energies - np.linalg.eigvalsh(h)).max()
    eps += 4 * np.finfo(float).eps * max(1.0, float(np.abs(spectral.energies).max()))
    second = float(np.sum(ens.weights[None, :] * np.abs(o_eig) ** 2))
    conditioning = 24.0 * beta * eps * second if math.isfinite(beta) else 0.0
    direct = qfi_spectral(o_eig, ens)
    assert abs(direct - want) <= 1e-10 * max(1.0, want) + conditioning
    # the routes and the bound share one spectrum, so they agree tightly
    tol = 1e-10 * max(1.0, direct)
    assert abs(qfi_via_susceptibility(o_eig, ens) - direct) <= tol
    assert abs(qfi_via_structure_factor(o_eig, ens) - direct) <= tol
    report = qfi_from_dynsym(trivial_complete_set(spectral), ens, o_eig)
    assert report.saturated
    assert abs(report.value - direct) <= tol


def pair_keys(part):
    """m * dim + n over a set's pairs."""
    return _keys(part.rows, part.cols, part.dim)


def close(a, b, scale, rtol=1e-10):
    return abs(a - b) <= rtol * max(1.0, abs(scale))


@given(params=case, beta=st.sampled_from(BETAS))
def test_pair_set_matches_the_oracles_the_dense_matrix_and_all_pairs(params, beta):
    h, sets = block_case(**params)
    spectral = diagonalize(h)
    ens = gibbs_weights(spectral, beta)
    rng = np.random.default_rng(params["seed"] + 2)
    o = block_sparse_operator(rng, sets, params["is_complex"])
    o_eig = spectral.to_eigenbasis(o)
    pairs = trivial_complete_set(spectral, op_eig=o_eig)
    everything = trivial_complete_set(spectral)
    rho = eigh_thermal_state(h, beta) if beta == 1e8 else thermal_state(h, beta)
    # the conditioning term of test_block_routes_match_the_density_matrix_oracle
    eps = np.abs(spectral.energies - np.linalg.eigvalsh(h)).max()
    eps += 4 * np.finfo(float).eps * max(1.0, float(np.abs(spectral.energies).max()))
    second = float(np.sum(ens.weights[None, :] * np.abs(o_eig) ** 2))
    conditioning = 24.0 * beta * eps * second if math.isfinite(beta) else 0.0

    direct = qfi_spectral(pairs, ens)
    want = qfi_oracle(rho, o)
    assert abs(direct - want) <= 1e-10 * max(1.0, want) + conditioning
    eth = eth_qfi(pairs, ens)
    assert abs(eth - 4.0 * variance_oracle(rho, o)) <= 1e-10 * max(1.0, eth) + 4 * conditioning
    skew = skew_information(pairs, ens, 0.5)
    qv = quantum_variance(pairs, ens)
    # The fractional-power oracles take rho's eigenvalues to the power alpha,
    # which turns a rounding-level 1e-17 into 3e-9 once weights underflow,
    # and the quadrature needs beta * width of a few tens at most.
    if beta <= 1.0:
        assert abs(skew - skew_oracle(rho, o, 0.5)) <= 1e-10 * max(1.0, skew)
        assert abs(qv - qv_oracle(rho, o)) <= 1e-10 * max(1.0, qv)

    # the three routes, on the set and on the dense matrix
    for op in (pairs, o_eig):
        for route in (qfi_spectral, qfi_via_susceptibility, qfi_via_structure_factor):
            assert close(route(op, ens), direct, direct)

    # the five bounds: saturated on the set and on all pairs, dense or not.
    # The ETH bound leaves out the omega = 0 correction 4 (D_0 - <O>^2), D_0
    # being the set's zero-cluster Mazur weight, degenerate pairs included
    gap = eth - direct
    d0 = float(pairs.cluster_weights(ens, pairs.values)[pairs.omegas == 0.0].sum())
    correction = 4.0 * (d0 - float(np.dot(ens.weights, np.diagonal(o_eig).real)) ** 2)
    for blocks, op in ((pairs, pairs), (pairs, o_eig), (everything, o_eig),
                       (everything, pairs)):
        report = qfi_from_dynsym(blocks, ens, op)
        assert report.saturated
        assert close(report.value, direct, direct)
        assert close(skew_lower_bound(blocks, ens, op), skew if beta > 0 else 0.0, skew)
        assert close(qv_lower_bound(blocks, ens, op), qv, qv)
        assert close(eth_lower_bound(blocks, ens, op) + correction, eth, eth)
        assert close(eth_thermal_gap(blocks, ens, op) + correction, gap, eth)

    # the combs: the set and the dense matrix give the same teeth
    g, g_dense = response_comb(pairs, ens), response_comb(o_eig, ens)
    assert np.array_equal(g.omegas, g_dense.omegas)
    assert np.abs(g.weights - g_dense.weights).max() <= 1e-10 * max(1.0, second)
    assert close(g.total(), second, second)
    s_comb = structure_factor_comb(pairs, ens)
    assert close(eth_qfi_from_comb(s_comb), eth, eth)
    # the QFI as 2 sum_k tanh^2(beta w_k / 2) s_k: cluster representatives
    # stand in for the gaps, hence the looser tolerance
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.nan_to_num(np.tanh(beta * s_comb.omegas / 2.0))
    assert close(float(np.sum(2.0 * t**2 * s_comb.weights.real)), direct, direct, rtol=1e-6)
    check = comb_bound_check(g, pairs, ens, pairs)
    assert check.equality
    assert max(abs(margin) for *_, margin in check.rows) <= 1e-10 * max(1.0, second)


@given(params=case, beta=st.sampled_from(BETAS))
def test_a_pair_set_certifies_only_operators_it_covers(params, beta):
    h, sets = block_case(**params)
    spectral = diagonalize(h)
    ens = gibbs_weights(spectral, beta)
    rng = np.random.default_rng(params["seed"] + 3)
    o1, o2 = (
        spectral.to_eigenbasis(block_sparse_operator(rng, sets, params["is_complex"]))
        for _ in range(2)
    )
    pairs = trivial_complete_set(spectral, op_eig=o1)
    nonzero = (o2 != 0) | (o2 != 0).T
    outside = not np.isin(np.flatnonzero(np.triu(nonzero)), pair_keys(pairs)).all()
    direct = qfi_spectral(o2, ens)
    comb = response_comb(o2, ens)
    for op in (o2, trivial_complete_set(spectral, op_eig=o2)):
        report = qfi_from_dynsym(pairs, ens, op)
        assert report.saturated == (not outside)
        assert comb_bound_check(comb, pairs, ens, op).equality == (not outside)
        assert report.value <= direct + 1e-10 * max(1.0, direct)
        if report.saturated:
            assert close(report.value, direct, direct)


def scalar_pair_sums(alpha):
    """The six scalar routes that metrology forms in its one chunked pass,
    each as a function of (op, ensemble); the skew information of order
    alpha."""
    return {
        "qfi_spectral": qfi_spectral,
        "qfi_via_susceptibility": qfi_via_susceptibility,
        "qfi_via_structure_factor": qfi_via_structure_factor,
        "skew_information": lambda op, ens: skew_information(op, ens, alpha),
        "quantum_variance": quantum_variance,
        "eth_qfi": eth_qfi,
    }


@given(params=case, beta=st.sampled_from(BETAS), alpha=st.sampled_from([0.25, 0.5, 0.9]))
def test_chunked_pair_sums_are_the_whole_array_formulas_bit_for_bit(params, beta, alpha):
    # every route sums one term array filled a chunk at a time, so at 7
    # pairs a chunk and at the default (one chunk here) it returns the
    # whole-array formula's value exactly
    h, sets = block_case(**params)
    spectral = diagonalize(h)
    ens = gibbs_weights(spectral, beta)
    rng = np.random.default_rng(params["seed"] + 4)
    pair_sets = [
        trivial_complete_set(spectral, op_eig=spectral.to_eigenbasis(
            block_sparse_operator(rng, sets, params["is_complex"])))
        for _ in range(2)
    ]
    gens = [(part.rows, part.cols, part.values) for part in pair_sets]
    args = (ens.energies, ens.weights, ens.log_weights, beta, alpha)
    want = pair_sum_references(*gens[0], *args)
    want_matrix = qfi_matrix_reference(gens, ens.weights, spectral.dim)
    routes = scalar_pair_sums(alpha)
    for chunk in (7, operators._PAIR_CHUNK):
        with mock.patch.object(operators, "_PAIR_CHUNK", chunk), warnings.catch_warnings():
            # two random generators need not commute
            warnings.simplefilter("ignore", RuntimeWarning)
            got = {name: route(pair_sets[0], ens) for name, route in routes.items()}
            assert got == want
            matrix = qfi_matrix(pair_sets, ens).matrix
        assert np.array_equal(matrix, want_matrix)


def test_a_one_sided_entry_counts_for_coverage():
    # Hermitian to rounding: O_10 = 1e-14 while O_01 is exactly 0, as
    # to_eigenbasis leaves a few pairs; the pair (0, 1) belongs to O
    spectral = diagonalize(np.diag([0.0, 1.0, 3.0]))
    ens = gibbs_weights(spectral, 1.0)
    o1 = np.diag([1.0, 2.0, 3.0])
    o1[1, 2] = o1[2, 1] = 0.5
    o2 = o1.copy()
    o2[1, 0] = 1e-14
    pairs = trivial_complete_set(spectral, op_eig=o1)
    assert 0 * 3 + 1 not in pair_keys(pairs)
    assert 0 * 3 + 1 in pair_keys(trivial_complete_set(spectral, op_eig=o2))
    assert not qfi_from_dynsym(pairs, ens, o2).saturated
    assert qfi_from_dynsym(pairs, ens, o1).saturated


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_connected_pattern_is_the_single_dense_solve_bit_for_bit(dim, is_complex):
    rng = np.random.default_rng(dim)
    h = _block(rng, dim, is_complex)
    o = _block(rng, dim, True)
    spectral = diagonalize(h)
    energies, vectors = np.linalg.eigh(h)
    assert len(spectral.blocks) == 1
    assert np.array_equal(spectral.energies, energies)
    assert np.array_equal(eigenvector_matrix(spectral), vectors)
    assert np.array_equal(spectral.to_eigenbasis(o), vectors.conj().T @ o @ vectors)


def dense_decomposition(h):
    """The decomposition from one eigh of the whole matrix: a single block."""
    energies, vectors = np.linalg.eigh(h)
    return SpectralDecomposition(energies, vectors)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("field", [0.0, 0.3])
@pytest.mark.parametrize("sites", range(2, 11))
def test_xx_chains_match_the_dense_path(sites, field, boundary):
    model = preset("chain", sites=sites, field=field, boundary=boundary)
    h, gen = (op.dense() for op in preset_operators(model))
    blocked = diagonalize(h)
    # one basis set per total S^z, each split into a P-even and a P-odd
    # block except the two fully polarized sectors, whose one state P fixes
    assert len({rows.tobytes() for rows, _ in blocked.blocks}) == sites + 1
    assert len(blocked.blocks) == 2 * sites
    dense = dense_decomposition(h.real)
    o_blocked = blocked.to_eigenbasis(gen)
    o_dense = dense.to_eigenbasis(gen)
    for beta in (1.0, math.inf):
        got, want = gibbs_weights(blocked, beta), gibbs_weights(dense, beta)
        for value in (
            lambda s, o, e: qfi_spectral(o, e),
            lambda s, o, e: qfi_from_dynsym(trivial_complete_set(s), e, o).value,
        ):
            a, b = value(blocked, o_blocked, got), value(dense, o_dense, want)
            assert abs(a - b) <= 1e-10 * max(1.0, b), (beta, a, b)


CHAINS = [
    (sites, field, boundary, kind)
    for sites in range(2, 11)
    for field in (0.0, 0.3)
    for boundary in ("open", "periodic")
    for kind in GENERATOR_KINDS
    if (kind == "antisymmetric-x") == (sites == 2)
]


def dense_route(model):
    """The pair set through dense matrices: diagonalize(H) -> dense
    to_eigenbasis -> trivial_complete_set."""
    h, o = (op.dense() for op in preset_operators(model))
    spectral = diagonalize(h)
    o_eig = spectral.to_eigenbasis(o)
    return spectral, trivial_complete_set(spectral, op_eig=o_eig), h


@pytest.mark.parametrize("sites, field, boundary, kind", CHAINS)
def test_sector_native_pair_set_is_the_dense_route(sites, field, boundary, kind):
    model = preset("chain", sites=sites, field=field, boundary=boundary, generator=kind)
    spectral, pairs, _ = solve_preset(model)
    dense_spectral, want, _ = dense_route(model)
    assert np.array_equal(spectral.energies, dense_spectral.energies)
    assert np.array_equal(pairs.rows, want.rows) and np.array_equal(pairs.cols, want.cols)
    scale = max(1.0, float(np.abs(want.values).max(initial=0.0)))
    assert np.abs(pairs.values - want.values).max(initial=0.0) <= 1e-12 * scale
    assert np.array_equal(pairs.omegas, want.omegas)


@pytest.mark.parametrize(
    "sites, field, boundary, kind", [c for c in CHAINS if c[0] <= 6]
)
def test_sector_native_routes_match_the_oracle(sites, field, boundary, kind):
    # the oracle is a double loop over dim^2 level pairs: six sites at most
    model = preset("chain", sites=sites, field=field, boundary=boundary, generator=kind)
    spectral, pairs, h = solve_preset(model)
    h, o = h.dense(), preset_operators(model)[1].dense()
    for beta in BETAS:
        ens = gibbs_weights(spectral, beta)
        rho = eigh_thermal_state(h, beta) if beta == 1e8 else thermal_state(h, beta)
        want = qfi_oracle(rho, o)
        direct = qfi_spectral(pairs, ens)
        # the conditioning term of test_block_routes_match_the_density_matrix_oracle
        eps = 4 * np.finfo(float).eps * max(1.0, float(np.abs(spectral.energies).max()))
        abs2 = np.abs(pairs.values) ** 2
        second = float(np.dot(ens.weights[pairs.cols], abs2))
        second += float(np.dot(ens.weights[pairs.rows], abs2))
        conditioning = 24.0 * beta * eps * second if math.isfinite(beta) else 0.0
        assert abs(direct - want) <= 1e-10 * max(1.0, want) + conditioning
        tol = 1e-10 * max(1.0, direct)
        assert abs(qfi_via_susceptibility(pairs, ens) - direct) <= tol
        assert abs(qfi_via_structure_factor(pairs, ens) - direct) <= tol
        report = qfi_from_dynsym(pairs, ens, pairs)
        assert report.saturated
        assert abs(report.value - direct) <= tol


def test_a_one_sided_eigenbasis_entry_enters_the_set():
    # O_01 is exactly 0 while O_10 is 1e-14: the pair (0, 1) is O's, with value 0.0
    within = BlockOperator(
        (np.array([0, 1]),), {(0, 0): np.array([[1.0, 0.0], [1e-14, 2.0]])}, 2, np.float64
    )
    # across blocks: the site-basis entry (1, 0) has no partner (0, 1)
    spectral = diagonalize(np.diag([0.0, 1.0, 3.0]))
    one_sided = SparseOperator([1, 1, 2, 2], [0, 2, 1, 2], [1e-14, 0.5, 0.5, 3.0], 3)
    across = spectral.to_eigenblocks(one_sided)
    for op, energies in ((within, [0.0, 1.0]), (across, spectral.energies)):
        levels = SimpleNamespace(energies=np.array(energies))
        pairs = trivial_complete_set(levels, op_eig=op)
        dense = trivial_complete_set(levels, op_eig=op.dense())
        assert 0 * op.dim + 1 in pair_keys(pairs)
        assert pairs.values[np.searchsorted(pair_keys(pairs), 1)] == 0.0
        assert np.array_equal(pair_keys(pairs), pair_keys(dense))
        assert np.array_equal(pairs.values, dense.values)


def test_weighted_clusters_are_the_gaps_of_the_set():
    spectral, pairs, _ = solve_preset(preset("chain", sites=6))
    k = pairs.omegas.size
    assert np.array_equal(pairs.omegas, -pairs.omegas[::-1]) and pairs.omegas[k // 2] == 0.0
    used = np.union1d(pairs.labels, k - 1 - pairs.labels)
    assert np.array_equal(np.union1d(used, [k // 2]), np.arange(k))
    gaps = spectral.energies[pairs.rows] - spectral.energies[pairs.cols]
    tol = 1e-8 * max(1.0, float(np.ptp(spectral.energies)))
    assert np.abs(pairs.omegas[pairs.labels] - gaps).max() <= tol
    # the set of all pairs clusters exactly the clusters of every gap, also
    # on a spectrum with exact and near degeneracies
    rounded = np.sort(np.round(np.random.default_rng(3).normal(size=40), 1))
    for levels, omega_tol in ((spectral, tol), (SimpleNamespace(energies=rounded), 0.15)):
        everything = trivial_complete_set(levels, omega_tol)
        all_gaps = (levels.energies[:, None] - levels.energies[None, :]).ravel()
        reps, labels = cluster_oracle(all_gaps, omega_tol, symmetric=True)
        assert np.array_equal(everything.omegas, reps)
        assert np.array_equal(everything.labels, labels[pair_keys(everything)])
    assert trivial_complete_set(spectral, tol).omegas.size > k


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_is_the_reference(part, energies, o_eig, omega_tol=None):
    """part holds the rows, cols, labels, omegas and values of
    weighted_pair_set_oracle for the dense eigenbasis matrix o_eig (every
    pair when it is None), bit for bit."""
    tol = default_omega_tol(energies) if omega_tol is None else omega_tol
    want = weighted_pair_set_oracle(energies, o_eig, tol)
    for name, arr in zip(("rows", "cols", "labels", "omegas", "values"), want):
        got = getattr(part, name)
        assert got is None if arr is None else same_bits(got, arr), name


@given(params=case, omega_tol=st.sampled_from([None, 1e-3, 0.3]))
def test_pair_sets_are_the_reference_bit_for_bit(params, omega_tol):
    h, sets = block_case(**params)
    spectral = diagonalize(h)
    rng = np.random.default_rng(params["seed"] + 4)
    blocks = spectral.to_eigenblocks(block_sparse_operator(rng, sets, params["is_complex"]))
    o_eig = blocks.dense()
    for op in (blocks, o_eig):
        part = trivial_complete_set(spectral, omega_tol, op)
        assert_is_the_reference(part, spectral.energies, o_eig, omega_tol)
    everything = trivial_complete_set(spectral, omega_tol)
    assert_is_the_reference(everything, spectral.energies, None, omega_tol)


@pytest.mark.parametrize("sites, field, boundary, kind", CHAINS)
def test_preset_pair_sets_are_the_reference_bit_for_bit(sites, field, boundary, kind):
    model = preset("chain", sites=sites, field=field, boundary=boundary, generator=kind)
    spectral, pairs, _ = solve_preset(model)
    o_eig = spectral.to_eigenbasis(preset_operators(model)[1])
    assert_is_the_reference(pairs, spectral.energies, o_eig)
    if sites <= 8:
        assert_is_the_reference(trivial_complete_set(spectral), spectral.energies, None)


def test_edge_pair_sets_are_the_reference_bit_for_bit():
    spectral = diagonalize(np.diag([0.0, 1.0, 3.0]))
    columns = tuple(cols for _, cols in spectral.blocks)
    empty = BlockOperator(columns, {}, 3, np.dtype(float))
    # O_01 is exactly 0 while O_10 is 1e-14, across blocks and within one
    across = spectral.to_eigenblocks(
        SparseOperator([1, 1, 2, 2], [0, 2, 1, 2], [1e-14, 0.5, 0.5, 3.0], 3)
    )
    within = BlockOperator(
        (np.array([0, 1]),), {(0, 0): np.array([[1.0, 0.0], [1e-14, 2.0]])}, 2, np.dtype(float)
    )
    two = SimpleNamespace(energies=np.array([0.0, 1.0]))
    for levels, op in ((spectral, empty), (spectral, across), (two, within)):
        for given_op in (op, op.dense()):
            part = trivial_complete_set(levels, None, given_op)
            assert_is_the_reference(part, levels.energies, op.dense())
    assert trivial_complete_set(spectral, None, empty).rows.size == 0
    # gaps exactly omega_tol apart, and from 0.0, share a cluster
    steps = SimpleNamespace(energies=np.array([0.0, 0.5, 1.25, 1.5]))
    hop = np.eye(4, k=1) + np.eye(4, k=-1)
    for omega_tol in (0.25, 0.5, 0.75):
        everything = trivial_complete_set(steps, omega_tol)
        assert_is_the_reference(everything, steps.energies, None, omega_tol)
        # no diagonal pair: the smallest gap alone decides the zero cluster
        part = trivial_complete_set(steps, omega_tol, hop)
        assert_is_the_reference(part, steps.energies, hop, omega_tol)


def test_the_pair_set_is_built_and_swept_within_its_memory_budget():
    # the 10-site chain from Pauli strings to its pair set, then one pass of
    # each QFI route over it: the traced peak stays within 48 B a pair
    # (about 70 when the set kept int64 indices and its keys, and every
    # eigenbasis block product lived until the set was built)
    tracemalloc.start()
    try:
        spectral, pairs, _ = solve_preset(preset("chain", sites=10))
        ens = gibbs_weights(spectral, 1.0)
        qfi_spectral(pairs, ens)
        qfi_from_dynsym(pairs, ens, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = pairs.rows.size
    # the S^z blocks link comb(20, 9) pairs, and reflection parity halves them
    assert n == math.comb(20, 9) // 2
    assert peak / n <= 48.0
    # stored: int32 rows, cols and labels and float64 values, nothing else
    per_pair = [a for a in vars(pairs).values() if isinstance(a, np.ndarray) and a.size == n]
    assert sum(a.nbytes for a in per_pair) == 20 * n


def test_every_scalar_pair_sum_holds_one_term_array_beside_the_set(monkeypatch):
    # each route fills one float64 term array, 8 B a pair, a chunk at a
    # time: with 1,024-pair chunks its traced peak above the set stays within
    # 8 B a pair + 256 KiB (whole-array gathers took up to 99 B a pair)
    monkeypatch.setattr(operators, "_PAIR_CHUNK", 1024)
    spectral, pairs, _ = solve_preset(preset("chain", sites=10))
    ens = gibbs_weights(spectral, 1.0)
    n = pairs.rows.size
    assert n == 83_980
    peaks = {}
    tracemalloc.start()
    try:
        for name, route in scalar_pair_sums(0.5).items():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            route(pairs, ens)
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) <= 8 * n + 256 * 1024, peaks


def test_staggered_generator_links_only_adjacent_sectors():
    h, o = (op.dense() for op in preset_operators(preset("chain", sites=4)))
    spectral = diagonalize(h)
    o_eig = spectral.to_eigenbasis(o)
    magnetization = [int(np.unpackbits(np.uint8(rows[0])).sum()) for rows, _ in spectral.blocks]
    for (_, cols_a), m_a in zip(spectral.blocks, magnetization):
        for (_, cols_b), m_b in zip(spectral.blocks, magnetization):
            sub = o_eig[np.ix_(cols_a, cols_b)]
            if abs(m_a - m_b) != 1:
                assert not sub.any()  # exact selection-rule zeros


def test_decomposition_rejects_inconsistent_blocks():
    energies, vectors = np.array([0.0, 1.0, 2.0]), np.eye(3)
    assert len(SpectralDecomposition(energies, vectors).blocks) == 1
    with pytest.raises(DomainError, match="shapes"):
        SpectralDecomposition(energies, vectors[:, :2])
    with pytest.raises(DomainError, match="ascending"):
        SpectralDecomposition(energies[::-1], vectors)


@pytest.mark.parametrize("row, col", [(0, 1), (1, 0)])
def test_one_sided_link_is_one_block_and_fails_reconstruction(row, col):
    # a non-Hermitian entry on one side of the diagonal still joins the two
    # states, and the block's reconstruction certificate then rejects it
    h = np.diag([1.0, 2.0, 5.0])
    h[row, col] = 0.5
    with pytest.raises(NumericError, match="reconstruct"):
        diagonalize(h)


def test_diagonal_hamiltonian_is_one_block_per_state():
    spectral = diagonalize(np.diag([3.0, 1.0, 2.0, 1.0]))
    assert len(spectral.blocks) == 4
    assert np.array_equal(spectral.energies, [1.0, 1.0, 2.0, 3.0])
    # ties keep block order: state 1 before state 3
    v = eigenvector_matrix(spectral)
    assert v[1, 0] == 1.0 and v[3, 1] == 1.0
    assert np.count_nonzero(v) == 4


# ---------------------------------------------------------------------------
# reflection parity blocks

chain_case = st.fixed_dictionaries(
    {
        "sites": st.integers(2, 10),
        "field": st.sampled_from([0.0, 0.3]) | st.floats(-2.0, 2.0),
        "boundary": st.sampled_from(["open", "periodic"]),
        "seed": st.integers(0, 10_000),
    }
)


def chain(case, generator=None):
    return preset("chain", sites=case["sites"], field=case["field"],
                  boundary=case["boundary"], generator=generator)


@given(case=chain_case)
def test_chain_eigenbasis_matches_the_dense_product(case):
    h, _ = preset_operators(chain(case))
    spectral = diagonalize(h)
    dense = h.dense().real
    # the energies of the unsplit S^z blocks
    unsplit = np.sort(np.concatenate(
        [np.linalg.eigvalsh(dense[np.ix_(c, c)]) for c in _components(h)]
    ))
    scale = max(1.0, float(np.abs(unsplit).max()))
    assert np.abs(spectral.energies - unsplit).max() <= 1e-12 * scale
    # a random operator, with no reflection parity: the two entries of row 0
    # in columns 1 and P 1 = 2^(n-1) differ
    rng = np.random.default_rng(case["seed"])
    dim = dense.shape[0]
    o = np.zeros((dim, dim), dtype=complex)
    picks = rng.integers(dim, size=(2, 3 * dim))
    o[picks[0], picks[1]] = rng.normal(size=3 * dim) + 1j * rng.normal(size=3 * dim)
    o[0, 1], o[0, dim // 2] = 1.0, 0.5j
    o = o + o.conj().T
    perm = reflection_permutation(case["sites"])
    assert not np.array_equal(np.abs(o[np.ix_(perm, perm)]), np.abs(o))
    v = eigenvector_matrix(spectral)
    got = spectral.to_eigenbasis(o)
    assert np.abs(got - v.conj().T @ o @ v).max() <= 1e-12 * np.abs(o).max()


@given(case=chain_case, kind=st.sampled_from(["staggered-x", "uniform-x", "uniform-z"]))
def test_every_pair_joins_the_parities_its_generator_allows(case, kind):
    model = chain(case, kind)
    spectral, pairs, _ = solve_preset(model)
    perm = reflection_permutation(case["sites"])
    v = eigenvector_matrix(spectral)
    # every eigenvector is a reflection eigenstate, degenerate levels too
    parity = np.einsum("sm,sm->m", v.conj(), v[perm]).real
    assert np.abs(np.abs(parity) - 1.0).max() <= 1e-12
    gen = preset_operators(model)[1].dense()
    mirrored = gen[np.ix_(perm, perm)]
    sign = 1 if np.array_equal(mirrored, gen) else -1
    assert np.array_equal(mirrored, sign * gen)
    assert np.all(np.sign(parity[pairs.rows]) * np.sign(parity[pairs.cols]) == sign)


@given(
    case=chain_case.filter(lambda c: c["sites"] <= 7),
    beta=st.sampled_from([0.0, 1e-12, 1.0, math.inf]),
)
# at the two-site level crossing the ground gap 2e-8 clusters to omega = 0,
# and at beta = inf its pair carries the whole QFI
@example(case={"sites": 2, "field": 1.00000001, "boundary": "open", "seed": 0}, beta=math.inf)
def test_parity_blocked_routes_match_the_density_matrix_oracle(case, beta):
    model = chain(case)
    spectral, pairs, h = solve_preset(model)
    ens = gibbs_weights(spectral, beta)
    gen = preset_operators(model)[1].dense()
    want = qfi_oracle(thermal_state(h.dense(), beta), gen)
    report = qfi_from_dynsym(pairs, ens, pairs)
    assert report.saturated
    for route in (qfi_spectral, qfi_via_susceptibility, qfi_via_structure_factor):
        assert abs(route(pairs, ens) - want) <= 1e-12 * max(1.0, want), route
    assert abs(report.value - want) <= 1e-12 * max(1.0, want)


@pytest.mark.parametrize("sites", [3, 6, 9])
def test_a_hamiltonian_without_reflection_keeps_its_blocks_bit_for_bit(sites):
    # a field on site 0 alone breaks the reflection: diagonalize solves each
    # S^z block whole, as eigh of its sub-matrix
    strings = xx_hamiltonian_strings(SpinChainSpec(sites, 1.0, 0.3))
    h = SparseOperator.from_strings(strings + [PauliString(0.2, ((0, "z"),))], sites)
    spectral = diagonalize(h)
    components = _components(h)
    assert [tuple(rows) for rows, _ in spectral.blocks] == [tuple(c) for c in components]
    dense = h.dense()
    solved = [np.linalg.eigh(dense[np.ix_(c, c)]) for c in components]
    for (_, want), got in zip(solved, spectral.block_vectors):
        assert np.array_equal(got, want)
    merged = np.concatenate([e for e, _ in solved])
    assert np.array_equal(spectral.energies, merged[np.argsort(merged, kind="stable")])
