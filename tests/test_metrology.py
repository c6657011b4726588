"""QFI routes, frequency-block bounds, generalized variances, QFI matrix,
ETH quantities, and the entanglement witness."""

import ast
import math
import pathlib
import tokenize
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfidyn import (
    BlockOperator,
    DomainError,
    NumericError,
    OperatorBlock,
    PairPartition,
    PauliString,
    QfiMatrix,
    SparseOperator,
    diagonalize,
    entanglement_depth,
    eth_lower_bound,
    eth_qfi,
    eth_qfi_from_comb,
    eth_thermal_gap,
    gibbs_weights,
    mazur_weight,
    qfi_from_dynsym,
    qfi_matrix,
    qfi_matrix_from_dynsym,
    qfi_spectral,
    qfi_via_structure_factor,
    qfi_via_susceptibility,
    quantum_variance,
    comb_bound_check,
    qv_lower_bound,
    response_comb,
    skew_information,
    skew_lower_bound,
    structure_factor_comb,
    thermal_expectation,
    trivial_complete_set,
    verified_blocks,
)
import qfidyn
from qfidyn import dynsym, metrology
from qfidyn.models import preset, preset_operators, solve_preset, two_qubit_symmetry_operators
from oracles import (
    qfi_oracle,
    qv_oracle,
    random_hermitian,
    random_unitary,
    skew_oracle,
    thermal_state,
    variance_oracle,
)


def random_case(rng, dim, beta, scale=1.0):
    h = random_hermitian(rng, dim)
    spectral = diagonalize(h)
    ens = gibbs_weights(spectral, beta)
    o_site = random_hermitian(rng, dim, scale)
    return h, spectral, ens, o_site, spectral.to_eigenbasis(o_site)


def keep_clusters(part, keep):
    """The partition with every pair (m, n) whose cluster k has not keep[k]
    left out, its mirror (n, m) with it."""
    mask = keep[part.labels]
    return PairPartition(
        part.omegas, part.rows[mask], part.cols[mask], part.labels[mask], part.dim
    )


def first_half(part):
    """The first half of the clusters a pair m <= n can fall in (omega_mn
    <= 0 there): the pairs with the widest gaps, and their mirrors."""
    return keep_clusters(part, np.arange(part.omegas.size) < part.omegas.size // 4)


def dense_preset(name, **overrides):
    """Hamiltonian and generator of a preset as dense matrices."""
    return tuple(op.dense() for op in preset_operators(preset(name, **overrides)))


def two_qubit_case(field=0.5, beta=1.0):
    h_op, gen = dense_preset("two-qubit", field=field)
    spectral = diagonalize(h_op)
    ens = gibbs_weights(spectral, beta)
    return h_op, gen, spectral, ens, spectral.to_eigenbasis(gen)


# ---------------------------------------------------------------------------
# the QFI itself

def test_qfi_matches_density_matrix_oracle(rng):
    for dim in (2, 3, 5, 8, 12):
        for beta in (0.0, 0.5, 1.0, 10.0, math.inf):
            h, spectral, ens, o_site, o_eig = random_case(rng, dim, beta)
            got = qfi_spectral(o_eig, ens)
            want = qfi_oracle(thermal_state(h, beta), o_site)
            assert abs(got - want) <= 1e-8 * max(1.0, want), (dim, beta)


def test_qfi_vanishes_for_conserved_generator(rng):
    _, spectral, ens, _, _ = random_case(rng, 6, 1.0)
    diag = np.diag(rng.normal(size=6)).astype(complex)
    assert qfi_spectral(diag, ens) == 0.0


def test_qfi_vanishes_at_beta_zero(rng):
    _, _, ens, _, o_eig = random_case(rng, 6, 0.0)
    assert qfi_spectral(o_eig, ens) == 0.0


def test_two_qubit_ground_state_limits():
    # singlet ground state below the crossing: F_Q = 4, so density 2
    *_, ens_low, o_low = two_qubit_case(field=0.5, beta=math.inf)
    f_low = qfi_spectral(o_low, ens_low)
    assert abs(f_low - 4.0) < 1e-9
    assert entanglement_depth(f_low, 2).depth == 2

    # polarized product ground state above the crossing: density 1
    h_op, gen, _, ens_high, o_high = two_qubit_case(field=1.5, beta=math.inf)
    f_high = qfi_spectral(o_high, ens_high)
    assert abs(f_high - 2.0) < 1e-9
    assert entanglement_depth(f_high, 2).depth == 1

    # both limits equal four times the ground-state variance
    rho = thermal_state(h_op, math.inf)
    assert math.isclose(f_high, 4.0 * variance_oracle(rho, gen), abs_tol=1e-9)


def test_qfi_unitary_invariance(rng):
    h, _, _, o_site, _ = random_case(rng, 7, 1.2)
    u = random_unitary(rng, 7)

    def value(mat_h, mat_o):
        spectral = diagonalize(mat_h)
        ens = gibbs_weights(spectral, 1.2)
        return qfi_spectral(spectral.to_eigenbasis(mat_o), ens)

    plain = value(h, o_site)
    rotated = value(u @ h @ u.conj().T, u @ o_site @ u.conj().T)
    assert math.isclose(plain, rotated, rel_tol=1e-9)


def test_qfi_scale_law(rng):
    _, _, ens, _, o_eig = random_case(rng, 6, 0.8)
    base = qfi_spectral(o_eig, ens)
    scaled = qfi_spectral(2.5 * o_eig, ens)
    assert math.isclose(scaled, 2.5**2 * base, rel_tol=1e-10)


def test_qfi_rejects_nonhermitian(rng):
    _, _, ens, _, _ = random_case(rng, 4, 1.0)
    with pytest.raises(DomainError):
        qfi_spectral(np.triu(np.ones((4, 4))), ens)


# ---------------------------------------------------------------------------
# route equivalence

def test_three_routes_agree_at_finite_beta(rng):
    for dim in (2, 5, 9, 16):
        for beta in (0.0, 0.3, 1.0, 5.0, 10.0):
            _, _, ens, _, o_eig = random_case(rng, dim, beta)
            spectral_route = qfi_spectral(o_eig, ens)
            susc_route = qfi_via_susceptibility(o_eig, ens)
            struct_route = qfi_via_structure_factor(o_eig, ens)
            assert abs(susc_route - spectral_route) <= 1e-10, (dim, beta)
            assert abs(struct_route - spectral_route) <= 1e-10, (dim, beta)


def test_three_routes_agree_at_beta_inf_on_split_ground_doublet():
    # the 5-site XX chain at h = 0 has a ground doublet, one level in each of
    # two S^z sectors.  Conjugating H and the generator with a fixed random
    # orthogonal matrix connects H's pattern, so the dense solve splits the
    # doublet by ~5e-15, far below the degeneracy tolerance; gibbs_weights
    # spreads the weight over both levels, so the tanh route must treat the
    # split as no gap
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(32, 32)))
    h_chain, gen = dense_preset("chain", sites=5, field=0.0)
    h = q @ h_chain @ q.T
    spectral = diagonalize(h)
    assert len(spectral.blocks) == 1
    assert 0.0 < spectral.energies[1] - spectral.energies[0] < spectral.energy_tol
    o_eig = spectral.to_eigenbasis(q @ gen @ q.T)
    ens = gibbs_weights(spectral, math.inf)
    bare = gibbs_weights(spectral.energies, math.inf)
    for e in (ens, bare):
        spectral_route = qfi_spectral(o_eig, e)
        assert abs(qfi_via_susceptibility(o_eig, e) - spectral_route) <= 1e-9
        assert abs(qfi_via_structure_factor(o_eig, e) - spectral_route) <= 1e-9


def test_a_huge_finite_beta_is_its_large_beta_limit():
    # -beta (E_n - E_min) overflows to -inf near beta = 1e308, the exact
    # limit of the log weight; it once raised a RuntimeWarning, which the
    # suite and CI make an error, and `qfi --beta 1e308` exited 1
    spectral, pairs, _ = solve_preset(preset("chain", sites=4))
    routes = (qfi_spectral, qfi_via_susceptibility, qfi_via_structure_factor,
              quantum_variance, lambda op, ens: skew_information(op, ens, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge, large = (gibbs_weights(spectral, beta) for beta in (1e308, 1e200))
        for i, route in enumerate(routes):
            assert route(pairs, huge) == route(pairs, large), i


def test_comb_routes_agree_with_pair_routes(rng):
    # the QFI as 2 sum_k tanh^2(beta w_k / 2) s_k over the structure comb,
    # which is 2 sum_k tanh(beta w_k / 2) x_k over the susceptibility weights
    # x_k = tanh(beta w_k / 2) s_k
    _, _, ens, _, o_eig = random_case(rng, 8, 1.3)
    s = structure_factor_comb(o_eig, ens)
    t = np.tanh(1.3 * s.omegas / 2.0)
    from_s = float(np.sum(2.0 * t**2 * s.weights.real))
    # comb routes run over cluster representatives, hence the looser tol
    assert abs(from_s - qfi_spectral(o_eig, ens)) <= 1e-6


# ---------------------------------------------------------------------------
# skew information

def test_skew_rejects_alpha_outside_open_interval(rng):
    _, _, ens, _, o_eig = random_case(rng, 4, 1.0)
    for alpha in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            skew_information(o_eig, ens, alpha)


def test_skew_matches_fractional_power_oracle(rng):
    for dim, beta in ((4, 0.7), (9, 2.0)):
        h, _, ens, o_site, o_eig = random_case(rng, dim, beta)
        rho = thermal_state(h, beta)
        for alpha in (0.2, 0.5, 0.8):
            got = skew_information(o_eig, ens, alpha)
            want = skew_oracle(rho, o_site, alpha)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_skew_half_equals_sqrt_commutator_formula(rng):
    h, _, ens, o_site, o_eig = random_case(rng, 6, 1.1)
    rho = thermal_state(h, 1.1)
    p, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(p, 0.0, None))) @ v.conj().T
    comm = o_site @ sqrt_rho - sqrt_rho @ o_site
    want = -float(np.trace(comm @ comm).real) / 2.0
    assert abs(skew_information(o_eig, ens, 0.5) - want) <= 1e-10


def test_skew_pure_state_is_alpha_independent_variance():
    h_op, gen, _, ens, o_eig = two_qubit_case(field=1.5, beta=math.inf)
    rho = thermal_state(h_op, math.inf)
    var = variance_oracle(rho, gen)
    for alpha in (0.3, 0.5, 0.9):
        assert math.isclose(skew_information(o_eig, ens, alpha), var, abs_tol=1e-12)


def test_skew_vanishes_at_beta_zero(rng):
    _, _, ens, _, o_eig = random_case(rng, 5, 0.0)
    assert abs(skew_information(o_eig, ens, 0.5)) < 1e-14


# ---------------------------------------------------------------------------
# quantum variance

def test_quantum_variance_matches_quadrature(rng):
    for dim, beta in ((4, 0.5), (8, 1.0), (12, 2.0)):
        h, _, ens, o_site, o_eig = random_case(rng, dim, beta)
        got = quantum_variance(o_eig, ens)
        want = qv_oracle(thermal_state(h, beta), o_site)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (dim, beta)


def test_quantum_variance_pure_state_is_variance():
    h_op, gen, _, ens, o_eig = two_qubit_case(field=0.5, beta=math.inf)
    rho = thermal_state(h_op, math.inf)
    assert math.isclose(
        quantum_variance(o_eig, ens), variance_oracle(rho, gen), abs_tol=1e-12
    )


def test_quantum_variance_vanishes_at_beta_zero(rng):
    _, _, ens, _, o_eig = random_case(rng, 5, 0.0)
    assert abs(quantum_variance(o_eig, ens)) < 1e-14


def test_quantum_variance_series_branch(rng):
    # a 1e-9 gap forces the log-ratio series; the quadrature cannot tell
    spectral = diagonalize(np.diag([0.0, 1e-9, 1.0]))
    ens = gibbs_weights(spectral, 1.0)
    o_site = random_hermitian(rng, 3)
    o_eig = spectral.to_eigenbasis(o_site)
    got = quantum_variance(o_eig, ens)
    want = qv_oracle(thermal_state(np.diag([0.0, 1e-9, 1.0]), 1.0), o_site)
    assert abs(got - want) <= 1e-10


def test_quantum_variance_exact_degeneracy(rng):
    spectral = diagonalize(np.diag([0.0, 0.0, 1.0]))
    ens = gibbs_weights(spectral, 1.0)
    o_site = random_hermitian(rng, 3)
    o_eig = spectral.to_eigenbasis(o_site)
    want = qv_oracle(thermal_state(np.diag([0.0, 0.0, 1.0]), 1.0), o_site)
    assert abs(quantum_variance(o_eig, ens) - want) <= 1e-10


@given(dim=st.integers(2, 10), beta=st.floats(0.0, 8.0), seed=st.integers(0, 10_000))
def test_ordering_chain(dim, beta, seed):
    rng = np.random.default_rng(seed)
    _, _, ens, _, o_eig = random_case(rng, dim, beta)
    qv = quantum_variance(o_eig, ens)
    skew = skew_information(o_eig, ens, 0.5)
    quarter = qfi_spectral(o_eig, ens) / 4.0
    var = thermal_expectation(o_eig @ o_eig, ens) - thermal_expectation(o_eig, ens) ** 2
    slack = 1e-9
    assert qv <= skew + slack
    assert skew <= quarter + slack
    assert quarter <= var + slack


# ---------------------------------------------------------------------------
# frequency-block bounds

def test_bounds_saturate_on_complete_set(rng):
    for dim in (3, 6, 10):
        for beta in (0.0, 1.0, 5.0, math.inf):
            _, spectral, ens, _, o_eig = random_case(rng, dim, beta)
            blocks = trivial_complete_set(spectral)
            report = qfi_from_dynsym(blocks, ens, o_eig)
            direct = qfi_spectral(o_eig, ens)
            assert report.saturated
            assert abs(report.value - direct) <= 1e-9 * max(1.0, direct), (dim, beta)

            skew_direct = skew_information(o_eig, ens, 0.5) if beta > 0 else 0.0
            assert abs(
                skew_lower_bound(blocks, ens, o_eig) - skew_direct
            ) <= 1e-9 * max(1.0, skew_direct)

            qv_direct = quantum_variance(o_eig, ens)
            assert abs(
                qv_lower_bound(blocks, ens, o_eig) - qv_direct
            ) <= 1e-9 * max(1.0, qv_direct)


def test_bounds_are_exact_zeros_at_beta_zero(rng):
    _, spectral, ens, _, o_eig = random_case(rng, 5, 0.0)
    blocks = trivial_complete_set(spectral)
    assert qfi_from_dynsym(blocks, ens, o_eig).value == 0.0
    assert skew_lower_bound(blocks, ens, o_eig) == 0.0
    assert qv_lower_bound(blocks, ens, o_eig) == 0.0


def test_report_breakdown_is_consistent(rng):
    _, spectral, ens, _, o_eig = random_case(rng, 6, 1.4)
    report = qfi_from_dynsym(trivial_complete_set(spectral), ens, o_eig)
    assert math.isclose(sum(report.per_frequency.values()), report.value, rel_tol=1e-12)
    omegas = list(report.per_frequency)
    assert omegas == sorted(omegas)
    assert report.per_frequency[0.0] == 0.0
    assert report.saturated


def test_subset_bound_is_monotone_and_below(rng):
    _, spectral, ens, _, o_eig = random_case(rng, 8, 2.0)
    blocks = trivial_complete_set(spectral)
    subset = first_half(blocks)
    full = qfi_from_dynsym(blocks, ens, o_eig)
    part = qfi_from_dynsym(subset, ens, o_eig)
    assert not part.saturated
    assert part.value <= full.value + 1e-12
    assert part.value <= qfi_spectral(o_eig, ens) + 1e-9


@given(
    dim=st.integers(2, 12),
    beta=st.sampled_from([0.0, 1.0, 1e8, math.inf]),
    seed=st.integers(0, 10_000),
)
def test_saturation_certificate_is_honest(dim, beta, seed):
    rng = np.random.default_rng(seed)
    _, spectral, ens, _, o_eig = random_case(rng, dim, beta)
    direct = qfi_spectral(o_eig, ens)
    part = trivial_complete_set(spectral)
    keep = rng.random(part.omegas.size) < 0.5
    keep[rng.choice(part.labels)] = False  # a cluster that holds a pair
    dropped = keep_clusters(part, keep)
    for blocks, should_saturate in ((part, True), (dropped, False)):
        report = qfi_from_dynsym(blocks, ens, o_eig)
        assert report.saturated == should_saturate
        if report.saturated:
            assert abs(report.value - direct) <= 1e-9 * max(1.0, direct)
    # two partitions would count every shared pair twice: no symmetry set
    with pytest.raises(DomainError, match="got PairPartition"):
        qfi_from_dynsym([part, part], ens, o_eig)


def test_duplicated_pair_is_not_certified():
    # dim 3, beta = 1: the pair (1, 2) swapped for a second copy of (0, 1).
    # A lone partition cannot hold a pair twice, and a set cannot mix it
    # with explicit blocks, nor hold two blocks at one frequency, so no form
    # of a symmetry set can hold the copy.
    rng = np.random.default_rng(3)
    _, spectral, ens, _, o_eig = random_case(rng, 3, 1.0)
    part = trivial_complete_set(spectral)
    keep = ~((part.rows == 1) & (part.cols == 2))
    swapped = PairPartition(
        part.omegas, part.rows[keep], part.cols[keep], part.labels[keep], part.dim
    )
    e = spectral.energies
    copies = []
    for m, n in ((1, 0), (0, 1)):
        copy = np.zeros((3, 3), dtype=complex)
        copy[m, n] = 1.0
        copies.append(OperatorBlock(e[m] - e[n], (copy,)))
    with pytest.raises(DomainError, match="got PairPartition"):
        qfi_from_dynsym([swapped, *copies], ens, o_eig)
    with pytest.raises(DomainError, match="verified_blocks"):
        qfi_from_dynsym([*copies, copies[0]], ens, o_eig)


def test_a_symmetry_set_takes_one_of_two_forms(rng):
    # a PairPartition alone, or OperatorBlocks at distinct frequencies:
    # every bound, the QFI-matrix bound and the comb check refuse the rest
    _, spectral, ens, _, o_eig = random_case(rng, 4, 1.0)
    part = trivial_complete_set(spectral)
    e = spectral.energies
    eigenpair = np.zeros((4, 4))
    eigenpair[0, 1] = 1.0
    block = OperatorBlock(e[0] - e[1], (eigenpair,))
    twin = OperatorBlock(e[0] - e[1], (eigenpair.T.copy(),))
    calls = [
        *(lambda blocks, f=f: f(blocks, ens, o_eig) for f in (
            qfi_from_dynsym, skew_lower_bound, qv_lower_bound, eth_lower_bound, eth_thermal_gap)),
        lambda blocks: qfi_matrix_from_dynsym(blocks, ens, [o_eig]),
        lambda blocks: comb_bound_check(response_comb(o_eig, ens), blocks, ens, o_eig),
    ]
    for call in calls:
        for blocks, match in (([part], "got PairPartition"), ([block, part], "got PairPartition"),
                              ([block, twin], "verified_blocks"), ([block, 42], "got int")):
            with pytest.raises(DomainError, match=match):
                call(blocks)
        call(part)
        call([block])


def test_only_dynsym_tells_the_forms_of_a_symmetry_set_apart():
    # metrology and response take every per-frequency weight from
    # dynsym._frequency_sums: they name neither form nor its internals
    package = pathlib.Path(metrology.__file__).parent
    hidden = {"PairPartition", "OperatorBlock", "_symmetry_set", "_gram_and_correlators",
              "_pinv_quadratic", "_cluster_sums", "_gram_floor"}
    for name in ("metrology.py", "response.py"):
        with tokenize.open(package / name) as f:
            names = {tok.string for tok in tokenize.generate_tokens(f.readline)
                     if tok.type == tokenize.NAME}
        assert not names & hidden, name


def test_only_verified_blocks_makes_blocks_of_operators():
    # verified_blocks is the one way from operators to OperatorBlocks, and
    # _local_cap wraps its one eigenbasis member; the site-basis record
    # path, which let a site-basis member into a bound, is gone
    def makers(node, owner):
        """The innermost def or class around each OperatorBlock call."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "OperatorBlock" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                yield owner
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            yield from makers(child, child.name if named else owner)

    package = pathlib.Path(metrology.__file__).parent
    found = {(path.name, owner) for path in sorted(package.glob("*.py"))
             for owner in makers(ast.parse(path.read_text(encoding="utf-8")), None)}
    assert found == {("dynsym.py", "verified_blocks"), ("dynsym.py", "_local_cap")}
    removed = {"DynamicalSymmetry", "dynamical_symmetry", "group_into_blocks"}
    assert not removed & set(qfidyn.__all__)
    assert not any(hasattr(module, name) for module in (qfidyn, dynsym) for name in removed)


def test_explicit_blocks_give_one_column_each_in_frequency_order(rng):
    # the bounds' columns ascend in frequency whatever the list order, so
    # every bound kind and the QFI-matrix bound agree bit for bit across
    # orders; the comb check's rows keep the caller's order, each with its
    # block's mazur_weight
    _, spectral, ens, _, o_eig = random_case(rng, 4, 1.0)
    e = spectral.energies
    blocks = []
    for m, n in ((0, 1), (3, 2), (2, 0), (1, 3), (3, 0), (1, 1)):
        op = np.zeros((4, 4))
        op[m, n] = 1.0
        blocks.append(OperatorBlock(e[m] - e[n], (op,)))
    report = qfi_from_dynsym(blocks, ens, o_eig)
    assert report.omegas.tolist() == sorted(b.omega for b in blocks)
    generators = [o_eig, o_eig @ o_eig]
    bounds = (skew_lower_bound, qv_lower_bound, eth_lower_bound, eth_thermal_gap)
    comb = response_comb(o_eig, ens)
    for order in (blocks, blocks[::-1], [blocks[i] for i in (4, 1, 5, 0, 3, 2)]):
        again = qfi_from_dynsym(order, ens, o_eig)
        assert again.value == report.value
        assert again.contributions.tolist() == report.contributions.tolist()
        assert [f(order, ens, o_eig) for f in bounds] == [f(blocks, ens, o_eig) for f in bounds]
        assert np.array_equal(qfi_matrix_from_dynsym(order, ens, generators).matrix,
                              qfi_matrix_from_dynsym(blocks, ens, generators).matrix)
        rows = comb_bound_check(comb, order, ens, o_eig).rows
        assert [r[0] for r in rows] == [b.omega for b in order]
        assert [r[2] for r in rows] == [mazur_weight(b, ens, o_eig) for b in order]


def test_conserved_blocks_contribute_nothing(rng):
    _, spectral, ens, _, o_eig = random_case(rng, 5, 1.0)
    conserved = OperatorBlock(
        0.0, (np.eye(5, dtype=complex), np.diag(ens.energies).astype(complex))
    )
    assert qfi_from_dynsym([conserved], ens, o_eig).value == 0.0
    assert skew_lower_bound([conserved], ens, o_eig) == 0.0
    assert qv_lower_bound([conserved], ens, o_eig) == 0.0
    assert eth_lower_bound([conserved], ens, o_eig) == 0.0


def test_analytic_operator_blocks_saturate_two_qubit():
    h_op, gen, spectral, ens, o_eig = two_qubit_case(field=0.5, beta=1.7)
    ops = [op.dense() for op in two_qubit_symmetry_operators().values()]
    blocks = verified_blocks(h_op, spectral, ops)
    report = qfi_from_dynsym(blocks, ens, o_eig)
    direct = qfi_spectral(o_eig, ens)
    assert not report.saturated  # operator blocks, not the pair partition
    assert abs(report.value - direct) <= 1e-9 * max(1.0, direct)


def test_block_validation_errors(rng):
    _, spectral, ens, _, o_eig = random_case(rng, 4, 1.0)
    big = trivial_complete_set(diagonalize(random_hermitian(rng, 6)))
    with pytest.raises(DomainError):
        qfi_from_dynsym(big, ens, o_eig)
    with pytest.raises(DomainError):
        qfi_from_dynsym([42], ens, o_eig)


# ---------------------------------------------------------------------------
# QFI matrix

def test_single_generator_matrix(rng):
    _, spectral, ens, _, o_eig = random_case(rng, 5, 1.0)
    m = qfi_matrix([o_eig], ens)
    assert m.matrix.shape == (1, 1) and m.commuting
    assert math.isclose(m.matrix[0, 0], qfi_spectral(o_eig, ens), rel_tol=1e-12)


def test_duplicated_generator_matrix(rng):
    _, spectral, ens, _, o_eig = random_case(rng, 5, 1.0)
    m = qfi_matrix([o_eig, o_eig], ens).matrix
    assert math.isclose(m[0, 0], m[1, 1], rel_tol=1e-14)
    assert math.isclose(m[0, 1], m[0, 0], rel_tol=1e-14)


def qfi_matrix_reference(gens, ens):
    """Independent elementwise double loop over level pairs."""
    p = ens.weights
    d = len(gens)
    out = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            total = 0.0
            for m in range(p.size):
                for n in range(p.size):
                    tot = p[m] + p[n]
                    if tot < 1e-15:
                        continue
                    total += (
                        2.0 * (p[n] - p[m]) ** 2 / tot * (gens[a][m, n] * gens[b][n, m]).real
                    )
            out[a, b] = total
    return out


def test_qfi_matrix_matches_elementwise_reference():
    h_op, gen, spectral, ens, o_eig = two_qubit_case(field=0.5, beta=1.0)
    z_total = dense_preset("two-qubit", generator="uniform-z")[1]
    gens = [spectral.to_eigenbasis(z_total), o_eig]
    with pytest.warns(RuntimeWarning):
        m = qfi_matrix(gens, ens)
    assert not m.commuting
    want = qfi_matrix_reference(gens, ens)
    assert np.abs(m.matrix - want).max() <= 1e-10
    # total magnetization commutes with H, so its diagonal entry vanishes
    assert abs(m.matrix[0, 0]) < 1e-14


def test_the_non_commuting_warning_points_at_the_caller():
    _, _, spectral, ens, o_eig = two_qubit_case(field=0.5, beta=1.0)
    z_total = spectral.to_eigenbasis(dense_preset("two-qubit", generator="uniform-z")[1])
    gens, blocks = [z_total, o_eig], trivial_complete_set(spectral)
    for route in (lambda: qfi_matrix(gens, ens), lambda: qfi_matrix_from_dynsym(blocks, ens, gens)):
        with pytest.warns(RuntimeWarning, match="do not commute") as record:
            route()
        assert record[0].filename == __file__


def test_qfi_matrix_commuting_pair_has_clean_flag():
    h_op, gen, spectral, ens, _ = two_qubit_case()
    z_total = spectral.to_eigenbasis(dense_preset("two-qubit", generator="uniform-z")[1])
    z_stag = spectral.to_eigenbasis(
        SparseOperator.from_strings(
            (PauliString(0.5, ((0, "z"),)), PauliString(-0.5, ((1, "z"),))), 2
        ).dense()
    )
    m = qfi_matrix([z_total, z_stag], ens)
    assert m.commuting
    assert m.matrix[0, 0] == 0.0


def test_qfi_matrix_from_dynsym_complete_set(rng):
    _, spectral, ens, _, _ = random_case(rng, 6, 1.0)
    gens = [
        spectral.to_eigenbasis(random_hermitian(rng, 6)),
        spectral.to_eigenbasis(random_hermitian(rng, 6)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        direct = qfi_matrix(gens, ens)
        decomposed = qfi_matrix_from_dynsym(trivial_complete_set(spectral), ens, gens)
    scale = max(1.0, float(np.abs(direct.matrix).max()))
    assert np.abs(decomposed.matrix - direct.matrix).max() <= 1e-9 * scale


def test_qfi_matrix_from_dynsym_reads_a_lone_generator_once(monkeypatch):
    spectral, pairs, _ = solve_preset(preset("chain", sites=6))
    o = spectral.to_eigenblocks(preset_operators(preset("chain", sites=6))[1])
    ens = gibbs_weights(spectral, 1.0)
    calls = []
    read = BlockOperator.pairs

    def counted(self, *args, **kwargs):
        calls.append(self)
        return read(self, *args, **kwargs)

    monkeypatch.setattr(BlockOperator, "pairs", counted)
    m = qfi_matrix_from_dynsym(pairs, ens, [o])
    assert len(calls) == 1
    assert m.commuting and m.matrix[0, 0] == qfi_from_dynsym(pairs, ens, o).value
    with pytest.raises(DomainError, match="need at least one generator"):
        qfi_matrix_from_dynsym(pairs, ens, [])


def test_qfi_matrix_from_dynsym_analytic_blocks():
    h_op, gen, spectral, ens, o_eig = two_qubit_case(field=0.5, beta=1.0)
    z_total = spectral.to_eigenbasis(dense_preset("two-qubit", generator="uniform-z")[1])
    gens = [z_total, o_eig]
    ops = [op.dense() for op in two_qubit_symmetry_operators().values()]
    blocks = verified_blocks(h_op, spectral, ops)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        direct = qfi_matrix(gens, ens)
        decomposed = qfi_matrix_from_dynsym(blocks, ens, gens)
    gap = direct.matrix - decomposed.matrix
    evals = np.linalg.eigvalsh((gap + gap.T) / 2.0)
    assert evals.min() >= -1e-9 * max(1.0, float(np.abs(direct.matrix).max()))


def test_qfi_matrix_from_dynsym_matches_bound_on_complex_gram(rng):
    # complex member mixtures give a complex Gram, where c^dag V^+ c and
    # c^T V^+ c^* differ; the diagonal must be the scalar bound
    _, spectral, ens, _, o_eig = random_case(rng, 4, 1.0)
    pairs = []
    for m, n in ((2, 0), (3, 1)):
        op = np.zeros((4, 4), dtype=complex)
        op[m, n] = 1.0
        pairs.append(op)
    members = (pairs[0] + 1j * pairs[1], pairs[0] + (0.3 - 0.8j) * pairs[1])
    block = OperatorBlock(spectral.energies[2] - spectral.energies[0], members)
    gram = np.einsum("imn,jmn,n->ij", np.conj(members), members, ens.weights)
    assert np.abs(gram.imag).max() > 1e-2
    bound = qfi_from_dynsym([block], ens, o_eig).value
    matrix = qfi_matrix_from_dynsym([block], ens, [o_eig]).matrix
    assert matrix[0, 0] == bound


def test_qfi_matrix_from_dynsym_subset_is_psd_below(rng):
    _, spectral, ens, _, _ = random_case(rng, 6, 1.5)
    gens = [
        spectral.to_eigenbasis(random_hermitian(rng, 6)),
        spectral.to_eigenbasis(random_hermitian(rng, 6)),
    ]
    blocks = trivial_complete_set(spectral)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sub = qfi_matrix_from_dynsym(first_half(blocks), ens, gens)
        full = qfi_matrix(gens, ens)
    gap = full.matrix - sub.matrix
    assert np.linalg.eigvalsh((gap + gap.T) / 2.0).min() >= -1e-9


def test_qfi_matrix_from_dynsym_conserved_only(rng):
    _, spectral, ens, _, o_eig = random_case(rng, 4, 1.0)
    conserved = OperatorBlock(0.0, (np.eye(4, dtype=complex),))
    m = qfi_matrix_from_dynsym([conserved], ens, [o_eig])
    assert np.abs(m.matrix).max() == 0.0


def test_one_generator_is_never_made_dense(monkeypatch):
    # only a pair of generators has a commutator to check
    spectral, pairs, _ = solve_preset(preset("chain", sites=8))
    ens = gibbs_weights(spectral, 1.0)

    def refuse(*args):
        raise AssertionError("a lone generator was made dense")

    monkeypatch.setattr(metrology, "_dense", refuse)
    assert qfi_matrix([pairs], ens).commuting
    m = qfi_matrix_from_dynsym(pairs, ens, [pairs])
    assert m.commuting and m.matrix[0, 0] == qfi_from_dynsym(pairs, ens, pairs).value


def test_qfi_matrix_validation(rng):
    _, _, ens, _, o_eig = random_case(rng, 4, 1.0)
    with pytest.raises(DomainError):
        qfi_matrix([], ens)
    with pytest.raises(DomainError):
        qfi_matrix([np.eye(5)], ens)
    with pytest.raises(NumericError):
        QfiMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]), True)
    with pytest.raises(NumericError):
        QfiMatrix(np.diag([1.0, -1.0]), True)
    with pytest.raises(DomainError):
        QfiMatrix(np.zeros((2, 3)), True)


# ---------------------------------------------------------------------------
# ETH quantities

def test_eth_qfi_closed_form_and_comb_path(rng):
    _, _, ens, _, o_eig = random_case(rng, 7, 1.0)
    second = thermal_expectation(o_eig @ o_eig, ens)
    mean = thermal_expectation(o_eig, ens)
    closed = eth_qfi(o_eig, ens)
    assert math.isclose(closed, 4.0 * (second - mean**2), rel_tol=1e-12)
    comb_path = eth_qfi_from_comb(structure_factor_comb(o_eig, ens))
    assert abs(comb_path - closed) <= 1e-10
    with pytest.raises(DomainError):
        eth_qfi_from_comb(response_comb(o_eig, ens))


def test_eth_beta_zero_traceless(rng):
    o = random_hermitian(rng, 6)
    o -= np.trace(o) / 6.0 * np.eye(6)
    spectral = diagonalize(random_hermitian(rng, 6))
    ens = gibbs_weights(spectral, 0.0)
    o_eig = spectral.to_eigenbasis(o)
    want = 4.0 * float(np.trace(o @ o).real) / 6.0
    assert math.isclose(eth_qfi(o_eig, ens), want, rel_tol=1e-12)


def test_eth_pure_state_coincides_with_qfi():
    *_, ens, o_eig = two_qubit_case(field=0.5, beta=math.inf)
    assert math.isclose(eth_qfi(o_eig, ens), qfi_spectral(o_eig, ens), abs_tol=1e-9)


def test_eth_lower_bound_and_zero_frequency_correction(rng):
    _, spectral, ens, _, o_eig = random_case(rng, 8, 1.0)
    blocks = trivial_complete_set(spectral)
    lower = eth_lower_bound(blocks, ens, o_eig)
    total = eth_qfi(o_eig, ens)
    assert lower <= total + 1e-9
    # the omega = 0 correction 4 (D_0 - <O>^2), D_0 the zero-cluster weight
    # of the set of all pairs, degenerate pairs included
    weights = blocks.cluster_weights(ens, o_eig[blocks.rows, blocks.cols])
    d0 = float(weights[blocks.omegas == 0.0].sum())
    correction = 4.0 * (d0 - thermal_expectation(o_eig, ens) ** 2)
    assert abs(lower + correction - total) <= 1e-9 * max(1.0, abs(total))


def test_eth_equality_for_zero_diagonal_generator(rng):
    _, spectral, ens, _, o_eig = random_case(rng, 8, 1.0)
    o_eig = o_eig - np.diag(np.diagonal(o_eig))
    blocks = trivial_complete_set(spectral)
    total = eth_qfi(o_eig, ens)
    assert abs(eth_lower_bound(blocks, ens, o_eig) - total) <= 1e-9 * max(1.0, total)
    gap_bound = eth_thermal_gap(blocks, ens, o_eig)
    gap = total - qfi_spectral(o_eig, ens)
    assert abs(gap_bound - gap) <= 1e-9 * max(1.0, abs(gap))


def test_eth_gap_certificate_rejects_inflated_blocks(rng):
    _, spectral, ens, _, o_eig = random_case(rng, 6, 1.0)
    o_eig = o_eig - np.diag(np.diagonal(o_eig))
    part = trivial_complete_set(spectral)
    nonzero = keep_clusters(part, part.omegas != 0.0)
    with pytest.raises(DomainError):
        eth_thermal_gap([nonzero, nonzero], ens, o_eig)
    # O itself at a tiny frequency is no symmetry: its weight 4 <O^2>
    # exceeds the gap, which the certificate catches
    with pytest.raises(NumericError):
        eth_thermal_gap([OperatorBlock(1e-6, (o_eig,))], ens, o_eig)


def test_eth_gap_limits(rng):
    _, spectral, ens0, _, o_eig = random_case(rng, 5, 0.0)
    o_eig = o_eig - np.diag(np.diagonal(o_eig))
    blocks = trivial_complete_set(spectral)
    # infinite temperature: sech = 1, the gap bound collapses onto sum 4 D_k
    # and the QFI vanishes, so the gap is the full ETH value
    assert qfi_spectral(o_eig, ens0) == 0.0
    gap0 = eth_thermal_gap(blocks, ens0, o_eig)
    assert math.isclose(gap0, eth_lower_bound(blocks, ens0, o_eig), rel_tol=1e-12)
    assert math.isclose(gap0, eth_qfi(o_eig, ens0), rel_tol=1e-9)

    ens_inf = gibbs_weights(spectral, math.inf)
    assert eth_thermal_gap(blocks, ens_inf, o_eig) == 0.0


# ---------------------------------------------------------------------------
# entanglement witness

def test_entanglement_depth_boundaries():
    assert entanglement_depth(4.0, 2).depth == 2  # f = 2.0, strict > fails
    assert entanglement_depth(1.4, 2).depth == 1  # f = 0.7
    assert entanglement_depth(2.0, 2).depth == 1  # f = 1.0 certifies nothing
    assert entanglement_depth(7.0, 2).depth == 4  # f = 3.5
    assert entanglement_depth(0.0, 5).depth == 1
    for value in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            entanglement_depth(value, 2)


def test_entanglement_depth_tolerance_band():
    assert entanglement_depth(2.0 * (1.0 + 1e-12), 2).depth == 1
    assert entanglement_depth(2.0 * (1.0 + 2e-9), 2).depth == 2


def test_entanglement_depth_report_fields():
    report = entanglement_depth(3.0, 2)
    assert report.n_particles == 2
    assert math.isclose(report.f_q, 1.5)
    assert report.depth == 2


def test_entanglement_depth_rejects_bad_input():
    with pytest.raises(DomainError):
        entanglement_depth(-1.0, 2)
    # an int too large for a float is no finite QFI (it raised OverflowError)
    with pytest.raises(DomainError, match="finite"):
        entanglement_depth(10**400, 2)
    with pytest.raises(DomainError):
        entanglement_depth(1.0, 0)
    # tiny negative rounding is forgiven
    assert entanglement_depth(-1e-13, 3).f_q == 0.0
