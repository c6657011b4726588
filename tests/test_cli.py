"""Command-line contract: argument handling, file formats, exit codes."""

import functools
import gc
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given
from hypothesis import strategies as st

import qfidyn
from qfidyn import (
    BlockOperator,
    DomainError,
    NumericError,
    PauliString,
    SparseOperator,
    SpectralDecomposition,
    block_gram,
    comb_bound_check,
    diagonalize,
    entanglement_depth,
    fit_frequency,
    gibbs_weights,
    pauli_strings_to_records,
    projector_mazur_weight,
    qfi_from_dynsym,
    qfi_matrix,
    qfi_matrix_from_dynsym,
    qfi_spectral,
    response_comb,
    trivial_complete_set,
    verified_blocks,
)
from qfidyn import cli
from qfidyn.cli import main
from qfidyn.dynsym import TAU_DYN, default_omega_tol
from qfidyn.models import preset, preset_operators, solve_preset, two_qubit_symmetry_strings
from oracles import block_gram_oracle, staggered_z_qfi_oracle

FLOAT_RE = re.compile(r"-?\d\.\d{12}e[+-]\d{2,3}")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(*argv):
    # capture through plain redirection so the suite works under pytest -s
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read_table(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def two_qubit_reference(beta, field=0.5):
    model = preset("two-qubit", field=field)
    h_op, gen = (op.dense() for op in preset_operators(model))
    spectral = diagonalize(h_op)
    ens = gibbs_weights(spectral, beta)
    return qfi_spectral(spectral.to_eigenbasis(gen), ens)


def write_symmetry_file(path, operators):
    path.write_text(json.dumps([pauli_strings_to_records(op) for op in operators]))
    return str(path)


def fermion_modes(n):
    """The n Jordan-Wigner modes of the open XX chain on n sites,
    eta_k = sum_j sqrt(2/(n+1)) sin(k pi (j+1)/(n+1)) (prod_{i<j} z_i) s-_j,
    each an exact eigenoperator at omega_k = 4 J cos(k pi/(n+1)) - 2 h."""
    norm = math.sqrt(2.0 / (n + 1))
    return [
        [
            PauliString(
                norm * math.sin(k * math.pi * (j + 1) / (n + 1)),
                tuple((i, "z") for i in range(j)) + ((j, "-"),),
            )
            for j in range(n)
        ]
        for k in range(1, n + 1)
    ]


# ---------------------------------------------------------------------------
# qfi subcommand

def test_qfi_single_beta_csv(tmp_path):
    out = tmp_path / "q.csv"
    code, stdout, stderr = run("qfi", "--beta", "1", "--out", str(out))
    assert code == 0 and stdout == "" and stderr == ""
    header, rows = read_table(out.read_text())
    assert header == ["temperature", "qfi", "qfi_density", "bound", "bound_density", "depth"]
    assert len(rows) == 1
    row = rows[0]
    for cell in row[:5]:
        assert FLOAT_RE.fullmatch(cell), cell
    fq = float(row[1])
    want = two_qubit_reference(1.0)
    assert math.isclose(fq, want, rel_tol=1e-11)
    assert math.isclose(float(row[2]), fq / 2.0, rel_tol=1e-11)
    assert float(row[3]) <= fq + 1e-9
    assert row[5] == str(entanglement_depth(want, 2).depth)


def test_qfi_beta_zero_row():
    code, stdout, _ = run("qfi", "--beta", "0")
    assert code == 0
    _, rows = read_table(stdout)
    assert rows[0][0] == "inf"
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][3]) == 0.0
    assert rows[0][5] == "1"


def test_qfi_ground_state_row():
    code, stdout, _ = run("qfi", "--beta", "inf")
    assert code == 0
    _, rows = read_table(stdout)
    assert float(rows[0][0]) == 0.0
    assert abs(float(rows[0][1]) - 4.0) < 1e-9
    assert rows[0][5] == "2"


def test_qfi_json_payload(tmp_path):
    out = tmp_path / "q.json"
    code, *_ = run("qfi", "--beta", "1", "--format", "json", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"] == {
        "preset": "two-qubit",
        "sites": 2,
        "coupling": 1.0,
        "field": 0.5,
        "boundary": "open",
        "generator": "antisymmetric-x",
        "symmetries": "trivial",
        "omega_tol": None,
    }
    rows = payload["rows"]
    assert len(rows) == 1
    assert isinstance(rows[0]["depth"], int)
    assert math.isclose(rows[0]["qfi"], two_qubit_reference(1.0), rel_tol=1e-12)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_qfi_writes_the_same_bytes_to_stdout_and_to_out(tmp_path, fmt):
    argv = ("qfi", "--temp-grid", "0.5:2:3", "--format", fmt)
    out = tmp_path / f"q.{fmt}"
    code, stdout, _ = run(*argv)
    assert code == 0 and run(*argv, "--out", str(out))[0] == 0
    assert out.read_bytes() == stdout.encode()


def test_repeat_runs_are_byte_identical(tmp_path):
    args = ("qfi", "--temp-grid", "0.1:2:7", "--generator", "uniform-x")
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    for path in paths:
        assert run(*args, "--out", str(path))[0] == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()

    jsons = [tmp_path / name for name in ("a.json", "b.json")]
    for path in jsons:
        assert run("qfi", "--beta", "2", "--format", "json", "--out", str(path))[0] == 0
    assert jsons[0].read_bytes() == jsons[1].read_bytes()


def test_unknown_preset_is_a_usage_error():
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(["qfi", "--preset", "bogus"])
    assert exc.value.code == 2


def test_beta_and_temp_grid_are_exclusive():
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(["qfi", "--beta", "1", "--temp-grid", "0.1:1:5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "grid",
    ["5:1:10", "0:2:5:log", "0:2:5:lin", "1:2:0", "1:2:5:quad", "1:2", "1:x:5"],
)
def test_bad_temperature_grids(grid):
    code, _, stderr = run("qfi", "--temp-grid", grid)
    assert code == 2
    assert stderr.startswith("qfidyn:")


@pytest.mark.parametrize("grid", ["1:inf:3", "0.1:inf:3", "1:nan:3", "nan:1:3", "0:inf:3:lin"])
def test_infinite_grid_ends_are_a_clean_usage_error(grid):
    # a child process, so that a numpy RuntimeWarning would reach stderr
    proc = subprocess.run(
        [sys.executable, "-m", "qfidyn.cli", "qfi", "--preset", "chain", "--sites", "4",
         "--temp-grid", grid],
        capture_output=True, text=True, env=checkout_env(), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"qfidyn: temperature grid needs finite min and max, got {grid!r}"
    ]
    # and in process, where a line trace sees the check
    assert run("qfi", "--temp-grid", grid) == (2, "", proc.stderr)


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
def test_omega_tol_must_be_finite_and_positive(tol):
    # a NaN or infinite tolerance once merged every gap into the zero
    # cluster and certified a bound of 0 as saturated
    for argv in (("qfi", "--preset", "chain", "--sites", "6", "--beta", "1"),
                 ("reproduce-fig2", "--sites", "4", "--temp-grid", "1:1:1")):
        code, out, stderr = run(*argv, f"--omega-tol={tol}")
        assert code == 2 and out == ""
        assert stderr.startswith("qfidyn: omega_tol must be finite and > 0")


def test_negative_beta_rejected():
    code, _, stderr = run("qfi", "--beta", "-2")
    assert code == 2 and "beta" in stderr


def test_site_cap_error_names_the_escape_hatch():
    code, _, stderr = run("qfi", "--preset", "chain", "--sites", "13")
    assert code == 2
    assert "QFIDYN_MAX_SITES" in stderr


def test_qfi_with_symmetry_file(tmp_path):
    path = write_symmetry_file(
        tmp_path / "ops.json", two_qubit_symmetry_strings().values()
    )
    out = tmp_path / "q.csv"
    code, *_ = run("qfi", "--beta", "0.7", "--symmetries", path, "--out", str(out))
    assert code == 0
    _, rows = read_table(out.read_text())
    fq, bound = float(rows[0][1]), float(rows[0][3])
    # the eight analytic operators span every commutator eigenspace the
    # generator meets, so the bound saturates
    assert bound <= fq + 1e-9
    assert bound >= fq - 1e-9 * max(1.0, fq)


def test_qfi_and_verify_take_the_chain_fermion_modes(tmp_path):
    # a sector-blocked spectrum: the explicit-symmetry path off two qubits
    path = write_symmetry_file(tmp_path / "modes.json", fermion_modes(6))
    code, stdout, stderr = run(
        "verify", "--preset", "chain", "--sites", "6", "--symmetries", path
    )
    assert code == 0, stderr
    _, rows = read_table(stdout)
    assert [row[0] for row in rows] == [str(i) for i in range(6)]
    for k, row in enumerate(rows, start=1):
        # J = 1 and h = 0.3, the chain preset's
        assert abs(float(row[1]) - (4.0 * math.cos(k * math.pi / 7) - 0.6)) <= 1e-12
        assert float(row[2]) <= 1e-12
        assert row[3] == "0 1 2 3 4 5"
        assert row[4] == "9.000000000000e+00"
        assert row[6] == "true"
    assert rows[0][1] == "3.003875471610e+00"
    code, stdout, stderr = run(
        "qfi", "--preset", "chain", "--sites", "6", "--beta", "1", "--symmetries", path
    )
    assert code == 0, stderr
    _, (row,) = read_table(stdout)
    assert float(row[3]) <= float(row[1])


MODE_BETAS = (0.0, 1e-12, 1.0, 10.0, 50.0, 1e8, math.inf)


@functools.lru_cache(maxsize=None)
def solved_modes(n):
    """The n-site chain preset solved, with its Jordan-Wigner modes as
    site-basis SparseOperators."""
    spectral, pairs, h = solve_preset(preset("chain", sites=n))
    modes = [SparseOperator.from_strings(mode, n) for mode in fermion_modes(n)]
    return spectral, pairs, h, modes


def mode_bounds(n, subset):
    """(beta, QFI, bound) over MODE_BETAS for a subset of the n modes."""
    spectral, pairs, h, modes = solved_modes(n)
    blocks = verified_blocks(h, spectral, [modes[k] for k in sorted(subset)])
    for beta in MODE_BETAS:
        ens = gibbs_weights(spectral, beta)
        yield beta, qfi_spectral(pairs, ens), qfi_from_dynsym(blocks, ens, pairs).value


@pytest.mark.parametrize("n", range(4, 9))
def test_the_mode_bound_never_exceeds_the_qfi(n):
    # at low temperature most Gram directions of the modes are rounding
    # (eigenvalues near 1e-30); kept, they lifted the 8-site bound at
    # beta = inf to 30.56 against a QFI of 30.74
    for beta, fq, bound in mode_bounds(n, range(n)):
        assert bound <= fq * (1.0 + 1e-12), (beta, bound, fq)
    if n == 8:
        assert abs(bound - 13.9119334) <= 1e-6


@given(n=st.integers(4, 8), data=st.data())
def test_mode_subsets_never_bound_above_the_qfi(n, data):
    subset = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    for beta, fq, bound in mode_bounds(n, subset):
        assert bound <= fq * (1.0 + 1e-12), (beta, bound, fq)


DECOMPOSITION_BETAS = (0.0, 1e-12, 1.0, 5.0, 10.0, 20.0, 50.0, 1e8, math.inf)


@functools.lru_cache(maxsize=None)
def rotated_dense_decomposition(n):
    """The n-site chain preset diagonalized by one dense eigh, with a random
    unitary rotation inside each degenerate group of levels, and its
    generator's weighted pair set."""
    spectral, _, h, _ = solved_modes(n)
    energies, vectors = np.linalg.eigh(h.dense())
    rng = np.random.default_rng(n)
    cuts = np.flatnonzero(np.diff(energies) > spectral.energy_tol) + 1
    vectors = vectors.astype(complex)
    for group in np.split(np.arange(energies.size), cuts):
        z = rng.normal(size=(group.size,) * 2) + 1j * rng.normal(size=(group.size,) * 2)
        vectors[:, group] = vectors[:, group] @ np.linalg.qr(z)[0]
    dense = SpectralDecomposition(energies, vectors)
    gen = preset_operators(preset("chain", sites=n))[1]
    return dense, trivial_complete_set(dense, op_eig=dense.to_eigenblocks(gen))


@given(case=st.integers(4, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1), min_size=1))))
@example(case=(6, frozenset(range(6))))
def test_mode_bounds_do_not_depend_on_the_decomposition(case):
    # the parity split and a rotated dense eigh differ in every off-shell
    # rounding entry of a member; cut to their shell both give one bound
    # (2.1e-4 apart at 6 sites and beta = 20 with every entry kept).  A
    # correlator's rounding scales with sqrt(<A^dag A> <O^2>), not with the
    # correlator, so a bound far below the QFI agrees relative to the QFI
    n, subset = case
    spectral, pairs, h, modes = solved_modes(n)
    dense, dense_pairs = rotated_dense_decomposition(n)
    ops = [modes[k] for k in sorted(subset)]
    split_blocks = verified_blocks(h, spectral, ops)
    dense_blocks = verified_blocks(h, dense, ops)
    for beta in DECOMPOSITION_BETAS:
        ens = gibbs_weights(spectral, beta)
        split = qfi_from_dynsym(split_blocks, ens, pairs).value
        other = qfi_from_dynsym(dense_blocks, gibbs_weights(dense, beta), dense_pairs).value
        scale = max(split, qfi_spectral(pairs, ens))
        assert abs(split - other) <= 1e-12 * scale, (beta, split, other)


def test_the_cut_off_part_of_an_approximate_symmetry_is_certified():
    # a mode plus 1e-6 of another: off its shell it has entries of order
    # 1e-6, which residual / omega_tol bounds, measured on the dense oracle
    n = 6
    spectral, _, h, modes = solved_modes(n)
    e = spectral.energies
    gaps = e[:, None] - e[None, :]
    local = SparseOperator.from_strings([PauliString(1.0, ((2, "x"),))], n)
    approx = SparseOperator.from_dense(modes[1].dense() + 1e-6 * local.dense())
    omega, residual = fit_frequency(h, approx)
    dense = spectral.to_eigenbasis(approx)
    for tol in (1e-3, 1e-1):
        shell = np.abs(gaps - omega) <= tol
        cut = spectral.to_eigenblocks(approx).entries((e, omega, tol))
        assert np.array_equal(cut.dense(), np.where(shell, dense, 0.0))
        dropped = np.linalg.norm(np.where(shell, 0.0, dense)) / np.linalg.norm(dense)
        assert 1e-8 < dropped <= residual / tol < 1.0
    # through verified_blocks the residual is no symmetry's, and a smaller
    # admixture passes as one but its cut is beyond SHELL_CUT_RTOL
    with pytest.raises(DomainError, match="operator 1: operator is not a dynamical symmetry"):
        verified_blocks(h, spectral, [modes[0], approx])
    slight = SparseOperator.from_dense(modes[1].dense() + 1e-11 * local.dense())
    assert fit_frequency(h, slight)[1] <= TAU_DYN
    with pytest.raises(NumericError, match="operator 0: the part off its omega-shell"):
        verified_blocks(h, spectral, [slight])
    # a wide enough shell certifies it
    (block,) = verified_blocks(h, spectral, [slight], omega_tol=1e-3)
    assert len(block.members) == 1


@given(case=st.integers(4, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1), min_size=1))),
    beta=st.sampled_from(DECOMPOSITION_BETAS))
def test_the_shell_gram_is_the_dense_oracle_on_shell_masked_members(case, beta):
    n, subset = case
    spectral, pairs, h, modes = solved_modes(n)
    ens = gibbs_weights(spectral, beta)
    e, p = spectral.energies, ens.weights
    gaps = e[:, None] - e[None, :]
    tol = default_omega_tol(e)
    o_dense = spectral.to_eigenbasis(preset_operators(preset("chain", sites=n))[1])
    ops = [modes[k] for k in sorted(subset)]
    # verified_blocks keeps the members of a block in the order given
    omegas = [fit_frequency(h, op)[0] for op in ops]
    for block in verified_blocks(h, spectral, ops):
        members = [i for i, w in enumerate(omegas) if abs(w - block.omega) <= tol]
        masked = [np.where(np.abs(gaps - omegas[i]) <= tol, spectral.to_eigenbasis(ops[i]), 0.0)
                  for i in members]
        gram, corr = block_gram(block, ens, pairs)
        want_gram, want_corr, want_floor = block_gram_oracle(masked, p, o_dense)
        scale = max(np.abs(want_gram).max(), np.finfo(float).tiny)
        assert np.abs(gram - want_gram).max() <= 1e-12 * scale
        o_sq = float(np.einsum("mn,mn,n->", o_dense.conj(), o_dense, p).real)
        assert np.abs(corr - want_corr).max() <= 1e-12 * math.sqrt(scale * o_sq)
        assert math.isclose(block._gram_floor, want_floor, rel_tol=1e-12)


def bilinears(n):
    """The n bilinears eta_k^dag eta_{n+1-k} of the Jordan-Wigner modes,
    exact dynamical symmetries that span the staggered-z generator, as
    SparseOperators made by sparse products of the modes."""
    modes = [SparseOperator.from_strings(mode, n) for mode in fermion_modes(n)]
    mats = [scipy.sparse.csr_matrix((m.values, (m.rows, m.cols)), shape=m.shape) for m in modes]
    out = []
    for k in range(n):
        prod = (mats[k].conj().T @ mats[n - 1 - k]).tocoo()
        keep = prod.data != 0
        rows, cols, values = prod.row[keep], prod.col[keep], prod.data[keep]
        order = np.lexsort((cols, rows))
        out.append(SparseOperator(rows[order], cols[order], values[order], 2**n))
    return out


def staggered_z(n):
    """sum_j (-1)^j z_j / 2 on n sites."""
    terms = [PauliString((-1) ** j * 0.5, ((j, "z"),)) for j in range(n)]
    return SparseOperator.from_strings(terms, n)


@pytest.mark.parametrize(
    "n, kind", [(n, "modes") for n in range(4, 9)] + [(5, "bilinears")]
)
def test_the_ground_state_qfi_matrix_bounds_from_above(n, kind):
    # without the Gram floor the 5-site bilinear bound on the staggered-z
    # generator reads 11.01 against a QFI of 8, and the 6-site mode matrix
    # has a gap eigenvalue of -0.63
    spectral, _, h, modes = solved_modes(n)
    ops = modes if kind == "modes" else bilinears(n)
    gens = [
        spectral.to_eigenbasis(op)
        for op in (preset_operators(preset("chain", sites=n))[1], staggered_z(n))
    ]
    ens = gibbs_weights(spectral, math.inf)
    with warnings.catch_warnings():
        # the staggered x and z generators do not commute
        warnings.simplefilter("ignore", RuntimeWarning)
        full = qfi_matrix(gens, ens).matrix
        bound = qfi_matrix_from_dynsym(verified_blocks(h, spectral, ops), ens, gens).matrix
    gap = full - bound
    assert np.linalg.eigvalsh((gap + gap.T) / 2.0).min() >= -1e-9 * max(1.0, np.abs(full).max())
    if kind == "bilinears":
        assert abs(bound[1, 1] - full[1, 1]) <= 1e-9 * full[1, 1]


@given(n=st.integers(4, 6), beta=st.sampled_from((0.0, 1e-12, 1.0, 5.0, 20.0, 1e8, math.inf)))
def test_the_qfi_matrix_diagonal_is_the_scalar_bound_bit_for_bit(n, beta):
    # one engine makes both, so the 1 x 1 matrix is the bound itself; summed
    # apart, the two differed in their last bits in 21 of these 63 cases
    spectral, pairs, h, modes = solved_modes(n)
    mode_blocks = verified_blocks(h, spectral, modes)
    ens = gibbs_weights(spectral, beta)
    for blocks in (pairs, mode_blocks):
        bound = qfi_from_dynsym(blocks, ens, pairs).value
        assert qfi_matrix_from_dynsym(blocks, ens, [pairs]).matrix[0, 0] == bound


def test_a_partition_and_the_modes_in_one_list_are_refused():
    # on the 8-site chain at beta = 1 this mixed list once gave a "lower
    # bound" of 8.7408 against a QFI of 7.9731: the partition and the modes
    # span shared directions at each mode frequency, counted twice
    spectral, pairs, h, modes = solved_modes(8)
    mode_blocks = verified_blocks(h, spectral, modes)
    ens = gibbs_weights(spectral, 1.0)
    mixed = [pairs, *mode_blocks]
    with pytest.raises(DomainError, match="got PairPartition"):
        qfi_from_dynsym(mixed, ens, pairs)
    with pytest.raises(DomainError, match="got PairPartition"):
        qfi_matrix_from_dynsym(mixed, ens, [pairs])
    with pytest.raises(DomainError, match="got PairPartition"):
        comb_bound_check(response_comb(pairs, ens), mixed, ens, pairs)
    # each form alone is a lower bound
    fq = qfi_spectral(pairs, ens)
    for blocks in (pairs, mode_blocks):
        assert qfi_from_dynsym(blocks, ens, pairs).value <= fq * (1.0 + 1e-12)


@pytest.mark.parametrize("n", range(6, 11))
def test_the_bilinears_saturate_the_staggered_z_closed_form(n):
    # the n bilinears span the staggered-z generator, a free-fermion quadratic,
    # so their bound through verified_blocks is its QFI, in closed form
    model = preset("chain", sites=n)
    spectral, _, h = solve_preset(model)
    pairs = trivial_complete_set(spectral, op_eig=spectral.to_eigenblocks(staggered_z(n)))
    blocks = verified_blocks(h, spectral, bilinears(n))
    for beta in (0.0, 1.0, 5.0, math.inf):
        ens = gibbs_weights(spectral, beta)
        want = staggered_z_qfi_oracle(n, model.spec.coupling, model.spec.field, beta)
        fq, bound = qfi_spectral(pairs, ens), qfi_from_dynsym(blocks, ens, pairs).value
        assert math.isclose(fq, want, rel_tol=1e-12), (beta, fq, want)
        assert math.isclose(bound, want, rel_tol=1e-12), (beta, bound, want)
    assert want > 0.0


def test_explicit_symmetries_make_no_dense_eigenbasis_matrix(monkeypatch, tmp_path):
    # every explicit-symmetry command reads its members block by block
    def dense(*_):
        raise AssertionError("a dim x dim eigenbasis matrix was made")

    monkeypatch.setattr(SpectralDecomposition, "to_eigenbasis", dense)
    monkeypatch.setattr(BlockOperator, "dense", dense)
    modes = write_symmetry_file(tmp_path / "modes.json", fermion_modes(6))
    commands = [
        ("qfi", "--preset", "chain", "--sites", "6", "--symmetries", modes),
        ("qfi", "--symmetries", "analytic"),
        ("verify", "--preset", "chain", "--sites", "6", "--symmetries", modes),
        ("verify", "--symmetries", "analytic"),
        ("reproduce-fig1", "--temp-grid", "1:1:1", "--field-grid", "0.5:0.5:1",
         "--out", str(tmp_path / "fig1")),
    ]
    for argv in commands:
        code, _, stderr = run(*argv)
        assert code == 0 and stderr == "", (argv, stderr)


def test_a_bound_above_the_qfi_is_a_numeric_failure(monkeypatch, tmp_path):
    # the two-qubit QFI is below 4, the square of the generator's width
    monkeypatch.setattr(cli, "qfi_from_dynsym", lambda *_: SimpleNamespace(value=4.0))
    code, stdout, stderr = run("qfi", "--beta", "1")
    assert code == 3 and stdout == "" and "exceeds the QFI" in stderr
    code, _, stderr = run(
        "reproduce-fig1", "--temp-grid", "1:1:1", "--field-grid", "0.5:0.5:1",
        "--out", str(tmp_path),
    )
    assert code == 3 and "exceeds the QFI" in stderr
    # a NaN bound is no lower bound either
    monkeypatch.setattr(cli, "qfi_from_dynsym", lambda *_: SimpleNamespace(value=math.nan))
    code, stdout, stderr = run("qfi", "--beta", "1")
    assert code == 3 and stdout == "" and stderr.count("qfidyn:") == 1


def test_analytic_source_requires_the_two_qubit_model():
    code, _, stderr = run(
        "qfi", "--preset", "chain", "--sites", "3", "--symmetries", "analytic"
    )
    assert code == 2 and "two-qubit" in stderr


def test_out_path_into_missing_directory(tmp_path):
    out = tmp_path / "missing" / "q.csv"
    code, _, stderr = run("qfi", "--beta", "1", "--out", str(out))
    assert code == 2 and stderr.startswith("qfidyn:")


# ---------------------------------------------------------------------------
# figure reproductions

def test_fig1_tables(tmp_path):
    code, _, stderr = run(
        "reproduce-fig1",
        "--temp-grid", "0.05:5:8",
        "--field-grid", "0.5:1.5:3:lin",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "skipping field 1" in stderr and "level crossing" in stderr

    header, rows = read_table((tmp_path / "curve_low.csv").read_text())
    assert header == ["temperature", "qfi_density", "bound_density"]
    assert len(rows) == 8
    for row in rows:
        assert float(row[2]) <= float(row[1]) + 1e-9
    # coldest point first on the log grid; the subset bound is tight there
    assert float(rows[0][2]) >= 0.99 * float(rows[0][1])

    _, high_rows = read_table((tmp_path / "curve_high.csv").read_text())
    assert float(high_rows[0][2]) >= 0.99 * float(high_rows[0][1])

    fq_header, fq_rows = read_table((tmp_path / "heatmap_fq.csv").read_text())
    assert fq_header == ["field", "temperature", "qfi_density"]
    _, bound_rows = read_table((tmp_path / "heatmap_bound.csv").read_text())
    fields = {row[0] for row in fq_rows}
    assert len(fq_rows) == len(bound_rows) == 16  # crossing field dropped
    assert len(fields) == 2
    for fq_row, bound_row in zip(fq_rows, bound_rows):
        assert fq_row[:2] == bound_row[:2]
        assert float(bound_row[2]) <= float(fq_row[2]) + 1e-9


def test_fig2_tables(tmp_path):
    code, *_ = run(
        "reproduce-fig2",
        "--sites", "5",
        "--temp-grid", "0.5:2:4",
        "--out", str(tmp_path),
    )
    assert code == 0

    model = preset("chain", sites=5)
    h_op, gen = (op.dense() for op in preset_operators(model))
    spectral = diagonalize(h_op)
    ens = gibbs_weights(spectral, 1.0)  # default --temperature 1
    o_eig = spectral.to_eigenbasis(gen)

    header, rows = read_table((tmp_path / "comb.csv").read_text())
    assert header == ["omega", "response_weight", "mazur_weight"]
    zero_rows = [row for row in rows if float(row[0]) == 0.0]
    assert len(zero_rows) == 1
    msr = projector_mazur_weight(ens, o_eig)
    assert math.isclose(float(zero_rows[0][2]), msr, rel_tol=1e-10)
    for row in rows:
        assert float(row[1]) >= float(row[2]) - 1e-10

    header, sweep = read_table((tmp_path / "qfi_vs_t.csv").read_text())
    assert header == ["temperature", "qfi", "qfi_density", "bound_density"]
    assert len(sweep) == 4
    for row in sweep:
        assert math.isclose(float(row[3]), float(row[2]), rel_tol=1e-9)

    _, decomp = read_table((tmp_path / "decomposition.csv").read_text())
    total = sum(float(row[1]) for row in decomp)
    direct = qfi_spectral(o_eig, ens)
    assert abs(total - direct) <= 1e-9 * max(1.0, direct)


def test_fig2_comb_is_the_response_comb(tmp_path):
    code, *_ = run("reproduce-fig2", "--sites", "6", "--temp-grid", "1:1:1", "--out", str(tmp_path))
    assert code == 0
    h_op, gen = (op.dense() for op in preset_operators(preset("chain", sites=6)))
    spectral = diagonalize(h_op)
    ens = gibbs_weights(spectral, 1.0)  # default --temperature 1
    o_eig = spectral.to_eigenbasis(gen)
    comb = response_comb(o_eig, ens)
    _, rows = read_table((tmp_path / "comb.csv").read_text())
    assert [row[:2] for row in rows] == [
        ["%.12e" % omega, "%.12e" % weight.real] for omega, weight in zip(comb.omegas, comb.weights)
    ]
    for row in rows:
        if float(row[0]) != 0.0:
            assert row[2] == row[1]  # a trivial cluster's Mazur weight is its comb weight


def test_fig2_runs_the_preset_it_is_given(tmp_path):
    code, *_ = run(
        "reproduce-fig2", "--preset", "two-qubit", "--temp-grid", "1:1:1", "--out", str(tmp_path)
    )
    assert code == 0
    _, (row,) = read_table((tmp_path / "qfi_vs_t.csv").read_text())
    code, stdout, _ = run("qfi", "--beta", "1")
    assert code == 0
    _, (want,) = read_table(stdout)
    assert row[:2] == want[:2]  # temperature and qfi, byte for byte


def test_fig2_rejects_nonpositive_temperature():
    code, _, stderr = run("reproduce-fig2", "--sites", "3", "--temperature", "0")
    assert code == 2 and "temperature" in stderr


@pytest.mark.parametrize(
    "bad",
    [
        ("--temp-grid", "1:0:5"),
        ("--temp-grid", "0:1:5:log"),
        ("--temperature", "0"),
        ("--omega-tol", "nan"),
        ("--field", "nan"),
        ("--coupling", "inf"),
    ],
)
def test_fig2_checks_its_arguments_before_any_work(tmp_path, monkeypatch, bad):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")

    monkeypatch.setattr(cli, "solve_preset", no_solve)
    out = tmp_path / "d"
    code, _, stderr = run("reproduce-fig2", "--sites", "8", "--out", str(out), *bad)
    assert code == 2 and stderr.startswith("qfidyn:")
    assert not out.exists()


def test_fig1_checks_omega_tol_before_any_work(tmp_path, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")

    monkeypatch.setattr(cli, "solve_preset", no_solve)
    out = tmp_path / "d"
    code, _, stderr = run("reproduce-fig1", "--omega-tol", "nan", "--out", str(out))
    assert code == 2 and stderr.startswith("qfidyn: omega_tol must be finite and > 0")
    assert not out.exists()
    # a curve field at the level crossing has no saturating subset; the
    # crossing is the window where the subset frequency 2(|J| - |h|) lies
    # within the run's omega tolerance (4e-8 here) of 0, not |h| = |J| alone
    crossing = (
        ("--field-low", "1.0"),
        ("--field-high", "1.0"),
        ("--field-high", "1.00000001"),
        ("--field-low", "0.99999999"),
        ("--field-high", "1.04", "--omega-tol", "0.1"),
    )
    for flag, field, *rest in crossing:
        code, _, stderr = run("reproduce-fig1", flag, field, *rest, "--out", str(out))
        assert code == 2 and stderr.startswith("qfidyn: no saturating subset"), (flag, field)
        assert not out.exists()
    for flag, value in (("--field-low", "nan"), ("--field-high", "inf"), ("--coupling", "nan")):
        code, _, stderr = run("reproduce-fig1", flag, value, "--out", str(out))
        assert code == 2 and stderr.startswith("qfidyn: field and coupling must be finite")
        assert not out.exists()


@pytest.mark.parametrize(
    "fields, tol, kept, skipped",
    [
        ("0.5:1.00000001:2:lin", [], ["0.5"], ["1.00000001"]),
        ("0.9999999995:1.5:2:lin", [], ["1.5"], ["0.9999999995"]),
        # --omega-tol 0.1 widens the window to |J - h| <= 0.05
        ("0.94:1.06:4:lin", ["--omega-tol", "0.1"], ["0.94", "1.06"], ["0.98", "1.02"]),
        ("0.96:1.04:2:lin", ["--omega-tol", "0.1"], [], ["0.96", "1.04"]),
    ],
    ids=["above-1", "below-1", "omega-tol-0.1", "omega-tol-0.1-all-skipped"],
)
def test_fig1_skips_the_heatmap_fields_in_the_crossing_window(tmp_path, fields, tol, kept, skipped):
    code, _, stderr = run(
        "reproduce-fig1", "--temp-grid", "0.05:5:3", "--field-grid", fields, *tol,
        "--out", str(tmp_path),
    )
    assert code == 0, stderr
    # each skipped field is printed at full precision
    assert re.findall(r"skipping field (\S+): ", stderr) == skipped
    _, bound_rows = read_table((tmp_path / "heatmap_bound.csv").read_text())
    assert sorted({float(row[0]) for row in bound_rows}) == [float(f) for f in kept]
    # outside the window the subset bound is never snapped to exactly 0
    assert all(float(row[2]) > 0.0 for row in bound_rows)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("qfi", "--preset", "chain", "--sites", "8", "--symmetries", "analytic"), "two-qubit"),
        (("qfi", "--symmetries", "/no/such/file.json"), "cannot read"),
        (("qfi", "--symmetries", "{empty}"), "contains no operators"),
        (("qfi", "--symmetries", "{wide}"), "out of range"),
        (
            ("qfi", "--preset", "chain", "--sites", "12", "--beta", "1", "--omega-tol", "nan"),
            "omega_tol must be finite and > 0",
        ),
        (("verify", "--beta", "-1", "--symmetries", "{pair}"), "beta must be >= 0"),
        (("verify", "--symmetries", "{wide}"), "out of range"),
        (("verify", "--symmetries", "{empty}"), "contains no operators"),
        (("qfi", "--preset", "chain", "--sites", "4", "--beta", "1", "--field", "nan"),
         "must be finite"),
        (("qfi", "--preset", "chain", "--sites", "4", "--beta", "1", "--coupling", "inf"),
         "must be finite"),
    ],
    ids=[
        "qfi-analytic-off-two-qubit",
        "qfi-missing-file",
        "qfi-empty-file",
        "qfi-site-out-of-range",
        "qfi-omega-tol-nan",
        "verify-negative-beta",
        "verify-site-out-of-range",
        "verify-empty-file",
        "qfi-field-nan",
        "qfi-coupling-inf",
    ],
)
def test_qfi_and_verify_check_their_arguments_before_any_solve(
    tmp_path, monkeypatch, argv, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")

    monkeypatch.setattr(cli, "solve_preset", no_solve)
    (tmp_path / "empty.json").write_text("[]")
    files = {
        "empty": str(tmp_path / "empty.json"),
        "wide": write_symmetry_file(tmp_path / "wide.json", [[PauliString(1.0, ((5, "x"),))]]),
        "pair": write_symmetry_file(tmp_path / "pair.json", two_qubit_symmetry_strings().values()),
    }
    code, out, stderr = run(*(arg.format(**files) for arg in argv))
    assert code == 2 and out == ""
    assert stderr.startswith("qfidyn:") and message in stderr


# ---------------------------------------------------------------------------
# verify subcommand

def test_verify_accepts_the_analytic_set(tmp_path):
    path = write_symmetry_file(
        tmp_path / "ops.json", two_qubit_symmetry_strings().values()
    )
    out = tmp_path / "report.csv"
    code, *_ = run("verify", "--symmetries", path, "--out", str(out))
    assert code == 0
    header, rows = read_table(out.read_text())
    assert header == ["index", "omega", "residual", "support", "cap", "cap_holds", "is_symmetry"]
    assert len(rows) == 8
    omegas = sorted(float(row[1]) for row in rows)
    assert omegas == [-3.0, -3.0, -1.0, -1.0, 1.0, 1.0, 3.0, 3.0]
    for row in rows:
        assert float(row[2]) < 1e-12
        assert row[3] == "0 1"
        assert row[6] == "true"


@pytest.mark.parametrize("scale", [1e-100, 1e-150])
def test_a_scaled_analytic_set_keeps_its_bound_support_and_cap(tmp_path, scale):
    # every tolerance of the reflection and support tests is relative to the
    # operator's largest entry, so scaling the set changes none of them
    ops = [[PauliString(scale * ps.coefficient, ps.factors) for ps in op]
           for op in two_qubit_symmetry_strings().values()]
    path = write_symmetry_file(tmp_path / "scaled.json", ops)
    code, stdout, stderr = run("qfi", "--beta", "1", "--symmetries", path)
    assert code == 0, stderr
    _, rows = read_table(stdout)
    assert rows[0][3] == "1.604751608661e+00"
    assert stdout == run("qfi", "--beta", "1", "--symmetries", "analytic")[1]
    code, stdout, stderr = run("verify", "--symmetries", path)
    assert code == 0, stderr
    _, rows = read_table(stdout)
    assert len(rows) == 8
    for row in rows:
        assert row[3:] == ["0 1", "1.000000000000e+00", "true", "true"]


def test_verify_takes_the_analytic_set_by_name(tmp_path):
    path = write_symmetry_file(
        tmp_path / "ops.json", two_qubit_symmetry_strings().values()
    )
    code, by_name, _ = run("verify", "--symmetries", "analytic")
    assert code == 0
    assert by_name == run("verify", "--symmetries", path)[1]


def test_verify_flat_list_is_one_operator(tmp_path):
    op = two_qubit_symmetry_strings()["A4"]
    path = tmp_path / "one.json"
    path.write_text(json.dumps(pauli_strings_to_records(op)))
    code, stdout, _ = run("verify", "--symmetries", str(path))
    assert code == 0
    _, rows = read_table(stdout)
    assert len(rows) == 1 and rows[0][6] == "true"


def test_verify_flags_a_non_symmetry(tmp_path):
    path = tmp_path / "sx.json"
    path.write_text(json.dumps(pauli_strings_to_records([PauliString(1.0, ((0, "x"),))])))
    code, stdout, _ = run("verify", "--symmetries", str(path))
    assert code == 1
    _, rows = read_table(stdout)
    row = rows[0]
    assert row[3] == "0"
    assert row[4] == "2.500000000000e-01"
    # a strictly local operator can still beat its locality cap on a
    # correlated thermal state; the cap column records that honestly
    assert row[5] == "false"
    assert row[6] == "false"


def test_verify_leaves_the_cap_blank_where_it_is_undefined(tmp_path):
    # z0 z2 has a support with a gap and the identity acts as a scalar, so
    # neither has a locality cap; z0 z2 is no symmetry of the chain
    path = write_symmetry_file(tmp_path / "uncapped.json", [
        [PauliString(1.0, ((0, "z"), (2, "z")))], [PauliString(1.0, ())]])
    code, stdout, stderr = run("verify", "--preset", "chain", "--sites", "4",
                               "--symmetries", path)
    assert code == 1 and stderr == ""
    _, rows = read_table(stdout)
    assert [row[3:] for row in rows] == [["0 2", "-", "-", "false"], ["-", "-", "-", "true"]]


def test_verify_refuses_a_symmetry_whose_shell_cut_is_uncertified(tmp_path):
    # a mode plus 1e-11 x2 passes TAU_DYN, but residual / omega_tol is
    # above SHELL_CUT_RTOL, as verified_blocks finds for the bound
    slight = [*fermion_modes(6)[1], PauliString(1e-11, ((2, "x"),))]
    path = write_symmetry_file(tmp_path / "slight.json", [slight])
    code, stdout, stderr = run("verify", "--preset", "chain", "--sites", "6",
                               "--symmetries", path)
    assert code == 3 and stdout == ""
    assert stderr.startswith("qfidyn: numeric failure: operator 0: the part off its omega-shell")


def test_verify_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('[{"coefficient": [1, 0')
    code, _, stderr = run("verify", "--symmetries", str(path))
    assert code == 2
    assert "line" in stderr and "column" in stderr


def test_verify_missing_file():
    code, _, stderr = run("verify", "--symmetries", "/no/such/file.json")
    assert code == 2 and "cannot read" in stderr


def test_verify_bad_operator_entries(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[{"coefficient": [1, 0]}]]))
    code, _, stderr = run("verify", "--symmetries", str(path))
    assert code == 2 and "operator 0" in stderr

    path.write_text("[[]]")
    code, _, stderr = run("verify", "--symmetries", str(path))
    assert code == 2 and "operator 0" in stderr


def assert_one_error_line(code, stdout, stderr, exit_code=2):
    assert code == exit_code and stdout == "", stderr
    assert stderr.startswith("qfidyn:") and stderr.count("\n") == 1, stderr


@pytest.mark.parametrize(
    "coefficient, site",
    [([1, "a"], 0), ([None, 0], 0), ([1, 0], "a"), ([1, 0], 0.5), ([math.nan, 0], 0),
     ([math.inf, 0], 0)],
    ids=["coefficient-string", "coefficient-null", "site-string", "site-fraction",
         "coefficient-nan", "coefficient-inf"],
)
def test_malformed_record_values_are_usage_errors(tmp_path, coefficient, site):
    # the analytic A4 with its first record, s+ on site 0, spoilt
    records = pauli_strings_to_records(two_qubit_symmetry_strings()["A4"])
    records[0] = {"coefficient": coefficient, "factors": [{"site": site, "axis": "+"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(records))
    code, stdout, stderr = run("qfi", "--beta", "1", "--symmetries", str(path))
    assert_one_error_line(code, stdout, stderr)
    assert "operator 0" in stderr


def scaled(operators, scale):
    return [[PauliString(scale * ps.coefficient, ps.factors) for ps in op] for op in operators]


@pytest.mark.parametrize(
    "command", [("qfi", "--beta", "1"), ("verify",)], ids=["qfi", "verify"]
)
@pytest.mark.parametrize(
    "operators",
    [
        scaled([[PauliString(1.0, ((0, "+"), (1, "-")))]], 1e160),
        scaled([[PauliString(1.0, ((0, "+"), (1, "-")))]], 1e308),
        scaled(two_qubit_symmetry_strings().values(), 1e300),
        scaled(two_qubit_symmetry_strings().values(), 1e-300),
    ],
    ids=["hop-1e160", "hop-1e308", "analytic-1e300", "analytic-1e-300"],
)
def test_an_overflowed_symmetry_norm_fails_closed(tmp_path, command, operators):
    # <A, A> overflows or underflows, so the residual of the fit is NaN or
    # meaningless; S+_0 S-_1 itself is refused with residual 2.83
    path = write_symmetry_file(tmp_path / "ops.json", operators)
    code, stdout, stderr = run(*command, "--symmetries", path)
    assert_one_error_line(code, stdout, stderr)
    assert "out of range" in stderr


# ---------------------------------------------------------------------------
# console entry point

def console_script_wrapper(spec):
    # The launcher an installer writes for a "module:attr[.attr]" entry point:
    # import the first attribute, call the target, exit with its return value.
    module, _, attr = spec.partition(":")
    return (
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )


def declared_console_script(name):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as handle:
        return tomllib.load(handle)["project"]["scripts"][name]


def checkout_env():
    """The environment with PYTHONPATH led by the imported qfidyn's parent
    directory, so a child process runs the code this suite tests."""
    package_root = str(Path(qfidyn.__file__).resolve().parent.parent)
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}


def test_console_script_runs(tmp_path):
    # Runs the declared entry point as a separate process, the way an
    # installed script runs it, against the qfidyn this suite imported.
    script = tmp_path / "qfidyn"
    script.write_text(console_script_wrapper(declared_console_script("qfidyn")))
    env = checkout_env()

    def launch(*argv):
        return subprocess.run(
            [sys.executable, str(script), *argv],
            capture_output=True, cwd=tmp_path, env=env, timeout=120,
        )

    proc = launch("qfi", "--beta", "1")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.startswith(b"temperature,qfi,")
    code, stdout, _ = run("qfi", "--beta", "1")
    assert code == 0 and proc.stdout == stdout.encode()

    proc = launch("qfi", "--beta", "-1")
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("qfidyn:")


@pytest.mark.skipif(
    shutil.which("qfidyn") is None, reason="qfidyn console script not on PATH"
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        [shutil.which("qfidyn"), "qfi", "--beta", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("temperature,qfi,")


# Counts gc.freeze calls, noting whether the last layer module was imported
# by then, and reports them with the frozen object count at exit.
FREEZE_PROBE = """
import atexit, gc, runpy, sys

calls = []
freeze = gc.freeze
gc.freeze = lambda: (calls.append("qfidyn.response" in sys.modules), freeze())[1]
atexit.register(lambda: print(calls, gc.get_freeze_count(), file=sys.stderr))
sys.argv = ["qfidyn", "qfi", "--beta", "1"]
"""
ENTRY_POINTS = {
    # the console script calls main() with no argument
    "script": "from qfidyn.cli import main\nsys.exit(main())\n",
    # python -m qfidyn.cli runs the module's __main__ block
    "module": "runpy.run_module('qfidyn.cli', run_name='__main__', alter_sys=True)\n",
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_program_run_freezes_the_import_heap_once(entry):
    proc = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE + ENTRY_POINTS[entry]],
        capture_output=True, text=True, env=checkout_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("temperature,qfi,")
    calls, frozen = proc.stderr.strip().splitlines()[-1].rsplit(" ", 1)
    assert calls == "[True]"
    assert int(frozen) > 1000


def test_in_process_main_leaves_the_heap_unfrozen():
    before = gc.get_freeze_count()
    code, stdout, _ = run("qfi", "--beta", "1")
    assert code == 0 and stdout.startswith("temperature,qfi,")
    assert gc.get_freeze_count() == before


def test_readme_library_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(example, str(README), "exec"), {})


def test_analysis_scripts_run(tmp_path):
    runs = (
        ("comb_audit.py", "--sites", "4"),
        ("bound_tightness.py", "--fields", "0.5", "--temps", "1"),
        ("depth_vs_size.py", "--sizes", "2,4", "--temps", "1"),
    )
    stdout = {}
    for script, *argv in runs:
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / script), *argv],
            capture_output=True, text=True, cwd=tmp_path, env=checkout_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        stdout[script] = proc.stdout
    assert "equality: True" in stdout["comb_audit.py"]
    depth_rows = [line.split() for line in stdout["depth_vs_size.py"].splitlines()[1:]]
    assert [row[0] for row in depth_rows] == ["2", "4"]


STARTUP_PROBE = """
import sys
import argparse, numpy

generated = []


def hook(event, args):
    if event == "compile" and args[1] == "<string>":
        generated.append(args[0])


sys.addaudithook(hook)
import qfidyn.cli

print(len(generated), "json" in sys.modules)
"""


def test_import_generates_no_code_and_defers_json():
    # Code made at import (exec of generated source, as dataclass does for
    # every method it writes) is compiled from "<string>" on each launch;
    # json is needed only to read or write JSON, so a CSV run never loads it.
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE],
        capture_output=True, text=True, env=checkout_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
