"""Acceptance gate: ten numbered criteria, one printed PASS/FAIL line each.

Run with pytest -s (the default addopts) so the lines appear in order.  Every
criterion gathers its failures into a list, prints its verdict, and only then
asserts, so a red criterion still reports alongside the green ones.
"""

import io
import json
import math
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from qfidyn import (
    PauliString,
    SpinChainSpec,
    build_xx_hamiltonian,
    diagonalize,
    eth_lower_bound,
    eth_qfi,
    eth_qfi_from_comb,
    eth_thermal_gap,
    fit_frequency,
    gibbs_weights,
    local_cap,
    local_generator,
    operator_from_strings,
    operator_support,
    projector_mazur_weight,
    qfi_from_dynsym,
    qfi_matrix,
    qfi_matrix_from_dynsym,
    qfi_spectral,
    qfi_via_structure_factor,
    qfi_via_susceptibility,
    quantum_variance,
    qv_lower_bound,
    skew_information,
    skew_lower_bound,
    structure_factor_comb,
    thermal_expectation,
    trivial_complete_set,
    verified_blocks,
)
from qfidyn.cli import main
from qfidyn.models import (
    build_preset,
    preset,
    regime_subset,
    two_qubit_frequencies,
    two_qubit_symmetry_operators,
)
from oracles import qfi_oracle, random_hermitian, thermal_state

SEED = 20240811


def report(index, name, start, failures):
    status = "PASS" if not failures else "FAIL"
    elapsed = time.perf_counter() - start
    print(f"\n[{index:2d}/10] {name}: {status} ({elapsed:.1f}s)", flush=True)
    assert not failures, f"{name}: {len(failures)} issue(s); first: {failures[0]}"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def read_table(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------

def test_01_saturation_identity():
    """Trivial complete set reproduces the QFI exactly, any dim, any beta."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    for _ in range(200):
        dim = int(rng.integers(2, 65))
        h = random_hermitian(rng, dim)
        spectral = diagonalize(h)
        blocks = trivial_complete_set(spectral)
        o_eig = spectral.to_eigenbasis(random_hermitian(rng, dim))
        for beta in (0.0, 0.1, 1.0, 10.0):
            ens = gibbs_weights(spectral, beta)
            fq = qfi_spectral(o_eig, ens)
            bound = qfi_from_dynsym(blocks, ens, o_eig).value
            if abs(bound - fq) > 1e-9 * max(1.0, fq):
                failures.append(f"dim {dim} beta {beta}: {bound!r} vs {fq!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 60s budget")
    report(1, "saturation on the trivial complete set", start, failures)


def test_02_two_qubit_analytic_set():
    """The eight analytic eigenoperators: residuals, frequencies, saturation."""
    start = time.perf_counter()
    failures = []
    temps = np.geomspace(0.05, 5.0, 50)
    for field in (0.3, 0.5, 1.5, 2.0):
        h_op = build_xx_hamiltonian(SpinChainSpec(2, 1.0, field))
        expected = two_qubit_frequencies(1.0, field)
        want = sorted({+2.0 * (1 + field), -2.0 * (1 + field),
                       +2.0 * (1 - field), -2.0 * (1 - field)})
        fitted = []
        for label in ("A1", "A2", "A3", "A4"):
            op = two_qubit_symmetry_operators((label,))[label]
            omega, residual = fit_frequency(h_op.mat, op.mat)
            fitted.append(omega)
            if residual >= 1e-12:
                failures.append(f"h={field} {label}: residual {residual:.3e}")
            if abs(omega - expected[label]) > 1e-9:
                failures.append(f"h={field} {label}: omega {omega} != {expected[label]}")
        if max(abs(a - b) for a, b in zip(sorted(fitted), want)) > 1e-9:
            failures.append(f"h={field}: frequency set {sorted(fitted)} != {want}")

        # bound saturation needs the full two-dimensional eigenspaces,
        # i.e. the mirrored partners as well
        spectral = diagonalize(h_op.mat)
        o_eig = spectral.to_eigenbasis(local_generator("antisymmetric-x", 2).mat)
        ops = [op.mat for op in two_qubit_symmetry_operators().values()]
        blocks = verified_blocks(h_op.mat, spectral, ops)
        for temp in temps:
            ens = gibbs_weights(spectral, 1.0 / temp)
            fq = qfi_spectral(o_eig, ens)
            bound = qfi_from_dynsym(blocks, ens, o_eig).value
            if abs(bound - fq) > 1e-9 * max(1.0, fq):
                failures.append(f"h={field} T={temp:.3g}: {bound!r} vs {fq!r}")
    report(2, "two-qubit analytic symmetry set", start, failures)


def test_03_low_temperature_bound_curves(tmp_path):
    """Subset bounds track the QFI density at low T on both sides of the
    crossing; confirmed by the dense oracle first, then on the CLI tables."""
    start = time.perf_counter()
    failures = []
    t_min = 0.05

    # oracle pass: density-matrix QFI and the dense-trace subset bound
    for field, want_ratio in ((0.5, 0.99), (1.5, 0.99)):
        h_op = build_xx_hamiltonian(SpinChainSpec(2, 1.0, field))
        gen = local_generator("antisymmetric-x", 2)
        rho = thermal_state(h_op.mat, 1.0 / t_min)
        fq = qfi_oracle(rho, gen.mat)
        freqs = two_qubit_frequencies(1.0, field)
        bound = 0.0
        for label in regime_subset(field):
            a = two_qubit_symmetry_operators((label,))[label].mat
            norm = float(np.trace(rho @ a.conj().T @ a).real)
            overlap = complex(np.trace(rho @ a.conj().T @ gen.mat))
            bound += (
                4.0 * math.tanh(freqs[label] / (2.0 * t_min)) ** 2
                * abs(overlap) ** 2 / norm
            )
        if bound > fq + 1e-9:
            failures.append(f"oracle h={field}: bound {bound} above QFI {fq}")
        if bound < want_ratio * fq:
            failures.append(f"oracle h={field}: ratio {bound / fq:.4f} < {want_ratio}")
        if field == 0.5 and abs(fq / 2.0 - 2.0) > 1e-6:
            failures.append(f"oracle h=0.5: f_Q {fq / 2.0} not at 2")

    # CLI pass over the default grids
    code, _, stderr = run_cli("reproduce-fig1", "--out", str(tmp_path))
    if code != 0:
        failures.append(f"reproduce-fig1 exited {code}: {stderr.strip()}")
    else:
        _, low = read_table(tmp_path / "curve_low.csv")
        _, high = read_table(tmp_path / "curve_high.csv")
        for name, rows in (("low", low), ("high", high)):
            for row in rows:
                if float(row[2]) > float(row[1]) + 1e-9:
                    failures.append(f"curve_{name} T={row[0]}: bound above f_Q")
        cold_low, cold_high = low[0], high[0]
        if abs(float(cold_low[0]) - t_min) > 1e-12:
            failures.append("curve_low does not start at T=0.05")
        if abs(float(cold_low[1]) - 2.0) > 1e-6:
            failures.append(f"f_Q at T_min is {cold_low[1]}, not 2")
        if not float(cold_low[1]) > 1.0:
            failures.append("f_Q at T_min fails the depth-2 threshold")
        for name, row in (("low", cold_low), ("high", cold_high)):
            ratio = float(row[2]) / float(row[1])
            if ratio < 0.99:
                failures.append(f"curve_{name} cold ratio {ratio:.4f} < 0.99")
        for heat in ("heatmap_fq.csv", "heatmap_bound.csv"):
            if not (tmp_path / heat).exists():
                failures.append(f"{heat} missing")
        _, fq_rows = read_table(tmp_path / "heatmap_fq.csv")
        _, bound_rows = read_table(tmp_path / "heatmap_bound.csv")
        for fq_row, bound_row in zip(fq_rows, bound_rows):
            if float(bound_row[2]) > float(fq_row[2]) + 1e-9:
                failures.append(f"heatmap h={fq_row[0]} T={fq_row[1]}: bound above f_Q")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 10s budget")
    report(3, "two-qubit bound curves (reproduce-fig1)", start, failures)


def test_04_chain_comb_and_decomposition(tmp_path):
    """Seven-site chain: comb sum rule, per-frequency Mazur equality, and
    the QFI decomposition, via the CLI against dense oracles."""
    start = time.perf_counter()
    failures = []
    code, _, stderr = run_cli("reproduce-fig2", "--out", str(tmp_path))
    if code != 0:
        failures.append(f"reproduce-fig2 exited {code}: {stderr.strip()}")
        report(4, "chain comb and decomposition (reproduce-fig2)", start, failures)
        return

    model = preset("chain")
    h_op, gen = build_preset(model)
    rho = thermal_state(h_op.mat, 1.0)  # the default comb temperature
    second_moment = float(np.trace(rho @ gen.mat @ gen.mat).real)

    _, comb_rows = read_table(tmp_path / "comb.csv")
    total = sum(float(row[1]) for row in comb_rows)
    if abs(total - second_moment) > 1e-10:
        failures.append(f"comb sum {total!r} != <O^2> {second_moment!r}")
    for row in comb_rows:
        if abs(float(row[1]) - float(row[2])) > 1e-10:
            failures.append(f"omega={row[0]}: g={row[1]} != D={row[2]}")
    zero_rows = [row for row in comb_rows if float(row[0]) == 0.0]
    if len(zero_rows) != 1:
        failures.append(f"{len(zero_rows)} zero-frequency rows")
    else:
        spectral = diagonalize(h_op.mat)
        ens = gibbs_weights(spectral, 1.0)
        o_eig = spectral.to_eigenbasis(gen.mat)
        msr = projector_mazur_weight(ens, o_eig)
        if abs(float(zero_rows[0][2]) - msr) > 1e-10:
            failures.append(f"omega=0 Mazur weight {zero_rows[0][2]} != MSR {msr!r}")

    _, sweep_rows = read_table(tmp_path / "qfi_vs_t.csv")
    for row in sweep_rows:
        if float(row[3]) > float(row[2]) + 1e-9:
            failures.append(f"qfi_vs_t T={row[0]}: bound density above f_Q")

    _, decomp_rows = read_table(tmp_path / "decomposition.csv")
    decomposed = sum(float(row[1]) for row in decomp_rows)
    fq = qfi_oracle(rho, gen.mat)
    if abs(decomposed - fq) > 1e-9 * max(1.0, fq):
        failures.append(f"decomposition sum {decomposed!r} != QFI {fq!r}")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 30s budget")
    report(4, "chain comb and decomposition (reproduce-fig2)", start, failures)


def test_05_generalized_variance_identities():
    """Complete-set lower bounds hit the skew information and the quantum
    variance; the variance ordering chain holds throughout."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 5)
    failures = []
    betas = (0.0, 0.3, 1.0, 5.0, math.inf)
    for k in range(100):
        dim = int(rng.integers(2, 33))
        beta = betas[k % len(betas)]
        spectral = diagonalize(random_hermitian(rng, dim))
        ens = gibbs_weights(spectral, beta)
        o_eig = spectral.to_eigenbasis(random_hermitian(rng, dim, 1.0 / math.sqrt(dim)))
        blocks = trivial_complete_set(spectral)

        skew = skew_information(o_eig, ens, 0.5)
        skew_b = skew_lower_bound(blocks, ens, o_eig)
        if abs(skew_b - skew) > 1e-9 * max(1.0, abs(skew)):
            failures.append(f"#{k} dim {dim} beta {beta}: skew {skew_b!r} vs {skew!r}")

        qv = quantum_variance(o_eig, ens)
        qv_b = qv_lower_bound(blocks, ens, o_eig)
        if abs(qv_b - qv) > 1e-9 * max(1.0, abs(qv)):
            failures.append(f"#{k} dim {dim} beta {beta}: qv {qv_b!r} vs {qv!r}")

        quarter = qfi_spectral(o_eig, ens) / 4.0
        var = thermal_expectation(o_eig @ o_eig, ens) - thermal_expectation(o_eig, ens) ** 2
        if not (qv <= skew + 1e-9 and skew <= quarter + 1e-9 and quarter <= var + 1e-9):
            failures.append(
                f"#{k} dim {dim} beta {beta}: ordering {qv!r} {skew!r} {quarter!r} {var!r}"
            )
    report(5, "generalized-variance identities", start, failures)


def test_06_qfi_matrix_decomposition():
    """Two-qubit generator pair {uniform z, antisymmetric x}: symmetry, PSD,
    per-generator diagonal, and the complete-set decomposition."""
    start = time.perf_counter()
    failures = []
    h_op = build_xx_hamiltonian(SpinChainSpec(2, 1.0, 0.5))
    spectral = diagonalize(h_op.mat)
    gens = [
        spectral.to_eigenbasis(local_generator("uniform-z", 2).mat),
        spectral.to_eigenbasis(local_generator("antisymmetric-x", 2).mat),
    ]
    blocks = trivial_complete_set(spectral)
    for beta in (0.5, 1.0, 5.0):
        ens = gibbs_weights(spectral, beta)
        with warnings.catch_warnings():
            # the pair does not commute; the flag records that
            warnings.simplefilter("ignore", RuntimeWarning)
            direct = qfi_matrix(gens, ens)
            decomposed = qfi_matrix_from_dynsym(blocks, ens, gens)
        m = direct.matrix
        if direct.commuting:
            failures.append(f"beta {beta}: non-commuting pair flagged commuting")
        if np.abs(m - m.T).max() > 1e-10 * max(1.0, np.abs(m).max()):
            failures.append(f"beta {beta}: matrix not symmetric")
        if np.linalg.eigvalsh((m + m.T) / 2.0).min() < -1e-10:
            failures.append(f"beta {beta}: matrix not PSD")
        for a, gen in enumerate(gens):
            want = qfi_spectral(gen, ens)
            if abs(m[a, a] - want) > 1e-10 * max(1.0, want):
                failures.append(f"beta {beta}: diagonal {a} is {m[a, a]!r}, not {want!r}")
        if abs(m[0, 0]) > 1e-14:
            failures.append(f"beta {beta}: conserved generator row not zero")
        gap = np.abs(decomposed.matrix - m).max()
        if gap > 1e-9 * max(1.0, float(np.abs(m).max())):
            failures.append(f"beta {beta}: decomposition off by {gap:.3e}")
    report(6, "QFI matrix decomposition", start, failures)


def test_07_eth_relations():
    """Both ETH computation paths, the lower bound, the thermal-gap
    certificate, and the zero-diagonal equality cases."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 7)
    failures = []
    betas = (0.0, 0.3, 1.0, 5.0)
    for k in range(100):
        dim = int(rng.integers(2, 25))
        beta = betas[k % len(betas)]
        spectral = diagonalize(random_hermitian(rng, dim))
        ens = gibbs_weights(spectral, beta)
        o_eig = spectral.to_eigenbasis(random_hermitian(rng, dim, 1.0 / math.sqrt(dim)))
        blocks = trivial_complete_set(spectral)

        closed = eth_qfi(o_eig, ens)
        comb_path = eth_qfi_from_comb(structure_factor_comb(o_eig, ens))
        if abs(comb_path - closed) > 1e-10:
            failures.append(f"#{k}: comb path {comb_path!r} vs closed {closed!r}")

        lower = eth_lower_bound(blocks, ens, o_eig)
        if lower > closed + 1e-9:
            failures.append(f"#{k}: lower bound {lower!r} above {closed!r}")
        gap = closed - qfi_spectral(o_eig, ens)
        try:
            gap_bound = eth_thermal_gap(blocks, ens, o_eig)
        except Exception as exc:  # the certificate must not fire here
            failures.append(f"#{k}: gap certificate raised {exc!r}")
            continue
        if gap_bound > gap + 1e-9:
            failures.append(f"#{k}: gap bound {gap_bound!r} above gap {gap!r}")

        # zero-diagonal generator: both inequalities become equalities
        o_zero = o_eig - np.diag(np.diagonal(o_eig))
        total = eth_qfi(o_zero, ens)
        lower = eth_lower_bound(blocks, ens, o_zero)
        if abs(lower - total) > 1e-9 * max(1.0, total):
            failures.append(f"#{k} zero-diag: lower {lower!r} vs eth {total!r}")
        gap = total - qfi_spectral(o_zero, ens)
        gap_bound = eth_thermal_gap(blocks, ens, o_zero)
        if abs(gap_bound - gap) > 1e-9 * max(1.0, abs(gap)):
            failures.append(f"#{k} zero-diag: gap bound {gap_bound!r} vs {gap!r}")
    report(7, "ETH relations", start, failures)


def test_08_route_equivalence():
    """Susceptibility, structure-factor, and spectral QFI routes agree."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 8)
    failures = []
    betas = (0.0, 0.3, 1.0, 5.0, 10.0)
    for k in range(100):
        dim = int(rng.integers(2, 33))
        beta = betas[k % len(betas)]
        spectral = diagonalize(random_hermitian(rng, dim))
        ens = gibbs_weights(spectral, beta)
        o_eig = spectral.to_eigenbasis(random_hermitian(rng, dim, 1.0 / math.sqrt(dim)))
        spectral_route = qfi_spectral(o_eig, ens)
        for name, value in (
            ("susceptibility", qfi_via_susceptibility(o_eig, ens)),
            ("structure-factor", qfi_via_structure_factor(o_eig, ens)),
        ):
            if abs(value - spectral_route) > 1e-10:
                failures.append(
                    f"#{k} dim {dim} beta {beta}: {name} {value!r} vs {spectral_route!r}"
                )

    # ground state of the 5-site chain at h = 0: its doublet is split by
    # rounding (~7e-15), well inside the degeneracy tolerance
    spectral = diagonalize(build_xx_hamiltonian(SpinChainSpec(5, 1.0, 0.0)).mat)
    ens = gibbs_weights(spectral, math.inf)
    o_eig = spectral.to_eigenbasis(local_generator("staggered-x", 5).mat)
    spectral_route = qfi_spectral(o_eig, ens)
    for name, value in (
        ("susceptibility", qfi_via_susceptibility(o_eig, ens)),
        ("structure-factor", qfi_via_structure_factor(o_eig, ens)),
    ):
        if abs(value - spectral_route) > 1e-9:
            failures.append(f"5-site h=0 beta inf: {name} {value!r} vs {spectral_route!r}")
    report(8, "route equivalence", start, failures)


def test_09_strict_locality_cap():
    """D(A; O) <= (support width)^2 / 4 on the regimes where the cap is a
    theorem: product thermal states, and operators covering the whole pair."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 9)
    failures = []

    def direct_weight(h_mat, beta, a_mat, o_mat):
        rho = thermal_state(h_mat, beta)
        norm = float(np.trace(rho @ a_mat.conj().T @ a_mat).real)
        overlap = complex(np.trace(rho @ a_mat.conj().T @ o_mat))
        return abs(overlap) ** 2 / norm

    # product chains: the generator has zero mean on every site outside the
    # support, so the overlap is confined and Cauchy-Schwarz gives the cap
    betas = (0.5, 1.0, 2.0)
    kinds = ("uniform-x", "staggered-x")
    for k in range(60):
        n = int(rng.integers(2, 9))
        width = int(rng.integers(1, min(3, n) + 1))
        offset = int(rng.integers(0, n - width + 1))
        local_fields = rng.uniform(0.1, 1.0, n) * rng.choice((-1.0, 1.0), n)
        h_mat = operator_from_strings(
            [PauliString(float(f), ((j, "z"),)) for j, f in enumerate(local_fields)],
            n, hermitian=True,
        ).mat
        a_small = random_hermitian(rng, 2**width)
        if k % 2:
            a_small = a_small + 1j * random_hermitian(rng, 2**width)
        a_mat = np.kron(
            np.kron(np.eye(2**offset), a_small), np.eye(2 ** (n - offset - width))
        )
        o_mat = local_generator(kinds[k % 2], n).mat
        beta = betas[k % 3]
        ens = gibbs_weights(diagonalize(h_mat), beta)
        try:
            cap, holds = local_cap(a_mat, o_mat, ens)
        except Exception as exc:
            failures.append(f"product #{k}: local_cap raised {exc!r}")
            continue
        support = operator_support(a_mat, n)
        span = max(support) - min(support) + 1
        if cap != span * span / 4.0:
            failures.append(f"product #{k}: cap {cap} for span {span}")
        if not holds:
            failures.append(f"product #{k}: cap flagged violated")
        d = direct_weight(h_mat, beta, a_mat, o_mat)
        if d > cap + 1e-9:
            failures.append(f"product #{k}: D {d!r} above cap {cap}")

    # two-qubit analytic operators span the full pair, so the cap is just
    # the generator norm and holds on the correlated state as well
    for field in (0.5, 1.5):
        h_op = build_xx_hamiltonian(SpinChainSpec(2, 1.0, field))
        gen = local_generator("antisymmetric-x", 2)
        spectral = diagonalize(h_op.mat)
        for beta in (0.5, 2.0, 10.0):
            ens = gibbs_weights(spectral, beta)
            for label, op in two_qubit_symmetry_operators().items():
                cap, holds = local_cap(op.mat, gen.mat, ens)
                if cap != 1.0:
                    failures.append(f"{label} h={field}: cap {cap} != 1")
                if not holds:
                    failures.append(f"{label} h={field} beta={beta}: cap flagged violated")
                d = direct_weight(h_op.mat, beta, op.mat, gen.mat)
                if d > cap + 1e-9:
                    failures.append(f"{label} h={field} beta={beta}: D {d!r} above 1")
    report(9, "strict-locality cap", start, failures)


def test_10_byte_identical_cli_output(tmp_path):
    """Identical configurations produce byte-identical files."""
    start = time.perf_counter()
    failures = []
    configs = (
        ("csv", ("qfi", "--temp-grid", "0.1:2:7")),
        ("json", ("qfi", "--beta", "1.5", "--format", "json")),
    )
    for tag, args in configs:
        payloads = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{tag}_{attempt}.out"
            code, *_ = run_cli(*args, "--out", str(out))
            if code != 0:
                failures.append(f"{tag} run {attempt} exited {code}")
                break
            payloads.append(out.read_bytes())
        if len(payloads) == 2 and payloads[0] != payloads[1]:
            failures.append(f"{tag}: reruns differ")

    for attempt in ("a", "b"):
        code, *_ = run_cli(
            "reproduce-fig2", "--sites", "4", "--temp-grid", "0.5:2:3",
            "--out", str(tmp_path / f"fig2_{attempt}"),
        )
        if code != 0:
            failures.append(f"fig2 run {attempt} exited {code}")
    for name in ("comb.csv", "qfi_vs_t.csv", "decomposition.csv"):
        a = (tmp_path / "fig2_a" / name).read_bytes()
        b = (tmp_path / "fig2_b" / name).read_bytes()
        if a != b:
            failures.append(f"fig2 {name}: reruns differ")
    report(10, "byte-identical CLI output", start, failures)
