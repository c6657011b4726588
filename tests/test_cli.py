"""Command-line contract: argument handling, file formats, exit codes."""

import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import qfidyn
from qfidyn import (
    PauliString,
    diagonalize,
    entanglement_depth,
    gibbs_weights,
    pauli_strings_to_records,
    projector_mazur_weight,
    qfi_spectral,
    response_comb,
)
from qfidyn.cli import main
from qfidyn.models import build_preset, preset, two_qubit_symmetry_strings

FLOAT_RE = re.compile(r"-?\d\.\d{12}e[+-]\d{2,3}")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
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
    h_op, gen = build_preset(model)
    spectral = diagonalize(h_op.mat)
    ens = gibbs_weights(spectral, beta)
    return qfi_spectral(spectral.to_eigenbasis(gen.mat), ens)


def write_symmetry_file(path, operators):
    path.write_text(json.dumps([pauli_strings_to_records(op) for op in operators]))
    return str(path)


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


@pytest.mark.parametrize("grid", ["1:inf:3", "1:nan:3", "nan:1:3", "0:inf:3:lin"])
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
    h_op, gen = build_preset(model)
    spectral = diagonalize(h_op.mat)
    ens = gibbs_weights(spectral, 1.0)  # default --temperature 1
    o_eig = spectral.to_eigenbasis(gen.mat)

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
    h_op, gen = build_preset(preset("chain", sites=6))
    spectral = diagonalize(h_op.mat)
    ens = gibbs_weights(spectral, 1.0)  # default --temperature 1
    o_eig = spectral.to_eigenbasis(gen.mat)
    comb = response_comb(o_eig, ens)
    _, rows = read_table((tmp_path / "comb.csv").read_text())
    assert [row[:2] for row in rows] == [
        ["%.12e" % omega, "%.12e" % weight.real] for omega, weight in zip(comb.omegas, comb.weights)
    ]
    for row in rows:
        if float(row[0]) != 0.0:
            assert row[2] == row[1]  # a trivial cluster's Mazur weight is its comb weight


def test_fig2_rejects_nonpositive_temperature():
    code, _, stderr = run("reproduce-fig2", "--sites", "3", "--temperature", "0")
    assert code == 2 and "temperature" in stderr


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


def test_verify_empty_list(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, stdout, _ = run("verify", "--symmetries", str(path))
    assert code == 0
    assert stdout.strip() == "index,omega,residual,support,cap,cap_holds,is_symmetry"


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
