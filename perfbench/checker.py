"""Output checker for the benchmark's CLI runs.

A run fails on a nonzero exit, a missing or misshapen table, a broken
invariant, disagreement with the dense oracle, or a table that differs from
an earlier run of the same command (the CLI promises byte-identical tables
for identical arguments).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Agreement with the dense oracle (relative).
ORACLE_RTOL = 1e-10
# Trivial-set bound against the QFI, and sums of printed tables (relative).
BOUND_RTOL = 1e-9
# Two printed columns tied by an exact relation, each rounded to 13 digits.
PRINT_RTOL = 1e-11
# Witness tolerance of entanglement_depth.
WITNESS_TOL = 1e-9

STDOUT_TABLE = "stdout.csv"

QFI_HEADER = ("temperature", "qfi", "qfi_density", "bound", "bound_density", "depth")
COMB_HEADER = ("omega", "response_weight", "mazur_weight")
SWEEP_HEADER = ("temperature", "qfi", "qfi_density", "bound_density")
DECOMP_HEADER = ("omega", "contribution")
CURVE_HEADER = ("temperature", "qfi_density", "bound_density")
HEAT_FQ_HEADER = ("field", "temperature", "qfi_density")
HEAT_BOUND_HEADER = ("field", "temperature", "bound_density")


class CheckFailed(Exception):
    """The first problem found in a run's output."""


def _close(got, want, rtol, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want)
    scale = np.maximum(np.abs(got), np.abs(want))
    bad = np.flatnonzero(~(err <= rtol * scale))
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(
            f"{what}: row {i} reads {got.ravel()[i]!r}, expected {want.ravel()[i]!r} "
            f"(relative tolerance {rtol:g}; {bad.size} rows off)"
        )


def _at_most(small, big, atol, what):
    bad = np.flatnonzero(~(np.asarray(small) <= np.asarray(big) + atol))
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(f"{what}: row {i} breaks the inequality ({bad.size} rows)")


def _increasing(values, what):
    if values.size > 1 and not np.all(np.diff(values) > 0):
        raise CheckFailed(f"{what} is not strictly increasing")


class Checker:
    """Checks the tables of one workload's runs against the oracle values.

    expected comes from oracle.expected(workload).  The first text seen for
    each (command, table) is remembered; later runs must repeat it exactly.
    """

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self._seen = {}

    def check(self, kind, run_dir, returncode):
        """Return None when the run is correct, else a one-line reason."""
        try:
            if returncode != 0:
                raise CheckFailed(f"exit code {returncode}")
            getattr(self, "_check_" + self.workload.name.replace("-", "_"))(
                kind, Path(run_dir)
            )
        except CheckFailed as exc:
            return str(exc)
        return None

    def _table(self, kind, run_dir, name, header, rows=None):
        path = run_dir / name
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            raise CheckFailed(f"{name}: missing") from None
        previous = self._seen.setdefault((kind, name), text)
        if text != previous:
            raise CheckFailed(f"{name}: differs from an earlier run of the same command")
        lines = text.splitlines()
        if not lines or tuple(lines[0].split(",")) != header:
            raise CheckFailed(f"{name}: header is not {','.join(header)}")
        body = lines[1:]
        if rows is not None and len(body) != rows:
            raise CheckFailed(f"{name}: {len(body)} rows, expected {rows}")
        if not body:
            raise CheckFailed(f"{name}: no rows")
        try:
            data = np.array([[float(c) for c in line.split(",")] for line in body])
        except ValueError:
            raise CheckFailed(f"{name}: a cell is not a number") from None
        if data.shape != (len(body), len(header)) or not np.all(np.isfinite(data)):
            raise CheckFailed(f"{name}: misshapen or non-finite rows")
        return data

    def _temps(self, kind):
        cmd = self.workload.full if kind == "full" else self.workload.setup
        return np.array(cmd.temps)

    def _check_qfi_ch10(self, kind, run_dir):
        n = self.workload.params["sites"]
        t = self._table(kind, run_dir, STDOUT_TABLE, QFI_HEADER, rows=1)
        temp, qfi, qfi_d, bound, bound_d, depth = t.T
        _close(temp, self._temps(kind), PRINT_RTOL, "temperature")
        _close(qfi, self.expected[kind]["qfi"], ORACLE_RTOL, "qfi against the oracle")
        _close(qfi_d * n, qfi, PRINT_RTOL, "qfi_density = qfi/n")
        _close(bound, qfi, BOUND_RTOL, "trivial-set bound = qfi")
        _close(bound_d * n, bound, PRINT_RTOL, "bound_density = bound/n")
        want_depth = [max(1, math.ceil(f - WITNESS_TOL)) for f in qfi_d]
        if list(depth) != want_depth:
            raise CheckFailed(f"depth {list(depth)} breaks the witness rule {want_depth}")

    def _check_fig2_ch8(self, kind, run_dir):
        n = self.workload.params["sites"]
        temps = self._temps(kind)
        out = run_dir / "out"
        comb = self._table(kind, out, "comb.csv", COMB_HEADER)
        omega, response, mazur = comb.T
        _increasing(omega, "comb.csv omega")
        if np.any(response < 0) or np.any(mazur < 0):
            raise CheckFailed("comb.csv: negative weight")
        _at_most(mazur, response, 1e-10, "comb.csv response_weight >= mazur_weight")
        # Away from omega = 0 both columns are the same pair sum over one cluster.
        nz = omega != 0.0
        _close(mazur[nz], response[nz], BOUND_RTOL, "comb.csv mazur_weight = response_weight")
        _close(response.sum(), self.expected["o2_t0"], BOUND_RTOL,
               "comb.csv total weight against the oracle <O^2>")

        sweep = self._table(kind, out, "qfi_vs_t.csv", SWEEP_HEADER, rows=temps.size)
        temp, qfi, qfi_d, bound_d = sweep.T
        _close(temp, temps, PRINT_RTOL, "qfi_vs_t.csv temperature")
        _close(qfi, self.expected[kind]["qfi"], ORACLE_RTOL, "qfi_vs_t.csv qfi against the oracle")
        _close(qfi_d * n, qfi, PRINT_RTOL, "qfi_vs_t.csv qfi_density = qfi/n")
        _close(bound_d * n, qfi, BOUND_RTOL, "qfi_vs_t.csv trivial-set bound = qfi")

        decomp = self._table(kind, out, "decomposition.csv", DECOMP_HEADER)
        _increasing(decomp[:, 0], "decomposition.csv omega")
        _close(decomp[:, 1].sum(), self.expected["qfi_t0"], BOUND_RTOL,
               "decomposition.csv sum against the oracle QFI at --temperature")

    def _check_fig1_2q(self, kind, run_dir):
        temps = self._temps(kind)
        want = self.expected[kind]
        out = run_dir / "out"
        for name, key in (("curve_low.csv", "low"), ("curve_high.csv", "high")):
            curve = self._table(kind, out, name, CURVE_HEADER, rows=temps.size)
            temp, qfi_d, bound_d = curve.T
            _close(temp, temps, PRINT_RTOL, f"{name} temperature")
            _close(qfi_d, want[key] / 2.0, ORACLE_RTOL, f"{name} qfi_density against the oracle")
            _at_most(bound_d, qfi_d, 1e-9, f"{name} bound_density <= qfi_density")

        fields = np.array(self.workload.params["fields"])
        rows = fields.size * temps.size
        heat_fq = self._table(kind, out, "heatmap_fq.csv", HEAT_FQ_HEADER, rows=rows)
        heat_b = self._table(kind, out, "heatmap_bound.csv", HEAT_BOUND_HEADER, rows=rows)
        _close(heat_fq[:, 0], np.repeat(fields, temps.size), PRINT_RTOL, "heatmap field")
        _close(heat_fq[:, 1], np.tile(temps, fields.size), PRINT_RTOL, "heatmap temperature")
        if not np.array_equal(heat_fq[:, :2], heat_b[:, :2]):
            raise CheckFailed("heatmap_bound.csv rows do not match heatmap_fq.csv")
        _close(heat_fq[:, 2], want["heat"].ravel() / 2.0, ORACLE_RTOL,
               "heatmap_fq.csv qfi_density against the oracle")
        _at_most(heat_b[:, 2], heat_fq[:, 2], 1e-9, "heatmap bound_density <= qfi_density")
