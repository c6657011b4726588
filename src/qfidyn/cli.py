"""Command-line harness: model presets, QFI sweeps with bound columns,
frequency-comb tables, and symmetry-file verification.

Output tables are CSV (or JSON where noted) with every float printed as
%.12e and rows in a fixed order, so identical configurations produce
byte-identical files.  Exit codes: 0 success, 1 verification failure,
2 usage or domain error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

import numpy as np

from .dynsym import (
    TAU_DYN,
    _checked_omega_tol,
    _local_cap,
    _on_shell,
    default_omega_tol,
    fit_frequency,
    projector_mazur_weight,
    verified_blocks,
)
from .errors import DomainError, NumericError
from .metrology import entanglement_depth, qfi_from_dynsym, qfi_spectral
from .models import (
    PRESETS,
    at_level_crossing,
    preset as resolve_preset,
    regime_subset,
    solve_preset,
    two_qubit_symmetry_operators,
)
from .operators import GENERATOR_KINDS, SparseOperator, operator_support, read_symmetry_file
from .response import response_comb
from .spectral import gibbs_weights

FLOAT_FMT = "%.12e"
DEFAULT_TEMP_GRID = "0.05:5:100:log"
DEFAULT_FIELD_GRID = "0.05:1.95:39:lin"
# Largest excess of a printed bound over its QFI, relative to max(1, QFI).
BOUND_RTOL = 1e-9


def parse_grid(text, name, default_scale):
    """Parse min:max:count[:lin|log] into a tuple of floats."""
    parts = str(text).split(":")
    if len(parts) not in (3, 4):
        raise DomainError(f"{name} must be min:max:count or min:max:count:lin|log, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError(f"cannot parse {name} {text!r}") from None
    scale = parts[3] if len(parts) == 4 else default_scale
    if scale not in ("lin", "log"):
        raise DomainError(f"{name} scale must be lin or log, got {scale!r}")
    if count < 1:
        raise DomainError(f"{name} count must be >= 1, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"{name} needs finite min and max, got {text!r}")
    if not lo <= hi:
        raise DomainError(f"{name} needs min <= max, got {lo} > {hi}")
    if scale == "log" and lo <= 0:
        raise DomainError(f"log-scale {name} needs min > 0, got {lo}")
    vals = np.geomspace(lo, hi, count) if scale == "log" else np.linspace(lo, hi, count)
    return tuple(float(v) for v in vals)


def _grid_from_args(args):
    """(betas, temperatures) from --beta or --temp-grid (default grid)."""
    if getattr(args, "beta", None) is not None:
        beta = float(args.beta)
        if not beta >= 0.0:
            raise DomainError(f"beta must be >= 0, got {beta}")
        if beta == 0.0:
            return (0.0,), (math.inf,)
        return (beta,), (0.0 if math.isinf(beta) else 1.0 / beta,)
    temps = parse_grid(args.temp_grid or DEFAULT_TEMP_GRID, "temperature grid", "log")
    for t in temps:
        if not (t > 0 and math.isfinite(t)):
            raise DomainError(f"temperature grid entries must be finite and > 0, got {t}")
    return tuple(1.0 / t for t in temps), temps


def _omega_tol(args):
    """--omega-tol, checked before any solve; None keeps the default."""
    return None if args.omega_tol is None else _checked_omega_tol(args.omega_tol)


def _model(args):
    """The --preset model with the parameters given on the command line."""
    return resolve_preset(
        args.preset,
        sites=args.sites,
        coupling=args.coupling,
        field=args.field,
        boundary=args.boundary,
        generator=args.generator,
    )


def _format_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    return str(value)


def _emit(path, text):
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_table(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(c) for c in row))
    _emit(path, "\n".join(lines) + "\n")


def _symmetry_operators(source, model):
    """The site-basis SparseOperators of a symmetry source, the analytic
    two-qubit set or a symmetry file, read and checked before any solve."""
    if source == "analytic":
        if model.spec.sites != 2:
            raise DomainError("the analytic symmetry set is defined for the two-qubit model")
        return list(two_qubit_symmetry_operators().values())
    return [SparseOperator.from_strings(strs, model.spec.sites)
            for strs in read_symmetry_file(source)]


def _sweep(spectral, pairs, blocks, grid):
    """(T, QFI, bound) at each point of a (betas, temperatures) grid: the
    generator's QFI from its weighted pair set and the lower bound from the
    symmetry blocks.  A bound above the QFI by more than BOUND_RTOL of
    max(1, QFI), or a NaN one, is no lower bound, and raises NumericError."""
    for beta, temp in zip(*grid):
        ens = gibbs_weights(spectral, beta)
        fq, bound = qfi_spectral(pairs, ens), qfi_from_dynsym(blocks, ens, pairs).value
        if not bound - fq <= BOUND_RTOL * max(1.0, fq):
            raise NumericError(f"bound {bound!r} exceeds the QFI {fq!r} at beta {beta!r}")
        yield temp, fq, bound


def cmd_qfi(args):
    """QFI, bound, and entanglement depth over a temperature grid."""
    model = _model(args)
    grid = _grid_from_args(args)
    omega_tol = _omega_tol(args)
    ops = None if args.symmetries == "trivial" else _symmetry_operators(args.symmetries, model)
    # one weighted pair set carries the generator through the whole sweep
    spectral, pairs, h = solve_preset(model, omega_tol)
    # the trivial complete set is the generator's own weighted pair set
    blocks = pairs if ops is None else verified_blocks(h, spectral, ops, omega_tol)
    n = model.spec.sites
    rows = [
        (temp, fq, fq / n, bound, bound / n, entanglement_depth(fq, n).depth)
        for temp, fq, bound in _sweep(spectral, pairs, blocks, grid)
    ]
    header = ("temperature", "qfi", "qfi_density", "bound", "bound_density", "depth")
    if args.format == "csv":
        _write_table(args.out, header, rows)
        return 0
    import json

    spec = model.spec
    config = {
        "preset": model.name,
        "sites": spec.sites,
        "coupling": spec.coupling,
        "field": spec.field,
        "boundary": spec.boundary,
        "generator": model.generator,
        "symmetries": args.symmetries,
        "omega_tol": args.omega_tol,
    }
    payload = {"config": config, "rows": [dict(zip(header, row)) for row in rows]}
    _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _fig1_curve(field, coupling, grid, omega_tol):
    """Rows (T, f_Q, bound density) over the (betas, temperatures) grid for
    one field, with the saturating subset."""
    model = resolve_preset("two-qubit", coupling=coupling, field=field)
    spectral, pairs, h = solve_preset(model, omega_tol)
    ops = two_qubit_symmetry_operators(regime_subset(field, coupling, omega_tol)).values()
    blocks = verified_blocks(h, spectral, ops, omega_tol)
    return [
        (temp, fq / 2.0, bound / 2.0) for temp, fq, bound in _sweep(spectral, pairs, blocks, grid)
    ]


def cmd_fig1(args):
    """Two-qubit QFI density against its symmetry-subset bound.

    Writes four tables into --out: bound-vs-f_Q curves below and above the
    level crossing, plus (field, T) heatmaps of f_Q and of the bound.  Fields
    at the crossing (at_level_crossing, at the run's omega tolerance) are
    skipped with a warning; a curve field there is an error, raised first.
    """
    grid = _grid_from_args(args)
    fields = parse_grid(args.field_grid or DEFAULT_FIELD_GRID, "field grid", "lin")
    coupling = 1.0 if args.coupling is None else float(args.coupling)
    omega_tol = _omega_tol(args)
    # a field at the level crossing fails here, before --out is made
    curves = (("curve_low.csv", args.field_low), ("curve_high.csv", args.field_high))
    for _, field in curves:
        regime_subset(field, coupling, omega_tol)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)

    curve_header = ("temperature", "qfi_density", "bound_density")
    for name, field in curves:
        rows = _fig1_curve(field, coupling, grid, omega_tol)
        _write_table(os.path.join(out_dir, name), curve_header, rows)

    heat_fq, heat_bound = [], []
    for field in fields:
        if at_level_crossing(field, coupling, omega_tol):
            text = np.format_float_positional(field, trim="-")
            print(f"qfidyn: skipping field {text}: symmetry frequencies collide at the "
                  "level crossing", file=sys.stderr)
            continue
        for row in _fig1_curve(field, coupling, grid, omega_tol):
            heat_fq.append((field, row[0], row[1]))
            heat_bound.append((field, row[0], row[2]))
    _write_table(
        os.path.join(out_dir, "heatmap_fq.csv"),
        ("field", "temperature", "qfi_density"),
        heat_fq,
    )
    _write_table(
        os.path.join(out_dir, "heatmap_bound.csv"),
        ("field", "temperature", "bound_density"),
        heat_bound,
    )
    return 0


def cmd_fig2(args):
    """Frequency comb and QFI decomposition of the --preset model.

    Writes three tables into --out: the response comb G(omega) with the
    matching Mazur weights (complete eigenprojectors at omega = 0, the
    trivial frequency clusters elsewhere), the QFI against temperature, and
    the per-frequency QFI decomposition at --temperature.
    """
    model = _model(args)
    n = model.spec.sites
    temp0 = float(args.temperature)
    if not (temp0 > 0 and math.isfinite(temp0)):
        raise DomainError(f"--temperature must be finite and > 0, got {temp0}")
    grid = _grid_from_args(args)
    omega_tol = _omega_tol(args)
    spectral, pairs, _ = solve_preset(model, omega_tol)
    ens0 = gibbs_weights(spectral, 1.0 / temp0)

    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)

    # The response comb's teeth are the trivial set's Mazur weights away
    # from omega = 0; its omega = 0 tooth, always kept, carries the
    # projector Mazur weight.
    comb = response_comb(pairs, ens0)
    msr0 = projector_mazur_weight(ens0, pairs)
    comb_rows = [
        (omega, weight, msr0 if omega == 0.0 else weight)
        for omega, weight in zip(comb.omegas.tolist(), comb.weights.real.tolist())
    ]
    _write_table(
        os.path.join(out_dir, "comb.csv"),
        ("omega", "response_weight", "mazur_weight"),
        comb_rows,
    )

    sweep_rows = [
        (temp, fq, fq / n, bound / n) for temp, fq, bound in _sweep(spectral, pairs, pairs, grid)
    ]
    _write_table(
        os.path.join(out_dir, "qfi_vs_t.csv"),
        ("temperature", "qfi", "qfi_density", "bound_density"),
        sweep_rows,
    )

    report = qfi_from_dynsym(pairs, ens0, pairs)
    decomp_rows = [(omega, contrib) for omega, contrib in report.per_frequency.items()]
    _write_table(
        os.path.join(out_dir, "decomposition.csv"),
        ("omega", "contribution"),
        decomp_rows,
    )
    return 0


def cmd_verify(args):
    """Check a symmetry file against a model: frequency, residual, support,
    and the strict-locality cap.  Exit 1 when any residual exceeds the
    dynamical-symmetry tolerance.  A symmetry is capped on its omega-shell,
    as the bound holds it (verified_blocks), any other operator on all of
    its eigenbasis entries."""
    model = _model(args)
    (beta,), _ = _grid_from_args(args)
    ops = _symmetry_operators(args.symmetries, model)
    n = model.spec.sites
    # one solve, as for qfi; the generator's pair set serves every cap
    spectral, pairs, h = solve_preset(model)
    ens = gibbs_weights(spectral, beta)
    omega_tol = default_omega_tol(spectral.energies)
    rows = []
    all_ok = True
    for i, op in enumerate(ops):
        omega, residual = fit_frequency(h, op)
        support = operator_support(op, n)
        support_text = " ".join(str(s) for s in sorted(support)) if support else "-"
        ok = residual <= TAU_DYN
        if ok:
            try:
                member = _on_shell(spectral, op, omega, residual, omega_tol)
            except NumericError as exc:
                raise NumericError(f"operator {i}: {exc}") from None
        else:
            member = spectral.to_eigenblocks(op).entries()
        try:
            cap, holds = _local_cap(support, member, pairs, ens)
            cap_text, holds_text = _format_cell(cap), _format_cell(holds)
        except DomainError:
            cap_text, holds_text = "-", "-"
        all_ok = all_ok and ok
        rows.append((i, omega, residual, support_text, cap_text, holds_text, _format_cell(ok)))
    header = ("index", "omega", "residual", "support", "cap", "cap_holds", "is_symmetry")
    _write_table(args.out, header, rows)
    return 0 if all_ok else 1


def _add_model_args(sp, default_preset):
    sp.add_argument("--preset", default=default_preset, choices=sorted(PRESETS),
                    help=f"model preset (default {default_preset})")
    sp.add_argument("--sites", type=int, default=None, help="override chain length")
    sp.add_argument("--coupling", type=float, default=None, help="override coupling J")
    sp.add_argument("--field", type=float, default=None, help="override field h")
    sp.add_argument("--boundary", choices=("open", "periodic"), default=None)
    sp.add_argument("--generator", choices=GENERATOR_KINDS, default=None,
                    help="generator kind (default from preset)")


def _add_output_args(sp, formats=("csv", "json")):
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=formats, default=formats[0])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qfidyn",
        description="Quantum Fisher information of thermal spin chains "
        "through dynamical symmetries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    qfi = sub.add_parser("qfi", help="QFI, bound, and depth over a temperature grid")
    _add_model_args(qfi, "two-qubit")
    grid = qfi.add_mutually_exclusive_group()
    grid.add_argument("--beta", type=float, default=None,
                      help="single inverse temperature (inf for the ground state)")
    grid.add_argument("--temp-grid", default=None,
                      help=f"T grid min:max:count[:lin|log] (default {DEFAULT_TEMP_GRID})")
    qfi.add_argument("--symmetries", default="trivial",
                     help="symmetry source: trivial | analytic | JSON file path")
    qfi.add_argument("--omega-tol", type=float, default=None,
                     help="frequency clustering tolerance (default auto)")
    _add_output_args(qfi)
    qfi.set_defaults(func=cmd_qfi)

    fig1 = sub.add_parser(
        "reproduce-fig1",
        help="two-qubit bound-vs-QFI curves and (field, T) heatmaps",
    )
    fig1.add_argument("--field-low", type=float, default=0.5,
                      help="field for the below-crossing curve (default 0.5)")
    fig1.add_argument("--field-high", type=float, default=1.5,
                      help="field for the above-crossing curve (default 1.5)")
    fig1.add_argument("--field-grid", default=None,
                      help=f"heatmap field grid (default {DEFAULT_FIELD_GRID})")
    fig1.add_argument("--coupling", type=float, default=None)
    fig1.add_argument("--temp-grid", default=None)
    fig1.add_argument("--omega-tol", type=float, default=None)
    fig1.add_argument("--out", default=None, help="output directory (default .)")
    fig1.set_defaults(func=cmd_fig1)

    fig2 = sub.add_parser(
        "reproduce-fig2",
        help="chain frequency comb, Mazur weights, and QFI decomposition",
    )
    _add_model_args(fig2, "chain")
    fig2.add_argument("--temperature", type=float, default=1.0,
                      help="temperature for the comb and decomposition (default 1)")
    fig2.add_argument("--temp-grid", default=None)
    fig2.add_argument("--omega-tol", type=float, default=None)
    fig2.add_argument("--out", default=None, help="output directory (default .)")
    fig2.set_defaults(func=cmd_fig2)

    verify = sub.add_parser("verify", help="verify a symmetry file against a model")
    _add_model_args(verify, "two-qubit")
    verify.add_argument("--symmetries", required=True, help="JSON Pauli-string file")
    verify.add_argument("--beta", type=float, default=1.0,
                        help="inverse temperature for the cap check (default 1)")
    verify.add_argument("--out", default=None, help="output path (default stdout)")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    """Run one command; return its exit code.

    Run as the program (argv None: `python -m qfidyn.cli` or the qfidyn
    console script), it first freezes the heap left by the imports, numpy's
    included, into the permanent generation.  Interpreter shutdown would
    otherwise run full cyclic-GC passes over those ~21,000 objects, about
    20 ms a launch; gc.disable() does not stop them, but frozen objects are
    skipped.  A caller passing argv keeps its heap as it is.
    """
    if argv is None:
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except DomainError as exc:
        print(f"qfidyn: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"qfidyn: numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"qfidyn: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
