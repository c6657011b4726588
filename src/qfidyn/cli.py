"""Command-line harness: model presets, QFI sweeps with bound columns,
frequency-comb tables, and symmetry-file verification.

Output tables are CSV (or JSON where noted) with every float printed as
%.12e and rows in a fixed order, so identical configurations produce
byte-identical files.  Exit codes: 0 success, 1 verification failure,
2 usage or domain error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from ._frozen import FrozenRecord
from .dynsym import TAU_DYN, fit_frequency, local_cap, projector_mazur_weight, verified_blocks
from .errors import DomainError, NumericError
from .metrology import entanglement_depth, qfi_from_dynsym, qfi_spectral
from .models import (
    PRESETS,
    build_preset,
    preset as resolve_preset,
    regime_subset,
    solve_preset,
    two_qubit_symmetry_operators,
)
from .operators import GENERATOR_KINDS, PauliString, operator_from_strings, operator_support
from .response import response_comb
from .spectral import diagonalize, gibbs_weights

FLOAT_FMT = "%.12e"
DEFAULT_TEMP_GRID = "0.05:5:100:log"
DEFAULT_FIELD_GRID = "0.05:1.95:39:lin"


class RunConfig(FrozenRecord):
    """Resolved parameters of one qfi sweep."""

    _fields = ("preset", "sites", "coupling", "field", "boundary", "generator", "betas",
               "temperatures", "symmetries", "omega_tol", "out", "fmt")

    def __init__(self, preset, sites, coupling, field, boundary, generator, betas,
                 temperatures, symmetries, omega_tol, out, fmt):
        if not betas or len(betas) != len(temperatures):
            raise DomainError("grid needs at least one point")
        for beta in betas:
            if not beta >= 0.0:
                raise DomainError(f"beta must be >= 0, got {beta}")
        self.__dict__.update(
            preset=preset, sites=sites, coupling=coupling, field=field, boundary=boundary,
            generator=generator, betas=betas, temperatures=temperatures,
            symmetries=symmetries, omega_tol=omega_tol, out=out, fmt=fmt,
        )


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


def _temperature_grid(text, name="temperature grid"):
    temps = parse_grid(text, name, default_scale="log")
    for t in temps:
        if not (t > 0 and math.isfinite(t)):
            raise DomainError(f"{name} entries must be finite and > 0, got {t}")
    return temps


def _grid_from_args(args):
    """(betas, temperatures) from --beta or --temp-grid (default grid)."""
    if getattr(args, "beta", None) is not None:
        beta = float(args.beta)
        if not beta >= 0.0:
            raise DomainError(f"beta must be >= 0, got {beta}")
        if beta == 0.0:
            return (0.0,), (math.inf,)
        return (beta,), (0.0 if math.isinf(beta) else 1.0 / beta,)
    temps = _temperature_grid(args.temp_grid or DEFAULT_TEMP_GRID)
    return tuple(1.0 / t for t in temps), temps


def _format_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    return str(value)


def _write_table(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(c) for c in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_json(path, payload):
    import json

    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_symmetry_file(path):
    """Load Pauli-sum operators from JSON: a flat list of term records is a
    single operator, a list of lists is several."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read symmetry file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {path!r} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, list):
        raise DomainError(f"{path!r} must hold a list of operators or of term records")
    if not data:
        return []
    if isinstance(data[0], dict):
        data = [data]
    ops = []
    for i, records in enumerate(data):
        if not isinstance(records, list) or not records:
            raise DomainError(f"{path!r}: operator {i} must be a nonempty list of term records")
        try:
            ops.append(tuple(PauliString.from_record(rec) for rec in records))
        except DomainError as exc:
            raise DomainError(f"{path!r}: operator {i}: {exc}") from None
    return ops


def _verified_symmetry_blocks(source, model, h_mat, spectral, omega_tol):
    """OperatorBlocks from the analytic two-qubit set or a symmetry file,
    verified against the site-basis Hamiltonian."""
    if source == "analytic":
        if model.spec.sites != 2:
            raise DomainError("the analytic symmetry set is defined for the two-qubit model")
        ops = [op.mat for op in two_qubit_symmetry_operators().values()]
        return verified_blocks(h_mat, spectral, ops, omega_tol=omega_tol)
    strings = _load_symmetry_file(source)
    if not strings:
        raise DomainError(f"symmetry file {source!r} contains no operators")
    ops = [operator_from_strings(strs, model.spec.sites).mat for strs in strings]
    return verified_blocks(h_mat, spectral, ops, omega_tol=omega_tol)


def _run_config(args):
    model = resolve_preset(
        args.preset,
        sites=args.sites,
        coupling=args.coupling,
        field=args.field,
        boundary=args.boundary,
        generator=args.generator,
    )
    betas, temps = _grid_from_args(args)
    config = RunConfig(
        preset=model.name,
        sites=model.spec.sites,
        coupling=model.spec.coupling,
        field=model.spec.field,
        boundary=model.spec.boundary,
        generator=model.generator,
        betas=betas,
        temperatures=temps,
        symmetries=args.symmetries,
        omega_tol=args.omega_tol,
        out=args.out,
        fmt=args.format,
    )
    return config, model


def cmd_qfi(args):
    """QFI, bound, and entanglement depth over a temperature grid."""
    config, model = _run_config(args)
    # one weighted pair set carries the generator through the whole sweep
    spectral, pairs, h = solve_preset(model, config.omega_tol)
    if config.symmetries == "trivial":
        blocks = pairs
    else:
        blocks = _verified_symmetry_blocks(
            config.symmetries, model, h.dense(), spectral, config.omega_tol
        )
    n = config.sites
    rows = []
    for beta, temp in zip(config.betas, config.temperatures):
        ens = gibbs_weights(spectral, beta)
        fq = qfi_spectral(pairs, ens)
        report = qfi_from_dynsym(blocks, ens, pairs)
        witness = entanglement_depth(fq, n)
        rows.append((temp, fq, fq / n, report.value, report.value / n, witness.depth))
    header = ("temperature", "qfi", "qfi_density", "bound", "bound_density", "depth")
    if config.fmt == "json":
        payload = {
            "config": {
                "preset": config.preset,
                "sites": config.sites,
                "coupling": config.coupling,
                "field": config.field,
                "boundary": config.boundary,
                "generator": config.generator,
                "symmetries": config.symmetries,
                "omega_tol": config.omega_tol,
            },
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _write_json(config.out, payload)
    else:
        _write_table(config.out, header, rows)
    return 0


def _fig1_curve(field, coupling, temps, omega_tol):
    """Rows (T, f_Q, bound density) for one field, saturating subset."""
    model = resolve_preset("two-qubit", coupling=coupling, field=field)
    spectral, pairs, h = solve_preset(model, omega_tol)
    labels = regime_subset(field, coupling)
    ops = [op.mat for op in two_qubit_symmetry_operators(labels).values()]
    blocks = verified_blocks(h.dense(), spectral, ops, omega_tol=omega_tol)
    rows = []
    for temp in temps:
        ens = gibbs_weights(spectral, 1.0 / temp)
        fq = qfi_spectral(pairs, ens) / 2.0
        bound = qfi_from_dynsym(blocks, ens, pairs).value / 2.0
        rows.append((temp, fq, bound))
    return rows


def cmd_fig1(args):
    """Two-qubit QFI density against its symmetry-subset bound.

    Writes four tables into --out: bound-vs-f_Q curves below and above the
    level crossing, plus (field, T) heatmaps of f_Q and of the bound.  Fields
    at the crossing |h| = J are skipped with a warning (the two symmetry
    frequencies collide at 0 there).
    """
    temps = _temperature_grid(args.temp_grid or DEFAULT_TEMP_GRID)
    fields = parse_grid(args.field_grid or DEFAULT_FIELD_GRID, "field grid", "lin")
    coupling = 1.0 if args.coupling is None else float(args.coupling)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)

    curve_header = ("temperature", "qfi_density", "bound_density")
    for name, field in (("curve_low.csv", args.field_low), ("curve_high.csv", args.field_high)):
        rows = _fig1_curve(float(field), coupling, temps, args.omega_tol)
        _write_table(os.path.join(out_dir, name), curve_header, rows)

    heat_fq, heat_bound = [], []
    for field in fields:
        if abs(abs(field) - abs(coupling)) < 1e-9:
            print(
                f"qfidyn: skipping field {field:g}: symmetry frequencies "
                "collide at the level crossing",
                file=sys.stderr,
            )
            continue
        for row in _fig1_curve(field, coupling, temps, args.omega_tol):
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
    """Chain frequency comb and QFI decomposition.

    Writes three tables into --out: the response comb G(omega) with the
    matching Mazur weights (complete eigenprojectors at omega = 0, the
    trivial frequency clusters elsewhere), the QFI against temperature, and
    the per-frequency QFI decomposition at --temperature.
    """
    model = resolve_preset(
        "chain",
        sites=args.sites,
        coupling=args.coupling,
        field=args.field,
        boundary=args.boundary,
        generator=args.generator,
    )
    n = model.spec.sites
    spectral, pairs, _ = solve_preset(model, args.omega_tol)
    temp0 = float(args.temperature)
    if not (temp0 > 0 and math.isfinite(temp0)):
        raise DomainError(f"--temperature must be finite and > 0, got {temp0}")
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

    temps = _temperature_grid(args.temp_grid or DEFAULT_TEMP_GRID)
    sweep_rows = []
    for temp in temps:
        ens = gibbs_weights(spectral, 1.0 / temp)
        fq = qfi_spectral(pairs, ens)
        bound = qfi_from_dynsym(pairs, ens, pairs).value
        sweep_rows.append((temp, fq, fq / n, bound / n))
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
    dynamical-symmetry tolerance."""
    strings = _load_symmetry_file(args.symmetries)
    model = resolve_preset(
        args.preset,
        sites=args.sites,
        coupling=args.coupling,
        field=args.field,
        boundary=args.boundary,
        generator=args.generator,
    )
    h_op, gen = build_preset(model)
    n = model.spec.sites
    spectral = diagonalize(h_op.mat)
    beta = float(args.beta) if args.beta is not None else 1.0
    if not beta >= 0.0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    ens = gibbs_weights(spectral, beta)
    rows = []
    all_ok = True
    for i, strs in enumerate(strings):
        op = operator_from_strings(strs, n)
        omega, residual = fit_frequency(h_op.mat, op.mat)
        support = operator_support(op.mat, n)
        support_text = " ".join(str(s) for s in sorted(support)) if support else "-"
        try:
            cap, holds = local_cap(op.mat, gen.mat, ens)
            cap_text, holds_text = _format_cell(cap), _format_cell(holds)
        except DomainError:
            cap_text, holds_text = "-", "-"
        ok = residual <= TAU_DYN
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
    verify.add_argument("--beta", type=float, default=None,
                        help="inverse temperature for the cap check (default 1)")
    verify.add_argument("--out", default=None, help="output path (default stdout)")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
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
