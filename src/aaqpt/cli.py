"""Command-line front end.

Every command emits a human-readable summary by default and the full JSON
payload with ``--json``.  Exit codes: 0 success, 2 validation error,
3 not-faithful (a scientific verdict, not a malfunction), 4 I/O error (an
input file that is missing, unreadable, not UTF-8 text or not a valid
document).
The environment variable ``AAQPT_DEFAULT_TOL`` overrides the global
validation tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .catalog import PROBE_NAMES_QUBIT, horodecki, max_entangled, probe_states, sigma_e
from .channel import predict_output
from .errors import AaqptError, FileFormatError, NotFaithfulError
from .extraction import extract
from .qstate import DEFAULT_TOL, BipartiteState, purity, _check_tol
from .realignment import ccnr_sum, is_faithful, ppt_min_eigenvalue
from .tomography import NoiseModel, run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_FAITHFUL = 3
EXIT_IO = 4

# name: (description, parameters, the function that makes the state from the parsed args)
_CATALOG = {
    "bell2": ("maximally entangled two-qubit state", (), lambda args: max_entangled(2)),
    "bell3": ("maximally entangled two-qutrit state", (), lambda args: max_entangled(3)),
    "sigmaE": ("two-qutrit entangled-but-unfaithful mixture", ("p in [0, 1]",),
               lambda args: sigma_e(args.p)),
    "horodecki": ("3x3 bound entangled family", ("a in (0, 1)",),
                  lambda args: horodecki(args.a)),
}


@dataclass
class CommandResult:
    exit_code: int
    payload: dict | list
    human: str
    warnings: list[str] = field(default_factory=list)


def _validation_tolerance() -> float:
    env = os.environ.get("AAQPT_DEFAULT_TOL")
    if not env:
        return DEFAULT_TOL
    try:
        tol = float(env)
    except ValueError:
        tol = env  # not a number, which the check reports
    return _check_tol(tol, "AAQPT_DEFAULT_TOL")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _catalog_state(name: str, args) -> BipartiteState:
    if name not in _CATALOG:
        raise AaqptError(
            f"unknown catalog state {name!r}; available: {', '.join(sorted(_CATALOG))}"
        )
    return _CATALOG[name][2](args)


def _resolve_state(args) -> BipartiteState:
    if getattr(args, "file", None):
        return serialize.state_from_json(_load_json(args.file), tol=_validation_tolerance())
    if getattr(args, "catalog", None):
        return _catalog_state(args.catalog, args)
    raise AaqptError("provide a state via --file or --catalog")


def _sig(x: float) -> str:
    return f"{x:.6g}"


def cmd_faithful(args) -> CommandResult:
    state = _resolve_state(args)
    verdict = is_faithful(state, threshold=args.tol)
    payload = serialize.verdict_to_json(verdict)
    lines = [
        f"faithful: {'yes' if verdict.faithful else 'no'}",
        f"rank: {verdict.spectrum.rank} of {verdict.required_rank} required",
        f"kernel dimension: {verdict.kernel_dimension}",
        f"threshold: {_sig(verdict.spectrum.threshold)}",
        "singular values: " + ", ".join(_sig(v) for v in verdict.spectrum.values),
    ]
    code = EXIT_OK if verdict.faithful else EXIT_NOT_FAITHFUL
    return CommandResult(code, payload, "\n".join(lines))


def cmd_entangle_check(args) -> CommandResult:
    state = _resolve_state(args)
    ccnr = ccnr_sum(state)
    ppt_min = ppt_min_eigenvalue(state)
    entangled = ccnr > 1 + 1e-9 or ppt_min < -1e-9
    verdict = "entangled" if entangled else "inconclusive"
    payload = {"ccnr_sum": ccnr, "ppt_min_eigenvalue": ppt_min, "verdict": verdict}
    human = "\n".join(
        [
            f"ccnr sum: {_sig(ccnr)} ({'> 1: certifies entanglement' if ccnr > 1 + 1e-9 else '<= 1: inconclusive'})",
            f"ppt min eigenvalue: {_sig(ppt_min)} ({'negative: certifies entanglement' if ppt_min < -1e-9 else 'nonnegative: inconclusive'})",
            f"verdict: {verdict}",
        ]
    )
    return CommandResult(EXIT_OK, payload, human)


def cmd_extract(args) -> CommandResult:
    tol = _validation_tolerance()
    state_in = serialize.state_from_json(_load_json(args.input), tol=tol)
    state_out = serialize.state_from_json(_load_json(args.output), tol=tol)
    result = extract(state_in, state_out, mode=args.mode, threshold=args.tol)
    payload = serialize.extraction_to_json(result)
    human = "\n".join(
        [
            f"mode: {result.mode}",
            f"residual: {_sig(result.residual)}",
            f"truncated singular values: {result.truncated_count}",
            f"input rank: {result.input_spectrum.rank} (threshold {_sig(result.input_spectrum.threshold)})",
            "map Choi eigenvalues: " + ", ".join(_sig(v) for v in result.choi_eigenvalues),
        ]
    )
    return CommandResult(EXIT_OK, payload, human)


def cmd_predict(args) -> CommandResult:
    tol = _validation_tolerance()
    doc = _load_json(args.m)
    if isinstance(doc, dict) and "m" in doc:
        doc = doc["m"]  # accept a full extraction result document
    m = serialize.superop_from_json(doc)
    if args.probe_file:
        probe = serialize.density_from_json(_load_json(args.probe_file), tol=tol)
    elif args.probe:
        if m.dim != 2:
            raise AaqptError("named probes are two-dimensional; use --probe-file")
        probe = probe_states(2)[PROBE_NAMES_QUBIT.index(args.probe)]
    else:
        raise AaqptError("provide a probe via --probe or --probe-file")
    out = predict_output(m, probe, tol=args.tol)
    payload = serialize.density_to_json(out)
    human = "\n".join(
        [
            f"predicted output for probe {args.probe or args.probe_file}:",
            _format_matrix(out.matrix),
            f"purity: {_sig(purity(out))}",
        ]
    )
    return CommandResult(EXIT_OK, payload, human)


def cmd_experiment(args) -> CommandResult:
    noise = NoiseModel(depolarizing_1q=args.noise_1q, depolarizing_2q=args.noise_2q)
    report = run_experiment(
        shots=args.shots,
        batches=args.batches,
        seed=args.seed,
        noise=noise,
        exact=args.exact,
    )
    payload = serialize.report_to_json(report)
    mode = "exact expectations" if report.exact else (
        f"{report.shots} shots per setting over {report.batches} batches, seed {report.seed}"
    )
    lines = [
        f"experiment: {mode}; rng {report.rng_name}; "
        f"noise 1q={noise.depolarizing_1q} 2q={noise.depolarizing_2q}",
        f"  F(input)  = {_sig(report.fidelity_in.mean)} +/- {_sig(report.fidelity_in.band)}",
        f"  F(output) = {_sig(report.fidelity_out.mean)} +/- {_sig(report.fidelity_out.band)}",
        "  probe-output fidelities (extracted map vs reference map):",
    ]
    for name in PROBE_NAMES_QUBIT:
        mb = report.probe_fidelities[name]
        lines.append(f"    {name:>5}: {_sig(mb.mean)} +/- {_sig(mb.band)}")
    return CommandResult(EXIT_OK, payload, "\n".join(lines))


def cmd_bound_sweep(args) -> CommandResult:
    try:
        grid = [float(x) for x in args.a_grid.split(",") if x.strip()]
    except ValueError as exc:
        raise AaqptError(f"malformed --a-grid: {exc}") from exc
    if not grid:  # horodecki checks each value
        raise AaqptError("--a-grid needs at least one value")
    rows = []
    for a in grid:
        state = horodecki(a)
        verdict = is_faithful(state)
        rows.append(
            {
                "a": a,
                "kernel_dimension": verdict.kernel_dimension,
                "ppt_min_eigenvalue": ppt_min_eigenvalue(state),
                "ccnr_sum": verdict.spectrum.sum,
                "singular_values": verdict.spectrum.values.tolist(),
            }
        )
    keys = [k for k in rows[0] if k != "singular_values"]
    header = keys + [f"sv{i}" for i in range(len(rows[0]["singular_values"]))]
    csv_lines = [",".join(header)] + [
        ",".join(repr(v) for v in [row[k] for k in keys] + row["singular_values"])
        for row in rows
    ]
    return CommandResult(EXIT_OK, rows, "\n".join(csv_lines))


def cmd_catalog(args) -> CommandResult:
    if not args.name:
        rows = [
            {"name": name, "description": desc, "parameters": list(params)}
            for name, (desc, params, _) in sorted(_CATALOG.items())
        ]
        lines = ["available states:"]
        for row in rows:
            params = f" (parameters: {', '.join(row['parameters'])})" if row["parameters"] else ""
            lines.append(f"  {row['name']:>10}: {row['description']}{params}")
        return CommandResult(EXIT_OK, rows, "\n".join(lines))
    state = _catalog_state(args.name, args)
    payload = serialize.state_to_json(state)
    human = (
        f"{args.name}: {state.dim_a} x {state.dim_b} state, "
        f"purity {_sig(purity(state.state))}"
    )
    return CommandResult(EXIT_OK, payload, human)


def _format_matrix(m: np.ndarray) -> str:
    rows = []
    for row in m:
        rows.append("  [" + ", ".join(f"{z.real:+.6g}{z.imag:+.6g}j" for z in row) + "]")
    return "\n".join(rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="aaqpt",
        description="Faithfulness tests, channel extraction and the tomography experiment simulator.",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON payload instead of text")
    parser.add_argument("--out", help="also write the JSON payload to this file")
    sub = parser.add_subparsers(dest="command", required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--file", help="bipartite state JSON file")
    source.add_argument("--catalog", help="named catalog state (see `aaqpt catalog`)")
    catalog_params = argparse.ArgumentParser(add_help=False)
    catalog_params.add_argument("--p", type=float, default=0.5, help="parameter for sigmaE")
    catalog_params.add_argument("--a", type=float, default=0.5, help="parameter for horodecki")
    state_source = [source, catalog_params]

    p = sub.add_parser("faithful", parents=state_source, help="decide whether a state is faithful")
    p.add_argument("--tol", type=float, help="zero-singular-value threshold override")
    p.set_defaults(func=cmd_faithful)

    p = sub.add_parser("entangle-check", parents=state_source, help="CCNR and PPT entanglement tests")
    p.set_defaults(func=cmd_entangle_check)

    p = sub.add_parser("extract", help="extract channel information from a state pair")
    p.add_argument("input", help="input bipartite state JSON file")
    p.add_argument("output", help="output bipartite state JSON file")
    p.add_argument("--mode", choices=("strict", "pseudo"), default="strict")
    p.add_argument("--tol", type=float, help="singular value truncation threshold override")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("predict", help="apply an extracted map to a probe state")
    p.add_argument("m", help="superoperator (or extraction result) JSON file")
    p.add_argument("--probe", choices=PROBE_NAMES_QUBIT, help="named qubit probe")
    p.add_argument("--probe-file", help="probe density matrix JSON file")
    p.add_argument("--tol", type=float, default=1e-7, help="physicality tolerance for the prediction")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("experiment", help="run the simulated tomography experiment")
    p.add_argument("--shots", type=int, default=10240, help="shots per basis setting (split across batches)")
    p.add_argument("--batches", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--noise-1q", type=float, default=0.0, help="depolarizing probability per 1-qubit gate")
    p.add_argument("--noise-2q", type=float, default=0.0, help="depolarizing probability per 2-qubit gate")
    p.add_argument("--exact", action="store_true", help="use exact expectations instead of sampling")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bound-sweep", help="scan the bound entangled family (exploratory)")
    p.add_argument("--a-grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
                   help="comma-separated parameter values in (0, 1)")
    p.set_defaults(func=cmd_bound_sweep)

    p = sub.add_parser("catalog", parents=[catalog_params], help="list catalog states or export one")
    p.add_argument("name", nargs="?", help="state to export (omit to list)")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(args)
    except NotFaithfulError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FAITHFUL
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (AaqptError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    # json.dumps(payload, indent=2), written once for --out and --json
    text = serialize._json_text(result.payload) if args.out or args.json else None
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    print(text if args.json else result.human)
    return result.exit_code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
