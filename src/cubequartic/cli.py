"""Command line: set ingestion, analysis, sphere tables, scans, verify.

Output contract: reports go to stdout as JSON (default) or RFC-4180 CSV,
logs go to stderr.  Exact values (rationals, oversized integers) are
serialized as strings so no reader silently rounds them; floats use the
shortest round-trip form.  Exit codes: 0 ok, 1 hard-check failure or
aborted internal check, 2 usage or parse error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .additive import check_exhaustive_cap, hereditary_energy, pair_multiplicities
from .asymptotics import psi_value
from .core import DEFAULT_DENSE_CAP, SupportSet
from .errors import CubeQuarticError, ResourceLimitError, SetFileError
from .quartic import OptimizerConfig, mu_lower, mu_upper
from .reporting import BoundReport, Check, ConjectureRecord
from .reports import conjecture_scan
from .spheres import SphereParams, argmax_st, mass_chain, r_exact, sphere_table, t1
from .suites import SUITE_NAMES, run_suites

__all__ = ["main", "parse_set_file", "SCHEMA_VERSION"]

SCHEMA_VERSION = "2"

_EXACT_INT_LIMIT = 1 << 53  # past this, JSON numbers stop being exact in doubles

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# --- set files ---------------------------------------------------------

def parse_set_file(path: str) -> SupportSet:
    """Read a support set: header ``n=<int>``, then bitstring records or a
    single ``sphere <n> <k>`` / ``ball <n> <k>`` directive."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            raw_lines = handle.read().splitlines()
    except OSError as exc:
        raise SetFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SetFileError(f"{path} is not an ASCII set file: {exc}") from exc

    records: list[tuple[int, str]] = [
        (i, line.strip()) for i, line in enumerate(raw_lines, start=1) if line.strip()
    ]
    if not records:
        raise SetFileError(f"{path}: empty set file, expected header n=<int>")

    header_no, header = records[0]
    if not header.startswith("n=") or not header[2:].isdigit():
        raise SetFileError(f"{path} line {header_no}: expected header n=<int>, got {header!r}")
    n = int(header[2:])
    if n < 1:
        raise SetFileError(f"{path} line {header_no}: dimension must be positive")

    body = records[1:]
    if not body:
        raise SetFileError(f"{path}: no records after the header")

    directives = [(no, line) for no, line in body if line.split()[0] in ("sphere", "ball")]
    if directives:
        if len(body) > 1:
            raise SetFileError(
                f"{path} line {directives[0][0]}: a shorthand directive must be the only record"
            )
        no, line = directives[0]
        parts = line.split()
        if len(parts) != 3 or not parts[1].isdigit() or not parts[2].isdigit():
            raise SetFileError(f"{path} line {no}: expected '{parts[0]} <n> <k>'")
        dn, dk = int(parts[1]), int(parts[2])
        if dn != n:
            raise SetFileError(
                f"{path} line {no}: directive dimension {dn} does not match header n={n}"
            )
        if not 0 <= dk <= dn:
            raise SetFileError(f"{path} line {no}: radius {dk} outside [0, {dn}]")
        return SupportSet.sphere(n, dk) if parts[0] == "sphere" else SupportSet.ball(n, dk)

    seen: dict[int, int] = {}
    masks: list[int] = []
    for no, line in body:
        if len(line) != n:
            raise SetFileError(
                f"{path} line {no}: record length {len(line)} does not match n={n}"
            )
        if any(ch not in "01" for ch in line):
            raise SetFileError(f"{path} line {no}: record must be a string over {{0,1}}")
        mask = sum(1 << i for i, ch in enumerate(line) if ch == "1")
        if mask in seen:
            raise SetFileError(f"{path} line {no}: duplicate of line {seen[mask]}")
        seen[mask] = no
        masks.append(mask)
    return SupportSet.from_masks(n, masks)


# --- serialization -----------------------------------------------------

def _exact(value):
    """Exact values as strings, floats and small ints as themselves."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value if abs(value) < _EXACT_INT_LIMIT else str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in value.items()}
    return str(value)


def _check_payload(check: Check) -> dict:
    return {
        "name": check.name,
        "lhs": _exact(check.lhs),
        "relation": check.relation,
        "rhs": _exact(check.rhs),
        "passed": check.passed,
        "hard": check.hard,
        "provenance": check.provenance,
        "detail": check.detail,
    }


def _report_payload(report: BoundReport) -> dict:
    return {
        "subject": report.subject,
        "overall": report.overall,
        "checks": [_check_payload(c) for c in report.checks],
        "notes": list(report.notes),
    }


def _record_payload(record: ConjectureRecord) -> dict:
    return {
        "n": record.n,
        "k": record.k,
        "mu_est": record.mu_est,
        "energy_ratio": _exact(record.energy_ratio),
        "gap": record.gap,
        "upper_gap": record.upper_gap,
        "status": record.status,
        "certificate": list(record.certificate) if record.certificate is not None else None,
    }


def _document(command: str, args: argparse.Namespace, results, provenance: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        # threads is deliberately not echoed: it has no effect on the output
        "config": {
            "format": args.format,
            "seed": args.seed,
            "starts": args.starts,
            "iters": args.iters,
            "tol": args.tol,
            "dense_cap": args.dense_cap,
            "exact_limit": args.exact_limit,
        },
        "results": results,
        "provenance": provenance,
    }


def _collect_provenance(reports: list[BoundReport]) -> list[str]:
    return sorted({c.provenance for r in reports for c in r.checks if c.provenance})


def _csv_text(rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)  # csv defaults to RFC-4180 CRLF records
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buffer.getvalue()


def _flatten(prefix: str, value, rows: list[list]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}[{i}]", sub, rows)
    else:
        rows.append([prefix, value])


def _emit(document: dict, fmt: str, csv_rows: list[list] | None) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(document, indent=2, allow_nan=False) + "\n")
    else:
        if csv_rows is None:
            csv_rows = [["field", "value"]]
            _flatten("", document["results"], csv_rows)
        sys.stdout.write(_csv_text(csv_rows))


# --- commands ----------------------------------------------------------

def _optimizer_config(args: argparse.Namespace) -> OptimizerConfig:
    return OptimizerConfig(
        starts=args.starts, max_iters=args.iters, tol=args.tol, seed=args.seed
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    A = parse_set_file(args.set_file)
    # the dense stages run in the smallest coset holding A, so the cap
    # applies to its rank
    rank = A.affine.rank
    if rank > args.dense_cap:
        raise ResourceLimitError(
            f"estimation stage: affine rank {rank} (n={A.n}) exceeds the "
            f"dense cap {args.dense_cap}"
        )
    check_exhaustive_cap(len(A), args.exact_limit)
    cfg = _optimizer_config(args)
    # A builds its pair index (A.pairs) and its convolution once for every
    # stage that reads them
    est = mu_lower(A, cfg, dense_cap=args.dense_cap)
    upper = mu_upper(A, dense_cap=args.dense_cap)
    mult = upper.multiplicity_bound
    energy = pair_multiplicities(A, dense_cap=args.dense_cap).energy()
    ratio = Fraction(energy, len(A) ** 2)
    hered = hereditary_energy(A, exact_limit=args.exact_limit, certificate=est.certificate)
    total = 1 << A.n
    results = {
        "set": {"n": A.n, "size": len(A), "affine_rank": rank},
        "mu_lower": {
            "value": est.value,
            "starts_used": est.starts_used,
            "iterations": est.iterations,
            "converged": est.converged,
        },
        "mu_upper": {
            "cardinality_bound": upper.cardinality_bound,
            "multiplicity_bound": upper.multiplicity_bound,
            "sphere_psi_bound": upper.sphere_psi_bound,
            "sphere_sum_bound": upper.sphere_sum_bound,
            "best": upper.best,
        },
        "additive": {
            "energy": _exact(energy),
            "multiplicity_bound": mult,
            "energy_ratio": _exact(ratio),
        },
        "hereditary": {
            "size": len(hered.best),
            "ratio": _exact(hered.ratio),
            "exact": hered.exact,
        },
        "uncertainty": {
            "support_lower_bound_counting": _exact(Fraction(total, len(A))),
            "support_lower_bound_ratio": total / upper.best,
            "support_lower_bound_multiplicity": _exact(
                Fraction(total, mult)
            ),
        },
    }
    provenance = [
        "ascent lower bound with the uniform start",
        "assembled upper bounds: cardinality, multiplicity, sphere forms",
        "pair multiplicity table, dual-route checked",
        "support lower bounds through counting, ratio, and multiplicity",
    ]
    _emit(_document("analyze", args, results, provenance), args.format, None)
    return EXIT_OK


def cmd_sphere_table(args: argparse.Namespace) -> int:
    p = SphereParams(args.n, args.k)
    chain = mass_chain(p)
    selected = sphere_table(p, args.t_min or 0, args.t_max, chain=chain)
    exact_mode = args.values == "exact"

    def render(value, name):
        if value is None:
            return None
        if exact_mode:
            return _exact(value)
        try:
            return float(value)
        except OverflowError:
            raise ValueError(
                f"{name} is out of float range; use --values exact"
            ) from None

    payload_rows = [
        {
            "t": row.t,
            "mass": render(row.mass, f"mass at t={row.t}"),
            "ratio_to_prev": render(row.ratio_to_prev, f"ratio_to_prev at t={row.t}"),
            "cumulative": render(row.cumulative, f"cumulative at t={row.t}"),
        }
        for row in selected
    ]
    footer = {
        "total": render(r_exact(p, chain=chain), "total"),
        "peak_location": t1(p),
        "argmax": argmax_st(p, chain=chain),
    }
    if 2 * args.k <= args.n:
        footer["psi"] = psi_value(args.k / args.n)
        exponent = args.n * footer["psi"]
        footer["psi_bound_log2"] = exponent
        if exponent < 1000:  # keep the JSON float finite
            footer["psi_bound"] = 2.0**exponent
    results = {"n": args.n, "k": args.k, "rows": payload_rows, "footer": footer}
    document = _document(
        "sphere-table", args, results, ["closed-form mass chain and peak quadratic"]
    )
    csv_rows = None
    if args.format == "csv":
        csv_rows = [["kind", "t", "mass", "ratio_to_prev", "cumulative"]]
        for row in payload_rows:
            csv_rows.append(["row", row["t"], row["mass"], row["ratio_to_prev"], row["cumulative"]])
        for key, value in footer.items():
            csv_rows.append(["footer", key, value, None, None])
    _emit(document, args.format, csv_rows)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    records = conjecture_scan(args.n_max, _optimizer_config(args), dense_cap=args.dense_cap)
    results = {"records": [_record_payload(r) for r in records]}
    document = _document(
        "scan",
        args,
        results,
        ["ascent vs exact energy ratio per sphere cell, certificates kept for candidates"],
    )
    csv_rows = None
    if args.format == "csv":
        csv_rows = [["n", "k", "mu_est", "energy_ratio", "gap", "upper_gap", "status"]]
        for record in results["records"]:
            csv_rows.append([v for key, v in record.items() if key != "certificate"])
    _emit(document, args.format, csv_rows)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _optimizer_config(args)
    suites = run_suites([args.suite], seed=args.seed, cfg=cfg)
    overall = all(report.overall for _, reports in suites for report in reports)
    results = {
        "overall": overall,
        "suites": [
            {"name": name, "reports": [_report_payload(r) for r in reports]}
            for name, reports in suites
        ],
    }
    provenance = _collect_provenance([r for _, reports in suites for r in reports])
    document = _document("verify", args, results, provenance)
    csv_rows = None
    if args.format == "csv":
        csv_rows = [
            ["suite", "subject", "check", "lhs", "relation", "rhs", "passed", "hard", "provenance", "detail"]
        ]
        for suite in results["suites"]:
            for report in suite["reports"]:
                for check in report["checks"]:
                    csv_rows.append([suite["name"], report["subject"], *check.values()])
    _emit(document, args.format, csv_rows)
    if not overall:
        failing = [
            f"{name}/{report.subject}: {c.name}"
            for name, reports in suites
            for report in reports
            for c in report.failed_checks()
        ]
        for line in failing:
            print(f"hard check failed: {line}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# --- entry point -------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubequartic",
        description="Fourth-moment maximisation and additive structure on the Boolean cube",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--starts", type=int, default=32, help="ascent restarts (default 32)")
    common.add_argument("--iters", type=int, default=10_000, help="ascent iteration cap")
    common.add_argument("--tol", type=float, default=1e-12, help="ascent stopping tolerance")
    common.add_argument(
        "--dense-cap", type=int, default=DEFAULT_DENSE_CAP, help="largest dense dimension"
    )
    common.add_argument(
        "--exact-limit", type=int, default=20, help="exhaustive hereditary search cap"
    )
    # kept so existing invocations still parse; every command runs in one thread
    common.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; no effect"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", parents=[common], help="full report for a set file")
    p_analyze.add_argument("set_file")
    p_analyze.set_defaults(func=cmd_analyze)

    p_table = sub.add_parser("sphere-table", parents=[common], help="mass table of a sphere")
    p_table.add_argument("n", type=int)
    p_table.add_argument("k", type=int)
    p_table.add_argument("--values", choices=("exact", "float"), default="exact")
    p_table.add_argument("--t-min", type=int, default=None)
    p_table.add_argument("--t-max", type=int, default=None)
    p_table.set_defaults(func=cmd_sphere_table)

    p_scan = sub.add_parser("scan", parents=[common], help="sphere cell scan")
    p_scan.add_argument("--n-max", type=int, required=True)
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, value, least in (
        ("--threads", args.threads, 1),
        ("--dense-cap", args.dense_cap, 0),
        ("--exact-limit", args.exact_limit, 0),
    ):
        if value < least:
            print(
                f"invalid request: {flag} must be at least {least}, got {value}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    try:
        return args.func(args)
    except SetFileError as exc:
        print(f"set file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, CubeQuarticError) as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # a violated internal bracket (scan) or pair-table cross-check
        print(f"{args.command} aborted: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
