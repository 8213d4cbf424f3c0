"""Command-line front end: expansion, intervals, dimension reports, law runs.

Every run echoes its full configuration into the output header, so any output
file can be reproduced byte-for-byte by re-running the embedded config; no
timestamps or machine-specific fields are ever emitted.  Exit codes: 0 on
success, 2 on input or domain errors, 3 when a limit fails to stabilize and
the run is refused.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from ._precision import DEFAULT_PRECISION_BITS, PrecisionError
from .dimension import (
    analytic_dimension,
    box_ratio_sequence,
    dimension_bound_sequences,
    find_cover_start,
    gap_ratio_sequence,
    window_cover_chains,
)
from .expansion import affine_map, expand
from .families import EnumerationCapError, SetSpec
from .intervals import fundamental_interval, interval_length
from .laws import run_law
from .profiles import DEFAULT_WINDOW, ProfileError, _memo_rows, _nondecreasing, bounds_from_scale

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r} ({exc})") from None


def _parse_word(text: str) -> tuple[int, ...]:
    try:
        word = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from None
    if not word:
        raise ValueError("empty word")
    return word


def _load_spec(text: str) -> SetSpec:
    if text.lstrip().startswith("{"):
        payload = text
    else:
        with open(text, encoding="utf-8") as handle:
            payload = handle.read()
    return SetSpec.from_dict(json.loads(payload))


# -- output rendering ----------------------------------------------------------


def _emit(args, config: dict, columns: list[str], rows: list[dict], summary: dict) -> None:
    header = {"artifact_version": __version__, "config": config}
    if args.format == "json":
        payload = {"config": header, "data": rows, "summary": summary}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        buf.write("# " + json.dumps(header, sort_keys=True) + "\r\n")
        buf.write("# summary: " + json.dumps(summary, sort_keys=True) + "\r\n")
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _base_config(args, subcommand: str, parameters: dict) -> dict:
    return {
        "subcommand": subcommand,
        "parameters": parameters,
        "seed": args.seed,
        "format": args.format,
        "out": args.out or "-",
    }


# -- subcommands ---------------------------------------------------------------


def cmd_expand(args) -> int:
    x = _parse_rational(args.rational)
    result = expand(x, cap=args.n_max)
    reconstructed = affine_map(result.word, result.remainder)
    rows = [{"index": i + 1, "digit": d} for i, d in enumerate(result.word)]
    summary = {
        "digits": list(result.word),
        "terminated": result.terminated,
        "remainder": _frac_str(result.remainder),
        "reconstruction_check": "pass" if reconstructed == x else "fail",
    }
    config = _base_config(
        args, "expand", {"x": _frac_str(x), "cap": args.n_max}
    )
    _emit(args, config, ["index", "digit"], rows, summary)
    return EXIT_OK if reconstructed == x else EXIT_INPUT


def cmd_interval(args) -> int:
    word = _parse_word(args.word)
    interval = fundamental_interval(word)
    length = interval_length(word)
    rows = [
        {
            "left": _frac_str(interval.left),
            "right": _frac_str(interval.right),
            "left_open": interval.left_open,
            "right_open": interval.right_open,
            "length": _frac_str(length),
        }
    ]
    summary = {"interval": str(interval), "length": _frac_str(length)}
    config = _base_config(args, "interval", {"word": list(word)})
    _emit(
        args,
        config,
        ["left", "right", "left_open", "right_open", "length"],
        rows,
        summary,
    )
    return EXIT_OK


def _json_float(v: float) -> float | str:
    return repr(v) if (v != v or v in (float("inf"), float("-inf"))) else v


def _limit_report(est) -> dict:
    tail = [(n, _json_float(v)) for n, v in est.values[-8:]]
    summary = {k: _json_float(v) for k, v in est.summary.items()}
    return {"quantity": est.quantity, "tail": tail, "summary": summary}


def _ratio_rows(points, kind: str) -> list[dict]:
    return [
        {
            "n": p.n,
            "log_count": repr(p.log_count),
            "log_inv_diam": repr(p.log_inv_diam),
            "ratio": repr(p.ratio),
            "bound_kind": kind,
        }
        for p in points
    ]


def _bounds_for_spec(spec: SetSpec, window: int):
    if spec.family == "E_bounds":
        return spec.params["bounds"]
    if spec.family == "E_star":
        return bounds_from_scale(spec.params["u"], window=window)
    return None


def _require_verified_rows(spec: SetSpec, window: int, last: int) -> None:
    """The sequences read bound rows up to `last`; an E_star scale without a
    structural certificate is verified only on levels up to `window`."""
    if spec.family == "E_star" and last > window and not _nondecreasing(spec.params["u"]):
        raise ProfileError(
            f"scale profile verified only through n={window}; the sequences read "
            f"rows up to n={last}, and row {window + 1} is unverified"
        )


def cmd_dim(args) -> int:
    spec = _load_spec(args.spec)
    report = analytic_dimension(spec, window=args.window)
    rows: list[dict] = []
    notes: dict = {}
    bounds = None
    if not report.empty:
        try:
            bounds = _bounds_for_spec(spec, args.window)
        except (ProfileError, ValueError) as exc:
            notes["bounds"] = f"unavailable: {exc}"
    if bounds is not None:
        _require_verified_rows(spec, args.window, args.n_max + 2)
        # the three sequences share one row memo for this document
        bounds = _memo_rows(bounds)
        bits = args.precision_bits
        estimate = dimension_bound_sequences(bounds, args.n_max, bits)
        rows += _ratio_rows(estimate.lower_seq, "lower")
        rows += _ratio_rows(estimate.upper_seq, "upper")
        try:
            rows += _ratio_rows(box_ratio_sequence(bounds, args.n_max, bits, args.enum_cap), "box")
        except (ValueError, ProfileError) as exc:
            notes["box_sequence"] = f"unavailable: {exc}"
        try:
            rows += _ratio_rows(gap_ratio_sequence(bounds, args.n_max, bits), "gap")
        except (ValueError, ProfileError) as exc:
            notes["gap_sequence"] = f"unavailable: {exc}"
    elif spec.family == "E_phi" and not report.empty and report.status != "refused":
        epsilon = 0.01
        phi = spec.params["profile"]
        try:
            start = find_cover_start(phi, epsilon)
            chains = window_cover_chains(
                phi,
                epsilon,
                start,
                args.n_max,
                precision_bits=args.precision_bits,
            )
        except (ValueError, ProfileError) as exc:
            notes["cover_chains"] = f"unavailable: {exc}"
        else:
            rows += _ratio_rows(chains["chain1"], "cover_chain1")
            rows += _ratio_rows(chains["chain2"], "cover_chain2")
            notes["cover_start"] = start
    summary = {
        "analytic": report.value,
        "status": report.status,
        "empty": report.empty,
        "detail": report.detail,
        "limits": {name: _limit_report(est) for name, est in report.limits.items()},
        "precision_bits": args.precision_bits,
    }
    summary.update(notes)
    config = _base_config(
        args,
        "dim",
        {
            "spec": spec.to_dict(),
            "n_max": args.n_max,
            "window": args.window,
            "precision_bits": args.precision_bits,
            "enum_cap": args.enum_cap,
        },
    )
    _emit(
        args,
        config,
        ["n", "log_count", "log_inv_diam", "ratio", "bound_kind"],
        rows,
        summary,
    )
    return EXIT_REFUSED if report.status == "refused" else EXIT_OK


def cmd_law(args) -> int:
    report = run_law(args.law, args.seed, args.n_max, args.count)
    rows = [
        {"seed_index": i, "n": args.n_max, "statistic": repr(s)}
        for i, s in enumerate(report.statistics)
    ]
    summary = dict(sorted(report.summary.items()))
    summary["precision"] = "float64"
    config = _base_config(
        args, "law", {"law": args.law, "n": args.n_max, "count": args.count}
    )
    _emit(args, config, ["seed_index", "n", "statistic"], rows, summary)
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piercelib",
        description="Exact Pierce-expansion toolkit: digits, intervals, "
        "dimension bounds, and stochastic law experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, **int_options):
        """--seed, --out and --format, plus the integer options the subcommand
        reads, given as dest=default."""
        p.add_argument("--seed", type=int, default=0, help="PRNG seed")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for dest, default in int_options.items():
            p.add_argument("--" + dest.replace("_", "-"), type=int, default=default, dest=dest)

    p_expand = sub.add_parser("expand", help="digits of a rational in (0, 1]")
    p_expand.add_argument("rational", help='rational like "7/9"')
    common(p_expand, n_max=None)
    p_expand.set_defaults(func=cmd_expand)

    p_interval = sub.add_parser("interval", help="cylinder interval of a word")
    p_interval.add_argument("word", help='comma list like "1,3"')
    common(p_interval)
    p_interval.set_defaults(func=cmd_interval)

    p_dim = sub.add_parser("dim", help="dimension report for a set spec")
    p_dim.add_argument("spec", help="SetSpec JSON text or path to a JSON file")
    common(
        p_dim,
        n_max=40,
        precision_bits=DEFAULT_PRECISION_BITS,
        enum_cap=4096,
        window=DEFAULT_WINDOW,
    )
    p_dim.set_defaults(func=cmd_dim)

    p_law = sub.add_parser("law", help="Monte Carlo law experiment")
    p_law.add_argument("law", choices=("lln", "clt", "lil"))
    common(p_law, n_max=200, count=1000)
    p_law.set_defaults(func=cmd_law)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        KeyError,
        OSError,
        json.JSONDecodeError,
        ProfileError,
        PrecisionError,
        EnumerationCapError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
