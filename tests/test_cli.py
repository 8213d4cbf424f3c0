"""End-to-end command-line tests driven through main(argv)."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from piercelib.cli import main
from piercelib.dimension import box_ratio_sequence, dimension_bound_sequences, gap_ratio_sequence
from piercelib.families import SetSpec
from piercelib.profiles import bounds_from_scale, builtin_profiles


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_expand_rational_json(capsys):
    code, doc = run_json(capsys, ["expand", "7/9", "--seed", "1"])
    assert code == 0
    assert set(doc) == {"config", "data", "summary"}
    assert doc["config"]["config"]["subcommand"] == "expand"
    words = [row["digit"] for row in doc["data"]]
    assert words == [1, 4, 9]
    assert doc["summary"]["terminated"] is True
    assert doc["summary"]["reconstruction_check"] == "pass"
    assert doc["summary"]["remainder"] == "0/1"


def test_expand_unit_and_inverse(capsys):
    code, doc = run_json(capsys, ["expand", "1/1"])
    assert code == 0
    assert [r["digit"] for r in doc["data"]] == [1]
    code, doc = run_json(capsys, ["expand", "2/3"])
    assert code == 0
    assert doc["data"][0]["digit"] == 1


def test_expand_rejects_out_of_range(capsys):
    assert main(["expand", "3/2"]) == 2
    assert "error" in capsys.readouterr().err


def test_expand_csv_shape(capsys):
    code = main(["expand", "7/9", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.split("\r\n")
    assert lines[0].startswith("# {")
    assert lines[1].startswith("# summary: {")
    header = json.loads(lines[0][2:])
    assert header["config"]["subcommand"] == "expand"
    assert lines[2].split(",")[0] == "index"
    assert len([ln for ln in lines if ln and not ln.startswith("#")]) == 4


def test_interval_reports_exact_endpoints(capsys):
    code, doc = run_json(capsys, ["interval", "2"])
    assert code == 0
    assert doc["summary"]["interval"] == "(1/3, 1/2]"
    assert doc["summary"]["length"] == "1/6"


def test_interval_rejects_bad_word(capsys):
    assert main(["interval", "2,2"]) == 2
    assert "error" in capsys.readouterr().err


def test_dim_scale_family(capsys):
    spec = json.dumps(
        {
            "family": "E_star",
            "params": {"u": {"kind": "builtin", "name": "scale_geometric3"}},
        }
    )
    code, doc = run_json(capsys, ["dim", spec, "--n-max", "12"])
    assert code == 0
    kinds = {row["bound_kind"] for row in doc["data"]}
    assert {"lower", "upper"} <= kinds
    assert doc["summary"]["analytic"] == 1.0


def test_dim_analytic_only_family(capsys):
    spec = json.dumps({"family": "F_alpha", "params": {"alpha": 2}})
    code, doc = run_json(capsys, ["dim", spec])
    assert code == 0
    assert doc["summary"]["analytic"] == 0.5


def test_dim_empty_family(capsys):
    spec = json.dumps(
        {"family": "E_phi", "params": {"profile": {"kind": "log", "coeff": "1/2"}}}
    )
    code, doc = run_json(capsys, ["dim", spec])
    assert code == 0
    assert doc["summary"]["empty"] is True
    assert doc["summary"]["analytic"] == 0.0


def test_dim_refused_family_exits_3(capsys):
    spec = json.dumps(
        {
            "family": "S_generic",
            "params": {
                "m": 1,
                "h1": {"kind": "affine", "a": 2},
                "h2": {"kind": "affine", "a": 1},
            },
        }
    )
    code = main(["dim", spec])
    out = capsys.readouterr().out
    assert code == 3
    doc = json.loads(out)
    assert doc["summary"]["status"] == "refused"


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "F_alpha", "params": {"alpha": "x"}},
        {"family": "B_kappa", "params": {"kappa": None}},
        {"family": "S_generic", "params": {"m": 1, "h1": {"kind": "affine", "a": 2}, "h2": 3}},
        {"family": "A_kappa", "params": {"kappa": "abc"}},
        {"family": "E_alpha_beta", "params": {"alpha": 1, "beta": [1]}},
    ],
    ids=lambda spec: spec["family"],
)
def test_dim_malformed_parameter_exits_2(capsys, spec):
    assert main(["dim", json.dumps(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "params",
    [{"alpha": "1/0"}, {"profile": {"kind": "log", "coeff": "1/0"}}],
    ids=["F_alpha", "E_phi"],
)
def test_dim_zero_denominator_exits_2(capsys, params):
    family = "E_phi" if "profile" in params else "F_alpha"
    assert main(["dim", json.dumps({"family": family, "params": params})]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"


def _sqrt_scaled(offset):
    return {"kind": "index_scaled", "u": {"kind": "sqrt"}, "offset": offset}


@pytest.mark.parametrize(
    "bounds,message",
    [
        # sqrt(n) - 1 is 0 at n = 1: an irrational row, as the affine n - 1 is a rational one
        (
            {"l": {"kind": "power", "a": "1/2", "shift": -3}, "r": {"kind": "power", "a": "1/2", "shift": -1}},
            "error: log of non-positive value 0.0 at n=1\n",
        ),
        (
            {"l": {"kind": "affine", "a": 1, "b": -3}, "r": {"kind": "affine", "a": 1, "b": -1}},
            "error: log of non-positive value 0 at n=1\n",
        ),
        # (n - 1) sqrt(n) and (n - 2) sqrt(n) at n = 1: n + offset <= 0
        ({"l": _sqrt_scaled(-1), "r": _sqrt_scaled(0)}, "error: log of non-positive value 0.0 at n=1\n"),
        ({"l": _sqrt_scaled(-2), "r": _sqrt_scaled(0)}, "error: log of non-positive value -1.0 at n=1\n"),
    ],
    ids=["irrational", "rational", "index_scaled_zero", "index_scaled_negative"],
)
def test_dim_log_of_a_non_positive_row_exits_2(capsys, bounds, message):
    spec = {"family": "E_bounds", "params": {"bounds": {**bounds, "threshold": 4}}}
    assert main(["dim", json.dumps(spec), "--n-max", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_dim_refuses_a_row_whose_sign_is_undecided(capsys):
    # l(27) = 27^(2/3) - 9 is exactly 0 and its enclosure meets both sides of
    # 0: the document once printed lower rows 1-27 and dropped upper rows 26-27
    low, high = {"kind": "affine", "a": 2}, {"kind": "power", "a": "2/3", "shift": -9}
    bounds = {"l": {"kind": "piecewise", "split": 26, "low": low, "high": high}, "r": {"kind": "affine", "a": 3}}
    spec = {"family": "E_bounds", "params": {"bounds": {**bounds, "threshold": 0}}}
    assert main(["dim", json.dumps(spec), "--n-max", "27"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sign of the value at n=27 undecided at 128 bits\n"


def test_dim_of_a_super_exponential_scale_leaves_its_floors_undecided():
    # u(n) = exp(n^10): l(6) = 6 u(6) is near 2^(8.7 * 10^7).  No floor above
    # 2^(2^16) is decided, so box and gap are unavailable and no branch count
    # of that size is formed; the document once hung and then ran out of memory
    u = {"kind": "exp_of", "inner": {"kind": "power", "a": 10}}
    spec = json.dumps({"family": "E_star", "params": {"u": u}})
    cap = 3 * 10**9

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "piercelib.cli", "dim", spec, "--n-max", "6"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit_memory,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    undecided = "unavailable: floor undecided at 65536 bits"
    assert doc["summary"]["box_sequence"] == doc["summary"]["gap_sequence"] == undecided
    assert {row["bound_kind"] for row in doc["data"]} == {"lower", "upper"}


def test_dim_spec_from_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "A_alpha", "params": {"alpha": 7}}))
    code, doc = run_json(capsys, ["dim", str(path)])
    assert code == 0
    assert doc["summary"]["analytic"] == 1.0


def test_law_json_rows(capsys):
    code, doc = run_json(
        capsys, ["law", "lln", "--seed", "5", "--n-max", "40", "--count", "12"]
    )
    assert code == 0
    assert len(doc["data"]) == 12
    row = doc["data"][0]
    assert set(row) == {"seed_index", "n", "statistic"}
    assert row["n"] == 40
    assert doc["summary"]["precision"] == "float64"


def test_law_csv_rows(capsys):
    code = main(["law", "clt", "--seed", "5", "--n-max", "30", "--count", "6",
                 "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.split("\r\n")
    assert lines[2] == "seed_index,n,statistic"
    body = [ln for ln in lines[3:] if ln]
    assert len(body) == 6
    assert body[0].split(",")[0] == "0"


def test_law_rejects_short_lil(capsys):
    assert main(["law", "lil", "--n-max", "2", "--count", "3"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_out_file_and_rerun_byte_identical(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = ["law", "lln", "--seed", "9", "--n-max", "25", "--count", "8",
            "--out", str(target)]
    assert main(argv) == 0
    first = target.read_bytes()
    assert main(argv) == 0
    assert target.read_bytes() == first
    doc = json.loads(first)
    assert doc["config"]["config"]["out"] == str(target)


def test_rerun_from_embedded_config(capsys):
    argv = ["dim", json.dumps({"family": "B_alpha", "params": {"alpha": 2}}),
            "--n-max", "8"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    code2, doc2 = run_json(capsys, argv)
    assert doc == doc2


def test_subcommands_accept_only_the_options_they_read(capsys):
    unread = {
        ("expand", "1/2"): ("--count", "--precision-bits", "--enum-cap", "--window"),
        ("interval", "1,3"): ("--n-max", "--count", "--precision-bits", "--enum-cap", "--window"),
        ("dim", '{"family": "F_alpha", "params": {"alpha": 2}}'): ("--count",),
        ("law", "lln"): ("--precision-bits", "--enum-cap", "--window"),
    }
    for argv, flags in unread.items():
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, "5"])
            assert exc.value.code == 2, (argv, flag)
    capsys.readouterr()
    code, doc = run_json(
        capsys,
        ["dim", '{"family": "F_alpha", "params": {"alpha": 2}}', "--seed", "1",
         "--enum-cap", "8", "--window", "64", "--precision-bits", "96"],
    )
    assert code == 0
    config = doc["config"]["config"]
    assert config["seed"] == 1
    assert (config["parameters"]["enum_cap"], config["parameters"]["window"]) == (8, 64)
    assert doc["summary"]["precision_bits"] == 96


def test_dim_table_bounds_read_past_their_end_exit_2(capsys):
    def table(values):
        return {"kind": "table", "values": values}

    bounds = {"l": table([2, 4, 6, 8]), "r": table([4, 6, 8, 10])}
    spec = json.dumps({"family": "E_bounds", "params": {"bounds": bounds}})
    assert main(["dim", spec, "--n-max", "6"]) == 2
    assert "has 4 rows, no row 5" in capsys.readouterr().err


def test_dim_scale_without_a_rule_is_read_only_on_its_window(capsys):
    # a table scale is verified by the row scan on levels 1..--window only
    u = {"kind": "table", "values": list(range(2, 14))}
    spec = json.dumps({"family": "E_star", "params": {"u": u}})
    code, doc = run_json(capsys, ["dim", spec, "--n-max", "6", "--window", "8"])
    assert code == 0
    assert max(row["n"] for row in doc["data"]) == 6
    assert main(["dim", spec, "--n-max", "7", "--window", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "row 9 is unverified" in captured.err
    # a scale with a structural rule is certified for every n
    geo = json.dumps(
        {"family": "E_star", "params": {"u": {"kind": "builtin", "name": "scale_geometric3"}}}
    )
    code, doc = run_json(capsys, ["dim", geo, "--n-max", "12", "--window", "8"])
    assert code == 0
    assert max(row["n"] for row in doc["data"]) == 12


def test_dim_a_kappa_inf_is_empty(capsys):
    spec = json.dumps({"family": "A_kappa", "params": {"kappa": "inf"}})
    code, doc = run_json(capsys, ["dim", spec])
    assert code == 0
    assert doc["summary"]["empty"] is True
    assert doc["summary"]["analytic"] == 0.0
    assert doc["summary"]["detail"] == "kappa = inf but log d_1 < inf"


def _unshared_document(bounds, n_max):
    """Data rows and sequence notes of a `dim` document, from the three public
    sequence functions run on bounds without a row memo."""
    estimate = dimension_bound_sequences(bounds, n_max)
    sequences = [("lower", estimate.lower_seq), ("upper", estimate.upper_seq)]
    notes = {}
    for kind, sequence in (("box", box_ratio_sequence), ("gap", gap_ratio_sequence)):
        try:
            sequences.append((kind, sequence(bounds, n_max)))
        except ValueError as exc:  # ProfileError is a ValueError
            notes[f"{kind}_sequence"] = f"unavailable: {exc}"
    rows = [
        {
            "n": p.n,
            "log_count": repr(p.log_count),
            "log_inv_diam": repr(p.log_inv_diam),
            "ratio": repr(p.ratio),
            "bound_kind": kind,
        }
        for kind, points in sequences
        for p in points
    ]
    return rows, notes


def _table(values):
    return {"kind": "table", "values": values}


DOCUMENTS = {
    "geometric3": ({"u": {"kind": "builtin", "name": "scale_geometric3"}}, 40),
    # floors and logs on the mpmath.iv / mpmath.mp paths
    "exp_sqrt": ({"u": {"kind": "exp_of", "inner": {"kind": "sqrt", "coeff": "9/8"}}}, 60),
    # the rows 2n < d_n <= 2(n+1) with level 3 narrowed to one digit choice:
    # gap fails there, box does not; table windows are no scale windows, so
    # the analytic value is refused and the document exits 3 with its rows
    "one_choice_at_3": (
        {
            "bounds": {
                "l": _table([2, 4, 6, 8, 10, 12, 14, 16, 18, 20]),
                "r": _table([4, 6, 7, 10, 12, 14, 16, 18, 20, 22]),
            }
        },
        8,
    ),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_dim_document_matches_the_unshared_sequences(capsys, name):
    params, n_max = DOCUMENTS[name]
    family = "E_bounds" if "bounds" in params else "E_star"
    spec = {"family": family, "params": params}
    code, doc = run_json(capsys, ["dim", json.dumps(spec), "--n-max", str(n_max)])
    assert code == (3 if family == "E_bounds" else 0)
    set_spec = SetSpec.from_dict(spec)
    bounds = set_spec.params.get("bounds") or bounds_from_scale(set_spec.params["u"])
    rows, notes = _unshared_document(bounds, n_max)
    assert doc["data"] == rows
    assert {k: v for k, v in doc["summary"].items() if k.endswith("_sequence")} == notes


def test_dim_gap_error_leaves_the_other_rows(capsys):
    # an error raised while gap reads its rows is not kept for a later reader
    params, n_max = DOCUMENTS["one_choice_at_3"]
    spec = json.dumps({"family": "E_bounds", "params": params})
    code, doc = run_json(capsys, ["dim", spec, "--n-max", str(n_max)])
    assert code == 3 and doc["summary"]["status"] == "refused"
    assert doc["summary"]["gap_sequence"] == "unavailable: fewer than 2 digit choices at level 3"
    assert "box_sequence" not in doc["summary"]
    assert {row["bound_kind"] for row in doc["data"]} == {"lower", "upper", "box"}
    # the same document again, in the same process, reads the same rows afresh
    assert run_json(capsys, ["dim", spec, "--n-max", str(n_max)]) == (code, doc)


def test_dim_reads_no_stated_scale(capsys):
    # (10n, 30n] are no scale windows; a "scale" key in the spec is ignored,
    # so the analytic value is refused and the document exits 3
    bounds = {
        "l": {"kind": "affine", "a": 10},
        "r": {"kind": "affine", "a": 30},
        "threshold": 0,
        "scale": {"kind": "builtin", "name": "scale_geometric3"},
    }
    spec = json.dumps({"family": "E_bounds", "params": {"bounds": bounds}})
    code, doc = run_json(capsys, ["dim", spec, "--n-max", "6"])
    assert code == 3
    assert doc["summary"]["status"] == "refused" and doc["summary"]["analytic"] is None


@pytest.mark.parametrize("name", ["scale_geometric3", "scale_exp_sqrt"])
def test_dim_of_scale_windows_is_the_e_star_document(capsys, name):
    # E_bounds over bounds_from_scale(u), written and read back, derives u
    # from its l and r: E_star(u)'s analytic value and rows
    u = builtin_profiles()[name]
    docs = []
    for family, params in (
        ("E_star", {"u": {"kind": "builtin", "name": name}}),
        ("E_bounds", {"bounds": bounds_from_scale(u).to_dict()}),
    ):
        spec = json.dumps({"family": family, "params": params})
        docs.append(run_json(capsys, ["dim", spec, "--n-max", "30"]))
    (star_code, star), (code, doc) = docs
    assert code == star_code == 0
    for key in ("analytic", "status", "detail"):
        assert doc["summary"][key] == star["summary"][key]
    assert doc["data"] == star["data"] and len(doc["data"]) == 4 * 30


def test_dim_undecided_cover_start_keeps_the_analytic_value(capsys):
    # c (1 - eps) is exactly 1 for eps the float 0.01, so the bottom of the
    # row-2 cover window, exp(log 2), is the integer 2 and its floor stays
    # undecided at the precision ceiling; the document reports that and keeps
    # its analytic value
    coeff = "576460752303423488/570696144780389253"
    spec = json.dumps({"family": "E_phi", "params": {"profile": {"kind": "log", "coeff": coeff}}})
    code, doc = run_json(capsys, ["dim", spec, "--n-max", "60"])
    assert code == 0
    summary = doc["summary"]
    assert summary["cover_chains"] == "unavailable: floor undecided at 65536 bits"
    assert summary["status"] == "exact" and summary["analytic"] == pytest.approx(0.01)
    assert "cover_start" not in summary and doc["data"] == []


def test_dim_undecided_bound_floor_keeps_the_lower_and_upper_rows(capsys):
    # l(n) = exp(n log 2) = 2^n exactly, so the box and gap sequences, which
    # floor l, meet a floor that stays undecided at the precision ceiling;
    # each reports that, and the lower and upper rows stay.  The exit code is
    # the analytic one: 3 (refused) for generic windows.
    bounds = {
        "l": {"kind": "exp_of", "inner": {"kind": "linear_log", "a": 2}},
        "r": {"kind": "exponential", "a": 2, "coeff": 2},
        "threshold": 0,
    }
    spec = json.dumps({"family": "E_bounds", "params": {"bounds": bounds}})
    code, doc = run_json(capsys, ["dim", spec, "--n-max", "10"])
    assert code == 3
    for kind in ("box", "gap"):
        assert doc["summary"][f"{kind}_sequence"] == "unavailable: floor undecided at 65536 bits"
    assert [row["bound_kind"] for row in doc["data"]] == ["lower"] * 10 + ["upper"] * 10


def _reference_checks():
    """`check_document`, `dim_argv` and `load_reference` from bench/workloads.py,
    imported as bench/test_checks.py imports them; the reference is only read."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import check_document, dim_argv, load_reference

    return check_document, dim_argv, load_reference


def test_dim_documents_match_the_benchmark_reference():
    # every document of the seven reference slots: E_star over geometric and
    # exp-sqrt scales, F_alpha and E_phi, at --n-max 60 and 1000.  The
    # reference holds its floats to a tolerance; the pins in
    # dim_reference_sha256.json hold each document's stdout and exit code to
    # the byte, in reference order
    check_document, dim_argv, load_reference = _reference_checks()
    docs = [doc for slot in load_reference()["slots"] for doc in slot["docs"]]
    pins = json.loads(Path(__file__).with_name("dim_reference_sha256.json").read_text(encoding="utf-8"))
    assert len(docs) == len(pins) == 56
    for doc, pin in zip(docs, pins):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(dim_argv(doc))
        assert check_document(out.getvalue(), code, doc) is None, doc["spec"]
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert {"sha256": digest, "exit": code} == pin, doc["spec"]


_ESTAR = json.dumps({"family": "E_star", "params": {"u": {"kind": "builtin", "name": "scale_geometric3"}}})
_F_ALPHA = json.dumps({"family": "F_alpha", "params": {"alpha": 2}})


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "7/9"],
        ["interval", "2,5,9"],
        ["dim", _ESTAR, "--n-max", "12"],
        ["dim", _F_ALPHA, "--n-max", "12"],
        ["law", "clt", "--n-max", "20", "--count", "5"],
    ],
    ids=["expand", "interval", "dim", "dim-no-rows", "law"],
)
def test_json_output_is_byte_identical_to_json_dumps(capsys, argv):
    # rows go through the C encoder, the header and summary through indent=2
    assert main(argv) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert (payload["data"] == []) == (argv[1] == _F_ALPHA)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_emitted_rows_escape_like_json_dumps(capsys):
    from types import SimpleNamespace

    from piercelib import cli

    rows = [
        {"z": 'quote " and \\ back', "a": "line\nbreak\ttab", "u": "é☃", "n": -3},
        {"f": 1e-300, "inf": float("inf"), "nan": float("nan"), "none": None, "t": True},
    ]
    summary = {"nested": {"b": [1, "x\ny"], "a": {}}, "empty": []}
    args, config = SimpleNamespace(format="json", out="-"), {"k": "v\n"}
    header = {"artifact_version": cli.__version__, "config": config}
    for data in (rows, []):
        cli._emit(args, config, [], data, summary)
        payload = {"config": header, "data": data, "summary": summary}
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
