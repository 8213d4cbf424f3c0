"""End-to-end command-line tests driven through main(argv)."""

import json

import pytest

from piercelib.cli import main
from piercelib.dimension import box_ratio_sequence, dimension_bound_sequences, gap_ratio_sequence
from piercelib.families import SetSpec
from piercelib.profiles import bounds_from_scale


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
    # the rows 2n < d_n <= 2(n+1) of the scale u = 2, with level 3 narrowed
    # to one digit choice: gap fails there, box does not; the stated scale
    # gives the document an analytic value, so it exits 0
    "one_choice_at_3": (
        {
            "bounds": {
                "l": _table([2, 4, 6, 8, 10, 12, 14, 16, 18, 20]),
                "r": _table([4, 6, 7, 10, 12, 14, 16, 18, 20, 22]),
                "scale": {"kind": "power", "a": 0, "coeff": 2, "analytic": {"eta": 0}},
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
    assert code == 0
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
    assert code == 0
    assert doc["summary"]["gap_sequence"] == "unavailable: fewer than 2 digit choices at level 3"
    assert "box_sequence" not in doc["summary"]
    assert {row["bound_kind"] for row in doc["data"]} == {"lower", "upper", "box"}
    # the same document again, in the same process, reads the same rows afresh
    assert run_json(capsys, ["dim", spec, "--n-max", str(n_max)]) == (code, doc)
