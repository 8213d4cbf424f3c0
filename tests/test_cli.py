"""End-to-end command-line tests driven through main(argv)."""

import json

import pytest

from piercelib.cli import main


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
