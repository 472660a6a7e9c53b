import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import incideals
import incideals.betti as betti
import incideals.cli as cli
from incideals import CheckResult
from incideals.chains import WINDOW_CAP
from incideals.cli import main

MIXED = "index 3\ngen x1^2\ngen x2^2*x3\ngen x3^2\n"
SQUARES = "index 1\ngen x1^2\n"
POWER = "index 2\ngen x1*x2^2\ngen x2^3\n"
SYM = "index 3\nsymmetry sym\ngen x1^2*x2\ngen x1*x2*x3\n"


@pytest.fixture
def mixed_file(tmp_path):
    p = tmp_path / "mixed.chain"
    p.write_text(MIXED)
    return str(p)


@pytest.fixture
def squares_file(tmp_path):
    p = tmp_path / "squares.chain"
    p.write_text(SQUARES)
    return str(p)


@pytest.fixture
def sym_file(tmp_path):
    p = tmp_path / "sym.chain"
    p.write_text(SYM)
    return str(p)


def test_invariants_json(mixed_file, capsys):
    rc = main(["invariants", mixed_file])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["lambda"] == 2
    assert data["w"] == 2
    assert data["q"] == 11
    assert data["quasi_saturated"] is False
    assert data["lambda_maximal"] is True
    assert data["char"] == 32003
    assert data["lambda_certificate"] == "reached_w"


def test_invariants_saturation_variant(mixed_file, capsys):
    rc = main(["invariants", mixed_file, "--saturation"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["quasi_saturated"] is True and data["q"] == 7


def test_betti_csv(mixed_file, capsys):
    rc = main(["betti", mixed_file, "--n", "4"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "i,multidegree,value"
    assert "0,x1^2,1" in out
    assert "3,x1^2*x2^2*x3^2*x4^2,1" in out
    assert out[-1].startswith("# pd 3 reg 5")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "text,argv,golden",
    [
        # symmetric terms: orbit rows of weight > 1 are expanded
        (SYM, ["--n", "6"], "betti_sym_n6.csv"),
        (MIXED, ["--n", "5"], "betti_mixed_n5.csv"),
        # the saturation leaves this term as it is
        (MIXED, ["--n", "5", "--saturation"], "betti_mixed_n5.csv"),
        # the unit ideal: one entry at the zero multidegree
        ("index 1\ngen 1\n", ["--n", "2"], "betti_unit_n2.csv"),
        ("index 2\ngen x1^12*x2\ngen x2^11\n", ["--n", "4", "--char", "2"],
         "betti_two_digit_n4_char2.csv"),
    ],
    ids=["sym", "mixed", "mixed_saturation", "unit", "two_digit_char2"],
)
def test_betti_csv_golden(tmp_path, capsys, text, argv, golden):
    p = tmp_path / "golden.chain"
    p.write_text(text)
    assert main(["betti", str(p), *argv]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_series_pd_golden(tmp_path, capsys):
    # acceptance-corpus chain 1014, saturated, at widths r+2..r+5
    p = tmp_path / "chain1014.chain"
    p.write_text("index 3\ngen x2^2\ngen x1*x2*x3\n")
    rc = main(["series", str(p), "--saturation", "--metric", "pd", "--from", "5", "--to", "8"])
    assert rc == 0
    assert capsys.readouterr().out == (GOLDEN / "series_1014_saturation_pd.txt").read_text()


def test_series_pd_on_the_unit_chain(tmp_path, capsys):
    # every term is the unit ideal, whose one-entry table has pd 0
    p = tmp_path / "unit.chain"
    p.write_text("index 2\ngen 1\n")
    assert main(["series", str(p), "--metric", "pd", "--from", "2", "--to", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == ["n,value", "2,0", "3,0"]


def test_series_csv_with_fit(squares_file, capsys):
    rc = main(["series", squares_file, "--metric", "pd", "--from", "1", "--to", "6"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "n,value"
    assert out[1] == "1,0" and out[6] == "6,5"
    assert "# status linear" in out
    assert "# fit slope 1 intercept -1 onset 1" in out


def test_series_cap_exit_code(mixed_file, capsys):
    rc = main(
        ["series", mixed_file, "--metric", "pd", "--from", "3", "--to", "9",
         "--gen-cap", "5"]
    )
    out = capsys.readouterr().out.splitlines()
    assert rc == 3
    assert any(line.startswith("# truncated") for line in out)
    assert "3,2" in out  # partial values still printed


def test_series_budget_exit_code(squares_file, capsys):
    # every width takes longer than a nanosecond, so only the first is kept
    rc = main(["series", squares_file, "--metric", "pd", "--from", "1", "--to", "4",
               "--budget", "1e-9"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 3
    assert "1,0" in out and "2,1" not in out
    assert "# truncated budget: width 1 took over 1e-09s" in out


def test_series_deterministic(squares_file, capsys):
    main(["series", squares_file, "--metric", "reg", "--from", "1", "--to", "5"])
    a = capsys.readouterr().out
    main(["series", squares_file, "--metric", "reg", "--from", "1", "--to", "5"])
    b = capsys.readouterr().out
    assert a == b


ALL_PASS = (
    "PASS pd_linearity\n"
    "PASS reg_slope\n"
    "PASS betti_propagation\n"
    "PASS msat_identities\n"
    "PASS colon_filtration\n"
)


@pytest.mark.parametrize(
    "text,extra,expected",
    [
        (
            MIXED,
            [],
            "NA   pd_linearity (chain not saturated)\n"
            "NA   reg_slope (slope asserted only when quasi-saturated and lambda-maximal)\n"
            "NA   betti_propagation (chain not saturated)\n"
            "PASS msat_identities\n"
            "PASS colon_filtration\n",
        ),
        (SQUARES, ["--e", "1", "--m", "2"], ALL_PASS),
        (MIXED, ["--saturation"], ALL_PASS),
        (POWER, ["--msat", "2"], ALL_PASS),
    ],
    ids=["mixed", "squares", "mixed_saturation", "power_msat2"],
)
def test_verify_output_pinned(tmp_path, capsys, text, extra, expected):
    # all five checks, in their fixed order, NA reasons included
    p = tmp_path / "pinned.chain"
    p.write_text(text)
    rc = main(["verify", str(p), *extra])
    assert capsys.readouterr().out == expected
    assert rc == 0


def test_verify_reports_na(mixed_file, capsys):
    rc = main(["verify", mixed_file, "--check", "pd", "--check", "reg"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0  # NA lines are not failures
    assert out[0].startswith("NA   pd_linearity")
    assert out[1].startswith("NA   reg_slope")


def test_explore_deterministic(capsys):
    argv = ["explore", "--count", "3", "--index", "2", "--gens", "2",
            "--max-exponent", "2", "--max-degree", "3", "--seed", "11",
            "--horizon", "5"]
    rc = main(argv)
    a = capsys.readouterr().out
    assert rc == 0
    main(argv)
    b = capsys.readouterr().out
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "seed,r,gens,w,lambda,q,pd_slope,pd_onset,reg_slope,reg_onset,status"
    assert len(lines) == 4
    assert all(line.split(",")[-1] in ("ok", "undetermined", "partial") for line in lines[1:])


def test_bad_chain_file_exit(tmp_path, capsys):
    p = tmp_path / "bad.chain"
    p.write_text("index 2\ngen x1^^2\n")
    rc = main(["invariants", str(p)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line 2" in err and "col 8" in err


def test_missing_file_exit(tmp_path, capsys):
    rc = main(["invariants", str(tmp_path / "nope.chain")])
    assert rc == 1


def test_cap_exit_code(mixed_file, capsys):
    rc = main(["betti", mixed_file, "--n", "6", "--gen-cap", "3"])
    assert rc == 3


def test_usage_error_exit():
    with pytest.raises(SystemExit) as e:
        main(["bogus"])
    assert e.value.code == 2


def test_composite_char_rejected(squares_file, capsys):
    with pytest.raises(SystemExit) as e:
        main(["betti", squares_file, "--n", "2", "--char", "32004"])
    assert e.value.code == 2
    assert "prime" in capsys.readouterr().err


def test_betti_huge_exponent_exit(tmp_path, capsys):
    p = tmp_path / "huge.chain"
    p.write_text("index 2\ngen x1^40000*x2\n")
    rc = main(["betti", str(p), "--n", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "exponent 40000" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "extra,what", [([], "invariants horizon"), (["--horizon", "4"], "q_invariant candidates")]
)
def test_invariants_huge_exponent_capped(tmp_path, capsys, extra, what):
    # the default window would be 2 * 40001 + 4 widths, and q would sum
    # C(40003, 2) candidates; both caps trip before the work starts
    p = tmp_path / "huge.chain"
    p.write_text("index 2\ngen x1^40000*x2\n")
    start = time.perf_counter()
    rc = main(["invariants", str(p), *extra])
    assert time.perf_counter() - start < 5
    assert rc == 3
    assert what in capsys.readouterr().err


def test_betti_orbit_cap_exit(tmp_path, capsys):
    # the term at width 60 needs C(60, 5) placements of the seed
    p = tmp_path / "wide.chain"
    p.write_text("index 5\ngen x1*x2*x3*x4*x5\n")
    rc = main(["betti", str(p), "--n", "60"])
    assert rc == 3
    assert "inc orbit placements" in capsys.readouterr().err


def test_invariants_composite_char_rejected(mixed_file, capsys):
    with pytest.raises(SystemExit) as e:
        main(["invariants", mixed_file, "--char", "4"])
    assert e.value.code == 2
    assert "prime" in capsys.readouterr().err


def test_invariants_sym_chain(sym_file, capsys):
    rc = main(["invariants", sym_file])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["saturated_window"] is True
    assert data["lambda_certificate"] == "reached_w"


def test_invariants_wide_sym_seed(tmp_path, capsys):
    # 1,028,160 injections at width 18, but only C(18, 5) = 8,568 images
    p = tmp_path / "wide_sym.chain"
    p.write_text("index 5\nsymmetry sym\ngen x1*x2*x3*x4*x5\n")
    rc = main(["invariants", str(p)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["lambda_certificate"] == "reached_w"


def test_verify_pd_sym_chain(sym_file, capsys):
    # a Sym term from the index on is the limit ideal cut to its width
    rc = main(["verify", sym_file, "--check", "pd"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS pd_linearity")


@pytest.mark.parametrize("horizon,line", [(3, "NA   pd_linearity"), (4, "PASS pd_linearity")])
def test_verify_pd_short_window(tmp_path, capsys, horizon, line):
    # pd along <x1x2x3, x3^2> is 1, 3, 4, 5, 6, ...: the affine tail needs
    # the fifth point
    p = tmp_path / "short.chain"
    p.write_text("index 3\ngen x1*x2*x3\ngen x3^2\n")
    rc = main(["verify", str(p), "--check", "pd", "--horizon", str(horizon)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0].startswith(line)


@pytest.mark.parametrize("extra", [[], ["--saturation"]], ids=["plain", "saturation"])
def test_verify_pd_unit_chain_is_na(tmp_path, capsys, extra):
    p = tmp_path / "unit.chain"
    p.write_text("index 1\ngen 1\n")
    assert main(["verify", str(p), "--check", "pd", *extra]) == 0
    assert capsys.readouterr().out == "NA   pd_linearity (improper seed)\n"


@pytest.mark.parametrize("extra", [[], ["--saturation"]], ids=["plain", "saturation"])
def test_verify_unit_chain_prints_five_na_lines(tmp_path, capsys, extra):
    p = tmp_path / "unit.chain"
    p.write_text("index 1\ngen 1\n")
    assert main(["verify", str(p), *extra]) == 0
    assert capsys.readouterr().out == (
        "NA   pd_linearity (improper seed)\n"
        "NA   reg_slope (improper seed)\n"
        "NA   betti_propagation (improper seed)\n"
        "NA   msat_identities (improper seed)\n"
        "NA   colon_filtration (improper seed)\n"
    )


def _short_run(command, chainfile):
    return {
        "betti": ["betti", chainfile, "--n", "2"],
        "series": ["series", chainfile, "--metric", "pd", "--from", "1", "--to", "3"],
        "verify": ["verify", chainfile],
        "explore": ["explore", "--count", "1"],
    }[command]


@pytest.mark.parametrize("command", ["series", "explore"])
def test_jobs_option_rejected(squares_file, capsys, command):
    # widths run in order in one process: there is no worker count to set
    with pytest.raises(SystemExit) as e:
        main(_short_run(command, squares_file) + ["--jobs", "2"])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["series", "explore"])
@pytest.mark.parametrize("budget", ["nan", "inf", "-1", "0", "soon"])
def test_budget_not_a_positive_finite_number_rejected(squares_file, capsys, command, budget):
    with pytest.raises(SystemExit) as e:
        main(_short_run(command, squares_file) + ["--budget", budget])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["verify", "invariants"])
@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_horizon_below_one_rejected(squares_file, command, horizon):
    with pytest.raises(SystemExit) as e:
        main([command, squares_file, "--horizon", horizon])
    assert e.value.code == 2


EXPLORE_ARGV = ["explore", "--count", "2", "--index", "2", "--gens", "2",
                "--max-exponent", "2", "--max-degree", "3", "--seed", "11"]


def test_explore_negative_horizon_rejected_before_output(capsys):
    with pytest.raises(SystemExit) as e:
        main(EXPLORE_ARGV + ["--horizon", "-1"])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["betti", "series", "verify", "explore"])
@pytest.mark.parametrize("option", ["--gen-cap", "--lattice-cap"])
@pytest.mark.parametrize("cap", ["-1", "0"])
def test_caps_below_one_rejected_before_output(squares_file, capsys, command, option, cap):
    with pytest.raises(SystemExit) as e:
        main(_short_run(command, squares_file) + [option, cap])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "option, value",
    [("--index", "0"), ("--gens", "0"), ("--max-exponent", "0"), ("--max-degree", "-2"),
     ("--count", "-1")],
)
def test_explore_seed_parameters_rejected_before_output(capsys, option, value):
    with pytest.raises(SystemExit) as e:
        main(EXPLORE_ARGV + [option, value])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [["betti", "--n", "0"], ["betti", "--n", "2", "--msat", "0"],
     ["series", "--metric", "pd", "--from", "1", "--to", "3", "--msat", "0"],
     ["verify", "--msat", "0"], ["verify", "--m", "0"], ["verify", "--e", "-1"],
     ["verify", "--n", "0"], ["betti", "--n", "2", "--char", "4"],
     ["series", "--metric", "pd", "--from", "1", "--to", "3", "--char", "2147483648"],
     ["verify", "--char", "4"], ["invariants", "--char", "2147483648"]],
    ids=["betti_n", "betti_msat", "series_msat", "verify_msat", "verify_m", "verify_e",
         "verify_n", "betti_char_4", "series_char_2_31", "verify_char_4",
         "invariants_char_2_31"],
)
def test_numeric_options_out_of_range_rejected_before_output(squares_file, capsys, argv):
    with pytest.raises(SystemExit) as e:
        main([argv[0], squares_file, *argv[1:]])
    assert e.value.code == 2
    assert capsys.readouterr().out == ""


def test_explore_count_zero_prints_the_header_alone(capsys):
    assert main(EXPLORE_ARGV + ["--count", "0"]) == 0
    assert capsys.readouterr().out == EXPLORE_HEADER


def test_explore_horizon_zero_samples_one_width(capsys):
    assert main(EXPLORE_ARGV + ["--horizon", "0"]) == 0
    assert capsys.readouterr().out == (
        "seed,r,gens,w,lambda,q,pd_slope,pd_onset,reg_slope,reg_onset,status\n"
        "11,2,1,1,1,1,,,,,undetermined\n"
        "12,2,1,2,2,5,,,,,undetermined\n"
    )


EXPLORE_HEADER = "seed,r,gens,w,lambda,q,pd_slope,pd_onset,reg_slope,reg_onset,status\n"


@pytest.mark.parametrize(
    "extra, rows",
    [
        # seed 5, <x1^34>, needs a horizon past the cap of chain_invariants
        (
            ["--count", "6", "--seed", "0", "--index", "1", "--gens", "1",
             "--max-exponent", "40", "--max-degree", "40", "--horizon", "2"],
            "0,1,1,3,3,3,,,,,undetermined\n"
            "1,1,1,17,17,17,,,,,undetermined\n"
            "2,1,1,6,6,6,,,,,undetermined\n"
            "3,1,1,24,24,24,,,,,undetermined\n"
            "4,1,1,7,7,7,,,,,undetermined\n"
            "5,1,1,,,,,,,,partial\n",
        ),
        # the lattice cap truncates series with and without a fit; seed 6,
        # <x1 x2, x2^2 x3>, has depth 1, so its pd series passes the cap
        (
            ["--count", "4", "--seed", "3", "--horizon", "4", "--lattice-cap", "50"],
            "3,3,2,1,1,9,1,3,0,3,partial\n"
            "4,3,1,1,1,2,1,3,0,3,ok\n"
            "5,3,2,1,1,4,1,3,,,partial\n"
            "6,3,2,1,1,15,1,3,,,partial\n",
        ),
    ],
    ids=["horizon_cap", "lattice_cap"],
)
def test_explore_rows_pinned(capsys, extra, rows):
    assert main(["explore"] + extra) == 0
    assert capsys.readouterr().out == EXPLORE_HEADER + rows


def test_verify_check_list_is_not_kept_between_calls(mixed_file, capsys):
    assert main(["verify", mixed_file, "--check", "pd"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert main(["verify", mixed_file]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_betti_after_a_usage_error_matches_a_fresh_process(mixed_file, capsys):
    with pytest.raises(SystemExit) as e:
        main(["betti", mixed_file, "--n", "four"])
    assert e.value.code == 2
    capsys.readouterr()
    argv = ["betti", mixed_file, "--n", "4"]
    assert main(argv) == 0
    src = os.path.dirname(os.path.dirname(incideals.__file__))
    fresh = subprocess.run(
        [sys.executable, "-m", "incideals.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    assert capsys.readouterr().out == fresh.stdout


def test_verify_prints_the_first_failure_and_exits_1(squares_file, capsys, monkeypatch):
    def failing(chain, horizon, **kw):
        return CheckResult("pd_linearity", True, False, {"failures": [("term", 4), ("term", 5)]})

    monkeypatch.setattr(cli, "check_pd_linearity", failing)
    assert main(["verify", squares_file, "--check", "pd", "--check", "reg"]) == 1
    assert capsys.readouterr().out == "FAIL pd_linearity (('term', 4))\nPASS reg_slope\n"


def test_series_betti_total(tmp_path, capsys):
    p = tmp_path / "total.chain"
    p.write_text("index 3\ngen x1^2*x2\ngen x1*x3^2\n")
    assert main(["series", str(p), "--metric", "betti_total", "--from", "3", "--to", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[:6] == [
        "n,value", "3,3", "4,21", "5,73", "6,201", "# metric betti_total char 32003",
    ]


@pytest.mark.parametrize("metric", ["pd", "gens"])
def test_series_saturation_of_the_sym_chain(sym_file, capsys, metric):
    # a Sym chain is saturated by construction: its saturation has the same terms
    argv = ["series", sym_file, "--metric", metric, "--from", "3", "--to", "7"]
    assert main(argv + ["--saturation"]) == 0
    saturated = capsys.readouterr().out
    assert main(argv) == 0
    assert saturated == capsys.readouterr().out
    values = {"pd": [2, 3, 4, 5, 6], "gens": [7, 16, 30, 50, 77]}[metric]
    assert saturated.splitlines()[1:6] == [f"{n},{v}" for n, v in zip(range(3, 8), values)]


CHAIN_1014 = "index 3\ngen x2^2\ngen x1*x2*x3\n"


@pytest.mark.parametrize(
    "text, argv",
    [
        (CHAIN_1014, ["--saturation", "--from", "5", "--to", "40"]),
        (SYM, ["--from", "3", "--to", "40"]),
        # no walk below width 30 is alive: width 30 builds and certifies the
        # walks of its restrictions down to width 17, where the search fits
        (CHAIN_1014, ["--saturation", "--from", "30", "--to", "40"]),
    ],
    ids=["chain_1014_saturated", "sym_chain", "chain_1014_saturated_from_30"],
)
def test_series_pd_reaches_width_40(tmp_path, capsys, text, argv):
    # each width extends the socle witness of the width before; under the
    # default caps a search past 2^16 candidates gives up, and the lattice
    # passes the cap at width 18 (chain 1014) and 17 (the Sym chain)
    p = tmp_path / "wide.chain"
    p.write_text(text)
    lo, hi = int(argv[-3]), int(argv[-1])
    betti._walk.cache_clear()
    start = time.perf_counter()
    rc = main(["series", str(p), "--metric", "pd", *argv])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[1 : hi - lo + 2] == [f"{n},{n - 1}" for n in range(lo, hi + 1)]
    assert not any(line.startswith("# truncated") for line in out)
    if lo == 30:
        assert betti._walk.cache_info().misses == 24  # widths 17..40
    assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"


def test_invariants_window_cap_exits_before_the_window(tmp_path, capsys):
    # horizon 48: the window's terms would enumerate C(55, 4) = 341,055 images
    p = tmp_path / "long.chain"
    p.write_text("index 3\ngen x1^20*x2*x3\n")
    start = time.perf_counter()
    rc = main(["invariants", str(p)])
    assert time.perf_counter() - start < 1
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: invariants window images: 341055 exceeds cap {WINDOW_CAP}\n"
    )


def test_verify_keeps_the_lines_printed_before_a_cap(tmp_path, capsys):
    # the pd check passes; the reg check then sizes the invariants window of
    # the 2-saturation at 657,799 images
    p = tmp_path / "wide_sym.chain"
    p.write_text("index 5\nsymmetry sym\ngen x1*x2*x3*x4*x5\n")
    assert main(["verify", str(p), "--msat", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "PASS pd_linearity\n"
    assert captured.err == (
        f"error: invariants window images: 657799 exceeds cap {WINDOW_CAP}\n"
    )


def test_verify_pd_answers_where_the_table_passes_the_lattice_cap(tmp_path, capsys):
    # pd of every term of <x1 x2^2, x2^3> comes from a socle witness, with no
    # lattice built; the reg check needs the tables, whose lattices pass 50
    p = tmp_path / "power.chain"
    p.write_text(POWER)
    assert main(["verify", str(p), "--check", "pd", "--lattice-cap", "50"]) == 0
    assert capsys.readouterr().out == "PASS pd_linearity\n"
    assert main(["verify", str(p), "--check", "reg", "--lattice-cap", "50"]) == 3
    assert "lcm lattice size" in capsys.readouterr().err
