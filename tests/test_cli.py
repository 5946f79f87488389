import argparse
import contextlib
import functools
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heightlab.cli import cmd_dispatch
from heightlab.suite import pair_e1, pair_e3, random_normalized_pair
from heightlab.twisted_system import ValidationError, pair_from_json, pair_to_json, twisted_height

F = Fraction


@pytest.fixture
def e1_path(tmp_path):
    p = tmp_path / "e1.json"
    p.write_text(json.dumps(pair_to_json(pair_e1())))
    return str(p)


@pytest.fixture
def e3_path(tmp_path):
    p = tmp_path / "e3.json"
    p.write_text(json.dumps(pair_to_json(pair_e3())))
    return str(p)


@pytest.fixture
def sys_path(tmp_path):
    p = tmp_path / "sys.json"
    p.write_text(
        json.dumps(
            {
                "n": 2,
                "epsilon": "1",
                "places": [
                    {"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-3", "0"]}
                ],
            }
        )
    )
    return str(p)


def _run(args, out_path):
    code = cmd_dispatch(args + ["--out", str(out_path)])
    return code, out_path.read_text() if out_path.exists() else None


def test_validate_ok(e1_path, tmp_path):
    code, text = _run(["validate", e1_path], tmp_path / "r.json")
    assert code == 0
    data = json.loads(text)
    assert data["core_ok"] and data["normalized_ok"] and data["r"] == 2


def test_validate_dependent_forms_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"n": 2, "places": [{"place": "inf", "forms": [["1", "0"], ["2", "0"]], "exps": ["1", "-1"]}]}
        )
    )
    code, text = _run(["validate", str(bad)], tmp_path / "r.json")
    assert code == 2
    assert json.loads(text)["core_ok"] is False


def test_missing_file_exit_4(tmp_path):
    assert cmd_dispatch(["validate", str(tmp_path / "nope.json")]) == 4


def test_malformed_json_exit_4(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cmd_dispatch(["validate", str(p)]) == 4


def test_special_t_unsupported_exit_3(tmp_path):
    skew = tmp_path / "skew.json"
    skew.write_text(
        json.dumps(
            {"n": 2, "places": [{"place": "inf", "forms": [["1", "2"], ["0", "1"]], "exps": ["0", "0"]}]}
        )
    )
    assert cmd_dispatch(["special-t", str(skew)]) == 3


def test_filtration_report(e3_path, tmp_path):
    code, text = _run(["filtration", e3_path], tmp_path / "f.json")
    assert code == 0
    chain = json.loads(text)["chain"]
    assert [e["dim"] for e in chain] == [0, 1, 2, 3]
    assert [e["slope"] for e in chain] == [None, "1", "0", "-1"]
    assert chain[1]["basis"] == [["1", "0", "0"]]


def test_exceptional_and_weight(e1_path, tmp_path):
    code, text = _run(["exceptional", e1_path], tmp_path / "t.json")
    assert code == 0
    assert json.loads(text)["basis"] == [["1", "0"]]

    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"ambient": 2, "dim": 1, "basis": [["1", "0"]]}))
    code, text = _run(["weight", e1_path, str(sub)], tmp_path / "w.json")
    assert code == 0
    assert json.loads(text)["weight"] == "1"


def test_invariants_report(e1_path, tmp_path):
    code, text = _run(["invariants", e1_path], tmp_path / "i.json")
    assert code == 0
    data = json.loads(text)
    assert data["delta_L"]["factored"] == []
    assert data["H_L"]["factored"] == []
    assert data["r"] == 2
    assert data["alpha"] == "0"


def test_infima_report(e1_path, tmp_path):
    code, text = _run(["infima", e1_path, "--q", "100", "--box", "1"], tmp_path / "inf.json")
    assert code == 0
    data = json.loads(text)
    assert data["achievers"] == [[1, 0], [0, 1]]
    assert data["lambdas"][0]["factored"] == [[2, -2, 1], [5, -2, 1]]
    assert data["spans"][0]["basis"] == [["1", "0"]]


def test_minkowski_report(e1_path, tmp_path):
    code, text = _run(["minkowski", e1_path, "--q", "10", "--box", "2"], tmp_path / "m.json")
    assert code == 0
    data = json.loads(text)
    assert data["lower_ok"] and data["upper_ok"]
    assert data["product"]["factored"] == []


def test_slopes_csv(e1_path, tmp_path):
    out = tmp_path / "slopes.csv"
    code = cmd_dispatch(
        ["slopes", e1_path, "--qgrid", "10:1000:3", "--box", "4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "Q,i,log10_lambda,slope"
    assert len(lines) == 1 + 3 * 2


def test_gap_report(e1_path, tmp_path):
    code, text = _run(
        ["gap", e1_path, "--delta", "1", "--a", "4", "--box", "3"], tmp_path / "g.json"
    )
    assert code == 0
    data = json.loads(text)
    assert data["solutions"] == [[1, 0]]
    assert data["proper"] is True


@pytest.mark.parametrize("seed", [7, 8])
def test_minkowski_and_gap_at_n7_read_delta_l_alone(seed, tmp_path):
    # two places: up to 21 distinct forms and C(21, 7) = 116,280 maximal
    # minors, none of which minkowski or gap reads
    pair = random_normalized_pair(random.Random(seed), 7, places=2)
    path = tmp_path / "p7.json"
    path.write_text(json.dumps(pair_to_json(pair)))
    code, _ = _run(["minkowski", str(path), "--q", "10", "--box", "1"], tmp_path / "m.json")
    assert code == 0
    code, _ = _run(["gap", str(path), "--delta", "1", "--a", "7", "--box", "1"], tmp_path / "g.json")
    assert code == 0


def test_scan_and_reduce(sys_path, tmp_path):
    code, text = _run(["scan", sys_path, "--hmax", "5", "--box", "5"], tmp_path / "s.json")
    assert code == 0
    data = json.loads(text)
    assert data["T_prime"]["basis"] == [["0", "1"]]
    assert any(s["x"] == [0, 1] and s["in_T_prime"] for s in data["solutions"])

    code, text = _run(["reduce", sys_path], tmp_path / "r.json")
    assert code == 0
    data = json.loads(text)
    assert data["delta"] == "1/3" and data["q_exponent"] == "3/2"
    pair = pair_from_json(data["pair"])
    assert pair.place_data(pair.places()[0]).exps == (F(-1), F(1))


def test_bounds_command(tmp_path):
    code, text = _run(
        ["bounds", "--thm", "2.3", "--n", "2", "--R", "2", "--delta", "1", "--hl", "1"],
        tmp_path / "b.json",
    )
    assert code == 0
    data = json.loads(text)
    assert data["constants"]["m0"]["value"] == "2935618714"
    assert data["log_convention"] == "ln"

    assert cmd_dispatch(["bounds", "--thm", "2.3", "--n", "1", "--R", "2", "--delta", "1", "--hl", "1"]) == 2


def test_cover_command(tmp_path):
    code, text = _run(
        ["cover", "--omega", "9/5", "--delta", "1", "--q1", "100"], tmp_path / "c.json"
    )
    assert code == 0
    data = json.loads(text)
    assert data["s"] == 2
    assert len(data["endpoints_log10"]) == 3


def test_determinism_byte_identical(e1_path, e3_path, sys_path, tmp_path):
    jobs = [
        ["filtration", e3_path],
        ["infima", e1_path, "--q", "100", "--box", "2"],
        ["bounds", "--thm", "2.3", "--n", "3", "--R", "4", "--delta", "1/2", "--hl", "7/2"],
        ["scan", sys_path, "--hmax", "4", "--box", "4"],
        ["slopes", e1_path, "--qgrid", "10:100:2", "--box", "3"],
    ]
    for k, job in enumerate(jobs):
        a = tmp_path / f"a{k}.json"
        b = tmp_path / f"b{k}.json"
        assert cmd_dispatch(job + ["--out", str(a)]) == 0
        assert cmd_dispatch(job + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_seed_flag_is_refused(e1_path):
    # no command is random, so none takes a seed
    with pytest.raises(SystemExit) as exc:
        cmd_dispatch(["infima", e1_path, "--q", "10", "--box", "1", "--seed", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["filtration", "{e1}"],
        ["validate", "{e1}"],
        ["scan", "{sys}", "--hmax", "3"],
        ["reduce", "{sys}"],
        ["cover", "--omega", "2", "--delta", "1"],
    ],
)
def test_precision_flag_only_where_read(e1_path, sys_path, args):
    # only invariants, infima, minkowski, gap and bounds print digits that --precision sets
    argv = [a.format(e1=e1_path, sys=sys_path) for a in args]
    assert cmd_dispatch(argv) == 0
    with pytest.raises(SystemExit) as exc:
        cmd_dispatch(argv + ["--precision", "5"])
    assert exc.value.code == 2


def test_pair_round_trip_through_cli(e3_path, tmp_path):
    original = json.loads(open(e3_path).read())
    assert pair_to_json(pair_from_json(original)) == original


def _write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(p)


_GOOD_PLACE = {"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["1", "-1"]}


@pytest.mark.parametrize(
    "data",
    [
        {"n": 2},  # no places key
        {"n": 2, "places": [dict(_GOOD_PLACE, forms=[["x", "0"], ["0", "1"]])]},
        {"n": 2, "places": [dict(_GOOD_PLACE, place="4")]},
        [_GOOD_PLACE],  # a top-level array
        {"n": 2, "places": [dict(_GOOD_PLACE, exps=["1"])]},
        {"n": 2, "places": [dict(_GOOD_PLACE, forms=[["1", "0"]])]},
        {"n": "two", "places": [_GOOD_PLACE]},
        {"n": 2, "places": [dict(_GOOD_PLACE, exps=["1/0", "-1"])]},
        {"n": 2, "places": [{"place": "inf"}]},
        # read as another pair before: a place listed twice (the last entry won),
        # a float or bool n or place (truncated to an int), a bool as a rational
        {"n": 2, "places": [_GOOD_PLACE, _GOOD_PLACE]},
        {"n": 2, "places": [dict(_GOOD_PLACE, place=2), dict(_GOOD_PLACE, place="2")]},
        {"n": 2.9, "places": [_GOOD_PLACE]},
        {"n": True, "places": [{"place": "inf", "forms": [["1"]], "exps": ["0"]}]},
        {"n": 2, "places": [dict(_GOOD_PLACE, place=3.7)]},
        {"n": 2, "places": [dict(_GOOD_PLACE, forms=[[True, "0"], ["0", "1"]])]},
        {"n": 2, "places": [dict(_GOOD_PLACE, exps=[True, "-1"])]},
        # int() reads these as 2 and the prime 11, and Fraction "1_0" as 10 from Python 3.11 on
        {"n": " 0_2 ", "places": [_GOOD_PLACE]},
        {"n": "2 ", "places": [_GOOD_PLACE]},
        {"n": "\u0662", "places": [_GOOD_PLACE]},  # an Arabic-Indic digit two
        {"n": 2, "places": [dict(_GOOD_PLACE, place="1_1")]},
        {"n": 2, "places": [dict(_GOOD_PLACE, place=" 3")]},
        {"n": 2, "places": [dict(_GOOD_PLACE, forms=[["1_0", "0"], ["0", "1"]])]},
        {"n": 2, "places": [dict(_GOOD_PLACE, exps=["1", "-1e1_0"])]},
        # Fraction reads these as 1/2, 2, 3/4 and 1/2 ("1 / 2" from Python 3.12 on)
        {"n": 2, "places": [dict(_GOOD_PLACE, exps=[" 1/2", "-1/2"])]},
        {"n": 2, "places": [dict(_GOOD_PLACE, exps=["1 / 2", "-1/2"])]},
        {"n": 2, "places": [dict(_GOOD_PLACE, forms=[["\t2", "0"], ["0", "1"]])]},
        {"n": 2, "places": [dict(_GOOD_PLACE, exps=["\u0663/\u0664", "-3/4"])]},  # Arabic-Indic 3/4
        {"n": 2, "places": [dict(_GOOD_PLACE, exps=["0.5 ", "-1/2"])]},
    ],
)
def test_malformed_pair_exit_2(tmp_path, data):
    path = _write(tmp_path, "bad.json", data)
    for cmd in (["validate", path], ["infima", path, "--q", "10", "--box", "2"]):
        assert cmd_dispatch(cmd) == 2


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 100000,  # nested too deeply for json's decoder
        b'{"n": 2, "places": [{"place": "\xff"}]}',  # not UTF-8
    ],
)
def test_undecodable_file_exit_4(e1_path, tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for cmd in (["validate", str(path)], ["infima", str(path), "--q", "10"], ["weight", e1_path, str(path)]):
        assert cmd_dispatch(cmd) == 4
    err = capsys.readouterr().err
    assert err.count("heightlab: I/O error") == 3 and len(err.splitlines()) == 3


@pytest.mark.parametrize(
    "data",
    [
        {"n": 2, "places": [{"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-3", "0"]}]},
        {"n": 2, "epsilon": "1", "places": [{"place": "6", "forms": [["1", "0"], ["0", "1"]], "exps": ["-3", "0"]}]},
        {"n": 2, "epsilon": "1", "places": [{"place": "inf", "forms": [["1", "y"], ["0", "1"]], "exps": ["-3", "0"]}]},
        ["not", "a", "system"],
        # the checks of a system beyond its places: rank, sign and sum of the exponents, epsilon
        {"n": 2, "epsilon": "1", "places": [{"place": "inf", "forms": [["1", "2"], ["2", "4"]], "exps": ["-3", "0"]}]},
        {"n": 2, "epsilon": "1", "places": [{"place": "3", "forms": [["1", "2"], ["3", "6"]], "exps": ["-3", "0"]}]},
        {"n": 2, "epsilon": "1", "places": [{"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-4", "1"]}]},
        {"n": 2, "epsilon": "1", "places": [{"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-2", "0"]}]},
        {"n": 2, "epsilon": "0", "places": [{"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-2", "0"]}]},
        {"n": 2, "epsilon": "2", "places": [{"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-4", "0"]}]},
        {"n": 2, "epsilon": True, "places": [{"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-3", "0"]}]},
        {"n": 2, "epsilon": "1", "places": [{"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": [-3, False]}]},
        # whitespace and non-ASCII digits in rationals
        {"n": 2, "epsilon": " 1", "places": [{"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-3", "0"]}]},
        {"n": 2, "epsilon": "1", "places": [{"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-3", "0\n"]}]},
        {"n": 2, "epsilon": "\u0661", "places": [{"place": "inf", "forms": [["1", "0"], ["0", "1"]], "exps": ["-3", "0"]}]},
    ],
)
def test_malformed_system_exit_2(tmp_path, data, capsys):
    path = _write(tmp_path, "bad.json", data)
    assert cmd_dispatch(["reduce", path]) == 2
    assert cmd_dispatch(["scan", path, "--hmax", "3", "--box", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("validation failure") == 2 and "Traceback" not in err
    assert "exponent sum at" not in err  # a normalization of pairs, which a system need not meet


def test_integer_strings_still_read_as_n_and_places(tmp_path):
    data = {"n": "2", "places": [dict(_GOOD_PLACE, place="3"), dict(_GOOD_PLACE, place=5)]}
    assert cmd_dispatch(["validate", _write(tmp_path, "good.json", data)]) == 0
    ints = {"n": 2, "places": [dict(_GOOD_PLACE, place=3), dict(_GOOD_PLACE, place=5)]}
    assert pair_from_json(data) == pair_from_json(ints)
    signed = {"n": "+2", "places": [dict(_GOOD_PLACE, place="+3"), dict(_GOOD_PLACE, place="05")]}
    assert pair_from_json(signed) == pair_from_json(ints)


def test_underscores_refused_in_systems_and_flags(e1_path, tmp_path, capsys):
    system = {"n": 2, "epsilon": "1_0/1_0", "places": [dict(_GOOD_PLACE, exps=["-3", "0"])]}
    assert cmd_dispatch(["reduce", _write(tmp_path, "s.json", system)]) == 2
    assert cmd_dispatch(["infima", e1_path, "--q", "1_0", "--box", "2"]) == 2
    assert cmd_dispatch(["bounds", "--thm", "1.1", "--n", "2", "--delta", "1_0/2_0"]) == 2
    # whitespace and non-ASCII digits, in rational and integer flags alike
    for argv in (
        ["infima", e1_path, "--q", " 10", "--box", "2"],
        ["infima", e1_path, "--q", "\u0661\u0660", "--box", "2"],
        ["bounds", "--thm", "1.1", "--n", "2", "--delta", "1 / 2"],
        ["bounds", "--thm", "1.1", "--n", "\t2", "--delta", "1/2"],
        ["cover", "--omega", "2", "--delta", "1/2 "],
        ["infima", e1_path, "--q", "10", "--box", " 1_0"],
        ["infima", e1_path, "--q", "10", "--box", "2", "--precision", " 1_2"],
        ["gap", e1_path, "--delta", "1", "--a", "4", "--box", "\u0662"],
        ["slopes", e1_path, "--qgrid", "10:100: 2", "--box", "2"],
    ):
        assert cmd_dispatch(argv) == 2, argv
    err = capsys.readouterr().err
    assert err.count("validation failure") == 12 and "Traceback" not in err and "usage" not in err
    # decimals, exponents, signs and leading zeros still read
    assert cmd_dispatch(["cover", "--omega", "1e1", "--delta", "0.25"]) == 0
    assert cmd_dispatch(["bounds", "--thm", "1.1", "--n", "+2", "--delta", "05/10"]) == 0
    assert cmd_dispatch(["infima", e1_path, "--q", "10", "--box", "+02", "--precision", "05"]) == 0


def test_empty_box_exit_2(e1_path, sys_path):
    assert cmd_dispatch(["infima", e1_path, "--q", "10", "--box", "0"]) == 2
    assert cmd_dispatch(["slopes", e1_path, "--qgrid", "10:100:2", "--box", "0"]) == 2
    assert cmd_dispatch(["scan", sys_path, "--hmax", "3", "--box", "0"]) == 2


def test_box_over_budget_refused_before_enumerating(e1_path, sys_path):
    # (2*100000+1)^2 raw tuples is far over the cap; refusal must be immediate
    import time

    t0 = time.perf_counter()
    for cmd in (
        ["infima", e1_path, "--q", "10", "--box", "100000"],
        ["slopes", e1_path, "--qgrid", "10:100:2", "--box", "100000"],
        ["minkowski", e1_path, "--q", "10", "--box", "100000"],
        ["gap", e1_path, "--delta", "1", "--a", "4", "--box", "100000"],
        ["scan", sys_path, "--hmax", "1000000", "--box", "100000"],
    ):
        assert cmd_dispatch(cmd) == 2, cmd
    assert time.perf_counter() - t0 < 5


def test_box_at_the_cap_is_accepted(e1_path, sys_path, tmp_path):
    from heightlab.infima_lab import RAW_BOX_CAP, check_box

    b = 1
    while (2 * (b + 1) + 1) ** 2 <= RAW_BOX_CAP:
        b += 1
    check_box(2, b)  # the largest box within the cap passes
    with pytest.raises(ValidationError):
        check_box(2, b + 1)
    # a scan enumerates the box min(box, hmax): a large --box with a small --hmax is fine
    code, _ = _run(["scan", sys_path, "--hmax", "3", "--box", "100000"], tmp_path / "ok.json")
    assert code == 0


@pytest.mark.parametrize(
    "args",
    [
        ["infima", "{e1}", "--q", "x"],
        ["infima", "{e1}", "--q", "0"],
        ["infima", "{e1}", "--q", "1/0"],
        ["minkowski", "{e1}", "--q", "-3"],
        ["slopes", "{e1}", "--qgrid", "10:5:2"],
        ["slopes", "{e1}", "--qgrid", "10:100"],
        ["slopes", "{e1}", "--qgrid", "a:100:2"],
        ["gap", "{e1}", "--delta", "2", "--a", "4"],
        ["gap", "{e1}", "--delta", "1", "--a", "x"],
        ["gap", "{e1}", "--delta", "1", "--a", "1"],  # A < n^(1/delta)
        ["cover", "--omega", "x", "--delta", "1"],
        ["cover", "--omega", "2", "--delta", "0"],
        ["cover", "--omega", "2", "--delta", "1", "--q1", "1"],
        ["scan", "{sys}", "--hmax", "x"],
        ["bounds", "--thm", "2.3", "--n", "2", "--R", "x", "--delta", "1", "--hl", "1"],
        ["infima", "{e1}", "--q", "10", "--box", "2", "--precision", "-3"],
    ],
)
def test_bad_numeric_flag_exit_2(e1_path, sys_path, args):
    argv = [a.format(e1=e1_path, sys=sys_path) for a in args]
    assert cmd_dispatch(argv) == 2


@pytest.mark.parametrize(
    "data",
    [
        {"ambient": 3, "basis": [["1", "0", "0"]]},  # not the pair's n = 2
        {"ambient": 2},
        {"ambient": 2, "basis": [["1", "x"]]},
        {"ambient": 2, "basis": [["1"]]},
    ],
)
def test_bad_subspace_file_exit_2(e1_path, tmp_path, data):
    assert cmd_dispatch(["weight", e1_path, _write(tmp_path, "sub.json", data)]) == 2


def test_dimension_over_cap_refused_before_building_forms(tmp_path, monkeypatch):
    import heightlab.twisted_system as ts

    built = []
    monkeypatch.setattr(ts, "_identity_forms", lambda n: built.append(n))
    path = _write(tmp_path, "huge.json", {"n": 1000000000, "places": []})
    for cmd in (["validate", path], ["filtration", path], ["infima", path, "--q", "10"]):
        assert cmd_dispatch(cmd) == 2
    system = _write(tmp_path, "huge-sys.json", {"n": ts.DIM_CAP + 1, "epsilon": "1", "places": []})
    assert cmd_dispatch(["reduce", system]) == 2
    assert built == []


def test_dimension_at_cap_is_accepted(tmp_path):
    from heightlab.twisted_system import DIM_CAP

    code, text = _run(["validate", _write(tmp_path, "cap.json", {"n": DIM_CAP, "places": []})], tmp_path / "v.json")
    assert code == 0 and json.loads(text)["r"] == DIM_CAP


def test_qgrid_steps_over_cap_refused_before_building_the_grid(e1_path, tmp_path):
    import time

    from heightlab.cli import QGRID_STEPS_CAP

    t0 = time.perf_counter()
    assert cmd_dispatch(["slopes", e1_path, "--qgrid", "2:3:2000000", "--box", "2"]) == 2
    assert cmd_dispatch(["slopes", e1_path, "--qgrid", f"2:3:{QGRID_STEPS_CAP + 1}", "--box", "2"]) == 2
    assert time.perf_counter() - t0 < 1
    code, text = _run(["slopes", e1_path, "--qgrid", f"2:3:{QGRID_STEPS_CAP}", "--box", "2"], tmp_path / "s.json")
    assert code == 0 and json.loads(text)["qs"] == ["2", "3"]


def test_exponent_over_cap_refused_in_flags_and_files(e1_path, tmp_path):
    import time

    from heightlab.twisted_system import EXPONENT_CAP, parse_frac

    assert parse_frac(f"1e-{EXPONENT_CAP}") == F(1, 10**EXPONENT_CAP)
    assert parse_frac("25e-1") == F(5, 2)
    t0 = time.perf_counter()
    # the flag route
    assert cmd_dispatch(["bounds", "--thm", "1.3", "--n", "2", "--eps", "1e-100000"]) == 2
    assert cmd_dispatch(["infima", e1_path, "--q", f"1e{EXPONENT_CAP + 1}", "--box", "2"]) == 2
    assert cmd_dispatch(["slopes", e1_path, "--qgrid", "2e1000000:3e1000000:2", "--box", "2"]) == 2
    # the pair-file and system-file routes
    pair = {"n": 2, "places": [dict(_GOOD_PLACE, forms=[["1e1000000", "0"], ["0", "1"]])]}
    assert cmd_dispatch(["validate", _write(tmp_path, "p.json", pair)]) == 2
    system = {"n": 2, "epsilon": "1e-100000", "places": [dict(_GOOD_PLACE, exps=["-3", "0"])]}
    assert cmd_dispatch(["reduce", _write(tmp_path, "s.json", system)]) == 2
    assert time.perf_counter() - t0 < 1
    # a JSON number beyond the float range reads as infinity
    path = tmp_path / "inf.json"
    path.write_text('{"n": 2, "epsilon": 1e999, "places": []}')
    assert cmd_dispatch(["reduce", str(path)]) == 2


@pytest.mark.parametrize(
    "args",
    [
        # m' has about 8000 digits: more than Python writes out
        ["bounds", "--thm", "1.3", "--n", "2", "--eps", "1/1" + "0" * 4000],
        # the floor bracket of m' needs more than the evaluator's 20,000 digits
        ["bounds", "--thm", "1.3", "--n", "100000", "--eps", "1"],
        # Q0 = 1024^(10^4299) has an exponent of 4301 digits
        ["bounds", "--thm", "1.1", "--n", "1024", "--delta", "1/1" + "0" * 4299],
    ],
)
def test_uncertifiable_bounds_exit_5(args, capsys):
    assert cmd_dispatch(args) == 5
    assert "could not certify" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--thm", "1.2", "--n", "1000000000", "--delta", "1"],
        ["--thm", "1.3", "--n", "1000000000", "--eps", "1"],
        ["--thm", "2.3", "--n", "1000000000", "--delta", "1", "--R", "1000000000", "--hl", "1"],
    ],
)
def test_huge_floor_bracket_is_refused_before_building_endpoints(args, capsys):
    import time

    # the floored constants grow like 2^(cn): at n = 10^9 the binary exponents of
    # their interval endpoints are in the billions, so building them exactly has no bound
    start = time.perf_counter()
    assert cmd_dispatch(["bounds"] + args) == 5
    assert time.perf_counter() - start < 2
    assert "an interval endpoint needs more than 262144 bits" in capsys.readouterr().err


def test_constant_past_decimals_exponent_range_answers(capsys):
    # t of Corollary 3.1b at n = s = 10^9 is about 10^(1.9 10^19): a binary exponent
    # holds it, and its log10 is n s log10(9 n^2) + 10 + 2n log10 2 + 15 log10 n
    # + log10 ln 3 + log10 ln ln 3 = 1.89542425100414e+19
    args = ["bounds", "--thm", "3.1b", "--n", "1000000000", "--eps", "1", "--s", "1000000000"]
    assert cmd_dispatch(args) == 0
    assert json.loads(capsys.readouterr().out)["constants"]["t"]["log10"] == "1.895424251e+19"


def test_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit):
        cmd_dispatch(["--help"])
    out = capsys.readouterr().out
    for code in ("0  success", "2  validation failure", "3  unsupported system", "4  I/O error", "5  could not certify"):
        assert code in out


# -- Q past the float range -------------------------------------------------

HUGE = "1e400"


def test_infima_q_past_float_range_matches_twisted_height(e1_path, tmp_path):
    code, text = _run(["infima", e1_path, "--q", HUGE, "--box", "1"], tmp_path / "i.json")
    assert code == 0
    data = json.loads(text)
    pair = pair_e1()
    for x, lam in zip(data["achievers"], data["lambdas"]):
        assert lam["factored"] == twisted_height(pair, F(10**400), x).to_json()
    assert data["lambdas"][0]["log10"] == "-400"


def test_minkowski_q_past_float_range(e1_path, tmp_path):
    code, text = _run(["minkowski", e1_path, "--q", HUGE, "--box", "1"], tmp_path / "m.json")
    assert code == 0
    data = json.loads(text)
    assert data["lower_ok"] and data["product"]["factored"] == []


def test_gap_a_past_float_range(e1_path, tmp_path):
    code, text = _run(["gap", e1_path, "--delta", "1", "--a", HUGE, "--box", "2"], tmp_path / "g.json")
    assert code == 0
    assert json.loads(text)["solutions"] == [[1, 0]]


def test_slopes_qgrid_past_float_range_exit_2(e1_path, capsys):
    assert cmd_dispatch(["slopes", e1_path, "--qgrid", "1e400:1e401:2", "--box", "1"]) == 2
    assert cmd_dispatch(["slopes", e1_path, "--qgrid", "2:1e308:3", "--box", "1"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cover_q1_past_float_range(tmp_path):
    code, text = _run(["cover", "--omega", "2", "--delta", "1", "--q1", HUGE], tmp_path / "c.json")
    assert code == 0
    assert json.loads(text)["endpoints_log10"] == ["400.000000000000", "600.000000000000", "900.000000000000"]
    # (3/2)^s passes omega = 10^400 at s = 2272; the endpoints would overflow floats
    assert cmd_dispatch(["cover", "--omega", HUGE, "--delta", "1", "--q1", "10"]) == 2


def test_default_box_policy_past_float_range():
    from heightlab.infima_lab import default_box_policy

    policy = default_box_policy(pair_e1())
    cap = policy(F(10**300))
    assert policy(F(10**400)) == cap
    assert [policy(F(q)) for q in (1, 2, 10, 100)] == [1, 2, 10, 100]


def test_cover_count_over_cap_refused_quickly(capsys):
    import time

    start = time.perf_counter()
    assert cmd_dispatch(["cover", "--omega", "1e6", "--delta", "1e-4"]) == 2
    assert time.perf_counter() - start < 1
    assert "10000 intervals" in capsys.readouterr().err


# -- the flag tables, against the argparse parser they replaced ------------------


@functools.cache
def _oracle():
    """The argparse parser the CLI read its flags with before its flag tables, and
    by subcommand the checks it then made on a flag's last string (cmd_dispatch on
    --precision and --box, each subcommand on its rationals).  A flag keeps its own
    name (--dd as dd, --hl as hl)."""
    from heightlab import cli
    from heightlab.places_heights import parse_int
    from heightlab.twisted_system import parse_frac

    def checked(parse, ok=lambda x: True):
        def check(text):
            try:
                x = parse(text)
            except (ValueError, TypeError, ZeroDivisionError):
                raise ValidationError(text) from None
            if not ok(x):
                raise ValidationError(text)
            return x

        return check

    required = {"required": True}
    at_least_one = (checked(parse_frac, lambda x: x >= 1), required)
    unit = (checked(parse_frac, lambda x: 0 < x <= 1), required)
    over_one = checked(parse_frac, lambda x: x > 1)
    box = (checked(parse_int), {"default": None})
    ten = (checked(parse_int), {"default": 10})
    parser = argparse.ArgumentParser(prog="heightlab")
    sub = parser.add_subparsers(dest="command", required=True)
    checks = {}

    def add(name, *positionals, precision=False, **flags):
        p = sub.add_parser(name)
        for positional in positionals:
            p.add_argument(positional)
        if precision:
            flags["precision"] = (checked(parse_int, lambda p: 1 <= p <= cli.MAX_PRECISION), {"default": 12})
        flags["out"] = (None, {"default": None})
        for flag, (_, kw) in flags.items():
            p.add_argument(f"--{flag}", **kw)
        p.set_defaults(func=getattr(cli, "_cmd_" + name.replace("-", "_")))
        checks[name] = {flag: check for flag, (check, _) in flags.items() if check}

    add("validate", "pair")
    add("invariants", "pair", precision=True)
    add("weight", "pair", "subspace")
    add("filtration", "pair")
    add("exceptional", "pair")
    add("special-t", "pair")
    add("infima", "pair", precision=True, q=at_least_one, box=box)
    add("slopes", "pair", qgrid=(lambda spec: cli._parse_qgrid(spec, "qgrid"), required), box=box)
    add("minkowski", "pair", precision=True, q=at_least_one, box=box)
    add("gap", "pair", precision=True, delta=unit, a=at_least_one, box=ten)
    add("scan", "system", hmax=at_least_one, box=ten)
    theorem = {flag: (None, {}) for flag in ("n", "delta", "eps", "R")}
    theorem |= {flag: (None, {"default": "1"}) for flag in ("D", "dd", "s", "hl", "hstar")}
    add("bounds", precision=True, thm=(None, required), **theorem)
    add("reduce", "system")
    add("cover", omega=(over_one, required), delta=unit, q1=(over_one, {"default": None}))
    return parser, checks


def _parsed(argv):
    """(function, values) that the flag tables read from argv, and the same from the
    oracle; a side's exit code instead where it exits, 2 for a refused value."""
    from heightlab.cli import _read_argv

    def oracle(argv):
        parser, checks = _oracle()
        values = vars(parser.parse_args(argv))
        command, func = values.pop("command"), values.pop("func")
        for flag, check in checks[command].items():
            if values[flag] is not None:
                values[flag] = check(values[flag])
        return func, values

    outcomes = []
    for read in (_read_argv, oracle):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                outcomes.append(read(list(argv)))
            except SystemExit as exc:
                outcomes.append(exc.code)
            except ValidationError:
                outcomes.append(2)
    return outcomes


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["nope"],
        ["bounds", "-h"],
        ["bounds", "--n", "3"],  # --thm is required
        ["bounds", "--thm", "1.1", "--n", "6", "--delta", "1/2", "--bogus", "x"],
        ["bounds", "--thm", "1.1", "--n", "6", "--delta", "1/2", "--precision", "twelve"],
        ["bounds", "--th", "1.1", "--n", "6", "--del", "1/2", "--prec", "20"],  # abbreviated flags
        ["validate", "a.json", "b.json"],
    ],
)
def test_dispatch_parses_as_the_top_parser(argv):
    # the same values, defaults included, or the same exit code
    ours, oracle = _parsed(argv)
    assert ours == oracle


# values of every reader's kind, good and bad; those starting with "-" are
# values ("-", a negative number, a string with a space) or flags ("-1/2")
_FLAG_VALUES = ["10", "1", "1/2", "2:10:3", "0", "x", "", "-", "-3", "-.5", "-1/2", "-1e5", "-x y", "1e400", "1_0"]


@st.composite
def _argv(draw):
    """A subcommand's argv from its flag table: too few or too many positionals;
    flags in full or by a prefix (perhaps an ambiguous one), as "--flag value" or
    "--flag=value", repeated or with their value missing; in any order."""
    from heightlab.cli import _COMMANDS

    command = draw(st.sampled_from(sorted(_COMMANDS)))
    _, positionals, flags = _COMMANDS[command]
    n = len(positionals)
    groups = [[f"file{k}.json"] for k in range(draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 0)])))]
    for flag in flags:
        for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
            name = "--" + flag[: draw(st.integers(1, len(flag)) | st.just(len(flag)))]
            value = draw(st.sampled_from(["10", "1", "2:10:3"]) | st.sampled_from(_FLAG_VALUES))
            form = draw(st.sampled_from(["space", "space", "space", "equals", "equals", "missing"]))
            groups.append([name, value] if form == "space" else [f"{name}={value}"] if form == "equals" else [name])
    return [command] + [arg for group in draw(st.permutations(groups)) for arg in group]


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(_argv())
def test_flag_tables_read_argv_as_argparse_did(argv):
    ours, oracle = _parsed(argv)
    assert ours == oracle, argv


def test_flag_forms_and_help(e1_path, capsys):
    assert cmd_dispatch(["invariants", e1_path, "--prec", "5"]) == 0
    assert cmd_dispatch(["invariants", e1_path, "--precision=5"]) == 0
    assert cmd_dispatch(["infima", e1_path, "--q=-3"]) == 2  # a value, out of range
    assert cmd_dispatch(["infima", e1_path, "--q", "0", "--q", "10", "--box", "1"]) == 0  # the last --q counts
    capsys.readouterr()
    for argv in (
        ["bounds", "--thm", "1.1", "--n", "3", "--d", "1/2"],  # --delta or --dd
        ["infima", e1_path, "--q", "--box", "2"],  # --q without its value
        ["infima", e1_path, "--box", "2"],  # no --q
        ["infima", "--q", "10"],  # no pair
        ["weight", e1_path],
    ):
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: heightlab {argv[0]} [-h]")
    for argv in (["infima", "--help"], ["bounds", "-h"], ["scan", "--he"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            cmd_dispatch(argv)
        assert exc.value.code == 0
        assert "0  success" in capsys.readouterr().out


def test_flags_are_read_before_files(tmp_path, capsys):
    # a bad --q is refused before the missing pair file is opened
    assert cmd_dispatch(["infima", str(tmp_path / "missing.json"), "--q", "0"]) == 2
    assert cmd_dispatch(["infima", str(tmp_path / "missing.json"), "--q", "10"]) == 4
    assert "--q must be >= 1" in capsys.readouterr().err


def test_printed_log10s_match_the_interval_route():
    # report log10s (FactoredReal.log10) and bound-table log10s come from the
    # fixed-point kernel; they print as the enclosure of iv_ln / ln 10 did
    import random

    from heightlab import bounds_reduction
    from heightlab.cli import _factored_json
    from heightlab.exact_reals import FactoredReal, enclose, g_str, iv_ln

    rng = random.Random(17)
    primes = [2, 3, 5, 7, 11, 13, 101, 65537, 999983]
    for precision in range(1, 101):
        values = [
            FactoredReal({p: F(rng.randint(-99, 99) or 1, rng.randint(1, 12)) for p in rng.sample(primes, 3)}),
            FactoredReal({p: F(rng.randint(1, 10**40), rng.randint(1, 10**30)) for p in rng.sample(primes, 2)}),
            FactoredReal({2: 1054, 3: -665}),  # near 1: 665/1054 is a convergent of log 2 / log 3
        ]
        for x in values:
            target = F(1, 10**precision)

            def done(lo, hi, one):
                least = min(abs(lo), abs(hi), one) if lo * hi > 0 else 0
                return F(hi - lo, 2) <= target * least

            def build(iv):
                return iv_ln(iv, x) / iv.log(10)

            lo, hi, one = enclose(build, done, precision + 15)
            assert _factored_json(x, precision)["log10"] == g_str(lo + hi, 2 * one, precision)
            table = bounds_reduction._entry_factored(x, precision)["log10"]
            assert table == bounds_reduction._certified_decimal(enclose, build, precision)


def test_help_names_the_factoring_refusal(capsys):
    with pytest.raises(SystemExit):
        cmd_dispatch(["--help"])
    assert "factored into certified primes" in capsys.readouterr().out


# -- exact comparisons and pair exponents past the float range ---------------

_TINY = F(1, 10**400)


def _system(tmp_path, forms, exps):
    return _write(
        tmp_path,
        "s.json",
        {"n": 2, "epsilon": "1", "places": [{"place": "inf", "forms": forms, "exps": [str(e) for e in exps]}]},
    )


def test_scan_with_400_digit_exponent_denominators_is_bounded(tmp_path, capsys):
    import time

    # exponents -3/2 +- 10^-400: the N-th powers of the exact test would have 10^400 bits
    path = _system(tmp_path, [["2", "0"], ["0", "1"]], [F(-3, 2) + _TINY, F(-3, 2) - _TINY])
    start = time.perf_counter()
    assert cmd_dispatch(["scan", path, "--hmax", "10", "--box", "10", "--out", str(tmp_path / "o.json")]) in (0, 5)
    # x = (1, 4) ties |2 x_1| <= 2^(1/2) 4^(1/4 + 10^-400) within the float tolerance, on the
    # two base pairs (2, 1) and (4, 1), which no merge of equal pairs cancels; but
    # |x_2| = 4 > 2^(1/2) 4^(-5/4 - 10^-400) = 1/4 fails by far, so x is rejected
    # by its integer bound before the tie is reached
    path = _system(tmp_path, [["2", "0"], ["0", "1"]], [F(-3, 4) + _TINY, F(-9, 4) - _TINY])
    assert cmd_dispatch(["scan", path, "--hmax", "10", "--box", "5", "--out", str(tmp_path / "o.json")]) == 0
    # x = (4, 1) ties |x_1 - 3 x_2| = 1 <= 8^(1/2) 4^(-3/4 + 10^-400), on the base pairs
    # (8, 1) and (4, 1), and passes |-7 x_1 + 29 x_2| = 1 < 8^(1/2) 4^(-1/4 - 10^-400) = 2
    path = _system(tmp_path, [["1", "-3"], ["-7", "29"]], [F(-7, 4) + _TINY, F(-5, 4) - _TINY])
    assert cmd_dispatch(["scan", path, "--hmax", "10", "--box", "5"]) == 5
    assert time.perf_counter() - start < 2
    assert "more than 262144 bits" in capsys.readouterr().err


def test_scan_tie_on_one_base_pair_is_settled(tmp_path, capsys):
    import time

    # x = (1, 3) ties |3 x_1| <= 3^(1/2) 3^(1/2 + 10^-400) within the float tolerance; the
    # terms all share the base pair (3, 1), and merged their exponents sum to -2
    path = _system(tmp_path, [["3", "0"], ["0", "1"]], [F(-1, 2) + _TINY, F(-5, 2) - _TINY])
    start = time.perf_counter()
    assert cmd_dispatch(["scan", path, "--hmax", "10", "--box", "10", "--out", str(tmp_path / "o.json")]) == 0
    assert time.perf_counter() - start < 2
    assert "Traceback" not in capsys.readouterr().err


def _pair_with_exps(tmp_path, exps):
    return _write(tmp_path, "p.json", {"n": 2, "places": [dict(_GOOD_PLACE, exps=exps)]})


def test_report_log10_past_float_range_exit_5(tmp_path, capsys):
    import time

    # the infima are Q^(+-10^306) at Q = 10^4000: their log10, 4 * 10^309, is past the float range
    path = _pair_with_exps(tmp_path, ["1e306", "-1e306"])
    start = time.perf_counter()
    assert cmd_dispatch(["infima", path, "--q", "1e4000", "--box", "2"]) == 5
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert "too many digits to print" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["infima", "--q", "10"],
        ["infima", "--q", "10", "--box", "1"],
        ["slopes", "--qgrid", "2:10:3"],
        ["slopes", "--qgrid", "2:10:3", "--box", "2"],
        ["minkowski", "--q", "10"],
        ["minkowski", "--q", "10", "--box", "2"],
    ],
)
def test_pair_exponents_past_float_range_exit_2(tmp_path, capsys, args):
    path = _pair_with_exps(tmp_path, ["1e400", "-1e400"])
    assert cmd_dispatch(args[:1] + [path] + args[1:]) == 2
    assert "within the float range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["infima", "--q", "10"],
        ["infima", "--q", "10", "--box", "2"],
        ["slopes", "--qgrid", "2:10:3"],
        ["minkowski", "--q", "10"],
        ["gap", "--delta", "1", "--a", "10", "--box", "2"],
    ],
)
def test_pair_exponents_below_float_resolution(tmp_path, args):
    import time

    path = _pair_with_exps(tmp_path, ["1e-400", "-1e-400"])
    start = time.perf_counter()
    code, text = _run(args[:1] + [path] + args[1:], tmp_path / "o.json")
    assert code in (0, 5)
    assert time.perf_counter() - start < 2
    if code == 0 and args[0] == "infima":
        pair = pair_from_json(json.loads((tmp_path / "p.json").read_text()))
        data = json.loads(text)
        for x, lam in zip(data["achievers"], data["lambdas"]):
            assert lam["factored"] == twisted_height(pair, 10, x).to_json()


@pytest.mark.parametrize(
    "args",
    [
        # inputs that ended in a traceback: R and the heights were not range-checked
        ["--thm", "3.1", "--n", "2", "--eps", "1/2", "--R", "0", "--D", "1"],
        ["--thm", "3.1", "--n", "2", "--eps", "1/2", "--R", "-5", "--D", "1"],
        ["--thm", "2.1", "--n", "2", "--delta", "1", "--R", "2", "--hl", "0"],
        ["--thm", "2.1", "--n", "2", "--delta", "1", "--R", "2", "--hl", "-2"],
        ["--thm", "3.1", "--n", "2", "--eps", "1", "--R", "2", "--hstar", "-3"],
        # inputs that were replaced by 1 or accepted below their range
        ["--thm", "2.2", "--n", "2", "--delta", "1", "--R", "2", "--dd", "0"],
        ["--thm", "3.1b", "--n", "2", "--eps", "1", "--s", "0"],
        ["--thm", "2.1", "--n", "2", "--delta", "1", "--R", "2", "--hl", "3/4"],
        ["--thm", "2.2", "--n", "2", "--delta", "1", "--R", "2", "--hl", "3/4"],
        ["--thm", "2.3", "--n", "2", "--delta", "1", "--R", "2", "--hl", "3/4"],
        ["--thm", "8.1", "--n", "2", "--delta", "1", "--R", "2", "--hl", "3/4"],
        ["--thm", "3.1", "--n", "2", "--eps", "1", "--R", "1"],
        ["--thm", "3.2", "--n", "2", "--eps", "1", "--R", "1"],
        # a non-integer n
        ["--thm", "1.1", "--n", "5/2", "--delta", "1"],
    ],
)
def test_bounds_parameter_out_of_range_exit_2(args, capsys):
    assert cmd_dispatch(["bounds"] + args) == 2
    err = capsys.readouterr().err
    assert "validation failure" in err and "Traceback" not in err


def test_bounds_flag_defaults_are_one(tmp_path):
    code, text = _run(["bounds", "--thm", "3.1b", "--n", "2", "--eps", "1"], tmp_path / "b.json")
    assert code == 0
    assert json.loads(text)["inputs"] == {"n": "2", "eps": "1", "D": "1", "s": "1"}


def test_report_log10_digits_are_exact_past_float_precision(tmp_path):
    # log10 7 = 0.84509804001425683071221625859263...
    path = _pair_with_exps(tmp_path, ["1", "-1"])
    code, text = _run(["infima", path, "--q", "7", "--box", "1", "--precision", "30"], tmp_path / "i.json")
    assert code == 0
    logs = [lam["log10"] for lam in json.loads(text)["lambdas"]]
    assert "0.845098040014256830712216258593" in logs


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 25))
def test_g_str_lays_out_as_percent_g(x, sig):
    from heightlab.exact_reals import g_str

    assume(x != 0 or math.copysign(1, x) > 0)  # a Fraction has no -0
    q = Fraction(x)
    assert g_str(q.numerator, q.denominator, sig) == f"{x:.{sig}g}"


def test_factored_log10_asks_for_digits_below_the_last_place():
    from heightlab.cli import _factored_json
    from heightlab.exact_reals import FactoredReal

    # log10 2^(10^-30) = 3.0102999566398119521373889...e-31
    x = FactoredReal.prime_power(2, Fraction(1, 10**30))
    assert _factored_json(x, 20)["log10"] == "3.0102999566398119521e-31"
    assert _factored_json(FactoredReal.from_rational(Fraction(1, 100000)), 12)["log10"] == "-5"


# -- the package never loads mpmath -------------------------------------------


def _fresh_interpreter(runs, tmp_path) -> tuple[list[int], bool]:
    """(exit codes, whether mpmath was imported) of `runs` through cli.main in a new interpreter."""
    import os
    import subprocess
    import sys

    import heightlab

    script = (
        "import json, sys\n"
        "from heightlab.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'mpmath' in sys.modules]))\n"
    )
    runs = [argv + ["--out", str(tmp_path / f"out{k}.txt")] for k, argv in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(heightlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    return codes, loaded


def test_searches_and_invariants_never_import_mpmath(e1_path, tmp_path):
    import random

    from heightlab.suite import multi_place_pair, random_pair

    paths = {}
    for name, pair in (("r3", random_pair(random.Random(3), 3)), ("mp", multi_place_pair())):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(pair_to_json(pair)))
    runs = [
        ["infima", paths["r3"], "--q", "7", "--box", "4"],
        ["infima", paths["mp"], "--q", "7", "--box", "3"],
        ["infima", e1_path, "--q", "1e400", "--box", "3"],
        ["slopes", paths["r3"], "--qgrid", "10:1000:3", "--box", "3"],
        ["minkowski", paths["r3"], "--q", "100", "--box", "4"],
        ["invariants", paths["r3"]],
    ]
    assert _fresh_interpreter(runs, tmp_path) == ([0] * len(runs), False)


def _bin_system(tmp_path, eps: Fraction) -> str:
    """The n = 3 system at infinity whose solutions at heights 1 and 2 fall
    in histogram bins 0 and about ln(2) (6/eps), as a file."""
    forms = [["-1", "0", "-2"], ["-2", "-1", "1"], ["-1", "0", "1"]]
    exps = [str(-(3 + eps) / 2), str(-(3 + eps) / 4), str(-(3 + eps) / 4)]
    path = tmp_path / f"bin{eps.denominator}.json"
    place = {"place": "inf", "forms": forms, "exps": exps}
    path.write_text(json.dumps({"n": 3, "epsilon": str(eps), "places": [place]}))
    return str(path)


def test_certified_values_never_import_mpmath(tmp_path):
    # every theorem, a cover with its endpoints and a scan with a solution of
    # height 2 (a histogram bin of 415890)
    from heightlab.bounds_reduction import THEOREMS

    flags = {
        "n": ("--n", "3"), "delta": ("--delta", "1/2"), "eps": ("--eps", "2/3"), "R": ("--R", "5"), "D": ("--D", "2"),
        "H_L": ("--hl", "7/2"), "H_star": ("--hstar", "9/4"), "d": ("--dd", "2"), "s": ("--s", "2"),
    }
    runs = [["bounds", "--thm", thm, *(x for k in names for x in flags[k])] for thm, (names, _) in THEOREMS.items()]
    runs.append(["cover", "--omega", "1000", "--delta", "1/3", "--q1", "7"])
    runs.append(["scan", _bin_system(tmp_path, Fraction(1, 10**5)), "--hmax", "5", "--box", "5"])
    assert _fresh_interpreter(runs, tmp_path) == ([0] * len(runs), False)
    # at eps = 10^-30 the bin, about 4 10^30, has more digits than its first enclosure, and the digits double
    escalating = ["scan", _bin_system(tmp_path, Fraction(1, 10**30)), "--hmax", "5", "--box", "5"]
    assert _fresh_interpreter([escalating], tmp_path) == ([0], False)


def test_near_one_bin_ratio_takes_one_ln(tmp_path, monkeypatch):
    # the ln of the histogram ratio, about 1 + eps/6 at eps = 10^-30, is one ln of the exact
    # ratio, not ln num - ln den, which cancel 30 digits: the bin's enclosures run at 30 and 60 digits
    from heightlab import exact_reals

    seen = []

    class Counting(exact_reals._BinaryIV):
        def __init__(self, dps):
            seen.append(dps)
            super().__init__(dps)

    monkeypatch.setattr(exact_reals, "_BinaryIV", Counting)
    argv = ["scan", _bin_system(tmp_path, Fraction(1, 10**30)), "--hmax", "5", "--box", "5"]
    assert cmd_dispatch(argv + ["--out", str(tmp_path / "bin30-out.json")]) == 0
    assert seen == [30, 60]


def test_slowest_refusal_is_bounded(tmp_path):
    # the floor bracket of m' doubles its digits from 30 to 15,360 before it is refused
    import time

    start = time.perf_counter()
    assert _fresh_interpreter([["bounds", "--thm", "1.3", "--n", "100000", "--eps", "1"]], tmp_path) == ([5], False)
    assert time.perf_counter() - start < 10


# -- the report writer ------------------------------------------------------------

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),  # past 2**64
    st.floats(),  # nan, +-inf and -0.0 among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324]),
    st.text(),  # escapes, control and non-ASCII characters, surrogates
    st.sampled_from(["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é \ud800", "\U0001f600"]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(_json_values)
def test_report_writer_matches_json_dumps(obj):
    from heightlab.cli import _write_json

    parts = []
    _write_json(obj, "\n", parts.append)
    assert "".join(parts) == json.dumps(obj, sort_keys=True, indent=2)


@given(st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none()), st.integers(), max_size=1))
def test_report_writer_writes_keys_as_json_dumps(obj):
    # keys that are not strings are written as their values are; one key a dict, as mixed keys do not sort
    from heightlab.cli import _write_json

    parts = []
    _write_json(obj, "\n", parts.append)
    assert "".join(parts) == json.dumps(obj, sort_keys=True, indent=2)


def test_report_writer_refuses_what_json_dumps_refuses():
    from heightlab.cli import _write_json

    for obj in ({(1, 2): 3}, [object()], {"a": {1, 2}}, F(1, 2)):
        with pytest.raises(TypeError) as mine:
            _write_json(obj, "\n", [].append)
        with pytest.raises(TypeError) as ref:
            json.dumps(obj, sort_keys=True, indent=2)
        assert str(mine.value) == str(ref.value)


# -- rational strings ----------------------------------------------------------------


@given(st.from_regex(r"\A[+-]?[0-9]{1,40}(/[0-9]{1,40})?\Z").filter(str.isascii))
def test_parse_frac_integer_strings_match_fraction(s):
    from heightlab.twisted_system import parse_frac

    try:
        expected = Fraction(s)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            parse_frac(s)
        return
    got = parse_frac(s)
    assert type(got) is Fraction and got == expected


def test_parse_frac_grammar():
    from heightlab.twisted_system import parse_frac

    with pytest.raises(ZeroDivisionError):
        parse_frac("1/0")
    assert parse_frac("-0/7") == 0 and parse_frac("+05/010") == F(1, 2)
    assert parse_frac("0.25") == F(1, 4) and parse_frac("1e-3") == F(1, 1000) and parse_frac(".5") == F(1, 2)
    for s in (" 1/2", "1 / 2", "\t2", "2\n", "٣/٤", "²", "1/٢", "1/-2", "1/+2", "", "+", "1/", "/2", "1_0"):
        with pytest.raises(ValueError):
            parse_frac(s)


def test_parse_frac_reads_a_repeat_as_the_first_time():
    """Strings read by int alone are kept by the reader; a repeat, a refusal included, has the first read's outcome."""
    from heightlab.twisted_system import parse_frac

    for s in ("-0/7", "+05/010", "1/2", "3", "0.25", "1e-3", "1/0", " 1/2", "1_0", "٣/٤", "1/-2"):
        outcomes = []
        for _ in range(2):
            try:
                x = parse_frac(s)
                outcomes.append((type(x), x))
            except (ValueError, ZeroDivisionError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], s
