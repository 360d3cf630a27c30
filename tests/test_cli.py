"""Command line behavior: JSON shapes, determinism, exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weyldeform import cli, clear_caches
from weyldeform.cli import main
from weyldeform.weyl import _counting


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_ext_golden(capsys):
    code, data = run_json(capsys, "ext")
    assert code == 0
    assert data == {
        "ext1": [[0, 1], [1, 0]],
        "ext2": [[0, 0], [0, 0]],
        "stabilized_at": data["stabilized_at"],
    }
    assert data["stabilized_at"] <= 6


def test_output_byte_identical(capsys):
    _, first = run_cli(capsys, "ext")
    _, second = run_cli(capsys, "ext")
    assert first == second
    _, c1 = run_cli(capsys, "classify", "2")
    _, c2 = run_cli(capsys, "classify", "2")
    assert c1 == c2
    # the parser is built once per process: no --param may leak between calls
    code, _ = run_json(capsys, "specialize", "T_2_6", "--param", "a=2")
    assert code == 0
    code, data = run_json(capsys, "specialize", "T_2_6")
    assert code == 1
    assert "parameter" in data["error"]


def test_classify_two(capsys):
    code, data = run_json(capsys, "classify", "2")
    assert code == 0
    assert data["n"] == 2
    assert data["exact"] is True
    assert data["discrete"] == 5
    assert data["parametric"] == 1
    assert len(data["families"]) == 6
    labels = [f["label"] for f in data["families"]]
    assert labels == ["T_2_1", "T_2_2", "T_2_3", "T_2_4", "T_2_5", "T_2_6"]
    t26 = data["families"][-1]
    assert t26["parameter"] == "a"
    assert t26["simple"] is True
    assert t26["matrices"]["e1"] == [["1", "0"], ["0", "0"]]
    assert t26["matrices"]["s12"] == [["0", "1"], ["0", "0"]]


def test_classify_param_override(capsys):
    code, data = run_json(capsys, "classify", "2", "--param", "a=1/3")
    assert code == 0
    t26 = data["families"][-1]
    assert t26["sample"] == "1/3"
    assert t26["matrices"]["s21"] == [["0", "0"], ["1/3", "0"]]


def test_iso_found_and_not_found(capsys):
    code, data = run_json(capsys, "iso", "t*d - 1/2", "t*d - 3/2")
    assert code == 0
    assert data["found"] is True
    assert data["r"] == [["d"]]
    assert data["s"] == [["2/3*t"]]

    code, data = run_json(capsys, "iso", "d", "t")
    assert code == 2
    assert data == {
        "found": False,
        "max_degree": 8,
        "message": "no witness up to degree 8",
    }

    # t^6 * g lies past the degree-0 window: a bounded negative, not an error
    presented = '{"type":"presented","delta":[["d","-1"],["-1","t"]]}'
    code, data = run_json(capsys, "iso", "t^6", presented, "--max-degree", "0")
    assert code == 2
    assert data["message"] == "no witness up to degree 0"


def test_iso_accepts_module_json(capsys):
    presented = json.dumps(
        {"type": "presented", "n": 2, "delta": [["d", "-1"], ["-1", "t"]]}
    )
    cyclic = json.dumps({"type": "cyclic", "p": "t*d - 1"})
    code, data = run_json(capsys, "iso", cyclic, presented)
    assert code == 0
    assert data["found"] is True

    # the a = -2 specialization, reached only through its cyclic form
    presented = json.dumps({"type": "presented", "delta": [["d", "2"], ["-1", "t"]]})
    code, data = run_json(capsys, "iso", "t*d + 1", presented)
    assert code == 0
    assert data["found"] is True
    assert data["target"]["type"] == "presented"


def test_hom_output(capsys):
    code, data = run_json(capsys, "hom", "d", "d")
    assert code == 0
    assert data["dim"] == 1
    assert data["basis"] == ["1"]
    assert data["stabilized_at"] == 0
    assert data["dims"] == [1] * 9

    code, data = run_json(capsys, "hom", "d", "t")
    assert code == 0
    assert data["dim"] == 0


def test_specialize_label_with_param(capsys):
    code, data = run_json(capsys, "specialize", "T_2_6", "--param", "a=1/2")
    assert code == 0
    assert data["identified"] is True
    assert data["target"] == {"type": "cyclic", "p": "t*d - 1/2"}
    assert data["shift"] == 0
    assert data["presentation"]["delta"] == [["d", "-1/2"], ["-1", "t"]]
    assert data["witness"]["max_degree"] == 8


def test_specialize_inline_json(capsys):
    rep = json.dumps({
        "n": 2,
        "e1": [["1", "0"], ["0", "0"]],
        "s12": [["0", "1"], ["0", "0"]],
        "s21": [["0", "0"], ["-1", "0"]],
    })
    code, data = run_json(capsys, "specialize", rep)
    assert code == 0
    assert data["identified"] is True
    assert data["target"]["p"] == "t*d + 1"


def test_specialize_direct_sum_blocks(capsys):
    code, data = run_json(capsys, "specialize", "T_2_3")
    assert code == 0
    assert data["target_kind"] == "direct_sum"
    aliases = [b["alias"] for b in data["blocks"]]
    assert aliases == ["M1", "M2"]


def test_commutative_points(capsys):
    code, data = run_json(capsys, "commutative", "0", "0")
    assert code == 0
    assert data["target_kind"] == "direct_sum"
    assert data["point"] == {"alpha": "0", "beta": "0"}

    code, data = run_json(capsys, "commutative", "2", "1")
    assert code == 0
    assert data["target"]["p"] == "t*d - 2"


def test_simple_subcommand(capsys):
    code, data = run_json(capsys, "simple", "T_2_6", "--param", "a=1")
    assert code == 0
    assert data["simple"] is True
    assert data["proper_submodule"] is None

    code, data = run_json(capsys, "simple", "T_2_4")
    assert code == 0
    assert data["simple"] is False
    assert data["proper_submodule"] == [["0", "1"]]


def test_hull_subcommand(capsys):
    code, data = run_json(capsys, "hull")
    assert code == 0
    assert data["points"] == ["e1", "e2"]
    assert data["relations"][0] == "s12^2 = s21^2 = 0"
    assert len(data["relations"]) == 6
    assert data["trunc_dims"]["8"] == 16


def test_parse_error_exit_one(capsys):
    code, data = run_json(capsys, "iso", "t*(", "d")
    assert code == 1
    assert "error" in data
    assert data["position"] == 3


def test_validation_errors_exit_one(capsys):
    code, data = run_json(capsys, "classify", "9")
    assert code == 1
    assert "dimensions 1 through 4" in data["error"]

    code, data = run_json(capsys, "ext", "--max-degree", "99")
    assert code == 1
    assert "max degree" in data["error"]

    code, data = run_json(capsys, "specialize", "T_2_6")
    assert code == 1
    assert "parameter" in data["error"]

    code, data = run_json(capsys, "specialize", "T_8_1")
    assert code == 1

    code, data = run_json(capsys, "simple", '{"n": 1, "e1": [["1"]]}')
    assert code == 1
    assert "s12" in data["error"]

    code, data = run_json(capsys, "simple", '{"e1": [], "s12": [], "s21": []}')
    assert code == 1
    assert "dimension" in data["error"]

    code, data = run_json(capsys, "hom", '{"type": "presented", "delta": [["d"]]}', "d")
    assert code == 1
    assert "cyclic" in data["error"]

    # true == 1 and 2.0 == 2 in Python, but neither is a dimension
    code, data = run_json(capsys, "iso", '{"type": "presented", "n": true, "delta": [["d"]]}', "d")
    assert code == 1
    assert '"n" is true' in data["error"]

    rep = '{"n": 2.0, "e1": [["1", "0"], ["0", "1"]], "s12": [["0", "0"], ["0", "0"]], "s21": [["0", "0"], ["0", "0"]]}'
    code, data = run_json(capsys, "simple", rep)
    assert code == 1
    assert '"n" is 2.0' in data["error"]

    # a row given as a string is not read as a row of its characters
    code, data = run_json(capsys, "iso", '{"type": "presented", "delta": [["d", "1"], "tt"]}', "d")
    assert code == 1
    assert '"delta" must be a list of JSON arrays' in data["error"]

    rep = '{"e1": ["10", [0, 0]], "s12": [[0, 0], [0, 0]], "s21": [[0, 0], [0, 0]]}'
    code, data = run_json(capsys, "simple", rep)
    assert code == 1
    assert '"e1" must be a list of JSON arrays' in data["error"]


def test_relation_violation_reported(capsys):
    # both commands that take a representation reach the memoized quiver
    # form, which runs validate()
    rep = json.dumps({
        "n": 1, "e1": [["1"]], "s12": [["1"]], "s21": [["0"]],
    })
    for command in ("simple", "specialize"):
        code, data = run_json(capsys, command, rep)
        assert code == 1
        assert data["violations"] == ["S12^2 = 0", "S12*E1 = 0"]
        code, out = run_cli(capsys, command, rep, "--format", "text")
        assert code == 1
        assert out == ("error: relations violated: S12^2 = 0, S12*E1 = 0\n"
                       "violations:\n  S12^2 = 0, S12*E1 = 0\n")


def test_bad_param_syntax(capsys):
    code, data = run_json(capsys, "specialize", "T_2_6", "--param", "a")
    assert code == 1
    assert "key=value" in data["error"]


# sha256 of the output bytes, pinned from the branch-table match_label and
# the Burnside is_simple (conftest's oracles), so any route prints the same;
# the ext, hull, specialize and commutative bytes were pinned from the
# earlier specialize that summed a term table over the hull generators
GOLDEN_SHA256 = {
    ("classify", "1"): "bf062866eb3ef7b318ea8bab2b1719da92b6ad344d92b64ee3bc3d24f6604c71",
    ("classify", "1", "--format", "text"): "f94ac9ec82a794edb7828a8992dc0770f1b83ef2d3dd7056d486f6553b35703a",
    ("classify", "2"): "ae74c092860348da43182d302092a40e6876660f023689771380226eda10d4b9",
    ("classify", "2", "--format", "text"): "28e730848dd5866fd07deeae27623fba7993e01f8d95fe2aac19863f2cf14aa5",
    ("classify", "3"): "b981586d1eb2d5d35d88e4dbf2732c40fcfb8c6d8f1a7519449b0ff3856d29f2",
    ("classify", "3", "--format", "text"): "19e436bcf524f36deadce097c14be5bb813d8a900c3476f9c14fe86d421b3191",
    ("classify", "4"): "f06d9ad5fce9014b460d0e5d89f866e1e99e17493626ef00ade30721eddcae1c",
    ("classify", "4", "--format", "text"): "1a3a7b9cdb960b54bcd12b352d06876ce0ef201f65d3719db964e9f7525f6501",
    ("simple", "T_2_6", "--param", "a=1"): "f1a40233b820f1a8811ba4baf972e343a67aa39f1f524a9d0f1dccb1ebd0a6c7",
    ("simple", "T_3_7", "--param", "b=2"): "dbe608f961e199313a1c975a4ee85382ee2f814e36a791462547cf34f30e45c6",
    ("simple", "T_2_4"): "095272300d9f302f19c794fcdfb6a11a6c8603e6eed4ef695596546ed7e4d2b4",
    ("simple", "T_4_20"): "85a962ab78beabed864151bf3c43dc38c9bc5ff50b01b6b59c6316726f6dd506",
    ("ext",): "d21a49460df1766b329a8172085a10bf05a0dc37217c1cbe5f71caed8c1e6d8b",
    ("ext", "--format", "text"): "93462f23542943399afa80d3cfe75909fd04011f69979745a02a165f41bd15d7",
    ("hull",): "0382a2502b3d7290857d080e30e7a57c23ab37204625184eecda418bfd9d4172",
    ("hull", "--format", "text"): "1a25041baf3f17520ac26c4464f1f7bf366f149f2ae447d83085c9ae84b68959",
    ("specialize", "T_2_6", "--param", "a=3"): "9f750414955724be78e836a8eeeff10a8b5d2b432ac0acc6909b330895d77494",
    ("commutative", "0", "0"): "478112936233f362ce1a4178585f8a328a1ad2d677a02534ddb70e84175182e3",
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=" ".join)
def test_reps_output_bytes_pinned(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[argv]


# arguments whose payloads cover every subcommand, both exit codes of a
# search, and each of the three error shapes
_ORACLE_ARGVS = [list(argv) for argv in GOLDEN_SHA256] + [
    ["iso", "t*d - 1/2", "t*d - 3/2"],
    ["iso", "d", "t"],
    ["iso", "t*d + 1", '{"type": "presented", "delta": [["d", "2"], ["-1", "t"]]}'],
    ["hom", "d", "d"],
    ["hom", "d", "t"],
    ["specialize", "T_2_3"],
    ["specialize", "T_2_6", "--param", "a=1/2"],
    ["commutative", "2", "1"],
    ["iso", "t*(", "d"],
    ["iso", '{"type": "presented", "n": true, "delta": [["d"]]}', "d"],
    ["simple", '{"n": 1, "e1": [["1"]], "s12": [["1"]], "s21": [["0"]]}'],
]


def test_json_writer_matches_json_dumps_on_cli_payloads(capsys, monkeypatch):
    # answers are memoized per argv: start cold, so that every argv renders
    clear_caches()
    payloads = []
    render = cli._render

    def record(payload, fmt):
        payloads.append(payload)
        return render(payload, fmt)

    monkeypatch.setattr(cli, "_render", record)
    for argv in _ORACLE_ARGVS:
        main(argv)
    capsys.readouterr()
    assert len(payloads) == len(_ORACLE_ARGVS)
    for payload in payloads:
        assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)


# every oracle argv, and a --format text variant of each one that has none
_MEMO_ARGVS = _ORACLE_ARGVS + [
    argv + ["--format", "text"] for argv in _ORACLE_ARGVS if "--format" not in argv
]


def test_warm_answer_prints_what_the_cold_one_printed(capsys):
    codes = set()
    for argv in _MEMO_ARGVS:
        clear_caches()
        cold = run_cli(capsys, *argv)
        warm = run_cli(capsys, *argv)
        assert warm == cold, argv
        codes.add(cold[0])
    assert codes == {0, 1, 2}


def test_each_distinct_argv_is_parsed_once(capsys):
    # main parses an argv only on a miss of cli._answer, keyed by the argv
    clear_caches()
    with _counting() as work:
        for _ in range(2):
            for argv in _MEMO_ARGVS:
                main(argv)
    capsys.readouterr()
    distinct = len({tuple(argv) for argv in _MEMO_ARGVS})
    assert work["cli._answer.misses"] == distinct
    assert work["cli._answer.hits"] == 2 * len(_MEMO_ARGVS) - distinct


def test_main_without_arguments_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["weyldeform", "hom", "d", "t"])
    code = main()
    assert (code, capsys.readouterr().out) == run_cli(capsys, "hom", "d", "t")


def test_help_exits_and_prints_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: weyldeform")


def test_answer_does_not_follow_the_callers_argv_list(capsys):
    argv = ["classify", "1"]
    first = (main(argv), capsys.readouterr().out)
    argv[1] = "2"
    assert (main(argv), capsys.readouterr().out) == run_cli(capsys, "classify", "2") != first
    assert run_cli(capsys, "classify", "1") == first


_TEXT = 'ab"\\ \x00\x1f\n\t\x7fΔé\u2028\U0001d400'


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(6)))


def _random_payload(rng: random.Random, depth: int):
    """A payload value holding at most depth levels of containers."""
    kind = rng.randrange(7 if depth else 3)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -(10 ** 39) - rng.randrange(10 ** 39), 10 ** 39 + 1])
    if kind == 2:
        return _random_text(rng)
    if kind in (3, 4):
        return [_random_payload(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {_random_text(rng): _random_payload(rng, depth - 1) for _ in range(rng.randrange(4))}


def test_json_writer_matches_json_dumps_on_random_payloads():
    rng = random.Random(4602)
    fixed = {"flags": [True, False, None], "true": True, "false": False, "none": None,
             "empty": {"dict": {}, "list": []}, "big": [10 ** 39, -(10 ** 39)]}
    payloads = [fixed, {}, []] + [_random_payload(rng, 4) for _ in range(400)]
    for payload in payloads:
        assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), (1, 2), {1: "one"}, {"a": [{2: 0}]}],
                         ids=["float", "Fraction", "tuple", "int key", "nested int key"])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text({"value": value})


def test_text_format_smoke(capsys):
    code, out = run_cli(capsys, "ext", "--format", "text")
    assert code == 0
    assert "ext1:" in out
    assert "stabilized_at: 0" in out

    code, out = run_cli(capsys, "iso", "d", "t", "--format", "text")
    assert code == 2
    assert "no witness up to degree 8" in out


def test_module_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "weyldeform.cli", "ext"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["ext1"] == [[0, 1], [1, 0]]
