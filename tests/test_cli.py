"""CLI: golden transcripts, exit codes, machine/text agreement."""

import json
from pathlib import Path

import pytest

from chowkit.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"

WORKED_INVOCATIONS = [
    (["chow", "--disc", "-7", "--conductor", "2"], "chow_disc-7_f2.txt", 0),
    (["principal", "--disc", "-7", "--conductor", "2", "--divisor", "2.0:1"],
     "principal_disc-7_f2.txt", 0),
    (["order-info", "--disc", "-7", "--conductor", "2"],
     "order-info_disc-7_f2.txt", 0),
    (["find-trivial", "--disc", "-23", "--prime-budget", "100"],
     "find-trivial_disc-23.txt", 0),
    (["conductor-test", "--disc", "-7", "--ideal", "2.0:1"],
     "conductor-test_disc-7.txt", 1),
    (["chow", "--data", "data/biquad.decl", "--order", "main"],
     "chow_biquad_main.txt", 0),
]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("argv,golden,expected_code", WORKED_INVOCATIONS)
def test_golden_transcripts(capsys, argv, golden, expected_code):
    code, out = run(capsys, argv)
    assert code == expected_code
    assert out == (GOLDEN / golden).read_text()


def test_golden_transcripts_are_stable(capsys):
    # byte-for-byte reproducible across repeated runs
    for argv, golden, _ in WORKED_INVOCATIONS:
        first = run(capsys, argv)[1]
        second = run(capsys, argv)[1]
        assert first == second == (GOLDEN / golden).read_text()


def _json_run(capsys, argv):
    code = main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def test_machine_text_agreement_chow(capsys):
    code, doc = _json_run(capsys, ["chow", "--data", "data/biquad.decl", "--order", "main"])
    assert code == 0
    assert doc["chow"] == [4]
    assert doc["image"] == [2]
    assert doc["local"] == [2]
    assert doc["nonsplit"] is True
    _, text = run(capsys, ["chow", "--data", "data/biquad.decl", "--order", "main"])
    assert "Chow: Z/4" in text and "image: Z/2" in text and "non-split" in text


def test_machine_text_agreement_principal(capsys):
    code, doc = _json_run(
        capsys, ["principal", "--disc", "-7", "--conductor", "2", "--divisor", "2.0:1"])
    assert code == 0
    assert doc["status"] == "principal"
    assert doc["generator"] == {"x": 1, "y": 1, "den": 1, "str": "(1 + sqrt(-7))/2"}
    assert doc["divisor"] == {"2": 1}


def test_machine_text_agreement_order_info(capsys):
    code, doc = _json_run(capsys, ["order-info", "--disc", "-4", "--conductor", "3"])
    assert code == 0
    assert doc["primes"][0]["g"] == 2
    assert doc["primes"][0]["local_chow"] == [2]
    assert doc["pic"]["pic"] == 2
    assert doc["pic_chow"] == {"surjective": False, "injective": False}
    assert doc["chow"] == [2]
    _, text = run(capsys, ["order-info", "--disc", "-4", "--conductor", "3"])
    assert "g = 2" in text and "|Pic| = 2" in text and "Chow: Z/2" in text


def test_machine_text_agreement_find_trivial(capsys):
    code, doc = _json_run(capsys, ["find-trivial", "--disc", "-23"])
    assert code == 0 and doc["found"] and doc["conductor"] == 2 and doc["chow"] == []
    code, doc = _json_run(capsys, ["find-trivial", "--disc", "-20", "--prime-budget", "50"])
    assert code == 1 and doc["found"] is False


def test_machine_text_agreement_conductor_test(capsys):
    code, doc = _json_run(capsys, ["conductor-test", "--disc", "-7",
                                   "--ideal", "2.0:1,2.1:1"])
    assert code == 0 and doc["conductor_ideal"] is True and doc["violator"] is None
    code, doc = _json_run(capsys, ["conductor-test", "--disc", "-7", "--ideal", "2.0:1"])
    assert code == 1 and doc["violator"] == "2.0"


def test_empty_divisor_is_principal_with_generator_one(capsys):
    code, out = run(capsys, ["principal", "--disc", "-7", "--conductor", "2",
                             "--divisor", ""])
    assert code == 0
    assert out == "principal: 1\n"


def test_maximal_order_info(capsys):
    code, out = run(capsys, ["order-info", "--disc", "-7", "--conductor", "1"])
    assert code == 0
    assert "order: maximal (conductor 1)" in out
    assert "Chow = Cl: trivial" in out


def test_module_entry_point():
    import os
    import subprocess
    import sys

    # the child does not inherit this interpreter's sys.path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chowkit.cli", "chow", "--disc", "-7", "--conductor", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "chow_disc-7_f2.txt").read_text()


def test_usage_errors(capsys):
    assert main(["chow"]) == 2                                    # no field source
    capsys.readouterr()
    assert main(["chow", "--disc", "-7", "--data", "x.decl"]) == 2
    capsys.readouterr()
    assert main(["chow", "--disc", "20"]) == 2                    # not fundamental
    capsys.readouterr()
    assert main(["principal", "--disc", "-7", "--divisor", "2.0"]) == 2
    capsys.readouterr()
    assert main(["principal", "--disc", "-7", "--divisor", "5.0:1,5.0:2"]) == 2
    capsys.readouterr()
    assert main(["chow", "--disc", "-7", "--conductor", "2", "--order", "main"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    assert main(["principal", "--disc", "-23", "--conductor", "3",
                 "--divisor", "2.0:1", "--bound", "-1"]) == 2
    assert capsys.readouterr().err == "error: --bound must be >= 0\n"
    assert main(["find-trivial", "--disc", "-23", "--prime-budget", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --prime-budget must be >= 0\n"


def test_shared_parser_keeps_outputs(capsys):
    # main parses with one parser per process: an argparse error must leave
    # nothing behind that changes a later golden run or a repeated error
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chow", "--bogus"])
    usage = capsys.readouterr().err
    assert "error: unrecognized arguments: --bogus" in usage
    for _ in range(2):
        assert main(["chow", "--bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == usage
        argv, golden, expected_code = WORKED_INVOCATIONS[0]
        code, out = run(capsys, argv)
        assert code == expected_code
        assert out == (GOLDEN / golden).read_text()


def test_bound_exhaustion_exit_code(capsys):
    # a zero search ceiling aborts the generator search with exit 4
    assert main(["principal", "--disc", "-23", "--conductor", "3",
                 "--divisor", "2.0:1", "--bound", "0"]) == 4
    err = capsys.readouterr().err
    assert "budget" in err


def test_data_errors(capsys):
    assert main(["chow", "--data", "no/such/file.decl"]) == 3
    capsys.readouterr()
    assert main(["chow", "--data", "data/sextic_template.decl"]) == 3
    capsys.readouterr()
    assert main(["chow", "--data", "data/quintic.decl", "--order", "bogus"]) == 3
    capsys.readouterr()
    # co-selecting records that share a place is a data error
    assert main(["chow", "--data", "data/quintic.decl", "--order", "p1,p7"]) == 2
    capsys.readouterr()


def test_quintic_selections(capsys):
    for sel, inv in (("p1", "Z/2"), ("p2", "Z/3"), ("p1,p2", "Z/6"), ("p7", "trivial")):
        code, out = run(capsys, ["chow", "--data", "data/quintic.decl", "--order", sel])
        assert code == 0
        assert out.splitlines()[0] == f"Chow: {inv}"
    code, out = run(capsys, ["chow", "--data", "data/quintic.decl", "--order", "none"])
    assert code == 0 and out.splitlines()[0] == "Chow: trivial"
