"""CLI: golden transcripts, exit codes, machine/text agreement."""

import json
import time
from pathlib import Path

import pytest

from chowkit.cli import build_parser, main
from chowkit.quadfield import MAX_CLASS_DISC

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
    (["order-info", "--data", "data/biquad.decl", "--order", "main"],
     "order-info_biquad_main.txt", 0),
    (["order-info", "--data", "data/quintic.decl", "--order", "p1,p2"],
     "order-info_quintic_p1p2.txt", 0),
    (["principal", "--data", "data/biquad.decl", "--order", "main",
      "--divisor", "main:4"], "principal_biquad_main4.txt", 0),
    (["principal", "--data", "data/biquad.decl", "--order", "main",
      "--divisor", "main:2"], "principal_biquad_main2.txt", 1),
    # step 6 of the principal test lifts the divisor to an ideal of the
    # normalization: a real field with the eps walk, a kernel correction,
    # and an inert conductor prime
    (["principal", "--disc", "1001", "--conductor", "6", "--divisor", "2:2"],
     "principal_disc1001_f6.txt", 0),
    (["principal", "--disc", "-23", "--conductor", "10", "--divisor", "2:2,3.0:3"],
     "principal_disc-23_f10.txt", 0),
    (["principal", "--disc", "-7", "--conductor", "3", "--divisor", "3:4,2.1:3",
      "--json"], "principal_disc-7_f3.json", 0),
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
    # a zero step budget aborts generator recovery with exit 4
    assert main(["principal", "--disc", "-23", "--conductor", "3",
                 "--divisor", "2.0:1", "--bound", "0"]) == 4
    err = capsys.readouterr().err
    assert "budget" in err


def test_principal_large_power_is_fast(capsys):
    # 11.0^256 has an 886-bit norm; generator recovery is by reduction, not
    # by a search whose length grows with the norm
    start = time.perf_counter()
    assert main(["principal", "--disc", "-7", "--conductor", "2",
                 "--divisor", "11.0:256"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.startswith("principal: ")


def test_declared_place_token_resolves_to_its_record(capsys):
    # over the conductor a place resolves to its prime, as 2.0 does to 2
    code, out = run(capsys, ["principal", "--data", "data/biquad.decl", "--order", "main",
                             "--divisor", "P:4"])
    assert code == 0 and out == (GOLDEN / "principal_biquad_main4.txt").read_text()
    assert main(["principal", "--data", "data/biquad.decl", "--order", "main",
                 "--divisor", "R:4"]) == 2
    assert capsys.readouterr().err == "error: 'R' is not a conductor prime of the selection\n"


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


# -1073741789 * 1073741827: a 60-bit fundamental discriminant, two 30-bit primes
BIG_DISC = -1152921470247108503
# 1125899906843651 * 2251799813690267: two primes near 2^50 and 2^51, out of
# reach of the factoring in make_field
HUGE_DISC = 2535301200464422293034509444817


@pytest.mark.parametrize("command", ["chow", "order-info", "principal", "find-trivial"])
def test_large_discriminant_fails_fast(capsys, command):
    # the class-group bound is checked before the discriminant is validated,
    # so its core is never factored
    extra = ["--divisor", "2:1"] if command == "principal" else []
    for disc in (BIG_DISC, HUGE_DISC):
        start = time.perf_counter()
        code = main([command, "--disc", str(disc)] + extra)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: |discriminant| {abs(disc)} exceeds the bound "
                                f"{MAX_CLASS_DISC}\n")
        assert elapsed < 1.0, (disc, elapsed)


def test_conductor_test_near_1e18(capsys):
    # p = 10^18 + 3 is prime and 3 mod 4, so -p is fundamental; 2 is inert
    start = time.perf_counter()
    code, out = run(capsys, ["conductor-test", "--disc", str(-(10**18 + 3)),
                             "--ideal", "2:1"])
    assert (code, out) == (0, "yes\n")
    assert time.perf_counter() - start < 1.0


def test_order_info_at_a_strong_pseudoprime_conductor(capsys):
    """f = psi_12 = p * q passes Miller-Rabin to the first 12 prime bases;
    the order has two non-invertible primes, p inert and q split in
    Q(sqrt(-7)), so |Pic| = (p + 1)(q - 1), where it used to list f as one
    prime with |Pic| = f + 1."""
    p, q = 399165290221, 798330580441
    f = 318665857834031151167461
    assert p * q == f
    # Euler's criterion for (-7|p) and (-7|q)
    assert pow(-7 % p, (p - 1) // 2, p) == p - 1
    assert pow(-7 % q, (q - 1) // 2, q) == 1
    code, out = run(capsys, ["order-info", "--disc", "-7", "--conductor", str(f), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert [(pr["p"], pr["residue"], pr["g"]) for pr in doc["primes"]] == [(p, p, 2), (q, q, 1)]
    assert [[pl["label"] for pl in pr["places"]] for pr in doc["primes"]] == [
        [str(p)], [f"{q}.0", f"{q}.1"]]
    assert doc["pic"]["pic"] == (p + 1) * (q - 1)
    assert doc["chow"] == [2]
