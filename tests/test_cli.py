import ast
import contextlib
import gc
import hashlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import handlecoset
from brute import BROKEN_INPUTS, INPUT_CORPUS, coxeter_skg, two_bridge_skg
from handlecoset import CosetTable, handle_classifier
from handlecoset.cli import run

UNKNOTTED = "group: t\nP: t\norientable: true\n"
T2 = "group: t\nP: t^2\norientable: true\n"
S3 = "group: a b\nrel: a^2\nrel: b^3\nrel: a b a b\nP: a\norientable: true\n"
D8_CASE3 = ("group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
            "P: r^2 , s\nP+: r^2\nn: s\norientable: false\n")
FREE2 = "group: a b\nP: a\norientable: true\n"
# the trefoil with P of finite index and P+ = <a> of infinite index
T3_P_PLUS = ("group: a b\nrel: a b a b^-1 a^-1 b^-1\n"
             "P: a , b a b^-1\nP+: a\nn: b a b^-1\norientable: false\n")


@pytest.fixture
def skg(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


def test_equiv_unknotted(skg, capsys):
    path = skg("unknotted.skg", UNKNOTTED)
    code = run(["equiv", path, "--case", "1", "--core-oriented",
                "--cord", "t t", "--cord", "1"])
    assert code == 0
    assert "equivalent" in capsys.readouterr().out


def test_equiv_inequivalent(skg, capsys):
    path = skg("s3.skg", S3)
    code = run(["equiv", path, "--case", "1", "--core-oriented",
                "--cord", "b", "--cord", "1"])
    assert code == 0
    assert "inequivalent" in capsys.readouterr().out


def test_classes_s3(skg, capsys):
    path = skg("s3.skg", S3)
    code = run(["classes", path, "--case", "1", "--core-oriented"])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 classes" in out


def test_image_check_d8(skg, capsys):
    path = skg("d8.skg", D8_CASE3)
    code = run(["image-check", path, "--case", "3", "--core-oriented",
                "--candidate", "s;1"])
    assert code == 0
    assert "not-in-image" in capsys.readouterr().out
    code = run(["image-check", path, "--case", "3", "--core-oriented",
                "--candidate", "r;r^3"])
    assert code == 0
    assert "in-image" in capsys.readouterr().out


def test_invariant_case2_echoes_label(skg, capsys):
    path = skg("s3.skg", S3)
    code = run(["invariant", path, "--case", "2", "--cord", "b"])
    assert code == 0
    assert "case 2" in capsys.readouterr().out


def test_validate_pass_and_fail(skg, capsys):
    good = skg("d8.skg", D8_CASE3)
    assert run(["validate", good]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out
    bad = skg("bad.skg", "group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
              "P: r^2\nP+: s\nn: r\norientable: false\n")
    assert run(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert "[fail] p_plus_in_p" in out


def test_enumerate(skg, capsys):
    path = skg("d8.skg", D8_CASE3)
    assert run(["enumerate", path]) == 0
    assert "index 2" in capsys.readouterr().out
    assert run(["enumerate", path, "--subgroup", "P+"]) == 0
    assert "index 4" in capsys.readouterr().out


def test_separate(skg, capsys):
    path = skg("t2.skg", T2)
    code = run(["separate", path, "--case", "1", "--core-oriented",
                "--cord", "t", "--cord", "1", "--max-degree", "2"])
    assert code == 0
    assert "distinct" in capsys.readouterr().out
    code = run(["separate", path, "--case", "1", "--core-oriented",
                "--cord", "t", "--cord", "t", "--max-degree", "2"])
    assert code == 0
    assert "unknown" in capsys.readouterr().out


def test_separate_max_degree_bounds(skg, capsys):
    path = skg("t2.skg", T2)
    pair = ["separate", path, "--case", "1", "--cord", "t", "--cord", "1"]
    for bad in ("0", "-3", "9", "10"):
        assert run(pair + ["--max-degree", bad]) == 2
        assert "--max-degree" in capsys.readouterr().err
    for good in ("1", "8"):
        assert run(pair + ["--max-degree", good]) == 0
    capsys.readouterr()


def test_separate_case_mismatch(skg, capsys):
    path = skg("t2.skg", T2)
    assert run(["separate", path, "--case", "3", "--cord", "t", "--cord", "1"]) == 1
    assert capsys.readouterr().err == \
        "error: case 3 needs a non-orientable surface input\n"


def test_separate_refuses_n_that_fails_a_twist_check_in_an_image(skg, capsys):
    # d4-bad-n: s is in P+ = <s>, so the cords 1 and s differ by a slide
    # and are equivalent, but n = r conjugates s out of P+; an image of
    # degree 4 shows it, as validate does, so no verdict is printed
    text = next(t for label, t, _ in BROKEN_INPUTS if label == "d4-bad-n")
    path = skg("d4-bad-n.skg", text)
    for core in (["--core-oriented"], []):
        assert run(["separate", path, "--case", "3", *core,
                    "--cord", "1", "--cord", "s"]) == 1
        assert capsys.readouterr() == ("", "error: twist_normalizes_p_plus fails in "
                                           "a permutation image of degree 4\n")
    assert run(["validate", path]) == 1
    assert "[fail] twist_normalizes_p_plus" in capsys.readouterr().out

# P = <a> has infinite index in Z^2, and the surface is orientable
Z2 = "group: a b\nrel: a b a^-1 b^-1\nP: a\norientable: true\n"
CASE3_ARGS = {"invariant": ["--cord", "b"], "equiv": ["--cord", "b", "--cord", "1"],
              "classes": [], "image-check": ["--candidate", "b;1;b;1"],
              "separate": ["--cord", "b", "--cord", "1"]}


@pytest.mark.parametrize("command", sorted(CASE3_ARGS))
def test_every_command_checks_the_case_before_the_build(command, skg, capsys,
                                                        monkeypatch):
    # a case that does not fit the surface is the same domain error for
    # every command, before any certificate or enumeration runs
    enumerations = []
    monkeypatch.setattr(handle_classifier, "enumerate_cosets",
                        lambda *args: enumerations.append(args))
    for name, text in (("z2", Z2), ("s3", S3)):  # P of infinite, then finite index
        path = skg(f"{name}.skg", text)
        assert run([command, path, "--case", "3"] + CASE3_ARGS[command]) == 1
        assert capsys.readouterr().err == \
            "error: case 3 needs a non-orientable surface input\n"
    assert enumerations == []


def test_exit_code_domain_error(skg, capsys):
    path = skg("s3.skg", S3)
    assert run(["invariant", path, "--case", "3", "--cord", "b"]) == 1
    assert "case 3" in capsys.readouterr().err


def test_exit_code_syntax_error(skg, capsys):
    path = skg("broken.skg", "group: t\nP: zz\norientable: true\n")
    assert run(["validate", path]) == 2
    assert "unknown generator" in capsys.readouterr().err


def test_exit_code_usage_error(skg, capsys):
    path = skg("s3.skg", S3)
    assert run(["equiv", path, "--case", "1", "--cord", "b"]) == 2  # one cord
    assert capsys.readouterr().err == "error: expected 2 --cord option(s), got 1\n"
    assert run(["invariant", path, "--case", "1", "--cord", "b", "--cord", "1"]) == 2
    assert capsys.readouterr().err == "error: expected 1 --cord option(s), got 2\n"
    assert run(["nonsense"]) == 2
    assert run(["invariant", path, "--case", "7", "--cord", "b"]) == 2
    capsys.readouterr()


def test_exit_code_resource_exhausted(skg, capsys):
    # on the free group an image in S_2 proves infinite index before any
    # enumeration
    path = skg("free2.skg", FREE2)
    code = run(["enumerate", path, "--max-cosets", "50"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: P has infinite index:")
    # b(17, 1) has no certificate, so the full budget runs out as well
    path = skg("b17.skg", two_bridge_skg(17, 1))
    assert run(["enumerate", path, "--max-cosets", "50"]) == 3
    assert capsys.readouterr().err.startswith(
        "error: coset enumeration exhausted its budget")


def test_classes_on_the_trefoil_proves_infinite_index(skg, capsys):
    # before any enumeration, an image of degree 3 proves that no budget
    # would do: still exit 3, with the reason
    path = skg("trefoil.skg", two_bridge_skg(3, 1))
    start = time.perf_counter()
    assert run(["classes", path, "--case", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: P has infinite index:")
    assert "degree 3" in err


@pytest.mark.parametrize("p, h_rank", [(7, 4), (11, 6), (13, 7)],
                         ids=["T(2,7)", "T(2,11)", "T(2,13)"])
def test_classes_on_a_torus_knot_proves_infinite_index(skg, capsys, p, h_rank):
    # T(2, p) = b(p, 1) first maps onto the dihedral group of degree p,
    # its affine image at m = p with s = -1
    path = skg(f"t2{p}.skg", two_bridge_skg(p, 1))
    assert run(["classes", path, "--case", "1"]) == 3
    err = capsys.readouterr().err
    assert err == (f"error: P has infinite index: in a transitive permutation image "
                   f"of degree {p}, the point stabilizer H has H^ab of rank {h_rank} "
                   f"over Q and the intersection of P with H spans rank 1\n")


def test_classes_proves_p_plus_has_infinite_index(skg, capsys):
    # P has finite index on the trefoil, P+ = <a> does not: the degree-3
    # image proves it before any P+ enumeration, instead of a million cosets
    path = skg("t3-p-plus.skg", T3_P_PLUS)
    start = time.perf_counter()
    assert run(["classes", path, "--case", "3"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: P+ has infinite index:")
    assert "degree 3" in err


def test_validate_stops_at_the_p_plus_certificate(skg, capsys):
    # the P+ checks stay unknown, but the certificate ends the P+ table
    # before any enumeration instead of after a million cosets, and each
    # of them says so with the message enumerate prints after "error: ",
    # which quotes no enumeration; over a finite-index P, that proof fails
    # |P : P+| <= 2
    path = skg("t3-p-plus.skg", T3_P_PLUS)
    start = time.perf_counter()
    assert run(["validate", path]) == 1
    assert time.perf_counter() - start < 1.0
    unknown = ("P+ has infinite index: in a transitive permutation image of "
               "degree 3, the point stabilizer H has H^ab of rank 2 over Q and "
               "the intersection of P+ with H spans rank 1")
    out = capsys.readouterr().out
    assert run(["enumerate", path, "--subgroup", "P+"]) == 3
    assert capsys.readouterr().err == f"error: {unknown}\n"
    assert out == (
        "[pass] p_plus_in_p: all traces close at coset 1\n"
        "[pass] n_in_p: all traces close at coset 1\n"
        f"[unknown] n_vs_p_plus: {unknown}\n"
        f"[unknown] twist_normalizes_p_plus: {unknown}\n"
        f"[unknown] n_squared_in_p_plus: {unknown}\n"
        f"[fail] p_plus_index_in_p: |P : P+| is infinite; {unknown}\n"
        "6 checks, 1 failed\n")


def test_enumerate_proves_p_plus_has_infinite_index(skg, capsys):
    path = skg("t3-p-plus.skg", T3_P_PLUS)
    assert run(["enumerate", path, "--subgroup", "P+"]) == 3
    assert capsys.readouterr().err.startswith("error: P+ has infinite index:")


def test_enumerate_p_plus_needs_a_p_plus_section(skg, capsys):
    path = skg("s3.skg", S3)
    assert run(["enumerate", path, "--subgroup", "P+"]) == 1
    assert capsys.readouterr().err == "error: this input has no P+ section\n"


def test_max_cosets_must_be_positive(skg, capsys):
    path = skg("free2.skg", FREE2)
    assert run(["enumerate", path, "--max-cosets", "0"]) == 2
    assert capsys.readouterr().err == "error: --max-cosets must be positive\n"


def test_missing_file(capsys):
    assert run(["validate", "/no/such/file.skg"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read /no/such/file.skg:")


def test_invalid_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.skg"
    path.write_bytes(b"group: a\xff\nP: a\norientable: true\n")
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: not valid UTF-8\n"


def test_env_var_limits(skg, capsys, monkeypatch):
    path = skg("free2.skg", FREE2)
    monkeypatch.setenv("HANDLE_COSET_MAX_COSETS", "40")
    assert run(["enumerate", path]) == 3
    capsys.readouterr()


def test_env_var_limits_must_be_positive(skg, capsys, monkeypatch):
    path = skg("free2.skg", FREE2)
    monkeypatch.setenv("HANDLE_COSET_MAX_COSETS", "-5")
    assert run(["enumerate", path]) == 2
    assert capsys.readouterr().err == "error: HANDLE_COSET_MAX_COSETS must be positive\n"
    monkeypatch.setenv("HANDLE_COSET_MAX_COSETS", "many")
    assert run(["enumerate", path]) == 2
    assert capsys.readouterr().err == "error: HANDLE_COSET_MAX_COSETS must be an integer\n"


# int() reads each of these as 3, but none is -?[0-9]+, the grammar of a
# .skg exponent, which every count a user types is read in
NOT_INTEGERS = ["0_3", "\u0663", "\uff13", "+3", " 3 "]
COUNTS = [("--max-cosets", ["enumerate", "{path}", "--max-cosets", "{n}"]),
          ("--max-degree", ["separate", "{path}", "--case", "1", "--cord", "a",
                            "--cord", "1", "--max-degree", "{n}"]),
          ("--case", ["equiv", "{path}", "--case", "{n}", "--cord", "a", "--cord", "1"]),
          (None, ["enumerate", "{path}"])]  # HANDLE_COSET_MAX_COSETS


@pytest.mark.parametrize("source, argv", COUNTS, ids=[s or "env" for s, _ in COUNTS])
@pytest.mark.parametrize("text", NOT_INTEGERS,
                         ids=["underscore", "arabic-indic", "fullwidth", "plus", "spaces"])
def test_counts_are_read_in_one_integer_grammar(skg, capsys, monkeypatch, source,
                                                argv, text):
    path = skg("free2.skg", FREE2)
    if source is None:
        monkeypatch.setenv("HANDLE_COSET_MAX_COSETS", text)
    argv = [a.format(path=path, n=text) for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    if source is None:
        assert err == "error: HANDLE_COSET_MAX_COSETS must be an integer\n"
    else:
        assert err.endswith(f"error: argument {source}: must be an integer\n")


def test_a_count_past_the_digit_limit_is_refused(skg, capsys, monkeypatch):
    path = skg("free2.skg", FREE2)
    huge = "1" * (sys.get_int_max_str_digits() + 1)
    assert run(["enumerate", path, "--max-cosets", huge]) == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --max-cosets: has too many digits\n")
    monkeypatch.setenv("HANDLE_COSET_MAX_COSETS", huge)
    assert run(["enumerate", path]) == 2
    assert capsys.readouterr().err == "error: HANDLE_COSET_MAX_COSETS has too many digits\n"


def test_records_in_missing_directory(skg, tmp_path, capsys):
    path = skg("t2.skg", T2)
    rec = tmp_path / "missing" / "x.json"
    assert run(["separate", path, "--case", "1", "--cord", "t", "--cord", "1",
                "--max-degree", "2", "--records", str(rec)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {rec}:")
    assert not rec.exists()


def test_image_check_case_mismatch(skg, capsys):
    s3 = skg("s3.skg", S3)
    assert run(["image-check", s3, "--case", "3", "--candidate", "b;1;1;1"]) == 1
    assert capsys.readouterr().err == \
        "error: case 3 needs a non-orientable surface input\n"
    d8 = skg("d8.skg", D8_CASE3)
    assert run(["image-check", d8, "--case", "1", "--candidate", "r;1"]) == 1
    assert capsys.readouterr().err == "error: case 1 needs an orientable surface input\n"


def test_candidate_word_count_is_a_usage_error(skg, capsys):
    path = skg("d8.skg", D8_CASE3)
    assert run(["image-check", path, "--case", "3", "--core-oriented",
                "--candidate", "s"]) == 2
    assert capsys.readouterr().err == \
        "error: --candidate needs 2 words for case 3 with oriented core\n"


BOM_INPUTS = [c for c in INPUT_CORPUS if c.label in ("s3-synthetic", "d8-case3")]


@pytest.mark.parametrize("case", BOM_INPUTS, ids=[c.label for c in BOM_INPUTS])
def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys, case):
    # the same file name in two folders, so both records name one input
    number = "1" if "orientable: true" in case.skg else "3"
    seen = []
    for folder, prefix in (("plain", ""), ("bom", "\ufeff")):
        (tmp_path / folder).mkdir()
        path = tmp_path / folder / f"{case.label}.skg"
        path.write_text(prefix + case.skg, encoding="utf-8")
        rec = tmp_path / folder / "r.json"
        code = run(["classes", str(path), "--case", number, "--records", str(rec)])
        seen.append((code, capsys.readouterr().out, rec.read_bytes()))
    assert seen[0][0] == 0
    assert seen[1] == seen[0]


def test_candidate_is_checked_before_the_build(skg, capsys, monkeypatch):
    # the build would exhaust its budget (exit 3); the malformed candidate
    # is a usage error (exit 2) and must be reported first
    path = skg("ok.skg", "group: a b\nrel: a^2\nP: a\norientable: true\n")
    monkeypatch.setenv("HANDLE_COSET_MAX_COSETS", "50")
    assert run(["image-check", path, "--case", "1", "--candidate", "a;a;a"]) == 2
    assert capsys.readouterr().err == "error: --candidate needs 2 words for case 1\n"
    assert run(["image-check", path, "--case", "1", "--candidate", "a;zz"]) == 2
    assert "unknown generator" in capsys.readouterr().err
    assert run(["image-check", path, "--case", "1", "--candidate", "a;a"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("candidate, message", [
    ("s;1; r q;r", "line 1, column 8: unknown generator 'q'"),
    ("s;", "line 1, column 3: expected a word"),
], ids=["unknown-generator", "empty-word"])
def test_candidate_errors_name_their_column_in_the_option(skg, capsys, candidate,
                                                          message):
    path = skg("d8.skg", D8_CASE3)
    assert run(["image-check", path, "--case", "3", "--candidate", candidate]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("name, text, case, oriented, candidate, verdict", [
    # an oriented core in Cases 1/2 has a bijective invariant: one word
    # always names a realized value, so there is no not-in-image candidate
    ("s3", S3, 1, True, "b", "in-image"),
    ("s3", S3, 2, True, "b a", "in-image"),
    ("d8", D8_CASE3, 3, False, "r;r^3;r^3;r", "in-image"),
    ("d8", D8_CASE3, 3, False, "r ; r^3 ; r^3 ; r s", "not-in-image"),
], ids=["one-word-case1", "one-word-case2", "four-words-in", "four-words-out"])
def test_image_check_end_to_end(skg, tmp_path, capsys, name, text, case,
                                oriented, candidate, verdict):
    path = skg(f"{name}.skg", text)
    rec = tmp_path / "r.json"
    argv = ["image-check", path, "--case", str(case), "--candidate", candidate,
            "--records", str(rec)]
    assert run(argv + (["--core-oriented"] if oriented else [])) == 0
    assert capsys.readouterr().out == verdict + "\n"
    assert json.loads(rec.read_text()) == {
        "command": "image-check", "input": name, "case": case,
        "core_oriented": oriented, "verdict": verdict,
        "words": [w.strip() for w in candidate.split(";")],
        "cosets_defined": 3 if name == "s3" else 6}


def test_huge_exponent_is_a_syntax_error(skg, capsys):
    path = skg("s3.skg", S3)
    assert run(["invariant", path, "--case", "1", "--cord", "b a^10000000"]) == 2
    assert capsys.readouterr().err == \
        "error: line 1, column 3: word expands to more than 100000 letters\n"


def test_exponent_outside_the_grammar_is_a_syntax_error(skg, capsys):
    # int() would read a^1_0 as a^10; the grammar allows -?[0-9]+ only
    path = skg("s3.skg", S3)
    assert run(["invariant", path, "--case", "1", "--cord", "a^1_0"]) == 2
    assert capsys.readouterr().err == \
        "error: line 1, column 1: bad exponent in token 'a^1_0'\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # the README's .skg block saved as d8.skg, then every line of its CLI
    # block, optional [...] flags left out, run as written
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    (skg_block,) = [b for b in blocks if "\ngroup: r s" in b]
    (cli_block,) = [b for b in blocks if b.startswith("handlecoset ")]
    (tmp_path / "d8.skg").write_text(skg_block, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    last = {}
    for line in cli_block.splitlines():
        argv = shlex.split(re.sub(r"\[[^]]*\]", "", line))[1:]
        assert run(argv) == 0, line
        last[argv[0]] = capsys.readouterr().out.splitlines()[-1]
    assert sorted(last) == ["classes", "enumerate", "equiv", "image-check",
                            "invariant", "separate", "validate"]
    assert (last["validate"], last["equiv"], last["image-check"], last["separate"]) \
        == ("6 checks, 0 failed", "equivalent", "not-in-image", "distinct")


def _classes_into_closed_pipe(argv):
    """Run `classes` in a child whose stdout reader leaves after 100 bytes,
    like `| head -c 100`; the ~120 kB listing overfills the pipe, so the
    writer must meet EPIPE.  Returns (exit code, first bytes, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(handlecoset.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "handlecoset.cli"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            bufsize=0, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), head, err


def test_closed_pipe_exits_quietly(skg, tmp_path, capsys):
    path = skg("s7.skg", coxeter_skg(7, [1]))
    argv = ["classes", path, "--case", "1", "--core-oriented"]
    rec = tmp_path / "r.json"
    for extra in ([], ["--records", str(rec)]):
        code, head, err = _classes_into_closed_pipe(argv + extra)
        assert code == 1
        assert head.startswith(b"case 1, oriented core: ")
        assert err == b""
    # the record is written before the listing, so it is whole
    full = tmp_path / "full.json"
    assert run(argv + ["--records", str(full)]) == 0
    capsys.readouterr()
    assert rec.read_bytes() == full.read_bytes()


def test_records_written_and_deterministic(skg, tmp_path, capsys):
    path = skg("d8.skg", D8_CASE3)
    rec1 = tmp_path / "r1.jsonl"
    rec2 = tmp_path / "r2.jsonl"
    for rec in (rec1, rec2):
        code = run(["classes", path, "--case", "3", "--core-oriented",
                    "--records", str(rec)])
        assert code == 0
    capsys.readouterr()
    assert rec1.read_bytes() == rec2.read_bytes()
    record = json.loads(rec1.read_text())
    assert record["command"] == "classes"
    assert record["count"] == 4
    assert record["input"] == "d8"
    assert "time" not in record
    # pair serialization is sorted by canonical index
    for cls in record["classes"]:
        pair = cls["value"]["value"]["pair"]
        assert pair == sorted(pair, key=lambda v: v["canonical"])


def test_classes_records_are_streamed(skg, tmp_path):
    # the entries are written one at a time, so --records holds neither
    # the list of entries nor the whole text: it costs less traced memory
    # than a tenth of the file it writes
    path = skg("s7.skg", coxeter_skg(7, [1]))
    rec = tmp_path / "r.json"
    argv = ["classes", path, "--case", "1"]

    def traced_peak(extra):
        gc.collect()  # garbage of earlier tests is not collected mid-trace
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                assert run(argv + extra) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(["--records", str(rec)])  # warm every lazy module-level cache
    bare = traced_peak([])
    streamed = traced_peak(["--records", str(rec)])
    assert streamed - bare < rec.stat().st_size / 10


def test_classes_records_are_canonical_json(skg, tmp_path, capsys):
    # a label that holds the key's own text, a quote, a backslash and a
    # non-ASCII letter is escaped like any string: the streamed record is
    # the canonical encoding of itself
    stem = '"classes":[] \\ \u00e9'
    path = skg(stem + ".skg", S3)
    rec = tmp_path / "r.json"
    assert run(["classes", path, "--case", "1", "--records", str(rec)]) == 0
    capsys.readouterr()
    text = rec.read_text(encoding="utf-8")
    record = json.loads(text)
    assert record["input"] == stem
    assert record["count"] == len(record["classes"]) == 2
    assert text == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def test_invariant_record_shape(skg, tmp_path, capsys):
    path = skg("s3.skg", S3)
    rec = tmp_path / "r.jsonl"
    assert run(["invariant", path, "--case", "1", "--core-oriented",
                "--cord", "b", "--records", str(rec)]) == 0
    capsys.readouterr()
    record = json.loads(rec.read_text())
    assert record["result"]["kind"] == "oriented-core"
    assert record["result"]["value"]["canonical"] == 2
    assert record["result"]["value"]["representative"] == "b"
    assert record["cosets_defined"] >= 3


def test_cli_import_leaves_the_oracle_unloaded():
    # the oracles live in the tests alone, and every CLI process imports
    # the package: none of its modules may pull in dataclasses, which
    # imports inspect and cost most of the package's import time
    env = dict(os.environ, PYTHONPATH=str(Path(handlecoset.__file__).parents[1]))
    modules = [f"handlecoset.{m.name}"
               for m in pkgutil.iter_modules(handlecoset.__path__)]
    code = (f"import importlib, sys\n"
            f"for m in {modules!r}: importlib.import_module(m)\n"
            f"print(*(m in sys.modules for m in ('dataclasses', 'inspect')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "False False\n"


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(handlecoset.__path__)))
def test_each_module_imports_first(module):
    # the package __init__ imports its modules in one fixed order, which
    # can hide an import cycle; here the package is a bare namespace, so
    # the named module really is the first one imported
    code = (f"import importlib, sys, types\n"
            f"pkg = types.ModuleType('handlecoset')\n"
            f"pkg.__path__ = {list(handlecoset.__path__)!r}\n"
            f"sys.modules['handlecoset'] = pkg\n"
            f"importlib.import_module('handlecoset.{module}')\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_no_lazy_package_imports():
    # a function-level import hides a module cycle from the test above
    found = set()
    for path in Path(handlecoset.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level:
                    target = node.module or ",".join(a.name for a in node.names)
                    found.add((path.stem, func.name, target))
    assert found == set()


def test_pairs_are_built_only_in_double_cosets():
    # a value's shape has one definition, double_cosets.nest_slots; a
    # module building pairs itself would be a second one
    callers = set()
    for path in Path(handlecoset.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "UnorderedPair":
                callers.add(path.stem)
    assert callers <= {"double_cosets"}


def test_only_cache_keys_spell_out_their_value_key():
    # _Frozen's _key, the tuple of the _fields, is the one equality rule;
    # only generators, words and presentations restate it, for speed
    spelled = set()
    for path in Path(handlecoset.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "_key"
                    for item in node.body):
                spelled.add(node.name)
    assert spelled == {"_Frozen", "GeneratorSymbol", "Word", "GroupPresentation"}


def test_no_module_memoizes_through_functools():
    # what is derived from an input lives on that input, and dies with it,
    # not in a process-wide cache
    memoizing = {"lru_cache", "cache"}
    importers = set()
    for path in Path(handlecoset.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "functools"
                    and memoizing.intersection(a.name for a in node.names)):
                importers.add(path.stem)
            if (isinstance(node, ast.Attribute) and node.attr in memoizing
                    and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                importers.add(path.stem)
    assert importers == set()


def test_only_coset_enumeration_reads_the_table_fields():
    # a table's columns, witness tree and double-coset caches are read
    # through CosetTable's own methods everywhere else, so their layout
    # has one owner
    fields = ("_tree", "_action", "_twists")
    readers = set()
    for path in Path(handlecoset.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.Attribute) and node.attr in fields
               for node in ast.walk(tree)):
            readers.add(path.stem)
    assert readers == {"coset_enumeration"}


def test_only_knot_input_decides_which_cases_fit():
    # SurfaceKnotInput.cases and case_words are the one check that a case
    # fits an input; a function taking a case that read the surface's
    # orientability would be a second one
    readers = set()
    for path in Path(handlecoset.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "requires_orientable":
                readers.add((path.stem, "requires_orientable"))
            if path.stem == "knot_input" or not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            if "case" in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                readers.update((path.stem, getattr(node, "name", "<lambda>"))
                               for inner in ast.walk(node)
                               if isinstance(inner, ast.Attribute)
                               and inner.attr == "surface_orientable")
    assert readers == set()


def test_no_test_is_skipped_or_xfailed():
    # a known defect stays a failing test, never a skipped or expected one
    marks = {"skip", "skipif", "xfail"}
    found = set()
    for path in Path(__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "pytest" \
                    and marks.intersection(a.name for a in node.names):
                found.add((path.stem, node.lineno))
            if not (isinstance(node, ast.Attribute) and node.attr in marks):
                continue
            owner = node.value
            if isinstance(owner, ast.Attribute) and owner.attr == "mark":
                owner = owner.value  # pytest.mark.skip and its kin
            if isinstance(owner, ast.Name) and owner.id == "pytest":
                found.add((path.stem, node.lineno))
    assert found == set()


def _signs_to_columns(node) -> bool:
    """2 * i + (s < 0), or any 2 * i + a test or conditional: a letter's
    sign turned into a column offset."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    for doubled, offset in ((node.left, node.right), (node.right, node.left)):
        if (isinstance(doubled, ast.BinOp) and isinstance(doubled.op, ast.Mult)
                and any(isinstance(x, ast.Constant) and x.value == 2
                        for x in (doubled.left, doubled.right))
                and isinstance(offset, (ast.Compare, ast.IfExp))):
            return True
    return False


def _columns_to_signs(node) -> bool:
    """-1 if col & 1 else 1, or 1 if ... else -1: a column's parity turned
    into a letter's sign."""
    def unit(x):
        if isinstance(x, ast.UnaryOp) and isinstance(x.op, ast.USub):
            x = x.operand
        return isinstance(x, ast.Constant) and x.value == 1

    test = node.test if isinstance(node, ast.IfExp) else None
    return (isinstance(test, ast.BinOp) and isinstance(test.op, ast.BitAnd)
            and unit(test.right) and unit(node.body) and unit(node.orelse))


def test_only_word_algebra_encodes_letters_as_columns():
    # every other module reads a word's columns (Word.columns) and turns a
    # column into a letter and back through letter_of and column_of, so
    # the encoding has one owner
    encoders = set()
    for path in Path(handlecoset.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(_signs_to_columns(node) or _columns_to_signs(node)
               for node in ast.walk(tree)):
            encoders.add(path.stem)
    assert encoders == {"word_algebra"}


def _inverts(node) -> bool:
    """for i, x in enumerate(p): ... out[x] = i: a permutation inverted."""
    if not (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
            and getattr(node.iter.func, "id", None) == "enumerate"
            and isinstance(node.target, ast.Tuple) and len(node.target.elts) == 2):
        return False
    i, x = (getattr(e, "id", None) for e in node.target.elts)
    return any(isinstance(a, ast.Assign) and getattr(a.value, "id", None) == i
               and any(isinstance(t, ast.Subscript) and getattr(t.slice, "id", None) == x
                       for t in a.targets)
               for a in ast.walk(node))


def _walks(node) -> bool:
    """while ...: x = p[x], also inside a tuple assignment: a point
    walked along one map, as a union-find root or a cycle is."""
    if not isinstance(node, ast.While):
        return False
    for a in ast.walk(node):
        if not isinstance(a, ast.Assign):
            continue
        for t in a.targets:
            pairs = (zip(t.elts, a.value.elts) if isinstance(t, ast.Tuple)
                     and isinstance(a.value, ast.Tuple) else [(t, a.value)])
            if any(isinstance(x, ast.Name) and isinstance(v, ast.Subscript)
                   and isinstance(v.value, ast.Name) and getattr(v.slice, "id", None) == x.id
                   for x, v in pairs):
                return True
    return False


def test_only_word_algebra_defines_the_permutation_steps():
    # coset tables and finite images share one inverse, one cycle type,
    # one walk that reads both, and one union-find root; the tests keep
    # their own in brute.py as the oracles
    steps = set()

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, module, child.name)
                continue
            if _inverts(child) or _walks(child):
                steps.add((module, owner))
            visit(child, module, owner)

    for path in Path(handlecoset.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert {name for module, name in steps if module == "word_algebra"} == \
        {"perm_inverse", "perm_inverse_and_type", "root"}
    # the enumeration's coincidence forest is a dict of the dead cosets
    # alone, which root's list, where a root is its own parent, does not fit
    steps.discard(("coset_enumeration", "rep"))
    assert {module for module, _ in steps} == {"word_algebra"}


def test_only_the_listing_lists_images():
    # the certificate walk and the separations read an input's finite
    # images as slices of one listing, which finite_quotient._listing
    # alone makes and keeps; find_homomorphisms searches afresh for
    # callers outside the package.  Each reference counts, called or not
    readers = {"_search": set(), "_affine_images": set()}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and name in readers:
                readers[name].add(owner)
            visit(child, owner)

    for path in Path(handlecoset.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert readers == {"_search": {"_listing", "find_homomorphisms"},
                       "_affine_images": {"_listing"}}


def test_each_budget_is_spent_in_one_place():
    # HLT makes every coset in _Enumeration.define, the one place that
    # checks the coset budget, so only it and __init__ read the blank row
    # a new coset copies; every image lister is an unbounded stream, and
    # only _listing cuts one at HOM_LIMIT, besides the default limit of
    # find_homomorphisms.  A function's defaults count as "<name> default"
    readers = {"blank": set(), "HOM_LIMIT": set()}

    def visit(nodes, module, owner):
        for node in nodes:
            if isinstance(node, ast.FunctionDef):
                defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
                visit(defaults, module, f"{node.name} default")
                visit(node.body, module, node.name)
                continue
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(getattr(node, "ctx", None), ast.Load) and name in readers:
                readers[name].add((module, owner))
            visit(ast.iter_child_nodes(node), module, owner)

    for path in Path(handlecoset.__file__).parent.glob("*.py"):
        visit([ast.parse(path.read_text(encoding="utf-8"))], path.stem, None)
    assert readers == {
        "blank": {("coset_enumeration", "__init__"), ("coset_enumeration", "define")},
        "HOM_LIMIT": {("finite_quotient", "_listing"),
                      ("finite_quotient", "find_homomorphisms default")}}


def test_only_the_classifier_chooses_a_case_table():
    # which table a case works over is decided in handle_classifier
    # alone, and the CLI builds candidates through it, not from ids
    package = Path(handlecoset.__file__).parent

    def attrs(nodes):
        return {n.attr for node in nodes for n in ast.walk(node)
                if isinstance(n, ast.Attribute)}

    choosers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.IfExp):
                sides = attrs([node.body]), attrs([node.orelse])
            elif isinstance(node, ast.If):
                sides = attrs(node.body), attrs(node.orelse)
            else:
                continue
            if any("p_table" in a and "p_plus_table" in b
                   for a, b in (sides, sides[::-1])):
                choosers.add(path.stem)
    assert choosers == {"handle_classifier"}
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"nest_slots", "dc_id", "dc_all", "dc_invert", "dc_twist"}


def _runtime_imports(module):
    """The package modules a module imports when it loads: its top-level
    relative imports, outside `if TYPE_CHECKING:` blocks."""
    path = Path(handlecoset.__file__).parent / f"{module}.py"
    found = set()
    body = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while body:
        node = body.pop()
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module
                         else (a.name for a in node.names))
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                body.extend(node.body)
            body.extend(node.orelse)
    return found


@pytest.mark.parametrize("module, allowed", [
    ("knot_input", {"errors", "word_algebra"}),
    ("double_cosets", {"coset_enumeration", "errors", "word_algebra"}),
], ids=["knot_input", "double_cosets"])
def test_input_layer_imports_no_engine(module, allowed):
    # the input model and the double-coset maps sit below the engine
    # that builds and checks the peripheral tables
    assert _runtime_imports(module) <= allowed


Q8 = "group: a b\nrel: a^4\nrel: a^2 b^-2\nrel: b^-1 a b a\nP: a\norientable: true\n"
S7_P2 = coxeter_skg(7, [2])
S7_CASE3 = coxeter_skg(7, [2, 5], [2], 5)
C5_TRIVIAL = "group: a\nrel: a^5\nP: 1\norientable: true\n"
C12_A3 = "group: a\nrel: a^12\nP: a^3\norientable: true\n"
# case 3 with a twist that moves double cosets: P+ = <r^3>, n = s
D6_SPLIT_CASE3 = ("group: r s\nrel: r^6\nrel: s^2\nrel: r s r s\n"
                  "P: r^3 , s\nP+: r^3\nn: s\norientable: false\n")
S6_CASE3 = coxeter_skg(6, [1, 3], [1], 3)

# sha256 of `classes --records` output; the file name is the record's "input"
PINNED_CLASSES = [
    ("s7", S7_P2, 1, True,
     "6341362c10c97f59db2da98c808d3740617102a294020e404190f0ed0b3069e4"),
    ("s7", S7_P2, 1, False,
     "0ead2141b9475147e7fec1dbc851d4458c6faca020e2eb40ee7f51154e6697f2"),
    ("s7", S7_P2, 2, False,
     "e700d27b01a667b16d4e828919cef04d3a7aaf5e517264040e5c4a6b0b2ea62e"),
    ("s7c3", S7_CASE3, 3, True,
     "8582e0ea3d6a81748deb97649bf495bbfb9ade1309b20f125329c413d980f434"),
    ("s7c3", S7_CASE3, 3, False,
     "6dfdfe6bf35f0831a259ded29bd0d879a93a13e27d68701da29296734a6dfe13"),
    ("d8", D8_CASE3, 3, True,
     "ecb9d6c83bbb5d888b258bb4ed09af55bfd783c3ec61e914c3ad0ab6fdc5534e"),
    ("d8", D8_CASE3, 3, False,
     "a4cdbebda37d673a059db885cd1eacb6471ccab77fb82093b4b949d35de174fd"),
    ("q8", Q8, 1, True,
     "dcdf7234735155c61432fc8fba81f88e4d48a166cd1eeae670b6b736fd5b4487"),
    ("q8", Q8, 1, False,
     "18b1ee02d1eadbd24059f57c344c138ca67f3a555c4834b22bdbc8a0be3b61ef"),
    # runs of a letter and of its inverse: a^2 and a^-2
    ("c5-trivial", C5_TRIVIAL, 1, True,
     "016ae11b96201bfeefbda9ad355ff65870bf6b03eb47ee7bf246e7886d42df66"),
    ("c5-trivial", C5_TRIVIAL, 1, False,
     "d7ae584662c82c2958f8bd19daa8cc668cffd8be3b75b31463ef441fe824991c"),
    ("c12", C12_A3, 1, True,
     "e6110013988f5a896e3eba2cd4dc8bfeb04c036f7a756871b756039fc7803c55"),
    ("c12", C12_A3, 1, False,
     "21034892f9fb9e1470df6c0176fb8fe42543ae41a02953fae4d338a64235ec17"),
    ("d6-split-case3", D6_SPLIT_CASE3, 3, True,
     "cb8f010f75fb6655e35a686dccde03dbc7b7e6b8ce13122e37ccbe8020c4c2c3"),
    ("d6-split-case3", D6_SPLIT_CASE3, 3, False,
     "f24807dcc76b98fca27f6f7ab85cb22b61fd499d0b0e690908f4c77541c4fe35"),
    ("s6c3", S6_CASE3, 3, True,
     "c8d591ea8d8ac89a1b0363aa8a3482df714c66bb0a2030c156be5f264f48a07a"),
    ("s6c3", S6_CASE3, 3, False,
     "4ff76714981b3758031f86da23e1924ec31c6ad54db98fd1084f8f7f4051533d"),
]


@pytest.mark.parametrize("name,text,case,oriented,digest", PINNED_CLASSES,
                         ids=[f"{p[0]}-case{p[2]}-{'or' if p[3] else 'un'}"
                              for p in PINNED_CLASSES])
def test_pinned_classes_records(skg, tmp_path, capsys, name, text, case,
                                oriented, digest):
    path = skg(f"{name}.skg", text)
    rec = tmp_path / "r.json"
    argv = ["classes", path, "--case", str(case), "--records", str(rec)]
    assert run(argv + (["--core-oriented"] if oriented else [])) == 0
    capsys.readouterr()
    assert hashlib.sha256(rec.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("oriented", [True, False], ids=["or", "un"])
def test_classes_spells_no_witness_word(skg, tmp_path, capsys, monkeypatch,
                                        oriented):
    # `classes` spells every representative in one walk down the witness
    # tree: no root-ward CosetTable.witness walk, no format_word call
    calls = []

    def counted(name, func):
        def wrapper(*args):
            calls.append(name)
            return func(*args)
        return wrapper

    monkeypatch.setattr(CosetTable, "witness", counted("witness", CosetTable.witness))
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "handlecoset" and hasattr(module, "format_word"):
            monkeypatch.setattr(module, "format_word",
                                counted("format_word", module.format_word))
    path = skg("s6.skg", coxeter_skg(6, [1]))
    rec = tmp_path / "r.json"
    argv = ["classes", path, "--case", "1", "--records", str(rec)]
    assert run(argv + (["--core-oriented"] if oriented else [])) == 0
    capsys.readouterr()
    assert json.loads(rec.read_text())["count"] > 100
    assert calls == []


def test_case3_oriented_classes_climb_no_witness_tree(skg, tmp_path, capsys,
                                                     monkeypatch):
    # the twist images come from one walk down the witness tree
    # (CosetTable.translates), so an oriented core needs no climb
    calls = []
    unwitness = CosetTable.unwitness

    def counted(*args):
        calls.append(args)
        return unwitness(*args)

    monkeypatch.setattr(CosetTable, "unwitness", counted)
    path = skg("s6c3.skg", S6_CASE3)
    rec = tmp_path / "r.json"
    assert run(["classes", path, "--case", "3", "--core-oriented",
                "--records", str(rec)]) == 0
    capsys.readouterr()
    assert json.loads(rec.read_text())["count"] > 100
    assert calls == []


@pytest.mark.parametrize("case, text", [("1", coxeter_skg(6, [1])), ("3", S6_CASE3)],
                         ids=["case1", "case3"])
def test_unoriented_classes_climb_once_per_class(skg, tmp_path, capsys, monkeypatch,
                                                 case, text):
    # a table keeps no inverse: a class's value is built once, at its
    # least double coset, and stored under every double coset in it, so
    # the one climb that builds it is the last; a key stored only under
    # the coset it was built for would climb again from the others
    climbed = []
    unwitness = CosetTable.unwitness

    def counted(table, coset):
        climbed.append(coset)
        return unwitness(table, coset)

    monkeypatch.setattr(CosetTable, "unwitness", counted)
    path = skg("s6.skg", text)
    rec = tmp_path / "r.json"
    assert run(["classes", path, "--case", case, "--records", str(rec)]) == 0
    capsys.readouterr()
    count = json.loads(rec.read_text())["count"]
    assert count > 50
    assert len(climbed) == count
    assert len(set(climbed)) == len(climbed)


# sha256 of `invariant`, `equiv` and `image-check --records` output, with a
# line of stdout; words are the --cord words, or the --candidate text
PINNED_QUERIES = [
    ("s7", S7_P2, "invariant", 1, True, ["s1 s2 s3"],
     "invariant: [s1 s2 s3]",
     "606b3572eead84c92fb506bdc89e9e6abd4370767d69fec5941d2103e580bd7f"),
    ("s7", S7_P2, "invariant", 1, False, ["s1 s2 s3"],
     "invariant: {[s1 s2 s3], [s3 s2 s1]}",
     "5e69a6490c50403c42ec171be14da5b05f4721077fa1d5c961ed5d560bfef3d3"),
    ("s7", S7_P2, "equiv", 1, True, ["s1 s2 s3", "s3 s2 s1"],
     "inequivalent",
     "af53d85b94102b6f10d5bc1026eb869617a66a3d3c1cf804625b39a69d1f938f"),
    ("s7", S7_P2, "equiv", 1, False, ["s1 s2 s3", "s3 s2 s1"],
     "equivalent",
     "4b61d4ec20ca7e2e095aae2eff032ed967b854b8245c8f6be1a300c95b059140"),
    ("s7", S7_P2, "image-check", 1, False, "s1 s3 s4;s4 s3 s1",
     "in-image",
     "994f7227fbbf2c6adeb0bb6689c95b5010868b9b87c452dab0cc5632bd5584e1"),
    ("s7", S7_P2, "image-check", 1, False, "s1;1",
     "not-in-image",
     "f74bcdebf48e020c63449e4d04f0e0601df4b10664f40cc47ea495b54c54ad8b"),
    ("s7c3", S7_CASE3, "invariant", 3, True, ["s1 s2 s3"],
     "invariant: {[s1 s2 s3], [s1 s2 s3]}",
     "b05fcc2fc091b894bfba0e82aa6a6dfda1af95f84195a46a85524fdf754bf767"),
    ("s7c3", S7_CASE3, "invariant", 3, False, ["s1 s2 s3"],
     "invariant: {{[s1 s2 s3], [s1 s2 s3]}, {[s3 s2 s1], [s3 s2 s1]}}",
     "e53244c0f5f58a3bba15545ffd1aa5684dc618557247447fd125bf4780bb8ed4"),
    ("s7c3", S7_CASE3, "equiv", 3, True, ["s1 s2 s3", "s5 s1 s2 s3 s5"],
     "equivalent",
     "74a852cb877d123a04295506654aa77773db0220953d4afb36d22f8b5b28488a"),
    ("s7c3", S7_CASE3, "equiv", 3, False, ["s1 s2 s3", "1"],
     "inequivalent",
     "10144689b3ee9ff403a3046611ec3d43296499efa0190dd0ebc666cae274cae1"),
    ("s7c3", S7_CASE3, "image-check", 3, True, "s1 s3;s5 s1 s3 s5",
     "in-image",
     "54833329b95d49b4720f42fa5bfa01762a3d9d11112c0840c6da100dc6f93400"),
    ("s7c3", S7_CASE3, "image-check", 3, False, "s5;1;s5;1",
     "not-in-image",
     "ca661960ed8bdc3100d1fb12cd6de0f09e381763717380de59919a16bcbe14d3"),
    ("d8", D8_CASE3, "invariant", 3, True, ["r s"],
     "invariant: {[r s], [r s]}",
     "e68e37be36d17477b8dd75bd1d148e00cd9afbf9a260ad0a5a2ed684cb425061"),
    ("d8", D8_CASE3, "invariant", 3, False, ["r"],
     "invariant: {{[r], [r]}, {[r], [r]}}",
     "6ee114d0d20ee54995de9e4e09b7b1396bc5f001ed55a641ddc3bdd4947a0ec0"),
    ("d8", D8_CASE3, "equiv", 3, True, ["r", "s r s"],
     "equivalent",
     "ba845094c5456017da562c0b0d4ed973edebba247149b80d151cd1f52910614a"),
    ("d8", D8_CASE3, "equiv", 3, False, ["r", "1"],
     "inequivalent",
     "2430e0722ce3ac27801342d48ed24c485512886a8d65531a28e3069574c9989d"),
    ("d8", D8_CASE3, "image-check", 3, False, "r;r^3;r^3;r",
     "in-image",
     "e7c84f6eb722439f7afd8304837b41f75a1b8f45362ccdcbd0b5ddcc53c83709"),
    ("d8", D8_CASE3, "image-check", 3, True, "s;1",
     "not-in-image",
     "6f4e279022670186973b8015b425205ae515a47160ddb1d2021d4e93a7d7750a"),
]


@pytest.mark.parametrize(
    "name,text,command,case,oriented,words,shown,digest", PINNED_QUERIES,
    ids=[f"{p[0]}-{p[2]}-case{p[3]}-{'or' if p[4] else 'un'}"
         + (f"-{p[6]}" if p[2] == "image-check" else "") for p in PINNED_QUERIES])
def test_pinned_query_records(skg, tmp_path, capsys, name, text, command, case,
                              oriented, words, shown, digest):
    path = skg(f"{name}.skg", text)
    rec = tmp_path / "r.json"
    argv = [command, path, "--case", str(case), "--records", str(rec)]
    argv += ["--core-oriented"] if oriented else []
    if command == "image-check":
        argv += ["--candidate", words]
    else:
        argv += [arg for word in words for arg in ("--cord", word)]
    assert run(argv) == 0
    assert shown in capsys.readouterr().out.splitlines()
    assert hashlib.sha256(rec.read_bytes()).hexdigest() == digest


VALIDATE_FAILS = ("group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
                  "P: r^2\nP+: s\nn: r\norientable: false\n")
B53 = two_bridge_skg(5, 3)

# sha256 of `validate`, `enumerate` and `separate --records` output; budget
# is HANDLE_COSET_MAX_COSETS, or None to leave it unset.  The validate rows
# cover every way to a check: pass, fail, vacuous, a P+ table refused by a
# certificate, a P+ table refused by the budget, and both tables refused
PINNED_OTHER = [
    ("d8", D8_CASE3, ["validate"], None, 0,
     "b5bbb7e284a8dab2d2690ad1f40dafcc8ec391b6833ff23bc045eca57e9b49a4"),
    ("bad", VALIDATE_FAILS, ["validate"], None, 1,
     "d360648a8c7369b8dd1350f045d73c6e8b6f7ee54f8663e8a16f345292157f3c"),
    ("s3", S3, ["validate"], None, 0,
     "2fd5d1db319606a009c0ead0b620c275e1a0e920bba9c945c7e88db92f15a9a3"),
    ("t3-p-plus", T3_P_PLUS, ["validate"], None, 1,
     "7eea8bfd57a2ad871209c001678dbb9bb370dddeefd640821474582b57830a62"),
    ("s7c3", S7_CASE3, ["validate"], "2000", 0,
     "6ab4b33b862cfd11d4caf0d2ba4e372e0f632b6274e01a82c83d361ce837dab2"),
    ("s7c3", S7_CASE3, ["validate"], "50", 0,
     "76903871e5626e569d0ec5752a3e72161cc71ab64608837e7d52463d22fe21d0"),
    ("d8", D8_CASE3, ["enumerate"], None, 0,
     "fd45db7555e2ca54836bbd54cebb6c8259102a6f14353436e1b6dd43bd5d8e92"),
    ("d8", D8_CASE3, ["enumerate", "--subgroup", "P+"], None, 0,
     "0a74f84e7bdd40e0272891b0dc29c10ab6e49d12a326a708ae8e4f71e99e0201"),
    ("s7", S7_P2, ["enumerate"], None, 0,
     "50f49bc2e152188ac9c8c532d22ea204dd39d0abbb9c8ac2d18cc9eaaa55ce67"),
    ("t2", T2, ["separate", "--case", "1", "--core-oriented", "--cord", "t",
                "--cord", "1", "--max-degree", "2"], None, 0,
     "da2faab45b7dad82b52d3e0cb46d1ccc1f47fb8532ff9480ba1e0c30e32b6dd3"),
    ("t2", T2, ["separate", "--case", "1", "--core-oriented", "--cord", "t",
                "--cord", "t", "--max-degree", "2"], None, 0,
     "a8161519a5c6455e4bcf90678079ad24e4e74fa6ebbdc52ece1d1a1fb634036d"),
    ("b5-3", B53, ["separate", "--case", "1", "--cord", "b", "--cord", "1"], None, 0,
     "5d6cdbdc3e2438367917bf0a5e1ef0f0130830605571e78d5cd37ff3ca51b297"),
    ("b5-3", B53, ["separate", "--case", "2", "--core-oriented", "--cord", "b",
                   "--cord", "a b"], None, 0,
     "ee733391f549be1c8c0713a5d5cb1f5c3168d0fdc358d1415221c068abc4a016"),
    ("d8", D8_CASE3, ["separate", "--case", "3", "--cord", "s", "--cord", "1"],
     None, 0, "3e7f4bbedf4d3f32a3d18559783037a1d3ea99f59ae4ba5e58acb9354c595f5f"),
    ("d8", D8_CASE3, ["separate", "--case", "3", "--core-oriented", "--cord", "r",
                      "--cord", "s r s"], None, 0,
     "e48e738ea8e6778c158a02a49b9d536c3ab2fefe7ae77037cfd1c9f48f3323e4"),
]


@pytest.mark.parametrize(
    "name,text,argv,budget,code,digest", PINNED_OTHER,
    ids=[f"{k}-{p[0]}-{p[2][0]}" for k, p in enumerate(PINNED_OTHER)])
def test_pinned_other_records(skg, tmp_path, capsys, monkeypatch, name, text,
                              argv, budget, code, digest):
    if budget is None:
        monkeypatch.delenv("HANDLE_COSET_MAX_COSETS", raising=False)
    else:
        monkeypatch.setenv("HANDLE_COSET_MAX_COSETS", budget)
    path = skg(f"{name}.skg", text)
    rec = tmp_path / "r.json"
    assert run(argv[:1] + [path] + argv[1:] + ["--records", str(rec)]) == code
    capsys.readouterr()
    assert hashlib.sha256(rec.read_bytes()).hexdigest() == digest
