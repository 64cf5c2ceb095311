import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import handlecoset
from brute import coxeter_skg
from handlecoset.cli import run

UNKNOTTED = "group: t\nP: t\norientable: true\n"
T2 = "group: t\nP: t^2\norientable: true\n"
S3 = "group: a b\nrel: a^2\nrel: b^3\nrel: a b a b\nP: a\norientable: true\n"
D8_CASE3 = ("group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
            "P: r^2 , s\nP+: r^2\nn: s\norientable: false\n")
FREE2 = "group: a b\nP: a\norientable: true\n"


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
    path = skg("free2.skg", FREE2)
    code = run(["enumerate", path, "--max-cosets", "50"])
    assert code == 3
    assert "exhausted" in capsys.readouterr().err


def test_max_cosets_must_be_positive(skg, capsys):
    path = skg("free2.skg", FREE2)
    assert run(["enumerate", path, "--max-cosets", "0"]) == 2
    assert capsys.readouterr().err == "error: --max-cosets must be positive\n"


def test_missing_file(capsys):
    assert run(["validate", "/no/such/file.skg"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read /no/such/file.skg:")


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


def test_records_in_missing_directory(skg, tmp_path, capsys):
    path = skg("t2.skg", T2)
    rec = tmp_path / "missing" / "x.json"
    assert run(["separate", path, "--case", "1", "--cord", "t", "--cord", "1",
                "--max-degree", "2", "--records", str(rec)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {rec}:")
    assert not rec.exists()


def test_candidate_word_count_is_a_usage_error(skg, capsys):
    path = skg("d8.skg", D8_CASE3)
    assert run(["image-check", path, "--case", "3", "--core-oriented",
                "--candidate", "s"]) == 2
    assert capsys.readouterr().err == \
        "error: --candidate needs 2 words for case 3 with oriented core\n"


def test_huge_exponent_is_a_syntax_error(skg, capsys):
    path = skg("s3.skg", S3)
    assert run(["invariant", path, "--case", "1", "--cord", "b a^10000000"]) == 2
    assert capsys.readouterr().err == \
        "error: line 1, column 3: word expands to more than 100000 letters\n"


def test_closed_pipe_exits_quietly(skg):
    # like `handlecoset classes s7.skg --case 1 --core-oriented | head -c 100`:
    # the ~120 kB listing overfills the pipe, so the writer must meet EPIPE
    path = skg("s7.skg", coxeter_skg(7, [1]))
    env = dict(os.environ, PYTHONPATH=str(Path(handlecoset.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "handlecoset.cli", "classes", path,
                             "--case", "1", "--core-oriented"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            bufsize=0, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b"case 1, oriented core: ")
    assert err == b""


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


def test_selftest_smoke(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out
    assert "FAIL" not in out
