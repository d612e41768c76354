import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from quiverhall.cli import main

A1 = '{"vertices": 1, "arrows": []}'
A2 = '{"vertices": 2, "arrows": [[1, 2]]}'
EXAMPLES = Path(__file__).resolve().parent.parent / "examples_quivers"


@pytest.fixture
def quiver_files(tmp_path):
    a1 = tmp_path / "a1.json"
    a1.write_text(A1)
    a2 = tmp_path / "a2.json"
    a2.write_text(A2)
    return {"a1": str(a1), "a2": str(a2), "dir": tmp_path}


def test_verify_pass_exit_zero(quiver_files, capsys):
    code = main(["--quiver", quiver_files["a1"], "--q", "2",
                 "--suite", "quantum-group"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["suite"] == "quantum-group"
    assert all(c["status"] == "pass" for c in out["checks"])
    assert all(set(c) == {"name", "status", "lhs", "rhs"} for c in out["checks"])


@pytest.mark.parametrize("suite, names", [
    ("ringel", ["serre(1,2)", "serre(2,1)"]),
    ("quantum-group", ["serre-E(1,2)", "serre-E(2,1)", "serre-F(1,2)", "serre-F(2,1)"]),
])
def test_kronecker_serre_relations_pass(tmp_path, capsys, suite, names):
    """Two arrows between the vertices give the Cartan entry a_12 = -2, so the
    Serre relation is cubic in E_i; the simply-laced quadratic one fails."""
    kron = tmp_path / "kronecker.json"
    kron.write_text('{"vertices": 2, "arrows": [[1, 2], [1, 2]]}')
    assert main(["--quiver", str(kron), "--q", "2", "--suite", suite]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if "serre" in c["name"]] == names
    assert all(c["status"] == "pass" for c in checks)


def test_negative_control_exit_one(quiver_files, capsys):
    code = main(["--quiver", quiver_files["a1"], "--q", "2",
                 "--suite", "quantum-group", "--perturb"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert any(c["status"] == "fail" for c in out["checks"])


def test_bad_input_exit_two(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["--quiver", str(empty), "--q", "2", "--suite", "ringel"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["--quiver", str(missing), "--q", "2", "--suite", "ringel"]) == 2
    good = tmp_path / "good.json"
    good.write_text(A2)
    assert main(["--quiver", str(good), "--q", "4", "--suite", "ringel"]) == 2


@pytest.mark.parametrize("text", [
    '{"vertices": 2, "arrows": 5}',
    '{"vertices": 2.7, "arrows": [[1, 2]]}',
    '{"vertices": true, "arrows": []}',
    '{"vertices": 2, "arrows": [["1", 2]]}',
    '{"vertices": 2, "arrows": [[1, 2, 3]]}',
])
def test_malformed_quiver_exit_two(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["--quiver", str(bad), "--q", "2", "--suite", "ringel"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_negative_bound_exit_two(quiver_files, capsys):
    assert main(["--quiver", quiver_files["a2"], "--q", "3",
                 "--table", "--bound", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--bound" in captured.err


@pytest.mark.parametrize("quiver, q, args, sha256", [
    ("a2", 3, ["--table", "--bound", "4"],
     "0cd4defcb29d169a66e46c3357f125b053964e14d9752e230ca9cdf9f95d9ba2"),
    ("a1", 2, ["--suite", "bridgeland-compare"],
     "c1e5559299bcaacccf688319c72bc08cd17d9406cbb82cfdd2e0b59d92410dd9"),
    # At large q one line stands for q - 1 classes, so a weight error shows.
    ("a2", 11, ["--suite", "quantum-group"],
     "3df942e251b1fcdc5f02c853554d496ff4eeb8e24e089a76da8e6edda5769dc8"),
    ("a2", 13, ["--table", "--bound", "3"],
     "0a132ae70ecb7ee1d9845b45c8f1e1b4ecca304da6b1d4b5da28e4ff6de5f0a6"),
    # The Z-graded algebra: chain maps, homotopies, homology and extension
    # classes of bounded complexes.
    ("a2", 3, ["--suite", "assoc-z"],
     "3eb65f74801be5b6cc23e8d1d8f11a96b165d1cbe4b4bcfdce32eacf732a7ec8"),
    ("a2", 3, ["--suite", "quotient-relations"],
     "19c6a648602f75a830da1abd62a1f1d7e768d2e6c7b5f9f2d1cebb5256a60829"),
    ("a2", 3, ["--suite", "euler-lemmas"],
     "3927a8783994e64ff5411cc23b7fbde467a25dcc9dac4c2959cf618674177e9a"),
    ("a2", 3, ["--suite", "presentation-uv"],
     "8314eaae4869b8a7de7523c09631f29c72076978e6cbc3020955016ee0601222"),
    # Reads the homology keys of Z/2 complexes.
    ("a2", 2, ["--suite", "reflection"],
     "e0a3496e6e4539194b96b5cb53829fea2f22eb5231c61f01665ebad0641fbd4b"),
    # The Z/2-graded algebra: plain and twisted products, torus pairings and
    # the reduced algebra of the quantum group.
    ("a2", 3, ["--suite", "assoc-z2", "--samples", "5", "--seed", "0"],
     "f1ab8ed49830556fba12fe4c748975bcbf33fbdca6d79c0e2f544988d895a86d"),
    ("a2", 3, ["--suite", "torus-commutation"],
     "a199a55d04973cf94ea25a045e103ac1ad38fa3bee98454acbd74cfe2818ebd5"),
    ("a2", 3, ["--suite", "quantum-group"],
     "55080bb9c6e1324c3f20dbe3e66ef3f85ee619aadf47a58fd0139878424c7c17"),
])
def test_golden_report_bytes(tmp_path, quiver, q, args, sha256):
    """Reports stay byte-identical to those of the exhaustive object-building
    scans over every coefficient vector that the flat walks over one vector
    per line replaced."""
    out = tmp_path / "out.json"
    assert main(["--quiver", str(EXAMPLES / f"{quiver}.json"), "--q", str(q),
                 "--out", str(out)] + args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_report_determinism(quiver_files):
    out1 = quiver_files["dir"] / "r1.json"
    out2 = quiver_files["dir"] / "r2.json"
    args = ["--quiver", quiver_files["a2"], "--q", "2", "--suite",
            "quotient-relations", "--samples", "6", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["seed"] == 3
    assert len(report["checks"]) == 6


def test_table_vect(quiver_files, capsys):
    code = main(["--quiver", quiver_files["a1"], "--q", "2",
                 "--table", "--bound", "2"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    # the (k, k, k^2) row: Hall number q + 1 = 3, constant 1/2
    kk = [r for r in rows if r["hall_number"] == 3]
    assert len(kk) == 1
    assert kk[0]["bridgeland_constant"] == "1/2"
    assert kk[0]["A"] == kk[0]["B"] == "M[1]"


def test_table_a2_q3(quiver_files, capsys):
    a2q3 = main(["--quiver", quiver_files["a2"], "--q", "3",
                 "--table", "--bound", "2"])
    assert a2q3 == 0
    rows = json.loads(capsys.readouterr().out)
    hit = [r for r in rows
           if r["A"] == "M[1,0]" and r["B"] == "M[0,1]" and "(1)" in r["C"]]
    assert len(hit) == 1
    assert hit[0]["bridgeland_constant"] == "2"
    assert hit[0]["hall_number"] == 1


def test_csv_format(quiver_files, capsys):
    code = main(["--quiver", quiver_files["a1"], "--q", "2",
                 "--suite", "ringel", "--format", "csv"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "name,status,lhs,rhs"


def test_reflection_default_sink(quiver_files, capsys):
    code = main(["--quiver", quiver_files["a2"], "--q", "2",
                 "--suite", "reflection"])
    assert code == 0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("sink, message", [
    ([], "error: quiver has no sink with an incoming arrow\n"),
    (["--sink", "1"], "error: sink 1 has no incoming arrow\n"),
])
def test_reflection_rejects_isolated_sink(quiver_files, capsys, q, sink, message):
    """The one vertex of A1 is a sink without incoming arrows."""
    code = main(["--quiver", quiver_files["a1"], "--q", str(q),
                 "--suite", "reflection"] + sink)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == message


def test_console_script_runs(quiver_files):
    proc = subprocess.run(
        [sys.executable, "-m", "quiverhall.cli", "--quiver", quiver_files["a1"],
         "--q", "2", "--suite", "torus-commutation"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    json.loads(proc.stdout)
