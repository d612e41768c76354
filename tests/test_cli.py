import csv
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import report_json_by_dumps
from quiverhall.cli import _table_text, main
from quiverhall.quiver import a_n_quiver
from quiverhall.report import report_json
from quiverhall.reps import RepCategory
from quiverhall.suites import SAMPLED_SUITES, SUITES, table_rows

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


def test_table_bound_past_enum_guard_exits_before_enumeration(quiver_files, capsys,
                                                               monkeypatch):
    """Some middle term of a table with bound 7 has total dimension 7, so the
    run is refused before any iso class is enumerated."""
    def refuse(self, bound):
        raise AssertionError("iso classes enumerated")

    monkeypatch.setattr(RepCategory, "iso_classes_up_to", refuse)
    code = main(["--quiver", quiver_files["a2"], "--q", "2",
                 "--table", "--bound", "7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: submodule enumeration guardrail: "
                            "total dimension 7 > ENUM_DIM_GUARD 6\n")


@pytest.mark.parametrize("mode", [["--suite", "ringel"], ["--table", "--bound", "2"]])
@pytest.mark.parametrize("out", ["missing/x.json", "."])
def test_unwritable_out_exits_two(quiver_files, capsys, mode, out):
    """An --out whose directory is missing, or that is a directory, is bad
    input (exit 2), not a failed relation (exit 1)."""
    code = main(["--quiver", quiver_files["a2"], "--q", "2", *mode,
                 "--out", str(quiver_files["dir"] / out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: [Errno ")


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
    # Sub-complex counting (sub, quotient and their induced differentials)
    # on a quiver with more than one vertex.
    ("a2", 2, ["--suite", "bridgeland-compare"],
     "947a0088033289377b0d874702d9599ab302fb8018e2a2e63d19f04de1c33d7b"),
    # Three vertices: iso classes and canonical forms of A3, middle terms
    # read off hom vectors and split ones off sum_key; Fitting splits only
    # of the sub-objects that the sampled cross-check counts.
    ("a3", 2, ["--table", "--bound", "4"],
     "c4aa00a77ffb3ab1deb80cb0d5ff7d9ca9ea301d0412f96fc6f2037688bcd515"),
    # Reflection on three vertices: the images of basis terms are read off
    # the parts and resolution dimensions of their keys (SinkReflection.xi).
    ("a3", 3, ["--suite", "reflection"],
     "0721c6d6917a0db28650d762cfacec34f438bb8c45136abee6fa1cc2c6b75b79"),
    # A non-Dynkin quiver: the only row whose Fitting decomposer certifies
    # non-brick indecomposables by its walk over the lines of End X.
    ("kronecker", 2, ["--table", "--bound", "4"],
     "2dee9c2bf4e6202f86d7748123ed9945d1026a270607622f3b6ba522d0d3b4cb"),
    # The largest table within ENUM_DIM_GUARD: middle terms of total
    # dimension 6, whose Hall numbers come from Riedtmann's formula.
    ("a2", 2, ["--table", "--bound", "6"],
     "c0376262c308f3f49c71e4a8b0c312bb838e776e897be96df07259f2dc0bd3ba"),
    # The non-Dynkin sub-complex walk and Hall count of route B.
    ("kronecker", 2, ["--suite", "bridgeland-compare"],
     "73f726ae9f0bbf6351a0b8557081b95f4a74fbfd877f2e109d03d1e24308c84f"),
    # Submodule Hall counts on non-brick Kronecker middle terms.
    ("kronecker", 3, ["--suite", "ringel"],
     "5d8aaa8ac16c4b1b2329b5f800c6dcb2cde5bc45c07fd6d1036bc8e8e50e2da5"),
    # Stalk products of the semi-derived algebras (E.E and F.F pairs from
    # Hall numbers), on a non-Dynkin quiver and on three vertices.
    ("kronecker", 3, ["--suite", "quantum-group"],
     "496adcb2b45740da57a23e8ae21e34b130579620d8049ac8a7d9f02069423427"),
    ("kronecker", 3, ["--suite", "reflection"],
     "744757576dc311049913d99d231b5b99ee074b7fee3f897bb81310cfebced4e3"),
    ("a3", 3, ["--suite", "quantum-group"],
     "4df7192c39a78d741bdbadc23f2db9df895cc05ca6049029d287092137a68afa"),
    # A Dynkin quiver of type D, whose table is built from its positive roots.
    ("d4", 3, ["--table", "--bound", "4"],
     "a98dd59b4198635f3e0063a71484ac6b13f5ae6647dae7bc7bfb15d927e1e8a4"),
    # The CSV rendering of the report rows, under the header of report.FIELDS.
    ("a2", 3, ["--suite", "quantum-group", "--format", "csv"],
     "e5efc22595becb01fa0aa8e13f1676778ded13f84481a40e9fbb0ca8899ada2a"),
    ("a3", 3, ["--suite", "reflection", "--format", "csv"],
     "53fc48ec0405a0f1dbe9b0b0038f266fce143a4a628370747fcdf9ee43cc61ed"),
    # The Z-graded algebra on three vertices: Euler pairings of generator
    # symbols (triples that differ by a common translation share one
    # computation) and the (U)/(V)/(UV) relations of its presentation.
    ("a3", 3, ["--suite", "euler-lemmas"],
     "c9dcdcad256bdee6c8a7e6527e6f3b3ab0c1c902c9ea9d6cc19ac767cb6e68e1"),
    ("a3", 3, ["--suite", "presentation-uv"],
     "0c9810cf3ef1e7b4d06c16ab45bf9a5292affe1640c23646e866de017e6a0460"),
    # Z/2 products on three vertices whose key pairs include Sigma-partners.
    ("a3", 3, ["--suite", "assoc-z2", "--samples", "1", "--seed", "0"],
     "1a10a9fe90a7adbbab8a8eeeccf4a6c237f804f8245755bb894c105917cdb810"),
    # Single-stalk key pairs that no resolution oracle reaches: same-degree
    # stalks whose classes in complexes would span 5^12 (Kronecker q=5
    # reflection), stalks in adjacent and far degrees of the Z grading, and
    # the D4 stalk keys of both algebras.
    ("kronecker", 5, ["--suite", "reflection"],
     "d332da9f084070fcc93b344edc2bf0b5298152f7a5ae6b98c104411d2722fd3c"),
    ("kronecker", 3, ["--suite", "presentation-uv"],
     "e66c7cc9b1897b27c4e6d26e2e15138a9a64ebb2208a992b9f0fe94db7c9c92b"),
    ("kronecker", 5, ["--suite", "assoc-z"],
     "0f73f3256d35262568cc2bd305240ffd0ebecc69c364c681317def84cb671424"),
    ("d4", 3, ["--suite", "reflection"],
     "218ce1d09094a0d25cd80ae6a0a01a49dc8a057259e7b89ab01dec37090b1d7c"),
    ("d4", 3, ["--suite", "presentation-uv"],
     "8294b8c23d9bfb7aa2f7a82240e3ec5d592658b8bacc862ed07118421bb5004a"),
    # Route B's Hall counts at a larger field, on three vertices and on a
    # D4 quiver, whose sub-objects and quotients are compared by their flat
    # structure data before any is built.
    ("a1", 5, ["--suite", "bridgeland-compare"],
     "90bc02c14c6de61422b39f54e667a145ec569bdf7a2b83d37150c126aea6b5db"),
    ("a3", 2, ["--suite", "bridgeland-compare"],
     "a0a4910e429407b220807f696e5a0e3e07609f60c50fefb87143ad4ce421e8e8"),
    ("d4", 2, ["--suite", "bridgeland-compare"],
     "d2359aa226c147963ae2025343ce51da5f49d6ba85f28bf62484ccbde8a75581"),
])
def test_golden_report_bytes(tmp_path, quiver, q, args, sha256):
    """Reports stay byte-identical to those of the exhaustive object-building
    scans over every coefficient vector that the flat walks over one vector
    per line replaced."""
    out = tmp_path / "out.json"
    assert main(["--quiver", str(EXAMPLES / f"{quiver}.json"), "--q", str(q),
                 "--out", str(out)] + args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_golden_failing_report_bytes(tmp_path):
    """The negative control's report: failing rows render like passing
    ones, and the run exits 1."""
    out = tmp_path / "out.json"
    assert main(["--quiver", str(EXAMPLES / "a2.json"), "--q", "2", "--out", str(out),
                 "--suite", "quantum-group", "--perturb"]) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "2c71aa708a9aa95d5e3dd2bca56a82aa964ba224cb4a0f7d37874d934317d03c"


def test_report_json_matches_the_whole_object_dump():
    """report_json renders the rows apart from the rest of the report, and
    its bytes are those of json.dumps over the whole object
    (report_json_by_dumps): on the rows of every suite, on no rows, and on
    rows with quotes, backslashes, newlines, control and non-ASCII
    characters."""
    cat = RepCategory(a_n_quiver(2), 2)
    quiver = json.loads(cat.quiver.to_json())
    cases = [(suite, SUITES[suite](cat, 2, 0, 2, False)) for suite in sorted(SUITES)]
    assert all(rows for _suite, rows in cases)
    cases += [("ringel", []), ("quantum-group", [
        ('say "x" \\ y\nz', "fail", "\u00e9 \u2211 \U0001d54a", "\t\x00\x7f \u2603"),
        ("", "pass", "\\", '"'),
    ])]
    for suite, rows in cases:
        for seed in (0, 7):
            assert report_json(suite, 2, quiver, seed, rows) == \
                report_json_by_dumps(suite, 2, quiver, seed, rows), suite


@pytest.mark.parametrize("q", [3, 5])
def test_bridgeland_compare_past_q2(q, capsys):
    """The Z/2 comparison at q > 2, where a scan of a whole chain
    endomorphism space (3^16 on K_{k^4}) would exceed SCAN_BUDGET."""
    assert main(["--quiver", str(EXAMPLES / "a1.json"), "--q", str(q),
                 "--suite", "bridgeland-compare"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 112
    assert all(c["status"] == "pass" for c in checks)


def test_bridgeland_compare_pool_past_scan_budget_exits_before_enumeration(capsys,
                                                                          monkeypatch):
    """The complex pool of the CLI (bound 3) walks 37^4 pairs of differentials
    over one vertex at q = 37, past SCAN_BUDGET, so the run is refused
    before any differential is built."""
    def refuse(self, X, Y, basis, coeffs):
        raise AssertionError("differentials enumerated")

    monkeypatch.setattr(RepCategory, "morphisms_from_coeffs", refuse)
    code = main(["--quiver", str(EXAMPLES / "a1.json"), "--q", "37",
                 "--suite", "bridgeland-compare"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: complex pool enumeration: 37^4 = 1874161 > "
                            "SCAN_BUDGET 1048576\n")


def test_kronecker_reflection_at_q5(capsys):
    """Stalk products read off Hall numbers: at q = 5 the extension classes
    in complexes between the resolutions of two Kronecker stalks span 5^12,
    past SCAN_BUDGET, while Ext^1 of the modules stays small."""
    assert main(["--quiver", str(EXAMPLES / "kronecker.json"), "--q", "5",
                 "--suite", "reflection"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 76
    assert all(c["status"] == "pass" for c in checks)


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


def test_unsampled_suites_report_seed_zero(quiver_files, capsys):
    """A suite that draws no samples is run without --samples and --seed
    and reports the default seed 0, as before those flags were refused."""
    assert set(SAMPLED_SUITES) <= set(SUITES) and ", ".join(SAMPLED_SUITES) == SAMPLED
    assert main(["--quiver", quiver_files["a1"], "--q", "2", "--suite", "torus-commutation"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


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


def test_table_bound_defaults_to_three(quiver_files, capsys):
    outs = []
    for bound in ([], ["--bound", "3"]):
        assert main(["--quiver", quiver_files["a2"], "--q", "2", "--table", *bound]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    dims = {r["C"].split("]")[0] for r in json.loads(outs[0])}
    assert "M[3,0" in dims and "M[4,0" not in dims


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


def test_table_json_matches_the_stdlib_dump():
    """The JSON table renders its rows with the C string encoder into a
    fixed template; its bytes are those of json.dumps(rows, sort_keys=True,
    indent=2) on no rows, on the rows of the A2 q=3 bound-4 table, and on
    labels with quotes, backslashes, newlines and non-ASCII characters."""
    real = table_rows(RepCategory(a_n_quiver(2), 3), 4)
    odd = [{"A": 'say "x"', "B": "a\\b\nc", "C": "\u00e9 \u2211 \U0001d54a",
            "hall_number": 0, "bridgeland_constant": "\t\x00\x7f \u2603"},
           {"A": "", "B": "\\", "C": '"', "hall_number": 12345678901234567890,
            "bridgeland_constant": "(1/2)*v"}]
    assert len(real) > 100
    for rows in ([], real, odd):
        assert _table_text(rows, "json") == json.dumps(rows, sort_keys=True, indent=2) + "\n"


def test_table_csv_rows_equal_json_rows(quiver_files, capsys):
    """--table --format csv writes the rows of the JSON table, in its order,
    under the header A,B,C,hall_number,bridgeland_constant."""
    texts = {}
    for fmt in ("json", "csv"):
        assert main(["--quiver", quiver_files["a2"], "--q", "3", "--table", "--bound", "3",
                     "--format", fmt]) == 0
        texts[fmt] = capsys.readouterr().out
    rows = json.loads(texts["json"])
    reader = csv.DictReader(io.StringIO(texts["csv"]))
    assert reader.fieldnames == ["A", "B", "C", "hall_number", "bridgeland_constant"]
    assert list(reader) == [{k: str(v) for k, v in row.items()} for row in rows]
    assert len(rows) > 20


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


@pytest.mark.parametrize("sink", ["0", "99"])
def test_reflection_rejects_sink_out_of_range(quiver_files, capsys, sink):
    code = main(["--quiver", quiver_files["a2"], "--q", "2",
                 "--suite", "reflection", "--sink", sink])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: vertex {sink} out of range 1..2\n"


SAMPLED = "assoc-z, assoc-z2, quotient-relations"


@pytest.mark.parametrize("mode, flag, message", [
    (["--suite", "ringel"], ["--perturb"], "--perturb applies only to --suite quantum-group"),
    (["--table"], ["--perturb"], "--perturb applies only to --suite quantum-group"),
    (["--suite", "quantum-group"], ["--sink", "2"], "--sink applies only to --suite reflection"),
    (["--table"], ["--sink", "2"], "--sink applies only to --suite reflection"),
    (["--suite", "ringel"], ["--bound", "5"], "--bound applies only to --table"),
    (["--suite", "quantum-group"], ["--bound", "3"], "--bound applies only to --table"),
    (["--suite", "ringel"], ["--seed", "7"], f"--seed applies only to --suite {SAMPLED}"),
    (["--suite", "bridgeland-compare"], ["--seed", "0"], f"--seed applies only to --suite {SAMPLED}"),
    (["--table"], ["--samples", "5"], f"--samples applies only to --suite {SAMPLED}"),
    (["--suite", "reflection"], ["--samples", "20"], f"--samples applies only to --suite {SAMPLED}"),
])
def test_flags_the_mode_ignores_are_bad_input(quiver_files, capsys, mode, flag, message):
    """A negative control that controls nothing, or a sink, a bound, a
    sample count or a seed no suite reads, would otherwise exit 0 as if it
    had been honoured (a report would name a seed it never drew), even
    when the value given is the default."""
    code = main(["--quiver", quiver_files["a2"], "--q", "2"] + mode + flag)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == f"error: {message}\n"


def test_console_script_runs(quiver_files):
    proc = subprocess.run(
        [sys.executable, "-m", "quiverhall.cli", "--quiver", quiver_files["a1"],
         "--q", "2", "--suite", "torus-commutation"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    json.loads(proc.stdout)
