import hashlib
import importlib.util
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import koszulcone
from koszulcone import algebra, cli, dual, linalg
from koszulcone.cli import format_jobspec, main, parse_ring_text
from koszulcone.complexes import _compose_columns, complex_to_json, iterated_mapping_cone
from koszulcone.errors import ParseError
from koszulcone.ideals import MonomialIdeal

import algebra_oracle
from rowform import canonical_qq
from test_algebra import FRACTIONAL_RING_TEXT, fractional_ring
from test_complexes import NON_KOSZUL_RING_TEXT, corrupt_lifts, printed_closed_form
from test_ideals import hhr_ideal
from test_linalg import scale_work_budget

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def parsed(parse, argv):
    try:
        return parse(argv)
    except SystemExit as e:
        return f"exit {e.code}"


def run_main(argv, capsys):
    # every command line of these tests is also read by the whole parser
    # tree, which must give the namespace main's one-subcommand parser gives
    assert parsed(cli._parse_args, argv) == parsed(cli.build_parser().parse_args, argv)
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(autouse=True)
def json_text_is_json_dumps(monkeypatch):
    """Every JSON document a CLI test writes is also checked against the
    standard encoder's text."""
    write = cli._json_text

    def checked(value, indent="\n"):
        text = write(value, indent)
        if indent == "\n":
            assert text == json.dumps(value, sort_keys=True, indent=1)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)


def test_parse_basic():
    js = parse_ring_text((FIXTURES / "hhr_example.ring").read_text())
    assert js.field_char == 101
    assert js.var_names == ("x1", "x2", "x3")
    assert js.relations == (((1, (0, 2)),), ((1, (2, 2)),))
    assert js.ideal == ((1, 1, 0), (0, 1, 1))


def test_parse_signs_and_coefficients():
    js = parse_ring_text(
        "field p=101\nvars a b c d\nrel a*b - b*d\nrel 1*a^2 + 1*b*c\n"
    )
    assert js.relations[0] == ((1, (0, 1)), (100, (1, 3)))
    assert js.relations[1] == ((1, (0, 0)), (1, (1, 2)))


def test_parse_rationals():
    js = parse_ring_text("field q\nvars x y\nrel 1/2*x*y\n")
    from fractions import Fraction
    assert js.field_char == 0
    assert js.relations[0][0][0] == Fraction(1, 2)


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as e:
        parse_ring_text("field p=101\nvars x y\nrel x*y*x\n")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_ring_text("field p=101\nvars x y\nrel w*x\n")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_ring_text("vars x\nfrobnicate 1\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_ring_text("field p=10\nvars x\n")  # not prime


@pytest.mark.parametrize("text, command, line, first", [
    ("vars x y z\nrel z^2\nvars a\n", "dual", 3, 1),
    ("vars x y z\nideal z\nvars a\n", "betti", 3, 1),
    ("vars x y\nideal x\nvars y x\n", "resolve", 3, 1),
    ("field p=101\nfield q\nvars x y\nrel 1/2*x*y\nideal x\n", "dual", 2, 1),
], ids=["vars-after-rel", "vars-after-ideal", "vars-reordered", "field-twice"])
def test_repeated_vars_or_field_line_is_a_parse_error(text, command, line, first,
                                                      tmp_path, capsys):
    with pytest.raises(ParseError) as e:
        parse_ring_text(text)
    assert e.value.line == line
    ring = tmp_path / "twice.ring"
    ring.write_text(text)
    code, out, err = run_main([command, str(ring)], capsys)
    assert (code, out) == (2, "")
    keyword = text.splitlines()[line - 1].split()[0]
    assert err == (f"input error: second {keyword!r} line (the first is line {first}) "
                   f"(line {line}, col 1)\n")


def test_field_override_ignores_the_one_field_line_but_not_a_second():
    text = "field q\nvars x y\nrel x*y\nideal x\n"
    assert parse_ring_text(text, field_override="7").field_char == 7
    with pytest.raises(ParseError) as e:
        parse_ring_text("field q\n" + text, field_override="7")
    assert e.value.line == 2


def test_round_trip_all_fixtures():
    for path in sorted(FIXTURES.glob("*.ring")):
        js = parse_ring_text(path.read_text())
        again = parse_ring_text(format_jobspec(js))
        assert again == js, path.name



def random_ring_text(rng, field):
    """Ring file text with random relations (signed terms, optional
    coefficients, fractional ones over QQ), preferred monomials and ideal."""
    n = rng.randint(1, 4)
    names = [f"v{i}" for i in range(1, n + 1)]

    def mono(deg):
        exp = [0] * n
        for _ in range(deg):
            exp[rng.randrange(n)] += 1
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exp) if e)

    def term(first):
        sign = rng.choice(("-", "") if first else ("-", "+"))
        coeff = str(rng.randint(1, 250))
        if field == "q" and rng.random() < 0.5:
            coeff += f"/{rng.randint(1, 12)}"
        return f"{sign} {coeff + '*' if rng.random() < 0.7 else ''}{mono(2)}"

    lines = [f"field {field}", "vars " + " ".join(names)]
    for _ in range(rng.randint(0, 3)):
        lines.append("rel " + " ".join(term(k == 0) for k in range(rng.randint(1, 3))))
    if rng.random() < 0.5:
        lines.append("prefer " + ", ".join(mono(2) for _ in range(rng.randint(1, 2))))
    lines.append("ideal " + ", ".join(mono(rng.randint(1, 3)) for _ in range(rng.randint(1, 3))))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field", ["p=101", "p=2", "q"])
def test_round_trip_random_ring_texts(field):
    rng = random.Random(f"ring text {field}")
    fractional = 0
    for _ in range(60):
        text = random_ring_text(rng, field)
        js = parse_ring_text(text)
        assert parse_ring_text(format_jobspec(js)) == js, text
        fractional += any(getattr(c, "denominator", 1) != 1
                          for rel in js.relations for c, _ in rel)
    assert (fractional > 0) == (field == "q")


@pytest.mark.parametrize("text", ["field p=101\nvars x y\nrel 1/2*x*y\n",
                                  "field q\nvars x y\nrel x^2 - 1/0*x*y\n"],
                         ids=["fraction-over-gf101", "zero-denominator-over-qq"])
def test_bad_relation_coefficient_is_a_parse_error(text, tmp_path, capsys):
    with pytest.raises(ParseError) as e:
        parse_ring_text(text)
    assert e.value.line == 3
    ring = tmp_path / "bad.ring"
    ring.write_text(text)
    code, out, err = run_main(["dual", str(ring)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad coefficient ") and "(line 3, col 1)" in err

@pytest.mark.parametrize("text, same_as", [
    ("rel x^2 - - y^2", "rel x^2 + y^2"),
    ("rel x^2 + - y^2", "rel x^2 - y^2"),
    ("rel - -x^2 - + - 1/2*y^2", "rel x^2 + 1/2*y^2"),
], ids=["minus-minus", "plus-minus", "leading-and-triple"])
def test_consecutive_signs_multiply(text, same_as, tmp_path, capsys):
    head = "field q\nvars x y\n"
    js = parse_ring_text(head + text + "\nideal x\n")
    assert js == parse_ring_text(head + same_as + "\nideal x\n")
    outs = []
    for rel in (text, same_as):
        ring = tmp_path / "signs.ring"
        ring.write_text(head + rel + "\nideal x\n")
        outs.append(run_main(["dual", str(ring), "--hmax", "2", "--out", "json"], capsys))
    assert outs[0] == outs[1] and outs[0][0] == 0


@pytest.mark.parametrize("line, message", [
    ("rel x^2 +", "relation ends with a sign"),
    ("rel x^2 - y^2 -", "relation ends with a sign"),
    ("ideal x,,y", "empty item in ideal list"),
    ("ideal x,", "empty item in ideal list"),
    ("ideal", "empty item in ideal list"),
    ("prefer x*y,,y^2", "empty item in prefer list"),
    ("prefer x*y,", "empty item in prefer list"),
], ids=["trailing-plus", "trailing-minus", "ideal-inner", "ideal-trailing", "ideal-bare",
        "prefer-inner", "prefer-trailing"])
def test_dangling_sign_or_empty_list_item_is_a_parse_error(line, message, tmp_path, capsys):
    text = f"field q\nvars x y\n{line}\n"
    if not line.startswith("ideal"):
        text += "ideal x\n"
    with pytest.raises(ParseError) as e:
        parse_ring_text(text)
    assert e.value.line == 3
    ring = tmp_path / "bad.ring"
    ring.write_text(text)
    code, out, err = run_main(["dual", str(ring)], capsys)
    assert (code, out, err) == (2, "", f"input error: {message} (line 3, col 1)\n")


@pytest.mark.parametrize("command", [["dual"], ["priddy"], ["check", "regular"]])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_skipped_prefer_monomial_is_a_note_on_stderr(command, fmt, tmp_path, capsys):
    # x*y = x^2 in degree 2, so the second preferred monomial is dependent and
    # the basis skips it: stdout and the exit code are those of "prefer x^2"
    head = "field p=101\nvars x y\nrel x^2 - x*y\n"
    runs = []
    for prefer in ("x^2, x*y", "x^2"):
        ring = tmp_path / "prefer.ring"
        ring.write_text(f"{head}prefer {prefer}\nideal x\n")
        runs.append(run_main([*command, str(ring), "--out", fmt], capsys))
    (code, out, err), alone = runs
    assert (code, out) == alone[:2] and alone[2] == ""
    assert err == "note: InconsistentPreferred: monomial x*y is dependent in degree 2; skipped\n"


def test_betti_command_spec_example(capsys):
    code, out, _ = run_main(
        ["betti", "--hmax", "3", str(FIXTURES / "md_squares_n3_d2.ring")], capsys
    )
    assert code == 0
    assert "3" in out and "8" in out and "15" in out


def test_check_regular_spec_example(capsys):
    code, out, _ = run_main(
        ["check", "regular", str(FIXTURES / "hhr_example.ring")], capsys
    )
    assert code == 0
    assert "PASS" in out


def test_check_strongly_koszul_conca_witness(capsys):
    code, out, _ = run_main(
        ["check", "strongly-koszul", str(FIXTURES / "conca.ring"), "--dmax", "3"],
        capsys,
    )
    assert code == 1
    assert "Y=[], x=x_1, degree 2" in out


def test_checks_pass_on_positive_fixtures(capsys):
    for name in ("md_squares_n3_d2.ring", "hhr_example.ring"):
        code, out, _ = run_main(
            ["check", "strongly-koszul", str(FIXTURES / name), "--dmax", "4"], capsys
        )
        assert code == 0, name


def test_star_check_command(capsys):
    code, out, _ = run_main(["check", "star", str(FIXTURES / "hhr_example.ring")], capsys)
    assert code == 0
    code, out, _ = run_main(
        ["check", "star", str(FIXTURES / "md_squares_n3_d2.ring")], capsys
    )
    assert code == 1


def test_check_regular_literal_mode_flag(capsys):
    # the printed reading of condition (1) coincides with the symmetric one
    # on the section-4 fixture (all structure coefficients vanish there)
    code, out, _ = run_main(
        ["check", "regular", str(FIXTURES / "hhr_example.ring"), "--literal"], capsys
    )
    assert code == 0 and "PASS" in out
    # on the pinned-basis symmetric-relation fixture both readings fail
    # condition (1) and the disagreement is surfaced
    code, out, _ = run_main(
        ["check", "regular", str(FIXTURES / "sym_relation.ring"), "--out", "json"],
        capsys,
    )
    assert code == 1
    doc = json.loads(out)
    assert any("disagree" in w for w in doc["warnings"])


def test_priddy_command(capsys):
    code, out, _ = run_main(
        ["priddy", str(FIXTURES / "poly_m2_n3.ring"), "--hmax", "4", "--dmax", "5"],
        capsys,
    )
    assert code == 0
    assert "PASSED" in out


def test_priddy_command_fails_on_a_non_koszul_ring(tmp_path, capsys):
    ring = tmp_path / "non_koszul.ring"
    ring.write_text(NON_KOSZUL_RING_TEXT)
    code, out, err = run_main(["priddy", str(ring), "--hmax", "4", "--dmax", "5"], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == \
        "bounded Koszulness certificate FAILED, witness (i, degree, rank) = (2, 4, 1)"


def test_resolve_verify_round_trip(tmp_path, capsys):
    exported = tmp_path / "complex.json"
    code, out, _ = run_main(
        ["resolve", str(FIXTURES / "hhr_example.ring"), "--method", "closed",
         "--hmax", "3", "--export", str(exported)],
        capsys,
    )
    assert code == 0
    doc = json.loads(exported.read_text())
    assert doc["kind"] == "resolution"
    code, out, _ = run_main(
        ["verify", str(FIXTURES / "hhr_example.ring"), "--complex", str(exported),
         "--hmax", "3", "--dmax", "6"],
        capsys,
    )
    assert code == 0


def test_resolve_methods_agree(capsys):
    outs = []
    for method in ("cone", "closed"):
        code, out, _ = run_main(
            ["resolve", str(FIXTURES / "poly_stable_mixed.ring"), "--method", method,
             "--hmax", "3", "--out", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        outs.append(doc["complex"]["modules"])
    assert outs[0] == outs[1]


def test_json_output_deterministic(capsys):
    argv = ["betti", str(FIXTURES / "poly_m2_n2.ring"), "--out", "json"]
    _, out1, _ = run_main(argv, capsys)
    _, out2, _ = run_main(argv, capsys)
    assert out1 == out2


def test_field_override(capsys):
    code, out, _ = run_main(
        ["betti", str(FIXTURES / "poly_m2_n2.ring"), "--field", "7", "--out", "json"],
        capsys,
    )
    assert code == 0


def test_missing_ideal_is_input_error(capsys):
    code, _, err = run_main(["betti", str(FIXTURES / "conca.ring")], capsys)
    assert code == 2
    assert "ideal" in err


def test_bad_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.ring"
    bad.write_text("field p=101\nvars x y\nrel x*y*y\n")
    code, _, err = run_main(["betti", str(bad)], capsys)
    assert code == 2
    assert "line 3" in err



@pytest.mark.parametrize("out", ["text", "json"])
def test_betti_refuses_an_ideal_without_linear_quotients(out, tmp_path, capsys):
    # (x^2, y^2) in k[x, y]: the rank-sum formula would print only beta_0 = 2
    # and miss the Koszul syzygy in degree 4
    ring = tmp_path / "pure_squares.ring"
    ring.write_text("field p=101\nvars x y\nideal x^2, y^2\n")
    code, stdout, err = run_main(["betti", str(ring), "--out", out], capsys)
    assert (code, stdout, err) == (
        2, "", "input error: ideal does not have linear quotients to the checked degree\n")


def test_resolve_export_to_an_unwritable_path_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_main(
        ["resolve", str(FIXTURES / "hhr_example.ring"), "--export", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot write {target}: ")
    assert not target.exists()

def test_sym_relation_fixture_resolves(capsys):
    code, out, _ = run_main(
        ["resolve", str(FIXTURES / "sym_relation.ring"), "--method", "cone",
         "--hmax", "3", "--dmax", "6"],
        capsys,
    )
    assert code == 0


def test_console_script_runs():
    # the child imports the koszulcone this process imports, with or without
    # a PYTHONPATH in the environment
    src = str(Path(koszulcone.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "koszulcone.cli", "selftest"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout


def test_relations_without_field_line_default_to_gf101(tmp_path, capsys):
    js = parse_ring_text("vars x y\nrel x*y - y^2\nideal x\n")
    assert js.field_char == 101
    assert js.relations == (((1, (0, 1)), (100, (1, 1))),)
    # a field line after the relations still decides their coefficients
    js = parse_ring_text("vars x y\nrel 1/2*x*y\nfield q\n")
    assert js.field_char == 0 and str(js.relations[0][0][0]) == "1/2"
    ring = tmp_path / "nofield.ring"
    ring.write_text("vars x y\nrel x*y\nideal x\n")
    with_field = tmp_path / "field.ring"
    with_field.write_text("field p=101\n" + ring.read_text())
    code, out, err = run_main(["dual", str(ring), "--out", "json"], capsys)
    assert (code, err) == (0, "")
    assert run_main(["dual", str(with_field), "--out", "json"], capsys) == (0, out, "")


@pytest.mark.parametrize("bad", ["4", "abc", "1", "-7"])
def test_bad_field_flag_is_input_error(bad, capsys):
    code, out, err = run_main(
        ["dual", str(FIXTURES / "hhr_example.ring"), "--field", bad], capsys)
    assert code == 2 and out == ""
    assert err.startswith("input error: --field") and "Traceback" not in err


def test_cone_d_squared_failure_exits_1_with_witness(monkeypatch, capsys):
    corrupt_lifts(monkeypatch)
    code, out, err = run_main(
        ["resolve", str(FIXTURES / "poly_m2_n2.ring"), "--method", "cone", "--hmax", "3"],
        capsys)
    assert code == 1 and out == ""
    assert "d.d = 0" in err and "witness: (" in err


@pytest.mark.parametrize("out", ["text", "json"])
def test_dual_past_the_candidate_limit_exits_1_with_one_line(out, monkeypatch, capsys):
    # comp(2) of the fixture holds 7 entries, so its degree-3 step has
    # 3 * 7 = 21 candidate entries
    monkeypatch.setattr(dual, "CANDIDATE_ENTRY_LIMIT", 20)
    code, stdout, err = run_main(
        ["dual", str(FIXTURES / "hhr_example.ring"), "--hmax", "4", "--out", out], capsys)
    assert code == 1 and stdout == ""
    assert err == ("check failed: degree 3 dual component: 21 candidate entries "
                   "exceed the limit 20\n")


@pytest.mark.parametrize("out", ["text", "json"])
def test_a_degree_past_the_monomial_limit_exits_1_with_one_line(out, monkeypatch, capsys):
    # degree 5 of the fixture's 3 variables has comb(7, 2) = 21 monomials
    monkeypatch.setattr(algebra, "MONOMIAL_LIMIT", 20)
    code, stdout, err = run_main(
        ["resolve", str(FIXTURES / "hhr_example.ring"), "--hmax", "3", "--dmax", "4",
         "--out", out], capsys)
    assert code == 1 and stdout == ""
    assert err == "check failed: degree 5: 21 monomials in 3 variables exceed the limit 20\n"


@pytest.mark.parametrize("out", ["text", "json"])
def test_a_high_exponent_stops_at_the_monomial_limit(out, tmp_path, capsys):
    # the ideal generator's degree alone has comb(67, 7) monomials; they were
    # enumerated until memory ran out
    ring = tmp_path / "r.ring"
    ring.write_text("field p=101\nvars x1 x2 x3 x4 x5 x6 x7 x8\nideal x1^60\n")
    code, stdout, err = run_main(
        ["betti", str(ring), "--hmax", "2", "--dmax", "2", "--out", out], capsys)
    assert code == 1 and stdout == ""
    assert err == (f"check failed: degree 60: {math.comb(67, 7)} monomials in 8 variables "
                   f"exceed the limit {algebra.MONOMIAL_LIMIT}\n")


def _export_hhr(tmp_path, capsys):
    exported = tmp_path / "complex.json"
    code, _, _ = run_main(
        ["resolve", str(FIXTURES / "hhr_example.ring"), "--method", "closed",
         "--hmax", "3", "--export", str(exported)], capsys)
    assert code == 0
    return json.loads(exported.read_text())


def _set(*path_and_value):
    *path, value = path_and_value

    def mutate(doc):
        obj = doc
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        return doc
    return mutate


def _pad_coords(doc):
    doc["differentials"][0]["entries"][0]["coefficient"]["coords"].append("0")
    return doc


BAD_COMPLEX_DOCS = {
    "modules-not-a-list": (lambda doc: {"field": 101, "modules": 5, "differentials": []},
                           "modules must be a list"),
    "dual-ambient-not-a-power": (_set("modules", 2, "basis", 0, "dual_ambient", 10 ** 12),
                                 "dual_ambient 1000000000000 is not n^k"),
    "dual-word-outside-ambient": (_set("modules", 2, "basis", 0, "dual_word", [[3, "1"]]),
                                  "dual_word index 3 outside 0..2"),
    "row-out-of-range": (_set("differentials", 0, "entries", 0, "row", 1),
                         "row must be 0, not 1"),
    "col-out-of-range": (_set("differentials", 1, "entries", 0, "col", 99),
                         "col must be an integer in 0.."),
    "coefficient-length": (_pad_coords, "5 coords for degree 2, which has dimension 4"),
    "coefficient-degree": (_set("differentials", 1, "entries", 0, "coefficient", "degree", 2),
                           "degree must be 1, not 2"),
    "bad-scalar": (_set("differentials", 1, "entries", 0, "coefficient", "coords", 0, "1/2"),
                   "bad scalar '1/2' for GF(101)"),
    "label-not-an-integer": (_set("modules", 1, "basis", 0, "generator_index", "m1"),
                             "generator_index must be an integer >= 1"),
    "label-beyond-the-ideal": (_set("modules", 1, "basis", 0, "generator_index", 3),
                               "generator_index 3 exceeds the ideal's 2 generators"),
}


def test_verify_rejects_an_entry_into_an_empty_module(tmp_path, capsys):
    # the Koszul complex on three variables, exported to --hmax 4, has an
    # empty module 4, so no entry of differentials[3] has a valid column
    ring = str(FIXTURES / "poly_vars_n3.ring")
    exported = tmp_path / "complex.json"
    code, _, _ = run_main(["resolve", ring, "--hmax", "4", "--export", str(exported)], capsys)
    doc = json.loads(exported.read_text())
    assert code == 0 and [len(m["basis"]) for m in doc["modules"]] == [1, 3, 3, 1, 0]
    doc["differentials"][3]["entries"].append(
        {"row": 0, "col": 0, "coefficient": {"degree": 1, "coords": ["1", "0", "0"]}})
    exported.write_text(json.dumps(doc))
    code, out, err = run_main(["verify", ring, "--hmax", "4", "--complex", str(exported)], capsys)
    assert (code, out, err) == (2, "", "input error: differentials[3].entries[0]: col must be "
                                      "absent, as that module is empty, not 0\n")


@pytest.mark.parametrize("case", sorted(BAD_COMPLEX_DOCS))
def test_verify_rejects_malformed_complex(case, tmp_path, capsys):
    mutate, message = BAD_COMPLEX_DOCS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(_export_hhr(tmp_path, capsys))))
    code, out, err = run_main(
        ["verify", str(FIXTURES / "hhr_example.ring"), "--complex", str(bad), "--hmax", "3"],
        capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and message in err, err


@pytest.mark.parametrize("out", ["text", "json"])
def test_verify_complex_checks_d_squared_of_an_edited_file(out, tmp_path, capsys):
    # entry 1 of the top differential is x3; x2 in its place breaks d.d = 0
    # at (3, 0, 1), and only a full composition of the read file sees it
    doc = _export_hhr(tmp_path, capsys)
    entry = doc["differentials"][2]["entries"][1]
    assert entry["coefficient"]["coords"] == ["0", "0", "100"]
    entry["coefficient"]["coords"] = ["0", "100", "0"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, stdout, err = run_main(
        ["verify", str(FIXTURES / "hhr_example.ring"), "--complex", str(bad), "--hmax", "3",
         "--out", out], capsys)
    assert (code, err) == (1, "")
    if out == "json":
        got = json.loads(stdout)
        assert (got["d2_zero"], got["d2_witness"], got["minimal"]) == (False, [3, 0, 1], True)
    else:
        assert stdout.splitlines()[0] == "d.d = 0: False"
        assert "witnesses: d2=(3, 0, 1) minimality=None" in stdout


@pytest.mark.parametrize("command, method", [
    ("resolve", "cone"), ("resolve", "closed"), ("verify", "cone"), ("verify", "closed")])
def test_a_built_resolution_composes_d_squared_once(command, method, monkeypatch, capsys):
    # the constructor certifies d.d = 0 on the whole resolution, and the
    # report reuses that certificate
    checked = []
    witness = koszulcone.complexes.ChainComplex.d_squared_witness

    def counted(c):
        if c.kind == "resolution":
            checked.append(c.ranks())
        return witness(c)

    monkeypatch.setattr(koszulcone.complexes.ChainComplex, "d_squared_witness", counted)
    code, stdout, _ = run_main(
        [command, str(FIXTURES / "hhr_example.ring"), "--method", method, "--hmax", "3",
         "--dmax", "4"], capsys)
    assert code == 0 and "d.d = 0: True" in stdout
    assert checked == [[1, 2, 3, 5]]


def test_verify_missing_complex_file_is_input_error(tmp_path, capsys):
    code, out, err = run_main(
        ["verify", str(FIXTURES / "hhr_example.ring"), "--complex", str(tmp_path / "no.json")],
        capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: cannot read")


def test_non_utf8_ring_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "r.ring"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run_main(["dual", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot read {bad}: ") and err.count("\n") == 1, err


def test_deeply_nested_complex_json_is_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_main(
        ["verify", str(FIXTURES / "hhr_example.ring"), "--complex", str(deep)], capsys)
    assert (code, out) == (2, "")
    assert err == f"input error: {deep}: JSON nested too deeply to read\n"


def test_verify_non_json_complex_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("resolution of A/J\n")
    code, out, err = run_main(
        ["verify", str(FIXTURES / "hhr_example.ring"), "--complex", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and "is not JSON" in err


def exit_code(argv, capsys):
    """main's exit code on argv, with argparse's SystemExit(2) read as 2;
    any other exception escapes."""
    try:
        code = main(argv)
    except SystemExit as e:
        assert e.code == 2, argv
        code = 2
    capsys.readouterr()
    return code


def json_leaves(obj, path=()):
    """The paths to the scalars and empty containers of a JSON value."""
    if isinstance(obj, (dict, list)) and obj:
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from json_leaves(value, path + (key,))
    else:
        yield path


def test_mutated_complex_documents_exit_cleanly(tmp_path, capsys):
    # one leaf of the hhr export replaced, deleted or duplicated: verify
    # --complex reports it with an exit code and no traceback
    doc = _export_hhr(tmp_path, capsys)
    leaves = list(json_leaves(doc))
    values = (None, True, -1, 0, 1, 2, 100, 10 ** 12, 1.5, "", "0", "-1", "1/2", "x", [], {},
              [[0, "1"]])
    rng = random.Random(2828)
    bad = tmp_path / "bad.json"
    codes = Counter()
    for _ in range(300):
        mutated = json.loads(json.dumps(doc))
        *path, last = rng.choice(leaves)
        parent = mutated
        for key in path:
            parent = parent[key]
        how = rng.choice(("replace", "delete", "duplicate"))
        if how == "replace":
            parent[last] = json.loads(json.dumps(rng.choice(values)))
        elif how == "delete":
            del parent[last]
        elif isinstance(parent, list):
            parent.insert(last, parent[last])
        else:
            parent[last] = [parent[last], parent[last]]
        bad.write_text(json.dumps(mutated))
        codes[exit_code(["verify", str(FIXTURES / "hhr_example.ring"), "--complex", str(bad),
                         "--hmax", "3"], capsys)] += 1
    assert set(codes) <= {0, 1, 2} and codes[2] > 0, codes


def test_mutated_ring_texts_exit_cleanly(tmp_path, capsys):
    # one character of a fixture inserted, deleted or replaced: five
    # commands report the ring with an exit code and no traceback
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.ring"))]
    alphabet = "x123^*+-/ \n0pqrelvaidf,#"
    rng = random.Random(2829)
    ring = tmp_path / "mutated.ring"
    codes = Counter()
    for _ in range(300):
        text = list(rng.choice(texts))
        i = rng.randrange(len(text))
        how = rng.choice(("insert", "delete", "replace"))
        if how == "insert":
            text.insert(i, rng.choice(alphabet))
        elif how == "delete":
            del text[i]
        else:
            text[i] = rng.choice(alphabet)
        ring.write_text("".join(text))
        for command in (["betti"], ["dual"], ["resolve"], ["priddy"], ["check", "quotients"]):
            codes[exit_code([*command, str(ring), "--hmax", "2", "--dmax", "3"], capsys)] += 1
    assert set(codes) <= {0, 1, 2} and codes[0] > 0 and codes[2] > 0, codes


@pytest.mark.parametrize("field", ["103", "q"])
def test_verify_refuses_a_complex_over_another_field(field, tmp_path, capsys):
    exported = tmp_path / "complex.json"
    exported.write_text(json.dumps(_export_hhr(tmp_path, capsys)))
    code, out, err = run_main(
        ["verify", str(FIXTURES / "hhr_example.ring"), "--complex", str(exported),
         "--hmax", "3", "--field", field], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: the complex is over field 101")


def _field_invariants(command, doc):
    """The parts of a command's JSON answer that must not depend on the field
    when the ring has integer relations and no 101-torsion."""
    if command == "resolve":
        cx = doc["complex"]
        degrees = [[b["internal_degree"] for b in m["basis"]] for m in cx["modules"]]
        return degrees, doc["verified"]
    if command == "priddy":
        return doc["ranks"], doc["homology"], doc["passed"]
    if command == "betti":
        return doc
    return doc["dims"]


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.ring")))
def test_gf101_and_rationals_agree_on_fixtures(fixture, capsys):
    path = FIXTURES / fixture
    commands = ["priddy", "dual"]
    if parse_ring_text(path.read_text()).ideal:
        commands += ["resolve", "betti"]
    for command in commands:
        answers = []
        for field in ("101", "q"):
            argv = [command, str(path), "--hmax", "3", "--dmax", "4", "--field", field,
                    "--out", "json"]
            if command == "resolve":
                argv += ["--method", "cone"]
            code, out, err = run_main(argv, capsys)
            assert (code, err) == (0, ""), (command, field)
            answers.append(_field_invariants(command, json.loads(out)))
        assert answers[0] == answers[1], command


def test_proper_fractions_over_the_rationals_from_products_to_verify(tmp_path, capsys):
    # the normal forms of the fractional ring hold proper fractions, so its
    # products, compositions and differentials do too: each kernel equals its
    # per-product expansion, every value is in the one QQ value form, and
    # resolve --field q exports a resolution that verify certifies
    A = fractional_ring()
    F = iterated_mapping_cone(MonomialIdeal(A, parse_ring_text(FRACTIONAL_RING_TEXT).ideal), 4)
    rng = random.Random(2728)
    fractions = Counter()
    for l in range(1, len(F.diffs)):
        for a in F.diffs[l].values():
            assert all(canonical_qq(x) for _, x in a.terms)
            fractions["differentials"] += any(type(x) is Fraction for _, x in a.terms)
            for e in range(3):
                cols = A.multiplication_columns(a, e)
                assert cols == algebra_oracle.multiplication_columns(A, a, e)
                values = [x for col in cols for x in col.values()]
                assert all(canonical_qq(x) for x in values)
                fractions["columns"] += any(type(x) is Fraction for x in values)
        # d_l against one scaled element per generator of F_l, into one column
        second = {(g, 0): A.scale(A.field.of(rng.choice((1, -1, Fraction(3, 2)))),
                                  A.var(rng.randrange(3)))
                  for g in range(len(F.modules[l]))}
        got = [(c, list(sums.items())) for c, sums in _compose_columns(A, F.diffs[l], second)]
        want = [(c, list(sums.items()))
                for c, sums in algebra_oracle.compose_columns(A, F.diffs[l], second)]
        assert got == want
        values = [x for _, sums in got for _, acc in sums for x in acc.values()]
        assert all(canonical_qq(x) for x in values)
        fractions["compositions"] += any(type(x) is Fraction for x in values)
    assert F.d_squared_witness() is None
    assert all(fractions[kind] for kind in ("differentials", "columns", "compositions"))
    ring, export = tmp_path / "fractional.ring", tmp_path / "fractional.json"
    ring.write_text(FRACTIONAL_RING_TEXT)
    bounds = ["--hmax", "4", "--dmax", "5", "--field", "q", "--out", "json"]
    code, out, err = run_main(["resolve", "--method", "cone", str(ring), "--export", str(export),
                               *bounds], capsys)
    assert (code, err) == (0, "")
    assert any("/" in x for x in re.findall(r'"(-?[0-9/]+)"', export.read_text()))
    code, out, err = run_main(["verify", "--complex", str(export), str(ring), *bounds], capsys)
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert doc["d2_zero"] and doc["exact_in_positive_degrees"] and doc["minimal"]


def random_integer_ring_text(rng):
    """Ring file text over QQ in 3-4 variables with 1-2 relations, each a sum
    of quadratic monomials with integer coefficients in +-1..+-7."""
    names = [f"x{i}" for i in range(1, rng.randint(3, 4) + 1)]
    quadrics = [f"{a}*{b}" if a != b else f"{a}^2"
                for a, b in itertools.combinations_with_replacement(names, 2)]
    lines = ["field q", "vars " + " ".join(names)]
    for _ in range(rng.randint(1, 2)):
        terms = [f"{rng.choice('+-')} {rng.randint(1, 7)}*{m}"
                 for m in rng.sample(quadrics, rng.randint(1, 4))]
        lines.append("rel " + " ".join(terms).lstrip("+ "))
    return "\n".join(lines) + "\n"


def test_a_large_prime_and_the_rationals_agree_on_random_integer_rings(tmp_path, capsys):
    # GF(1048573) divides no minor of these small integer matrices in
    # practice, so dual dims and Priddy ranks must agree with QQ's; a draw
    # that differs is a finding about the elimination, not a bad seed
    rng = random.Random(27027)
    ring = tmp_path / "random.ring"
    for _ in range(20):
        text = random_integer_ring_text(rng)
        ring.write_text(text)
        for command, bounds in (("dual", ["--hmax", "4"]),
                                ("priddy", ["--hmax", "3", "--dmax", "4"])):
            answers = []
            for field in ("1048573", "q"):
                code, out, err = run_main([command, str(ring), *bounds, "--field", field,
                                           "--out", "json"], capsys)
                answers.append((code, _field_invariants(command, json.loads(out))
                                if code == 0 else None))
            assert answers[0] == answers[1], (command, text)
            assert answers[0][0] in (0, 1)


def all_quadrics_ring_text(kind, n, field):
    """Ring file of the squares or polynomial ring in x1..xn with the ideal of all quadrics."""
    names = [f"x{i}" for i in range(1, n + 1)]
    lines = [f"field {field}", "vars " + " ".join(names)]
    if kind == "squares":
        lines += [f"rel {v}^2" for v in names]
        pairs = itertools.combinations(range(n), 2)
    else:
        pairs = itertools.combinations_with_replacement(range(n), 2)
    lines.append("ideal " + ", ".join(
        f"{names[a]}^2" if a == b else f"{names[a]}*{names[b]}" for a, b in pairs))
    return "\n".join(lines) + "\n"


# sha256 of stdout, recorded before dual components were built block by
# block; betti and check strongly-koszul answers do not depend on the field
PINNED_JSON_SHA256 = {
    ("squares", "p=101", "dual"):
        "a19566a51b2131569048ae7294ab6bbc1c4c701c31f3cf7e0aaeebeaed480fca",
    ("squares", "q", "dual"):
        "d43700897edf3f0a8ec5256bc8f02fc7cca7f0d0f94e537da175fe2b4c0e2b5f",
    ("poly", "p=101", "dual"):
        "fd5225f6d57d47d7f50bc64b0f77cafdb9ee982bc6bc0ac739d8823b1028a8bf",
    ("poly", "q", "dual"):
        "96386f28793cfa17d8dc743f11c4d40dd311b54ded17985f0204c1009baf2157",
    **{("squares", field, "betti"):
       "dfca1a8fd8cf30d8c8dbf0b4c968365704ab827d817061f74166ede4f7cdcd7e"
       for field in ("p=101", "q")},
    **{("poly", field, "betti"):
       "964689fef492b34c86900a794c87229850324be207680986c5d540fcaa17fcd3"
       for field in ("p=101", "q")},
    **{("squares", field, "check strongly-koszul"):
       "cd7367d9390a5f5876cb135947661d298bc0a36fdf991588af3c0592f21d460c"
       for field in ("p=101", "q")},
    **{("poly", field, "check strongly-koszul"):
       "3f772aed678aceae952bcd2a89e6f46986ca610b55da561bc90c5bb81be62d2d"
       for field in ("p=101", "q")},
}


@pytest.mark.parametrize("kind,field,command", sorted(PINNED_JSON_SHA256))
def test_exported_json_bytes_are_pinned(kind, field, command, tmp_path, capsys):
    ring = tmp_path / f"{kind}4.ring"
    ring.write_text(all_quadrics_ring_text(kind, 4, field))
    code, out, err = run_main(
        [*command.split(), str(ring), "--hmax", "5", "--out", "json"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_JSON_SHA256[kind, field, command]


# sha256 of `resolve --method closed --hmax 4 --out json` stdout on the hhr
# fixture and the polynomial rings with all quadrics, and of the printed-mode
# closed form's complex_to_json on hhr (printed_closed_form), recorded before
# the closed form was built as the iterated cone over its explicit comparison
# maps
PINNED_CLOSED_SHA256 = {
    ("hhr_example", "p=101"): "3276d8df16069f9dbdef81bec82fc6312215039d17f71a9152b449e7fcb530c2",
    ("poly3", "p=101"): "0c989dd5c1d0f0837bb261ebe1674f3d9ffa7286ea3617a820cab1e5df7b3584",
    ("poly3", "q"): "e7add8acf99a61f651915fe330e79fcfb39ebaf6e01628426abb83b0b99a086c",
    ("poly4", "p=101"): "c9313e724e3b578ee1a0c052182e16376d65896cada1ea81c5e2c393174aa766",
    ("poly4", "q"): "468e610eadbfdac00c90c3e2b605e466710020adb2963b5474cc547fffda67e1",
    ("hhr_example", "printed"): "7aea79239067c7830ce29a799173654a79af552175f83c398a4beac6c447ff5d",
}


@pytest.mark.parametrize("ring,field",
                         sorted(k for k in PINNED_CLOSED_SHA256 if k[1] != "printed"))
def test_closed_form_json_bytes_are_pinned(ring, field, tmp_path, capsys):
    if ring == "hhr_example":
        path = FIXTURES / "hhr_example.ring"  # over p=101
    else:
        path = tmp_path / f"{ring}.ring"
        path.write_text(all_quadrics_ring_text("poly", int(ring[-1]), field))
    code, out, err = run_main(
        ["resolve", "--method", "closed", str(path), "--hmax", "4", "--out", "json"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CLOSED_SHA256[ring, field]


def test_printed_closed_form_bytes_are_pinned():
    F = printed_closed_form(hhr_ideal(), 4)
    text = json.dumps(complex_to_json(F), sort_keys=True, indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        PINNED_CLOSED_SHA256["hhr_example", "printed"]


# sha256 of `check quotients|regular --out json` stdout, recorded before the
# colon checks compared dimensions; the answers do not depend on the field
PINNED_CHECK_SHA256 = {
    **{(ring, field, "check quotients"): sha for ring, sha in (
        ("squares4", "bb5f8218960eac71024d51e93b685e45754d73f5223b42f474d171e2cef4b132"),
        ("poly4", "659914dbdbaee41c6f78abbf699267399e5ff09e36fee3e3e820a12944e6bfac"),
        ("hhr_example", "ee2a154ee006b3659a89c3df1b58d67ba5cf140670849e56438ea0586235e297"),
    ) for field in ("101", "q")},
    **{(ring, field, "check regular"): sha for ring, sha in (
        ("squares4", "47c0cfcdc596fb21bcaa5ac36c52d15a1a246f1d277e808b0ce799f37816b116"),
        ("poly4", "fd4bfe69d552548e5673b0b744b6d2b642ed45fa4be21b0f476d931ebf9c7a03"),
        ("hhr_example", "529e384b7fe0408264bf043656d7c0ce785099e3d1629f466e14ec6940f194e7"),
    ) for field in ("101", "q")},
}


@pytest.mark.parametrize("ring,field,command", sorted(PINNED_CHECK_SHA256))
def test_check_json_bytes_are_pinned(ring, field, command, tmp_path, capsys):
    if ring == "hhr_example":
        path = FIXTURES / "hhr_example.ring"
    else:
        path = tmp_path / f"{ring}.ring"
        path.write_text(all_quadrics_ring_text(ring[:-1], 4, "p=101"))
    code, out, err = run_main(
        [*command.split(), str(path), "--field", field, "--out", "json"], capsys)
    # the only failing case: the ordering of all quadrics over the squares ring is not regular
    assert (code, err) == (1 if (ring, command) == ("squares4", "check regular") else 0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CHECK_SHA256[ring, field, command]


@pytest.mark.parametrize("field", ["p=101", "q"])
@pytest.mark.parametrize("e", [2, 3])
def test_check_quotients_failing_ordering_is_pinned(e, field, tmp_path, capsys):
    # (x^e, y^e) in k[x, y]: the colon (x^e) : y^e = (x^e) is not linear, first in degree e
    ring = tmp_path / "pure_powers.ring"
    ring.write_text(f"field {field}\nvars x y\nideal x^{e}, y^{e}\n")
    code, out, err = run_main(["check", "quotients", str(ring), "--out", "json"], capsys)
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "check": "linear-quotients", "command": "check quotients",
        "details": [
            {"checked_to": 4, "colon_variables": [], "fail_degree": None, "generator": 1,
             "linear": True},
            {"checked_to": 4, "colon_variables": [], "fail_degree": e, "generator": 2,
             "linear": False},
        ],
        "first_witness": None, "passed": False, "warnings": [],
    }
    code, out, err = run_main(["check", "quotients", str(ring)], capsys)
    assert (code, err) == (1, "")
    assert out == ("check quotients: FAIL\n  witness: {'generator': 2, 'colon_variables': [], "
                   f"'checked_to': 4, 'linear': False, 'fail_degree': {e}}}\n")


@pytest.mark.parametrize("literal", [[], ["--literal"]])
def test_check_regular_without_linear_quotients_prints_the_quotient_witness(
        literal, tmp_path, capsys):
    # the failed linear-quotient report is nested in the regular-ordering
    # details; the text prints its failing detail, the JSON nests it as before
    ring = tmp_path / "pure_powers.ring"
    ring.write_text("field p=101\nvars x y\nideal x^2, y^2\n")
    code, out, err = run_main(["check", "regular", *literal, str(ring)], capsys)
    assert (code, err) == (1, "")
    assert out == ("check regular: FAIL\n  note: linear-quotients precondition failed\n"
                   "  witness: {'generator': 2, 'colon_variables': [], 'checked_to': 4, "
                   "'linear': False, 'fail_degree': 2}\n")
    code, out, err = run_main(["check", "regular", *literal, str(ring), "--out", "json"], capsys)
    doc = json.loads(out)
    assert (code, doc["passed"], doc["warnings"]) == (1, False,
                                                      ["linear-quotients precondition failed"])
    assert [d["check"] for d in doc["details"]] == ["linear-quotients"]
    assert [d["fail_degree"] for d in doc["details"][0]["details"]] == [None, 2]


def load_rungs():
    """tools/rungs.py as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / "rungs.py"
    spec = importlib.util.spec_from_file_location("tools_rungs", path)
    rungs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rungs)
    return rungs


# the dense generic rings of the rung ladder
generic_ring_text = load_rungs().generic_ring_text


@pytest.mark.parametrize("ring", ["sym_relation", "generic4"])
def test_both_elimination_kernels_give_the_same_cli_bytes(ring, tmp_path, capsys, monkeypatch):
    # a work budget scaled by 0 eliminates every nonzero GF(p) matrix in the
    # dense kernel, by 10**12 every one in the sparse kernel; 1 is the rule
    if ring == "sym_relation":
        path = FIXTURES / "sym_relation.ring"
    else:
        path = tmp_path / "generic4.ring"
        path.write_text(generic_ring_text(0, 4, 3))
    dense_calls = []
    dense = linalg._dense_rref

    def counting(*args):
        dense_calls.append(1)
        return dense(*args)

    monkeypatch.setattr(linalg, "_dense_rref", counting)
    outputs, used = {}, {}
    for scale in (0, 1, 10 ** 12):
        scale_work_budget(monkeypatch, scale)
        dense_calls.clear()
        outputs[scale] = [
            run_main([*command, str(path), "--hmax", "4", "--dmax", "4", "--out", fmt], capsys)
            for command in (["dual"], ["priddy"], ["betti"], ["resolve", "--method", "cone"])
            for fmt in ("json", "text")]
        used[scale] = len(dense_calls)
    assert all(code == 0 and err == "" for code, _, err in outputs[1])
    assert outputs[0] == outputs[1] == outputs[10 ** 12]
    assert used[0] > used[1] and used[10 ** 12] == 0
    # the dense generic ring still mixes kernels under the budget rule; every
    # sym_relation matrix fits it in the forward pass plus back-substitution
    if ring == "generic4":
        assert used[1] > 0


# exit code, sha256 of stdout and sha256 of stderr of the parser's own paths
# at 80 columns, recorded while main built the whole parser tree for every
# command line; no ring file is read on these paths
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PINNED_PARSER = {
    ("--help",):
        (0, "68b5aa82efacf84bf662ea67131ebd4181fe2b3e04cb9c308ec0ed3b1ac70234", EMPTY_SHA256),
    ("dual", "--help"):
        (0, "1ddccdaf639f387c8d73d0843ffb46ce67ee1cafe9808e583d8cf308dcbd60ae", EMPTY_SHA256),
    ("priddy", "--help"):
        (0, "9c84bb3e01f66bb48ade6403c1a06c1e351e889a37e926fc375cfe7c6edb3e14", EMPTY_SHA256),
    ("check", "--help"):
        (0, "3a672fd771e6b0c745864c42441caef872d7168e8eec11ebfe0386bdcad8b80f", EMPTY_SHA256),
    ("resolve", "--help"):
        (0, "acb268cfa6d3ae97e1f38a94cf842dcc6ecc888d32f3567650ab09ab6a09ae4b", EMPTY_SHA256),
    ("betti", "--help"):
        (0, "2fb40dc5fd1209b62565e13133eb965511c7d77f83ac11fe513b31efe2d3feb0", EMPTY_SHA256),
    ("verify", "--help"):
        (0, "2f75219161972da15119b43da0f9a3b1c7198728fec624e7458d41ae12c1591c", EMPTY_SHA256),
    ("selftest", "--help"):
        (0, "08bbfc45e7ed6fd9b40ebace3fdda806f16521f9c2806b10117db44eea33d5f0", EMPTY_SHA256),
    ():
        (2, EMPTY_SHA256, "cbab767c1010ea96df220b6d0ea4861ab01e51403a1e73b002ae109a00ecb40a"),
    ("bogus", "hhr_example.ring"):
        (2, EMPTY_SHA256, "ed6d2fdeba3671a4f10bd6db31e2292d8e73ca78addb89e8ac686a7f553f8681"),
    ("dual", "hhr_example.ring", "--bogus"):
        (2, EMPTY_SHA256, "41ae7c0a1f8ed2ba1cc75779e1974054f90c6e9d8b9020cdb347f69e31062a1a"),
    ("dual", "hhr_example.ring", "--out", "xml"):
        (2, EMPTY_SHA256, "6cbfe2caccc55da39449689b0490df14a98bf506f875c58c855f841034b3641e"),
    ("dual", "hhr_example.ring", "--hmax", "x"):
        (2, EMPTY_SHA256, "3167b3e72a9209e9f5cbd495921826fb1c07a9c3fcf73ebb31205b1da1637f05"),
    ("dual",):
        (2, EMPTY_SHA256, "d445cffa0d672dab6e1062b840e2e704682cc413b868666b6d5f1f97dda8770d"),
    ("check", "bogus", "hhr_example.ring"):
        (2, EMPTY_SHA256, "88cd05273d6206c2b3598ba59336b1149c29786f69053433d0e50e60398f7e16"),
}


@pytest.mark.parametrize("argv", sorted(PINNED_PARSER))
def test_parser_help_and_error_bytes_are_pinned(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    out = capsys.readouterr()
    assert (exit_.value.code, hashlib.sha256(out.out.encode()).hexdigest(),
            hashlib.sha256(out.err.encode()).hexdigest()) == PINNED_PARSER[argv]
    assert parsed(cli._parse_args, list(argv)) == \
        parsed(cli.build_parser().parse_args, list(argv))


def bench_argvs():
    """The command line of every perfbench job, over a ring directory."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return [job.argv("rings") for jobs in workloads.WORKLOADS.values() for job in jobs]


def test_one_subcommand_parser_reads_bench_jobs_as_the_whole_tree(capsys):
    argvs = bench_argvs()
    assert {argv[0] for argv in argvs} >= {"resolve", "priddy", "betti", "dual", "check"}
    for argv in argvs:
        args = cli._parse_args(argv)
        assert args == cli.build_parser().parse_args(argv)
        assert args.func is cli.SUBCOMMANDS[argv[0]][0]
    assert capsys.readouterr() == ("", "")


def test_a_successful_resolve_never_builds_the_whole_parser(tmp_path, monkeypatch, capsys):
    def refuse():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", refuse)
    exported = tmp_path / "complex.json"
    code = main(["resolve", str(FIXTURES / "hhr_example.ring"), "--hmax", "3",
                 "--export", str(exported), "--out", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["complex"] == json.loads(exported.read_text())


@pytest.mark.parametrize("spelling", ["flag", "ring file"])
def test_a_prime_past_the_bound_is_an_input_error_at_once(spelling, tmp_path, capsys):
    # trial division up to the square root of this prime takes minutes
    prime = "99999999999999999989"
    if spelling == "flag":
        argv = ["dual", str(FIXTURES / "hhr_example.ring"), "--field", prime]
    else:
        ring = tmp_path / "big.ring"
        ring.write_text(f"field p={prime}\nvars x y\nrel x*y\n")
        argv = ["dual", str(ring)]
    start = time.perf_counter()
    code, out, err = run_main(argv, capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and f"{prime} exceeds the supported prime bound" in err


def test_a_closed_stdout_exits_1_without_a_traceback():
    # the read end is closed before the child starts, so its first write fails
    src = str(Path(koszulcone.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "koszulcone.cli", "dual", str(FIXTURES / "hhr_example.ring"),
             "--hmax", "2", "--out", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def random_json_value(rng, depth=0):
    """A seeded nested value of the types _json_text writes itself."""
    alphabet = 'ab"\\/\n\t\x00\x1f\x7f é€😀\u2028'
    kinds = ["str", "int", "bool", "none"] + (["list", "tuple", "dict"] * 2 if depth < 4 else [])
    kind = rng.choice(kinds)
    if kind == "str":
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))
    if kind == "int":
        return rng.choice([0, -1, rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(-2 ** 80, 2 ** 80)])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    items = [random_json_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return {"".join(rng.choice(alphabet) for _ in range(rng.randrange(4))): v for v in items}


@pytest.mark.parametrize("seed", range(20))
def test_json_text_equals_json_dumps_on_random_values(seed):
    rng = random.Random(seed)
    for _ in range(50):
        value = random_json_value(rng)
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=1)
    for value in ({}, [], (), {"a": {}}, [[]], [{}, [[]], {"b": []}], {"": [()]}):
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=1)


class Count(int):
    pass


@pytest.mark.parametrize("value", [
    1.5, -0.0, 1e300, math.nan, math.inf, -math.inf,
    [1, 2.5, "x"], {"a": [math.nan, {"b": math.inf}]},
    {1: "one", 2: [3, {"c": 4.0}]}, {True: 1, False: [2]}, {1.5: "a", -2.0: [None]},
    [Count(3), {"k": Count(-4)}], {"k": [[1, Count(2)], ["x", 0.5]]},
])
def test_json_text_falls_back_to_json_dumps_exactly(value):
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=1)
    nested = {"outer": [value, {"inner": value}]}
    assert cli._json_text(nested) == json.dumps(nested, sort_keys=True, indent=1)


@pytest.mark.parametrize("value", [object(), {"a": {1, 2}}, {1: 2, "b": 3}])
def test_json_text_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=1)
    with pytest.raises(TypeError):
        cli._json_text(value)
