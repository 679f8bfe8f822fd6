"""File round-trips, parse diagnostics, and the command-line surface."""

import contextlib
import copy
import hashlib
import io
import json
import resource
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hlra import cli, fixtures
from hlra.fileio import ParseError, canonical_dumps, dumps_algebra, loads_algebra, to_document
from hlra.model import twist_by_endomorphism


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def path(data_dir, name):
    return str(data_dir / f"{name}.json")


# -- files ------------------------------------------------------------------


def test_every_bundled_file_round_trips_byte_identically(data_dir):
    files = sorted(data_dir.glob("*.json"))
    assert len(files) == 15
    for f in files:
        text = f.read_text()
        assert dumps_algebra(loads_algebra(text)) == text, f.name


def test_every_bundled_file_matches_its_fixture(data_dir):
    files = sorted(f.name for f in data_dir.glob("*.json"))
    assert files == sorted(f"{name}.json" for name in fixtures.BUNDLED)
    for name, make in fixtures.BUNDLED.items():
        assert loads_algebra((data_dir / f"{name}.json").read_text()) == make(), name


def test_dump_is_a_fixed_point(bundled):
    d1 = dumps_algebra(bundled["fix_s"])
    assert dumps_algebra(loads_algebra(d1)) == d1
    assert d1.endswith("\n")


def test_zero_denominator_is_located(data_dir):
    text = (data_dir / "fix_b.json").read_text()
    bad = text.replace('[[0, 1, 1, "1"]', '[[0, 1, 1, "1/0"]', 1)
    with pytest.raises(ParseError) as exc:
        loads_algebra(bad)
    assert (
        str(exc.value)
        == "line 4, column 25: bracket[0]: zero denominator in rational literal: '1/0'"
    )


def test_json_syntax_error_is_a_parse_error():
    with pytest.raises(ParseError):
        loads_algebra("{")


# -- validate ---------------------------------------------------------------


def test_validate_lists_checks_and_passes(capsys, data_dir):
    code, out, err = run(capsys, "validate", path(data_dir, "fix_b"))
    assert code == 0
    assert "[pass] A.unital: unit [1]" in out
    assert "result: valid" in out
    assert err.startswith("elapsed:")


def test_validate_strict_vs_relaxed(capsys, data_dir):
    code, out, _ = run(capsys, "validate", "--strict", path(data_dir, "fix_e"))
    assert code == 1
    assert "[fail] rep.bracket: at (e,f,t): lhs=[0, 1] rhs=[0, 0]" in out
    code, out, _ = run(capsys, "validate", path(data_dir, "fix_e"))
    assert code == 0
    assert "[warn] rep.bracket" in out


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_cli_reports_parse_position(capsys, data_dir, tmp_path):
    text = (data_dir / "fix_b.json").read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('[[0, 1, 1, "1"]', '[[0, 1, 1, "1/0"]', 1))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert (
        err.splitlines()[0]
        == "error: line 4, column 25: bracket[0]: zero denominator in rational literal: '1/0'"
    )


def _limit_address_space():
    # runs in the child only: 1 GiB is far below a dense grid of the
    # declared size, so expanding one ends in MemoryError
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("dim_l, dim_a, field", [(3000, 0, "psi"), (0, 3000, "phi")])
def test_tiny_file_with_a_huge_dimension_is_an_input_error(tmp_path, dim_l, dim_a, field):
    doc = {"format_version": "1", "dimL": dim_l, "dimA": dim_a, "psi": [], "phi": []}
    doc.update({name: [] for name in ("bracket", "mul", "action", "anchor")})
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    r = subprocess.run(
        [sys.executable, "-m", "hlra", "validate", str(p)],
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=_limit_address_space,
    )
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert f"error: {field} must be a dense 3000x3000 matrix" in r.stderr.splitlines()


DEEP = "[" * 100_000
LONG_INT = "9" * 5000


@pytest.mark.parametrize(
    "where, text",
    [
        ("file", DEEP),
        ("file", f'{{"format_version": "1", "dimL": {LONG_INT}}}'),
        ("--cartan", DEEP),
        ("--cartan", f"[[{LONG_INT}, 0]]"),
    ],
    ids=["file-deep", "file-long-int", "cartan-deep", "cartan-long-int"],
)
def test_json_past_the_decoder_limits_is_an_input_error(tmp_path, data_dir, where, text):
    """Nesting deeper than the recursion limit and integer literals longer
    than Python's digit limit fail inside json.loads, not in its syntax."""
    if where == "file":
        p = tmp_path / "past_limits.json"
        p.write_text(text)
        argv = ["validate", str(p)]
    else:
        argv = ["decompose", path(data_dir, "fix_b"), "--cartan", text]
    r = subprocess.run([sys.executable, "-m", "hlra", *argv], capture_output=True, text=True, timeout=20)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    prefix = "error: invalid JSON: " if where == "file" else "error: --cartan: not valid JSON: "
    assert r.stderr.splitlines()[0].startswith(prefix), r.stderr


def test_loading_a_wide_file_costs_memory_in_its_entries(tmp_path):
    """A dimL-200 file with empty tensors loads and dumps back without
    building any n x n x n grid."""
    n = 200
    doc = {
        "format_version": "1",
        "dimL": n,
        "dimA": 1,
        "labels": {"L": [f"x{i}" for i in range(n)], "A": ["a0"]},
        "bracket": [],
        "mul": [],
        "action": [],
        "anchor": [],
        "psi": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
        "phi": [["1"]],
        "flags": {"regular": True, "unital": False},
    }
    text = canonical_dumps(doc)
    tracemalloc.start()
    try:
        dumped = dumps_algebra(loads_algebra(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dumped == text
    assert peak < 16 << 20, f"peak {peak / (1 << 20):.1f} MiB"


# -- twist ------------------------------------------------------------------


def test_twist_reproduces_the_doubling_fixture(capsys, data_dir):
    code, out, _ = run(
        capsys, "twist", path(data_dir, "fix_b"), "--psi", "[[1,0],[0,2]]", "--phi", "[[1]]"
    )
    assert code == 0
    assert out == (data_dir / "fix_d.json").read_text()


def test_identity_twist_reproduces_the_input(capsys, data_dir):
    code, out, _ = run(
        capsys, "twist", path(data_dir, "fix_b"), "--psi", "[[1,0],[0,1]]", "--phi", "[[1]]"
    )
    assert code == 0
    assert out == (data_dir / "fix_b.json").read_text()


def test_twist_rejects_a_non_endomorphism(capsys, data_dir):
    code, out, err = run(
        capsys, "twist", path(data_dir, "fix_b"), "--psi", "[[0,1],[1,0]]", "--phi", "[[1]]"
    )
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_twist_rejects_an_invalid_input(capsys, data_dir, tmp_path):
    doc = json.loads((data_dir / "fix_b.json").read_text())
    doc["bracket"].append([1, 1, 0, "1"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "[fail] L.hom_leibniz" in out
    code, out, err = run(capsys, "twist", str(bad), "--psi", "[[1,0],[0,1]]", "--phi", "[[1]]")
    assert code == 1
    assert err.startswith("error: input fails validation: [fail] L.hom_leibniz: ")
    assert out == ""


@pytest.mark.parametrize(
    "psi, phi, message",
    (
        ("[[1,0],[0,1]]", "[[1,0]]", "error: --phi: expected a 1x1 matrix"),
        ("[[1,0]]", "[[1]]", "error: --psi: expected a 2x2 matrix"),
        ("[[1,0],[0]]", "[[1]]", "error: --psi: expected a 2x2 matrix"),
    ),
)
def test_twist_shape_errors_name_the_flag(capsys, data_dir, psi, phi, message):
    code, out, err = run(capsys, "twist", path(data_dir, "fix_b"), "--psi", psi, "--phi", phi)
    assert code == 2
    assert err.strip() == message
    assert out == ""


# -- decompose / analyze ----------------------------------------------------


def test_decompose_degenerate_cartan(capsys, data_dir):
    code, out, _ = run(capsys, "decompose", path(data_dir, "fix_a"))
    assert code == 0
    assert "no roots; L = U = H" in out


def test_decompose_reports_a_rational_obstruction(capsys, data_dir):
    code, out, _ = run(capsys, "decompose", path(data_dir, "fix_b"), "--cartan", "[[0,1]]")
    assert code == 1
    assert "split: no (bracket side)" in out
    assert "remainder has dimension 1" in out


def test_decompose_without_a_bracket_side_complement(capsys, tmp_path):
    # random_instance(1) twisted by its own pair passes strict validation,
    # but its opposite products escape H, so thm3.6 fails and leaves no U
    h, g, f = fixtures.random_instance(1)
    twisted = tmp_path / "twisted.json"
    twisted.write_text(dumps_algebra(twist_by_endomorphism(h, g, f)))
    assert run(capsys, "validate", str(twisted), "--strict")[0] == 0
    code, out, err = run(capsys, "decompose", str(twisted))
    assert code == 1
    assert "bracket-side complement U: none\n" in out
    assert "scalar-side complement V: dim 1, basis [1, 0]\n" in out
    assert "[FAIL] thm3.6 " in out and "Traceback" not in err
    code, out, _ = run(capsys, "decompose", str(twisted), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["U"] is None
    assert doc["V"] == {"basis": [["1", "0"]], "dim": 1}


def test_malformed_cartan_flag(capsys, data_dir):
    code, _, err = run(capsys, "decompose", path(data_dir, "fix_b"), "--cartan", "nope")
    assert code == 2
    assert err.startswith("error:")
    # rows of the wrong length, uniform or ragged, name the row and the length
    for command in ("decompose", "analyze", "connect"):
        for rows, bad_row in (('[["1","2","3"]]', 0), ('[["1"],["1","0"]]', 0), ('[["1","0"],["1"]]', 1)):
            code, out, err = run(capsys, command, path(data_dir, "fix_b"), "--cartan", rows)
            assert code == 2, (command, rows)
            assert out == ""
            assert err.startswith(f"error: subalgebra row {bad_row} has "), (command, rows, err)
            assert "expected 2" in err
        # an empty value, such as an unset shell variable, is not the default
        code, out, err = run(capsys, command, path(data_dir, "fix_b"), "--cartan", "")
        assert code == 2, command
        assert out == ""
        assert err.startswith("error: --cartan: not valid JSON"), (command, err)


def test_malformed_cartan_flag_on_an_input_that_fails_validation(capsys, data_dir, tmp_path):
    # [x0, x1] gains an x0 component, which breaks skew-symmetry and so the
    # Hom-Leibniz identity; the flag is still bad input, exit 2
    text = (data_dir / "fix_b.json").read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"bracket": [[0, 1, 1, "1"]', '"bracket": [[0, 1, 0, "1"], [0, 1, 1, "1"]', 1))
    code, out, _ = run(capsys, "decompose", str(bad))
    assert code == 1
    assert "validation failed" in out
    for command in ("decompose", "analyze", "connect"):
        code, out, err = run(capsys, command, str(bad), "--cartan", "nope")
        assert code == 2, command
        assert out == ""
        assert err.startswith("error: --cartan: not valid JSON"), (command, err)


def test_analyze_descriptive_failures_do_not_flip_the_exit_code(capsys, data_dir):
    code, out, _ = run(capsys, "analyze", path(data_dir, "fix_e"))
    assert code == 0
    assert "result: pass (descriptive clauses failing: tight.6)" in out
    for name in ("fix_t", "fix_a", "fix_zero"):
        code, out, _ = run(capsys, "analyze", path(data_dir, name))
        assert code == 0, name


# -- j / fiber / morphism / connect -----------------------------------------


def test_j_annihilation_witness(capsys, data_dir):
    code, out, _ = run(capsys, "j", path(data_dir, "fix_c_split"))
    assert code == 1
    assert "[[1, 0, 0], [0, 0, 1]] = [0, 0, 2]" in out
    code, out, _ = run(capsys, "j", path(data_dir, "fix_b"))
    assert code == 0


def test_fiber_emits_a_loadable_valid_file(capsys, data_dir):
    code, out, _ = run(capsys, "fiber", path(data_dir, "fix_b"), path(data_dir, "fix_b"))
    assert code == 0
    assert loads_algebra(out).dimL == 4


def test_fiber_closure_failure(capsys, data_dir):
    code, out, err = run(capsys, "fiber", path(data_dir, "fix_e"), path(data_dir, "fix_e"))
    assert code == 1
    assert "error: fiber carrier not closed under bracket at (1, 2)" in err
    assert out == ""


def test_morphism_identity_endomorphism(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "morphism",
        path(data_dir, "fix_b"),
        path(data_dir, "fix_b"),
        "--g",
        "[[1]]",
        "--f",
        "[[1,0],[0,1]]",
    )
    assert code == 0
    assert "result: morphism" in out


def test_morphism_detects_a_bracket_mismatch(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "morphism",
        path(data_dir, "fix_b"),
        path(data_dir, "fix_c"),
        "--g",
        "[[1]]",
        "--f",
        "[[1,0],[0,1]]",
    )
    assert code == 1
    assert "morphism.2" in out
    assert "result: not a morphism" in out


def test_connect_lists_classes_and_witnesses(capsys, data_dir):
    code, out, _ = run(capsys, "connect", path(data_dir, "fix_s"))
    assert code == 0
    assert "root class {(-2), (-1), (1), (2)}" in out
    assert "(-2) ~ (2): direct epsilon=-1 z=0" in out
    assert "raw relation symmetric: yes" in out


def test_zero_algebra_passes_every_report_command(capsys, data_dir):
    for cmd in ("validate", "decompose", "analyze", "connect", "j"):
        code, _, _ = run(capsys, cmd, path(data_dir, "fix_zero"))
        assert code == 0, cmd


def test_connect_finds_a_40_digit_root_quickly(tmp_path):
    lam = 10**40 + 1
    p = tmp_path / "b_big.json"
    p.write_text(dumps_algebra(fixtures._b_like(lam)))
    r = subprocess.run(
        [sys.executable, "-m", "hlra", "connect", str(p)],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert r.returncode == 0, r.stderr
    assert f"roots (1): ({lam}) dim 1" in r.stdout


# -- exit-code contract under fuzzed files ----------------------------------

FUZZ_SOURCES = sorted(name for name, make in fixtures.BUNDLED.items() if make().dimL <= 8)
# the mutable values are deep-copied into a document when drawn: a later
# "ragged" step may append to or pop from them
WRONG_TYPES = (None, True, "x", 2.5, -1, [], {}, [[]], [["1"]], {"1": 1})
BAD_SCALARS = ("", "abc", "1.5", "1e3", " 1", "1/0", "0x10", "--1", "1/2/3", None, 1.5, [], {})


def _scalar_slots(doc):
    """(container, index) of every scalar in the tensors, twists and H rows."""
    slots = []
    for key in ("bracket", "mul", "action", "anchor"):
        if isinstance(doc.get(key), list):
            slots += [(e, 3) for e in doc[key] if isinstance(e, list) and len(e) == 4]
    for key in ("psi", "phi", "declared_H"):
        if isinstance(doc.get(key), list):
            slots += [(row, j) for row in doc[key] if isinstance(row, list) for j in range(len(row))]
    return slots


def _rows(doc):
    rows = []
    for key in ("psi", "phi", "declared_H", "bracket", "mul", "action", "anchor"):
        if isinstance(doc.get(key), list):
            rows += [row for row in doc[key] if isinstance(row, list)]
    return rows


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(to_document(fixtures.BUNDLED[draw(st.sampled_from(FUZZ_SOURCES))]()))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("drop", "type", "scalar", "ragged", "huge")))
        slots = _scalar_slots(doc)
        rows = _rows(doc)
        if kind == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif kind == "type" and doc:
            doc[draw(st.sampled_from(sorted(doc)))] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
        elif kind == "scalar" and slots:
            row, j = draw(st.sampled_from(slots))
            row[j] = copy.deepcopy(draw(st.sampled_from(BAD_SCALARS) | st.text(max_size=4)))
        elif kind == "ragged" and rows:
            row = draw(st.sampled_from(rows))
            if row and draw(st.booleans()):
                row.pop()
            else:
                row.append("1")
        elif kind == "huge" and isinstance(doc.get("bracket"), list):
            # a 40-digit bracket constant, with its mirror entry negated so a
            # skew bracket stays skew: a 40-digit eigenvalue of ad h
            entries = [e for e in doc["bracket"] if isinstance(e, list) and len(e) == 4]
            if entries:
                i, j, k, _ = draw(st.sampled_from(entries))
                big = draw(st.integers(10**39, 10**40 - 1)) * draw(st.sampled_from((1, -1)))
                for e in entries:
                    if e[:3] == [i, j, k]:
                        e[3] = str(big)
                    elif e[:3] == [j, i, k]:
                        e[3] = str(-big)
    return doc


def _identity_flag(doc, key):
    """The identity matrix of the dimension doc declares under key, as a
    flag value; of dimension 1 when the declaration itself was mutated."""
    n = doc.get(key)
    n = n if type(n) is int and 0 <= n <= 8 else 1
    return json.dumps([[int(i == j) for j in range(n)] for i in range(n)])


def _fuzz_argv(command, doc, path):
    """argv running command on the file: the builders get identity matrices
    for their flags and take the file as both operands."""
    ident_l, ident_a = _identity_flag(doc, "dimL"), _identity_flag(doc, "dimA")
    if command == "twist":
        return ["twist", path, "--psi", ident_l, "--phi", ident_a]
    if command == "fiber":
        return ["fiber", path, path]
    if command == "morphism":
        return ["morphism", path, path, "--g", ident_a, "--f", ident_l]
    return [command, path]


@settings(deadline=None, max_examples=150)
@given(
    mutated_documents(),
    st.sampled_from(("validate", "decompose", "analyze", "connect", "j", "twist", "fiber", "morphism")),
)
def test_fuzzed_files_keep_the_exit_code_contract(tmp_path_factory, doc, command):
    p = tmp_path_factory.mktemp("fuzz") / "case.json"
    p.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(_fuzz_argv(command, doc, str(p)))
    assert code in (0, 1, 2), code
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")


# -- determinism ------------------------------------------------------------


def test_reports_are_byte_deterministic(capsys, data_dir):
    for argv in (
        ("analyze", path(data_dir, "fix_s"), "--format", "json"),
        ("decompose", path(data_dir, "fix_s")),
        ("connect", path(data_dir, "fix_e2"), "--format", "json"),
    ):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2, argv


def test_json_report_carries_the_input_digest(capsys, data_dir):
    p = data_dir / "fix_b.json"
    code, out, _ = run(capsys, "validate", str(p), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sha256"] == hashlib.sha256(p.read_text().encode("utf-8")).hexdigest()
    assert doc["input"] == str(p)


def test_module_entry_point(data_dir):
    r = subprocess.run(
        [sys.executable, "-m", "hlra", "validate", path(data_dir, "fix_b")],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert "result: valid" in r.stdout


def test_the_parser_is_built_once_and_a_bad_call_leaves_it_intact(capsys, data_dir, monkeypatch):
    """main builds the parser on its first call and keeps it: after a call
    that argparse rejects, a valid call prints the same bytes as the valid
    call in a process that has not parsed anything yet."""
    argv = ("analyze", path(data_dir, "fix_s"), "--format", "json")
    cli._parser.cache_clear()
    code, alone, _ = run(capsys, *argv)
    assert code == 0
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", path(data_dir, "fix_s"), "--format", "yaml"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, after, _ = run(capsys, *argv)
    assert (code, after) == (0, alone)
    assert built == [1]


def test_importing_the_cli_builds_no_parser_and_searches_no_prime():
    """The parser and the charpoly primes are made on first need, so a
    process that only imports hlra.cli pays for neither."""
    code = "import hlra.cli, hlra.linalg; print(hlra.cli._parser.cache_info().currsize, len(hlra.linalg._PRIMES))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20, check=True)
    assert done.stdout.split() == ["0", "0"]
