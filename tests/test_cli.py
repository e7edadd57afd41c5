"""End-to-end tests for the command line interface."""

import re

import pytest

from fixlab.cli import main, parse_group, parse_map_file
from fixlab.groupcore import GroupSpec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


TWIST_MAP = """\
# twist with a torsion decoration on the free part
a1 -> a1 d1
b1 -> b1 a1
c1 -> c1 d1
c2 -> c2^-1
d1 -> d1
"""


@pytest.fixture
def twist_map(tmp_path):
    path = tmp_path / "twist.map"
    path.write_text(TWIST_MAP)
    return str(path)


# ------------------------------------------------------------ group grammar


def test_parse_group_factors():
    assert parse_group("NS2 x Z^2 x Z2") == GroupSpec(1, 2, 1)
    assert parse_group("NS2^2") == GroupSpec(2, 0, 0)
    assert parse_group("T2") == GroupSpec(0, 2, 0)
    assert parse_group("P2 x Z2") == GroupSpec(0, 0, 2)
    assert parse_group("1") == GroupSpec(0, 0, 0)
    assert parse_group("Z x NS2 x 1") == GroupSpec(1, 1, 0)


@pytest.mark.parametrize("bad", ["NS5", "NS2 y Z", "Z^0", "", "Z^-1", "NS2 Z"])
def test_parse_group_rejects(bad):
    with pytest.raises(ValueError):
        parse_group(bad)


def test_map_file_parsing(tmp_path):
    path = tmp_path / "m.map"
    path.write_text("# comment\n\na1 -> a1 d1   # inline\nb1 -> b1\n")
    assert parse_map_file(str(path)) == {"a1": "a1 d1", "b1": "b1"}
    path.write_text("a1 -> a1\na1 -> b1\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_map_file(str(path))
    path.write_text("a1 = b1\n")
    with pytest.raises(ValueError, match="expected"):
        parse_map_file(str(path))


# ------------------------------------------------------------ word commands


def test_normalize_example(capsys):
    code, out, _ = run(capsys, "normalize", "-g", "NS2 x Z", "-w", "b1 a1")
    assert code == 0
    assert out == "a1^-1 b1\n"


def test_normalize_round_trip(capsys):
    words = ["b1 a1 b1 c1^-2", "a1^3 b1^-1 a1", "c1 b1 c1 a1^-1", "1"]
    for word in words:
        _, first, _ = run(capsys, "normalize", "-g", "NS2 x Z", "-w", word)
        _, second, _ = run(capsys, "normalize", "-g", "NS2 x Z", "-w", first.strip())
        assert first == second


def test_mul_inv_pow(capsys):
    assert run(capsys, "mul", "-g", "NS2", "-w", "b1", "-w", "a1")[:2] == (0, "a1^-1 b1\n")
    assert run(capsys, "inv", "-g", "NS2", "-w", "a1 b1")[:2] == (0, "a1 b1^-1\n")
    assert run(capsys, "pow", "-g", "NS2", "-w", "a1 b1", "-k", "3")[:2] == (0, "a1 b1^3\n")
    assert run(capsys, "pow", "-g", "NS2", "-w", "a1 b1", "-k", "-2")[:2] == (0, "b1^-2\n")


def test_sqrt(capsys):
    assert run(capsys, "sqrt", "-g", "NS2", "-w", "a1^-4")[:2] == (0, "a1^-2\n")
    code, _, err = run(capsys, "sqrt", "-g", "NS2", "-w", "b1")
    assert code == 2 and "commutator" in err


# ------------------------------------------------------------ subgroup commands


def test_member_exit_codes(capsys):
    base = ("member", "-g", "NS2 x Z", "--sub", "a1 c1; b1")
    assert run(capsys, *base, "-w", "a1^2")[:2] == (0, "true\n")
    assert run(capsys, *base, "-w", "a1")[:2] == (1, "false\n")


def test_rank_output(capsys):
    code, out, _ = run(
        capsys, "rank", "-g", "NS2 x Z^2 x Z2",
        "--sub", "a1^2; b1^2; a1 c1; d1",
    )
    assert code == 0
    assert out.splitlines()[0] == "rank: 4 (exact)"
    assert out.splitlines()[1].startswith("generators: ")


def test_index_and_infinite(capsys):
    code, out, _ = run(
        capsys, "index", "-g", "NS2 x Z",
        "--sub", "a1 c1; a1^2; b1^2", "--sup", "a1; b1^2; c1",
    )
    assert (code, out) == (0, "2\n")
    code, out, _ = run(
        capsys, "index", "-g", "NS2 x Z", "--sub", "a1^2", "--sup", "a1; b1; c1"
    )
    assert (code, out) == (0, "infinite\n")


def test_index_requires_containment(capsys):
    code, _, err = run(
        capsys, "index", "-g", "NS2 x Z", "--sub", "a1", "--sup", "b1"
    )
    assert code == 2 and err.startswith("error:")


def test_intersect(capsys):
    code, out, _ = run(
        capsys, "intersect", "-g", "NS2 x Z",
        "--sub", "a1; b1^2; c1", "--sub", "a1 c1; b1",
    )
    assert (code, out) == (0, "a1 c1, b1^2, c1^2\n")


def test_decompose_euc2(capsys):
    code, out, _ = run(
        capsys, "decompose-euc2", "-g", "NS2 x Z2", "--sub", "a1 d1; b1^2"
    )
    assert code == 0
    assert out.splitlines() == [
        "projection: Z^2",
        "pair: a1 -> a1 d1",
        "pair: b1^2 -> b1^2",
        "torsion: 1",
    ]


# ------------------------------------------------------------ map commands


def test_fix_prints_canonical_generators(capsys, twist_map):
    code, out, _ = run(capsys, "fix", "-g", "NS2 x Z^2 x Z2", "-m", twist_map)
    assert (code, out) == (0, "a1 c1, b1^2, c1^2, d1\n")


def test_fix_requires_total_map(capsys, tmp_path):
    path = tmp_path / "partial.map"
    path.write_text("b1 -> b1 a1\n")
    code, _, err = run(capsys, "fix", "-g", "NS2 x Z", "-m", str(path))
    assert code == 2 and "no image" in err
    code, out, _ = run(
        capsys, "fix", "-g", "NS2 x Z", "-m", str(path), "--partial-identity"
    )
    assert (code, out) == (0, "a1, b1^2, c1\n")


def test_fix_family(capsys, tmp_path):
    shear = tmp_path / "shear.map"
    shear.write_text("b1 -> b1 a1\n")
    killc = tmp_path / "killc.map"
    killc.write_text("c1 -> 1\n")
    code, out, _ = run(
        capsys, "fix-family", "-g", "NS2 x Z",
        "-m", str(shear), "-m", str(killc), "--partial-identity",
    )
    assert (code, out) == (0, "a1, b1^2\n")


def test_check_endo(capsys, tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("a1 -> a1\nb1 -> a1\nc1 -> c1\n")
    code, out, _ = run(capsys, "check-endo", "-g", "NS2 x Z", "-m", str(bad))
    assert code == 1 and out.startswith("invalid: ")
    good = tmp_path / "good.map"
    good.write_text("a1 -> a1^3\nb1 -> b1\nc1 -> 1\n")
    assert run(capsys, "check-endo", "-g", "NS2 x Z", "-m", str(good))[:2] == (0, "valid\n")


def test_check_auto(capsys, twist_map, tmp_path):
    code, out, _ = run(capsys, "check-auto", "-g", "NS2 x Z^2 x Z2", "-m", twist_map)
    assert (code, out) == (0, "true\n")
    killc = tmp_path / "killc.map"
    killc.write_text("c1 -> 1\n")
    code, out, _ = run(
        capsys, "check-auto", "-g", "NS2 x Z", "-m", str(killc), "--partial-identity"
    )
    assert (code, out) == (1, "false\n")


def test_missing_map_file(capsys, tmp_path):
    code, _, err = run(capsys, "fix", "-g", "NS2", "-m", str(tmp_path / "nope.map"))
    assert code == 2 and err.startswith("error:")


# ------------------------------------------------------------ certification


def test_classify(capsys):
    cases = {
        "T2 x Z2": "case=euc1 compressed_all=true inert_all=true",
        "NS2 x Z2": "case=euc2 compressed_all=true inert_all=true",
        "NS2 x Z x Z2": "case=euc3 compressed_all=false inert_all=false",
        "NS2^2 x Z": "case=euc4 compressed_all=true inert_all=false",
        "NS2^2 x Z2": "case=other-euclidean compressed_all=false inert_all=false",
    }
    for group, expected in cases.items():
        code, out, _ = run(capsys, "classify", "-g", group)
        assert (code, out) == (0, expected + "\n"), group


def test_certify_compressed(capsys):
    code, out, _ = run(
        capsys, "certify-compressed", "-g", "NS2 x Z", "--sub", "a1; b1^2; c1"
    )
    assert code == 0 and out.startswith("certified: ")
    code, out, _ = run(
        capsys, "certify-compressed", "-g", "NS2 x Z", "--sub", "a1^2; b1^2; c1^2"
    )
    assert (code, out) == (1, "no certificate\n")
    code, _, err = run(capsys, "certify-compressed", "-g", "NS2 x Z2", "--sub", "a1")
    assert code == 2 and "torsion-free" in err


def test_search_compression(capsys):
    code, out, _ = run(
        capsys, "search-compression", "-g", "NS2 x Z",
        "--sub", "a1^2; b1^2; c1^2", "--max-gens", "2",
    )
    assert code == 0
    assert out.splitlines() == [
        "kind: compression",
        "H = a1^2, b1^2, c1^2",
        "K = a1 c1, b1^2, c1^2, b1",
        "rank(H) = 3, rank(K) = 2",
    ]
    code, out, _ = run(
        capsys, "search-compression", "-g", "NS2 x Z", "--sub", "a1; b1^2; c1"
    )
    assert (code, out) == (1, "no witness found within bounds\n")


def test_search_inertia(capsys):
    code, out, _ = run(
        capsys, "search-inertia", "-g", "NS2 x Z", "--sub", "a1; b1^2; c1"
    )
    assert code == 0
    assert "kind: inertia" in out
    assert "rank(H meet K) = 3, rank(K) = 2" in out
    code, out, _ = run(
        capsys, "search-inertia", "-g", "NS2", "--sub", "a1; b1", "--max-word-len", "2"
    )
    assert (code, out) == (1, "no witness found within bounds\n")


def test_sample_inertia_deterministic(capsys):
    argv = ("sample-inertia", "-g", "NS2 x Z2", "--trials", "25", "--seed", "11")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    assert first.startswith("inertia-sample trials=25 checked=")
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_sample_inertia_on_trivial_group(capsys):
    code, out, err = run(capsys, "sample-inertia", "-g", "1", "--trials", "20")
    assert (code, out, err) == (
        0, "inertia-sample trials=20 checked=20 skipped=0 violations=0\n", ""
    )


def test_paper_suite_quick(capsys):
    code, out, _ = run(capsys, "paper-suite", "--scale", "quick")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[-1] == "TOTAL 10/10"
    pattern = re.compile(r"^CHECK [a-z0-9-]+ (PASS|FAIL) expected=.+ actual=.+$")
    for line in lines[:-1]:
        assert pattern.match(line), line


# ------------------------------------------------------------ usage errors


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "-g", "NS2"])
    assert exc.value.code == 2


def test_bad_group_and_word_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "-g", "NS9", "-w", "a1")
    assert code == 2 and "bad group factor" in err
    code, _, err = run(capsys, "normalize", "-g", "NS2", "-w", "q7")
    assert code == 2 and err.startswith("error:")


def test_mul_needs_two_words(capsys):
    code, _, err = run(capsys, "mul", "-g", "NS2", "-w", "a1")
    assert code == 2 and "two" in err
