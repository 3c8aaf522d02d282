import hashlib
import json

import pytest

from fatpoints import oracle
from fatpoints.cli import main


@pytest.fixture()
def case_iv_cfg(tmp_path):
    path = tmp_path / "iv.json"
    path.write_text(json.dumps({
        "kind": "distinct",
        "collinear": [[1, 2, 3], [1, 4, 5], [3, 5, 6], [2, 4, 6]],
        "six_on_conic": False}))
    return str(path)


@pytest.fixture()
def a1_cfg(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps({"kind": "nodal", "roots": [[0, 1, -1, 0, 0, 0, 0]]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_resolve_worked_example(capsys, case_iv_cfg):
    code, out, _ = run(capsys, "resolve", "--config", case_iv_cfg,
                       "--mult", "2,2,6,2,2,2")
    assert code == 0
    assert "F0 = R[-6] + R[-7] + R[-8]^3 + R[-10]^2" in out
    assert "F1 = R[-8] + R[-9]^3 + R[-11]^2" in out


def test_resolve_json(capsys, case_iv_cfg):
    code, out, _ = run(capsys, "resolve", "--config", case_iv_cfg,
                       "--mult", "2,2,6,2,2,2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["t"] == {"6": 1, "7": 1, "8": 3, "10": 2}
    assert data["s"] == {"8": 1, "9": 3, "11": 2}
    assert data["alpha"] == 6 and data["sigma"] == 10


def test_neg_rows(capsys, case_iv_cfg):
    code, out, _ = run(capsys, "neg", "--config", case_iv_cfg)
    assert code == 0
    assert len(out.strip().splitlines()) == 13


def test_nefgens_counts(capsys, case_iv_cfg):
    code, out, _ = run(capsys, "nefgens", "--config", case_iv_cfg)
    assert code == 0
    assert len(out.strip().splitlines()) == 39
    code, out, _ = run(capsys, "nefgens", "--config", case_iv_cfg, "--raw")
    assert len(out.strip().splitlines()) == 212


def test_catalog_rows(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert len(out.strip().splitlines()) == 20


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "1 0 0 0 0 0 0")
    assert code == 0
    assert len(out.strip().splitlines()) == 72
    code, out, _ = run(capsys, "orbit", "3,-1,-1,-1,-1,-1,-1")
    assert len(out.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,lines,digest", [
    (["catalog"], 20, "6142f4bbc9c0f808f279cd63d8ca87dac512602e02f879bdb6118ecf4de613d7"),
    (["catalog", "--json"], 774,
     "c79bcf1e0536175aac082cf13a20ce5165f13e6d248f8e287c1c449129ae543e"),
    (["orbit", "1 0 0 0 0 0 0"], 72,
     "be05c95660c62d1e21397620a7fec0a43784f3e5bc8082c77b223787e0ad004d"),
    (["orbit", "1 0 0 0 0 0 0", "--json"], 663,
     "c653cc8bd699843c57b41d2552ebf838830953d0f26cf4b0dd2eba0d444b8d61"),
    (["orbit", "0 0 0 0 0 0 1"], 27,
     "b08e671863259f74d1849d7c9ced9258d6e272568fada556deade8fa68ce0c93"),
    (["orbit", "0 0 0 0 0 0 1", "--json"], 258,
     "e1f4e496c38756d28c598d760d4e6ae0d5a171d6788929045412a2a8bf0025b2"),
    (["orbit", "3,-1,-1,-1,-1,-1,-1", "--json"], 24,
     "72f284e6bba6bb655bae253098aad45c85ca0d15b0691a0ffeac277451e69a80"),
])
def test_catalog_and_orbit_output_is_pinned(capsys, argv, lines, digest):
    # byte-identical stdout: the line count and the sha256 of the text
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert (out.count("\n"), hashlib.sha256(out.encode()).hexdigest()) == (lines, digest)


def test_hilbert(capsys, case_iv_cfg):
    code, out, _ = run(capsys, "hilbert", "--config", case_iv_cfg,
                       "--mult", "2,2,6,2,2,2", "--deg", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert "6 1" in lines and "10 30" in lines
    assert "alpha 6" in lines and "sigma 10" in lines


def test_hilbert_degree_past_the_scan_cap(capsys, tmp_path):
    path = tmp_path / "i.json"
    path.write_text(json.dumps({"kind": "distinct", "collinear": [[1, 2, 3]]}))
    code, out, err = run(capsys, "hilbert", "--config", str(path),
                         "--mult", "1,2,3,4,5,6", "--deg", "98")
    assert code == 0 and err == ""
    assert "98 4894" in out.splitlines()


def test_verify_ok(capsys, a1_cfg):
    code, out, _ = run(capsys, "verify", "--config", a1_cfg)
    assert code == 0
    assert out.strip().endswith("RESULT ok")


@pytest.mark.parametrize("fmt", [(), ("--json",)])
def test_verify_prints_why_a_marking_is_inconclusive(capsys, tmp_path, fmt):
    """Case i at depth 3 certifies every class yet exits 2: no stabilization
    pair fits in three levels.  That note goes to stderr, one line, and
    stdout is the report alone; an ok run writes nothing to stderr."""
    path = tmp_path / "i.json"
    path.write_text(json.dumps({"kind": "distinct", "collinear": [[1, 2, 3]]}))
    code, out, err = run(capsys, "verify", "--config", str(path), "--depth", "3", *fmt)
    assert code == 2
    assert err == ("note: marking  1  0  0  0  0  0  0: "
                   "no stabilization pair (j, k) found within the depth\n")
    if fmt:
        assert json.loads(out)["ok"] is False
    else:
        lines = out.splitlines()
        assert lines[-1] == "RESULT INCONCLUSIVE"
        assert not any("inconclusive" in line for line in lines)
    code, _, err = run(capsys, "verify", "--config", str(path), *fmt)
    assert code == 0 and err == ""


def test_oracle_compare(capsys):
    code, out, _ = run(capsys, "oracle", "--case", "iv",
                       "--mult", "2,2,6,2,2,2", "--deg", "8", "--compare")
    assert code == 0
    assert "dim 11" in out
    assert "MATCH" in out


def test_oracle_one_point_at_large_multiplicity(capsys):
    # R = 500,500 conditions at one point, all of them unit rows of the chart
    code, out, err = run(capsys, "oracle", "--case", "iv", "--mult", "1000,0,0,0,0,0",
                         "--deg", "0", "--compare")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["dim 0", "ker 0", "cok 0", "pipeline dim 0 MATCH"]


def test_determinism(capsys, case_iv_cfg):
    _, out1, _ = run(capsys, "nefgens", "--config", case_iv_cfg)
    _, out2, _ = run(capsys, "nefgens", "--config", case_iv_cfg)
    assert out1 == out2
    _, j1, _ = run(capsys, "resolve", "--config", case_iv_cfg,
                   "--mult", "1,1,1,1,1,1", "--json")
    _, j2, _ = run(capsys, "resolve", "--config", case_iv_cfg,
                   "--mult", "1,1,1,1,1,1", "--json")
    assert j1 == j2


def test_verify_all_markings_cli(capsys, tmp_path):
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"kind": "dynkin", "type": "D4"}))
    code, out, _ = run(capsys, "verify", "--config", str(path), "--all-e0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["markings"]) == 7


def test_nefgens_rejects_non_nef_anticanonical(capsys, tmp_path):
    path = tmp_path / "four.json"
    path.write_text(json.dumps({
        "kind": "distinct", "collinear": [[1, 2, 3, 4]]}))
    code, _, err = run(capsys, "nefgens", "--config", str(path))
    assert code == 1
    assert "anticanonical" in err


def test_validation_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "distinct", "collinear": [[1, 2, 3], [2, 3, 4]]}))
    code, _, err = run(capsys, "neg", "--config", str(bad))
    assert code == 1
    assert "share 2 points" in err

    code, _, err = run(capsys, "orbit", "1 0 0")
    assert code == 1
    assert "7 integers" in err

    code, _, err = run(capsys, "hilbert", "--config", str(bad),
                       "--mult", "1,1,1,1,1,1")
    assert code == 1

    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "neg", "--config", str(missing))
    assert code == 1


@pytest.mark.parametrize("message, want", [
    ("Unable to allocate 1.82 TiB for an array with shape (500500, 500500) and data type int64",
     "error: out of memory: Unable to allocate 1.82 TiB for an array with shape"),
    ("", "error: out of memory\n"),
])
def test_memory_error_prints_one_line(capsys, monkeypatch, message, want):
    # raised by a stand-in: tier-1 allocates nothing large
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(oracle, "ideal_dim", exhausted)
    code, out, err = run(capsys, "oracle", "--case", "iv", "--mult", "1000,0,0,0,0,0",
                         "--deg", "0")
    assert code == 1 and out == ""
    assert err.startswith(want) and err.count("\n") == 1


@pytest.mark.parametrize("argv, config, message", [
    (("neg",), [1, 2], "JSON object"),
    (("neg",), {"kind": "dynkin"}, "'type'"),
    (("neg",), {"kind": "dynkin", "type": [1]}, "'type'"),
    (("neg",), {"kind": "nodal"}, "'roots'"),
    (("neg",), {"kind": "nodal", "roots": [1]}, "'roots'"),
    (("neg",), {"kind": "distinct", "collinear": [[1, 2, "x"]]}, "'collinear'"),
    (("verify", "--depth", "0"), {"kind": "dynkin", "type": "A1"}, "--depth"),
    (("hilbert", "--mult", "1,1,1,1,1,1", "--deg", "-1"),
     {"kind": "distinct"}, "--deg"),
    (("verify", "--all-e0"), {"kind": "distinct", "collinear": [[1, 2, 3, 4]]},
     "anticanonical"),
    (("neg",), {"kind": "distinct", "collinear": [[1, 2, True]]}, "'collinear'"),
    (("neg",), {"kind": "distinct", "six_on_conic": "false"}, "'six_on_conic'"),
    (("neg",), {"kind": "distinct", "colinear": [[1, 2, 3]]}, "'colinear'"),
    (("neg",), {"kind": "dynkin", "type": "A1", "roots": [[0, 1, -1, 0, 0, 0, 0]]},
     "'roots'"),
    (("neg",), {"kind": "nodal", "roots": [], "type": "A1"}, "'type'"),
    (("neg",), {"kind": ["distinct"]}, "kind"),
    (("neg",), None, "Is a directory"),  # None: --config names a directory
    pytest.param(("neg",), "[" * 200_000, "nested too deeply",  # a str is the raw text
                 id="nested-200000-deep"),
    (("neg",), {"kind": "nodal", "roots": [[0, 1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0, 0],
                                        [0, -1, 0, 1, 0, 0, 0]]}, "A/D/E"),  # a triangle
    (("neg",), {"kind": "nodal", "roots": [[0, 1, 1, 0, 0, 0, 0]]}, "nodal root"),  # E1+E2
    # a class is shown as the file gave it, not with the Ei signs flipped
    (("neg",), {"kind": "nodal", "roots": [[0, 1, 1, 0, 0, 0, 0]]},
     "[0, 1, 1, 0, 0, 0, 0] is not a nodal root"),
    (("neg",), {"kind": "nodal", "roots": [[-1, 1, 1, 1, 0, 0, 0]]},
     "[-1, 1, 1, 1, 0, 0, 0] has degree outside 0..2"),
])
def test_malformed_input_one_line_error(capsys, tmp_path, argv, config, message):
    path = tmp_path / "cfg.json"
    if config is None:
        path.mkdir()
    elif isinstance(config, str):
        path.write_text(config)
    else:
        path.write_text(json.dumps(config))
    code, out, err = run(capsys, argv[0], "--config", str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (("--mult=-1,0,0,0,0,0", "--deg", "3"), "multiplicities"),
    (("--mult", "1,1,1,1,1,1", "--deg", "-1"), "degree"),
])
def test_oracle_malformed_input_one_line_error(capsys, argv, message):
    # the oracle takes no --config, so these sit beside the cases above
    code, out, err = run(capsys, "oracle", "--case", "iv", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv, message", [
    # argparse reads "-1,2,3,0,0,0" as an option, so --mult has no value
    (("resolve", "--config", "c.json", "--mult", "-1,2,3,0,0,0"), "--mult"),
    ((), "command"),
    (("hilbert", "--config", "c.json", "--mult", "1,1,1,1,1,1", "--deg", "x"),
     "--deg"),
    (("oracle", "--case", "v", "--mult", "1,1,1,1,1,1", "--deg", "2"), "--case"),
])
def test_usage_error_exits_1_with_one_line(capsys, argv, message):
    # exit 2 means "some class inconclusive", so usage errors exit 1
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    out = capsys.readouterr()
    assert info.value.code == 1
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert message in out.err


@pytest.mark.parametrize("argv", [
    ("resolve", "--config", "c.json"),
    ("hilbert", "--config", "c.json"),
    ("oracle", "--case", "iv", "--deg", "3"),
])
def test_negative_mult_error_names_the_attached_form(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--mult", "-1,2,3,0,0,0"])
    out = capsys.readouterr()
    assert info.value.code == 1
    assert out.out == ""
    assert out.err.startswith("error: argument --mult: ") and out.err.count("\n") == 1
    assert "--mult=-1,2," in out.err
