import json

import pytest

from genlambda.cli import run


def test_counts_level5(capsys):
    assert run(["counts", "--level", "5"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ell"] == 4 and obj["dN"] == 60


def test_qexp_forms(capsys):
    assert run(["qexp", "--level", "3", "--prec", "5", "e", "0", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ord"] == 0 and obj["coeffs"][0]["coords"][0] == ["-1", "3"]

    assert run(["qexp", "--level", "3", "--prec", "2", "j"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ord"] == -3

    assert run(["qexp", "--level", "4", "--prec", "4", "g"]) == 0
    capsys.readouterr()
    assert run(["qexp", "--level", "4", "--prec", "6", "lambda-classical"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ord"] == 2

    assert run(["qexp", "--level", "4", "--prec", "6", "lambda", "--matrix", "1,0,0,1"]) == 0
    capsys.readouterr()
    assert run(["qexp", "--level", "4", "--prec", "6", "lambda", "--basis", "0,1,1,0"]) == 0
    capsys.readouterr()


def test_cusps_schema(capsys):
    assert run(["cusps", "--level", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 4
    entry = payload[0]
    assert set(entry) == {"a", "c", "class", "matrix", "nu_orbit"}
    assert entry["class"] in ("S1", "S2")
    assert len(entry["nu_orbit"]) == 3


def test_minpoly_build_and_verify(capsys, tmp_path):
    out = tmp_path / "F3.json"
    assert run(["minpoly", "build", "--level", "3", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["dN"] == 12 and obj["ellN"] == 1 and obj["tN"] == 1
    assert len(obj["P"]) == 13
    assert run(["minpoly", "verify", "--level", "3"]) == 0
    text = capsys.readouterr().out
    assert "monic_tail" in text and "FAIL" not in text


def test_minpoly_round_trip_verification(tmp_path, capsys):
    out = tmp_path / "F4.json"
    assert run(["minpoly", "build", "--level", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    from genlambda.minpoly import BivarPoly, build_F, verify_theorem1

    loaded = BivarPoly.from_json_obj(json.loads(out.read_text()))
    fresh = build_F(4)
    assert verify_theorem1(loaded).ok == verify_theorem1(fresh).ok
    assert loaded.to_json() == fresh.to_json()


def test_sums_verify(capsys):
    assert run(["sums", "--max-M", "50", "--verify"]) == 0
    assert "0 disagreements" in capsys.readouterr().out


def test_cm_eval(capsys):
    assert run(["cm", "eval", "--level", "4", "--tau", "0,1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert abs(obj["re"] + 0.7071067811865475) < 1e-9
    assert abs(obj["im"] - 0.7071067811865475) < 1e-9


def test_usage_errors():
    assert run(["counts", "--level", "2"]) == 2
    assert run(["qexp", "--level", "3", "e"]) == 2  # missing indices
    assert run(["qexp", "--level", "3", "lambda"]) == 2  # missing matrix/basis
    assert run(["definitely-not-a-command"]) == 2


def test_cache_env_used(tmp_path, monkeypatch, capsys):
    import genlambda.minpoly as mp

    monkeypatch.setenv("GENLAMBDA_CACHE_DIR", str(tmp_path))
    mp._MEMO.pop((3, 9, "min"), None)
    assert run(["minpoly", "build", "--level", "3"]) == 0
    capsys.readouterr()
    assert any(p.name.startswith("F_N3") for p in tmp_path.iterdir())


def test_text_format_and_out(tmp_path, capsys):
    out = tmp_path / "series.txt"
    assert (
        run(["qexp", "--level", "3", "--prec", "5", "e", "0", "1",
             "--format", "text", "--out", str(out)])
        == 0
    )
    body = out.read_text()
    assert "q^0" in body and "-1/3" in body


def test_unwritable_out_is_an_environment_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert run(["counts", "--level", "3", "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_self_check_failure_exits_1(capsys, monkeypatch):
    import genlambda.minpoly as mp

    monkeypatch.delenv("GENLAMBDA_CACHE_DIR", raising=False)
    monkeypatch.setattr(mp, "_MEMO", {})
    monkeypatch.setattr(mp, "check_root_identity", lambda *args, **kwargs: False)
    assert run(["minpoly", "build", "--level", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: self-check failed")
    assert "Traceback" not in captured.err and captured.out == ""


def test_packed_digit_overflow_exits_1(capsys, monkeypatch):
    import genlambda.minpoly as mp

    def overflow(*args, **kwargs):
        raise ArithmeticError("packed-digit overflow: width chosen too small")

    monkeypatch.delenv("GENLAMBDA_CACHE_DIR", raising=False)
    monkeypatch.setattr(mp, "_MEMO", {})
    monkeypatch.setattr(mp, "_mul_rows", overflow)
    assert run(["minpoly", "build", "--level", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: packed-digit overflow")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("error", ["ReductionError", "PrecisionError", "GridSupportError"])
def test_unverifiable_build_exits_1(error, capsys, monkeypatch):
    import genlambda.minpoly as mp

    def fail(*args, **kwargs):
        raise getattr(mp, error)("nonzero remainder after j-reduction")

    monkeypatch.delenv("GENLAMBDA_CACHE_DIR", raising=False)
    monkeypatch.setattr(mp, "_MEMO", {})
    monkeypatch.setattr(mp, "_reduce_compact", fail)
    assert run(["minpoly", "build", "--level", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: nonzero remainder after j-reduction\n"
    assert captured.out == ""


def test_prec_below_minimum_exits_2(capsys, monkeypatch):
    import genlambda.minpoly as mp

    monkeypatch.delenv("GENLAMBDA_CACHE_DIR", raising=False)
    monkeypatch.setattr(mp, "_MEMO", {})
    assert run(["minpoly", "build", "--level", "3", "--prec", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: precision 5 below the minimum")
    assert captured.out == ""
