import json

import pytest

from charthree import automorphisms, cli, localseries, polyfamilies
from charthree.curve import Curve, Place
from charthree.cli import main
from charthree.errors import CertificateError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_places_count_q9(capsys):
    code, out = run_cli(capsys, "places", "--t", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 9 and doc["genus"] == 12
    assert doc["command"] == "places"
    assert len(doc["results"]) == 298
    assert list(doc)[:4] == ["q", "genus", "command", "results"]


def test_places_class_filter(capsys):
    code, out = run_cli(capsys, "places", "--t", "2", "--class", "beta-zero")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 27
    assert all(r["class"] == "beta_zero" for r in doc["results"])


@pytest.mark.parametrize("klass", ["beta-zero", "infinity"])
def test_places_class_filter_prints_the_filtered_enumeration(capsys, klass):
    # the filter builds places from the rows of one class only; its JSON
    # is the unfiltered document restricted to that class
    _, full = run_cli(capsys, "places", "--t", "2")
    code, out = run_cli(capsys, "places", "--t", "2", "--class", klass)
    assert code == 0
    doc = json.loads(full)
    doc["results"] = [r for r in doc["results"]
                      if r["class"] == klass.replace("-", "_")]
    assert out == json.dumps(doc, indent=2) + "\n"


def test_semigroup_class_index_is_the_enumerated_place(capsys):
    # --class/--index picks the index-th place of the class in
    # enumeration order, the same place as its coordinates select
    p = next(p for p in Curve(2).enumerate_rational()
             if p.place_class.kind == "beta_one")
    coords = ";".join(",".join(map(str, e.coeffs)) for e in (p.a, p.b))
    code, by_class = run_cli(capsys, "semigroup", "--t", "2", "--class", "beta-one",
                             "--index", "0")
    _, by_coords = run_cli(capsys, "semigroup", "--t", "2", "--place", coords)
    assert code == 0 and by_class == by_coords


def test_places_class_rejects_nonrational(capsys):
    # places enumerates the rational places only, so there is no such filter
    with pytest.raises(SystemExit) as exc:
        main(["places", "--t", "2", "--class", "nonrational"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_places_rejects_t1(capsys):
    code = main(["places", "--t", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "elliptic" in err


def test_semigroup_infinity_q9(capsys):
    code, out = run_cli(capsys, "semigroup", "--t", "2", "--place", "infinity")
    assert code == 0
    doc = json.loads(out)
    result = doc["results"][0]
    assert result["generators"] == [6, 9, 10]
    assert result["gaps"] == [1, 2, 3, 4, 5, 7, 8, 11, 13, 14, 17, 23]


def test_semigroup_infinity_q27(capsys):
    code, out = run_cli(capsys, "semigroup", "--t", "3", "--place", "infinity")
    assert code == 0
    doc = json.loads(out)
    result = doc["results"][0]
    assert result["generators"] == [18, 27, 28]
    assert result["genus"] == 117 == 27 * 26 // 6


def test_places_beta_order_sample(capsys):
    code, out = run_cli(capsys, "places", "--t", "2", "--beta-order", "4")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 3
    assert all(r["class"] == "nonrational_special" and r["degree"] > 1
               for r in doc["results"])
    # the field header records the modulus of the sampled level
    assert str(doc["results"][0]["level"]) in doc["field"]["levels"]


def test_semigroup_beta_order_sample(capsys):
    code, out = run_cli(capsys, "semigroup", "--t", "2", "--beta-order", "8")
    assert code == 0
    doc = json.loads(out)
    result = doc["results"][0]
    assert result["gaps"] == [1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 19]
    assert result["generators"] is None


def test_semigroup_coordinate_selector(capsys):
    code, out = run_cli(capsys, "semigroup", "--t", "2",
                        "--place", "0,0,0,0;0,0,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["theorem_tag"] == "beta_zero"


def test_semigroup_bad_selector(capsys):
    code = main(["semigroup", "--t", "2", "--place", "zzz"])
    assert code == 2
    code = main(["semigroup", "--t", "2"])
    assert code == 2


def test_json_round_trip_and_determinism(capsys, tmp_path):
    code, out1 = run_cli(capsys, "places", "--t", "2", "--seed", "5")
    code, out2 = run_cli(capsys, "places", "--t", "2", "--seed", "5")
    assert out1 == out2
    # parse -> re-serialize is byte-identical under the same options
    doc = json.loads(out1)
    assert json.dumps(doc, indent=2) + "\n" == out1


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "doc.json"
    code = main(["semigroup", "--t", "2", "--place", "infinity",
                 "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["results"][0]["generators"] == [6, 9, 10]


def test_csv_and_text_formats(capsys):
    code, out = run_cli(capsys, "places", "--t", "2", "--class", "beta-zero",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 28  # header + 27 rows
    code, out = run_cli(capsys, "aut", "--t", "2", "--format", "text")
    assert code == 0
    assert "q = 9" in out


def test_verify_polyfam_scope(capsys):
    code, out = run_cli(capsys, "verify", "--t", "2", "--scope", "polyfam")
    assert code == 0
    doc = json.loads(out)
    assert all(r["ok"] for r in doc["results"])


def test_verify_autgroup_scope(capsys):
    code, out = run_cli(capsys, "verify", "--t", "2", "--scope", "autgroup")
    assert code == 0
    doc = json.loads(out)
    checks = {r["check"]: r["ok"] for r in doc["results"]}
    assert checks["autgroup.order"] and checks["autgroup.orbit_class_constant"]


def test_q_cap(capsys):
    code = main(["places", "--t", "4"])
    err = capsys.readouterr().err
    assert code == 2 and "cap" in err
    # raising the cap past the hard limit still refuses q > 81
    code = main(["places", "--t", "5", "--q-cap", "500"])
    assert code == 2


def test_verify_semigroups_lists_certificates(capsys):
    code, out = run_cli(capsys, "verify", "--t", "2", "--scope", "semigroups")
    assert code == 0
    doc = json.loads(out)
    with_certs = [r for r in doc["results"] if "certificates" in r]
    assert with_certs
    for r in with_certs:
        assert all(c["ok"] for c in r["certificates"])


def test_verify_all_q27(capsys):
    code, out = run_cli(capsys, "verify", "--t", "3", "--scope", "all")
    assert code == 0
    doc = json.loads(out)
    assert all(r["ok"] for r in doc["results"])
    sampled = next(r for r in doc["results"] if r["check"] == "nonrational.sampled")
    assert sampled["detail"].startswith("4 places")
    classes = {r["check"] for r in doc["results"]
               if r["check"].startswith("valuations[nonrational")}
    assert len(classes) == 4
    checks = [r["check"] for r in doc["results"]]
    assert len(set(checks)) == len(checks)
    assert "gap_certificates[nonrational_generic(i=25,K=16)]" in checks


def test_verify_row_names_unique_q9(capsys):
    code, out = run_cli(capsys, "verify", "--t", "2", "--scope", "all")
    assert code == 0
    checks = [r["check"] for r in json.loads(out)["results"]]
    assert len(set(checks)) == len(checks)
    # a gap row is named by the full class of its place
    assert "gap_certificates[nonrational_generic(i=7,K=4)]" in checks


def test_verify_all_q81(capsys):
    code, out = run_cli(capsys, "verify", "--t", "4", "--q-cap", "81", "--scope", "all")
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 46 and all(r["ok"] for r in rows)
    checks = [r["check"] for r in rows]
    assert len(set(checks)) == len(checks)
    assert {"gap_certificates[nonrational_generic(i=55,K=36)]",
            "gap_certificates[nonrational_generic(i=79,K=52)]"} <= set(checks)
    census = next(r for r in rows if r["check"] == "census.count")
    assert census["detail"].startswith("181522 places")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def _usage_error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_polyfam_rejects_negative_max_i(capsys):
    assert "--max-i" in _usage_error(capsys, "polyfam", "--t", "2", "--max-i", "-1")


def test_polyfam_rejects_max_i_above_symbolic_bound(capsys):
    err = _usage_error(capsys, "polyfam", "--t", "2", "--max-i", "64", "--samples", "0")
    assert "[0, 63]" in err


def test_semigroup_rejects_negative_index(capsys):
    err = _usage_error(capsys, "semigroup", "--t", "2", "--class", "beta-one",
                       "--index", "-1")
    assert "--index" in err


@pytest.mark.parametrize("exc", [CertificateError("gap set mismatch"),
                                 ValueError("precision too low")])
def test_semigroup_reports_a_failure_as_one_error_line(capsys, monkeypatch, exc):
    monkeypatch.setattr(cli, "semigroup_at", _raise(exc))
    code = main(["semigroup", "--t", "2", "--place", "infinity"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {exc}\n"


def _failing_verify(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    return json.loads(captured.out)["results"]


def test_verify_reports_a_failing_gap_certificate_as_a_row(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise CertificateError("witness check failed")

    monkeypatch.setattr(cli, "verify_gaps", broken)
    rows = _failing_verify(capsys, ["verify", "--t", "2", "--scope", "semigroups"])
    failed = [r for r in rows if not r["ok"]]
    assert failed and all(r["check"].startswith("gap_certificates[") and
                          r["detail"] == "witness check failed" for r in failed)
    # the non-gap rows still run and pass
    assert any(r["check"].startswith("nongap_certificates[") and r["ok"] for r in rows)


def test_verify_reports_a_failing_expansion_as_a_row(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("precision too low")

    monkeypatch.setattr(localseries, "LocalData", broken)
    rows = _failing_verify(capsys, ["verify", "--t", "2", "--scope", "valuations"])
    valuations = [r for r in rows if r["check"].startswith("valuations[")]
    assert valuations and all(not r["ok"] and r["detail"] == "precision too low"
                              for r in valuations)


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc
    return broken


def test_verify_reports_a_failing_polyfam_check_as_a_row(capsys, monkeypatch):
    monkeypatch.setattr(polyfamilies, "corollary_check_symbolic",
                        _raise(ArithmeticError("i above the packed bound")))
    rows = _failing_verify(capsys, ["verify", "--t", "2", "--scope", "polyfam"])
    assert rows == [
        {"check": "polyfam.closed_vs_recursive", "ok": True, "detail": ""},
        {"check": "polyfam.symbolic_corollary", "ok": False,
         "detail": "i above the packed bound"}]


def test_verify_reports_a_failing_enumeration_as_a_row(capsys, monkeypatch):
    monkeypatch.setattr(Curve, "rational_rows",
                        _raise(ArithmeticError("bucket mismatch")))
    rows = _failing_verify(capsys, ["verify", "--t", "2", "--scope", "semigroups"])
    census = [r for r in rows if r["check"] == "census.count"]
    assert census == [{"check": "census.count", "ok": False,
                       "detail": "bucket mismatch"}]
    # the sampled places are still certified
    assert any(r["check"].startswith("gap_certificates[") and r["ok"] for r in rows)


def test_verify_reports_a_failing_sampling_as_a_row(capsys, monkeypatch):
    monkeypatch.setattr(Curve, "sample_nonrational",
                        _raise(ValueError("no root of unity")))
    rows = _failing_verify(capsys, ["verify", "--t", "2", "--scope", "semigroups"])
    sampled = [r for r in rows if r["check"] == "nonrational.sampled"]
    assert sampled == [{"check": "nonrational.sampled", "ok": False,
                        "detail": "no root of unity"}]
    assert any(r["check"].startswith("nongap_certificates[") and r["ok"] for r in rows)


def test_verify_reports_a_failing_group_as_a_row(capsys, monkeypatch):
    monkeypatch.setattr(automorphisms, "group_elements",
                        _raise(CertificateError("|G| must be 2q^2/3")))
    rows = _failing_verify(capsys, ["verify", "--t", "2", "--scope", "autgroup"])
    assert rows == [{"check": "autgroup.order", "ok": False,
                     "detail": "|G| must be 2q^2/3"}]


def test_verify_reports_a_failing_census_as_a_row(capsys, monkeypatch):
    monkeypatch.setattr(cli, "full_census", _raise(ValueError("not a product")))
    rows = _failing_verify(capsys, ["verify", "--t", "2", "--scope", "autgroup"])
    assert [r["check"] for r in rows] == ["autgroup.order", "autgroup.orbits_partition"]
    assert rows[0]["ok"] and not rows[1]["ok"] and rows[1]["detail"] == "not a product"


@pytest.mark.parametrize("scope", ["all", "autgroup"])
def test_verify_enumerates_once(capsys, monkeypatch, scope):
    calls = []
    rational_rows = Curve.rational_rows

    def counted(self):
        calls.append(self.q)
        return rational_rows(self)

    monkeypatch.setattr(Curve, "rational_rows", counted)
    code, _ = run_cli(capsys, "verify", "--t", "2", "--scope", scope)
    assert code == 0 and calls == [9]


def test_verify_builds_a_place_per_row_not_per_place(capsys, monkeypatch):
    # one Place per rational row (the class representatives), P_infinity,
    # and the sampled places; none for the other rational places
    n_rows = len(Curve(2).rational_rows())
    counts = {"places": 0, "from_coords": 0}

    def count(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    count(Place, "__init__", "places")
    count(Curve, "place_from_coords", "from_coords")
    code, _ = run_cli(capsys, "verify", "--t", "2", "--scope", "all")
    assert code == 0
    assert 0 < counts["places"] <= n_rows + 1 + counts["from_coords"]
    assert counts["places"] < 298 - 1, counts
