"""CLI wiring: parsing, reports, exit codes, determinism."""

import cmath
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from discforms import cli
from discforms.series import SeedFunction


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = cli.main(list(argv) + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_seed_parsing():
    f = cli.parse_seed("poly 1 0 0.5")
    assert f.kind == "poly" and f(1.0) == pytest.approx(1.5)
    g = cli.parse_seed("rational 1 / 2 -1")
    assert g.kind == "rational" and g(0.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        cli.parse_seed("fourier 1 2")
    with pytest.raises(ValueError):
        cli.parse_seed("rational 1 2")


_coeffs = st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                      allow_infinity=False),
                   min_size=1, max_size=6)
# denominators prod (z - p) with every pole p at modulus >= 1.1
_poles = st.lists(st.builds(cmath.rect, st.floats(1.1, 10.0),
                            st.floats(-4.0, 4.0)), max_size=3)


def _spec(values):
    return " ".join(repr(complex(v)) for v in values)


@given(_coeffs)
def test_parse_poly_seed_property(coeffs):
    f = cli.parse_seed("poly " + _spec(coeffs))
    assert f.kind == "poly" and f.coeffs.tolist() == coeffs


@given(_coeffs, _poles)
def test_parse_rational_seed_property(num, poles):
    den = np.poly(poles)[::-1] if poles else np.ones(1)
    f = cli.parse_seed(f"rational {_spec(num)} / {_spec(den)}")
    assert f.kind == "rational"
    assert f.coeffs.tolist() == num and f.den_coeffs.tolist() == den.tolist()


def test_thresholds_command(tmp_path):
    code, data = run(tmp_path, "thresholds", "--epsilon", "2", "--n", "1",
                     "--C", "2")
    assert code == 0
    assert data["report"] == {"demailly": 3, "main": 4, "df": 3}
    assert data["version"]
    assert data["config"]["epsilon"] == 2.0


def test_unknown_command():
    assert cli.main(["frobnicate"]) == 1


def test_input_error_exit_code(tmp_path):
    code = cli.main(["density", "--r", "-1", "--out",
                     str(tmp_path / "x.json")])
    assert code == 1


def test_cutoff_command(tmp_path):
    code, data = run(tmp_path, "cutoff-check")
    assert code == 0
    assert data["report"]["passed"] is True
    assert data["report"]["a0"] == 0.0


def test_norm_command(tmp_path):
    code, data = run(tmp_path, "norm", "--f", "poly 1", "--p", "1",
                     "--l", "1")
    assert code == 0
    assert data["report"]["value"] == pytest.approx(3.14159 ** 2 / 3,
                                                    rel=1e-3)


def test_weight_sum_trivial(tmp_path):
    code, data = run(tmp_path, "weight-sum", "--group", "trivial",
                     "--z", "0.2+0.1j", "--radius", "4")
    assert code == 0
    assert data["report"]["value"] == 1.0


def test_enumerate_csv(tmp_path):
    csv_path = tmp_path / "ball.csv"
    code, data = run(tmp_path, "enumerate", "--radius", "4.5",
                     "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("word,")
    assert len(lines) == data["report"]["count"] + 1
    # 17-significant-digit formatting on float columns (non-identity row)
    disp = lines[2].rsplit(",", 1)[1]
    assert "." in disp and len(disp) >= 17


def test_determinism(tmp_path):
    # identical config (including the output path) -> byte-identical report
    a = tmp_path / "a.json"
    argv = ["weight-sum", "--radius", "6", "--z", "0.1+0j",
            "--out", str(a)]
    assert cli.main(argv) == 0
    first = a.read_bytes()
    assert cli.main(argv) == 0
    assert a.read_bytes() == first


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("radius = 4\nz = 0.1+0j\n")
    code, data = run(tmp_path, "weight-sum", "--group", "trivial",
                     "--config", str(cfg))
    assert code == 0
    assert data["config"]["radius"] == 4.0
    # command line overrides the file
    code, data = run(tmp_path, "weight-sum", "--group", "trivial",
                     "--config", str(cfg), "--radius", "5")
    assert data["config"]["radius"] == 5.0


def test_exit_2_on_failed_inequality(tmp_path, monkeypatch):
    class Fake:
        holds = False
    monkeypatch.setattr(cli.series, "lemma22_check",
                        lambda *a, **k: Fake())
    monkeypatch.setattr(cli, "_write_report", lambda *a, **k: None)
    code = cli.main(["lemma22-check"])
    assert code == 2


def test_injectivity_command(tmp_path):
    code, data = run(tmp_path, "injectivity-radius")
    assert code == 0
    assert data["report"]["rho_x"] == pytest.approx(1.5285709, rel=1e-6)


def test_kernel_check_command(capsys):
    # passing checks give numpy booleans, which the report must serialize
    assert cli.main(["kernel-check", "--m", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "kernel-check"
    assert data["report"]["passed"] is True


def test_enumerate_nonfinite_radius(capsys):
    for r in ("nan", "inf"):
        assert cli.main(["enumerate", "--radius", r]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err


@pytest.mark.parametrize("spec", ["rational 1 / 0", "rational 1 /",
                                  "rational 1 / 0 0"])
def test_zero_denominator(capsys, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["approx-poly", "--f", spec]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "denominator" in err


@pytest.mark.parametrize("x", ["0", "0.2j"])
def test_enumerate_finite_group(tmp_path, x):
    rot4 = tmp_path / "rot4.cfg"
    rot4.write_text("name = rot4\n"
                    "generator.0 = 0.7071067811865476 0.7071067811865476 "
                    "0.0 0.0\n")
    code, data = run(tmp_path, "enumerate", "--group", str(rot4),
                     "--radius", "2", "--x", x)
    assert code == 0 and data["report"]["count"] == 4


# Cheap settings for every subcommand; the keys must name all of them.
CHEAP = {
    "enumerate": ["--radius", "4"],
    "fundamental-domain": ["--spacing", "0.05"],
    "weight-sum": ["--radius", "4"],
    "poincare-eval": ["--radius", "4"],
    "automorphy-check": ["--radius", "4", "--samples", "2"],
    "norm": [],
    "lemma22-check": ["--radius", "3"],
    "approx-poly": ["--f", "rational 1 / 2 -1"],
    "kernel-check": ["--samples", "5"],
    "cm-constant": [],
    "roundtrip": ["--radius", "4", "--spacing", "0.05"],
    "injectivity-radius": [],
    "density": ["--r", "1"],
    "cutoff-check": [],
    "quasi-psh-check": ["--r-factors", "1", "--spacing", "0.05"],
    "seshadri-bound": [],
    "thresholds": ["--epsilon", "2", "--n", "1"],
    "separation-scan": ["--radius", "4", "--d", "3", "--samples", "5"],
}


def test_cheap_settings_cover_every_subcommand():
    assert sorted(CHEAP) == sorted(cli.build_parser().flags)


@pytest.mark.parametrize("command", sorted(CHEAP))
def test_every_subcommand_reports(tmp_path, command):
    code, data = run(tmp_path, command, *CHEAP[command])
    assert code in (0, 2)
    assert data["command"] == command
    assert data["report"] is not None


@pytest.mark.parametrize("command, text, key, value", [
    ("density", "r = 1.5\n", "r", 1.5),
    ("thresholds", "epsilon = 2\nn = 1\n", "n", 1),
    ("approx-poly", "f = rational 1 / 2 -1\n", "f", "rational 1 / 2 -1"),
])
def test_config_supplies_required_flags(tmp_path, command, text, key, value):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    code, data = run(tmp_path, command, "--config", str(cfg))
    assert code == 0
    assert data["config"][key] == value


def test_config_list_value(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("r_factors = 1 1.5\nspacing = 0.05\nx = -0.1+0.05j\n")
    code, data = run(tmp_path, "quasi-psh-check", "--group", "trivial",
                     "--config", str(cfg))
    assert code == 0
    assert data["config"]["r_factors"] == [1.0, 1.5]
    assert data["config"]["x"] == "-0.1+0.05j"
    assert [rep["r"] for rep in data["report"]["reports"]] == [1.0, 1.5]


def test_config_value_is_typed_like_the_flag(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("m = 4.7\n")
    code, data = run(tmp_path, "poincare-eval", "--radius", "3",
                     "--config", str(cfg))
    assert code == 1 and data is None
    assert "invalid int value: '4.7'" in capsys.readouterr().err
