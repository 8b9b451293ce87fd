"""CLI wiring: parsing, reports, exit codes, determinism."""

import argparse
import cmath
import copy
import dataclasses
import json
import shlex
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from discforms import cli, domain
from discforms.series import SeedFunction


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = cli.main(list(argv) + ["--out", str(out)])
    # strict parse: NaN, Infinity and -Infinity are not JSON
    data = (json.loads(out.read_text(), parse_constant=_reject_constant)
            if out.exists() else None)
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


@pytest.mark.parametrize("argv", [
    ["--epsilon", "nan", "--n", "1"], ["--epsilon", "inf", "--n", "1"],
    ["--epsilon", "0", "--n", "1"], ["--epsilon", "2", "--n", "0"],
    ["--epsilon", "2", "--n", "1", "--C", "0"],
    ["--epsilon", "2", "--n", "1", "--C", "-1"],
    ["--epsilon", "2", "--n", "1", "--C", "inf"],
    ["--epsilon", "1e-300", "--n", "1"]])
def test_thresholds_bad_input(tmp_path, capsys, argv):
    code, data = run(tmp_path, "thresholds", *argv)
    assert code == 1 and data is None
    assert capsys.readouterr().err.count("\n") == 1


def test_thresholds_far_threshold(tmp_path):
    # 2 * 10^6 steps of a loop from m = 2, past its old cap of 10^6
    code, data = run(tmp_path, "thresholds", "--epsilon", "1e-6", "--n", "1")
    assert code == 0
    assert data["report"] == {"demailly": 2000002, "main": 2000003}


def test_unknown_command():
    assert cli.main(["frobnicate"]) == 1


def test_input_error_exit_code(tmp_path):
    code = cli.main(["density", "--r", "-1", "--out",
                     str(tmp_path / "x.json")])
    assert code == 1


@pytest.mark.parametrize("argv, point", [
    (["enumerate", "--x", "nan"], "(nan+0j)"),
    (["weight-sum", "--z", "nan"], "(nan+0j)"),
    (["poincare-eval", "--z", "nan+1j"], "(nan+1j)"),
    (["injectivity-radius", "--x", "1.5"], "(1.5+0j)"),
    (["injectivity-radius", "--x", "1"], "(1+0j)"),
    (["injectivity-radius", "--x", "nan"], "(nan+0j)")])
def test_nan_point_exits_1(tmp_path, capsys, argv, point):
    # NaN fails every comparison, so the disc check must not be |z| >= limit;
    # a point outside the disc is rejected before reduction could carry it in
    code, data = run(tmp_path, *argv)
    assert code == 1 and data is None
    err = capsys.readouterr().err
    assert err == f"error: point {point} is not inside |z| < 0.999999999999\n"


@pytest.mark.parametrize("argv", [
    ["fundamental-domain", "--spacing", "0"],
    ["fundamental-domain", "--spacing", "-0.1"],
    ["fundamental-domain", "--spacing", "nan"],
    ["roundtrip", "--spacing", "0"],
    ["quasi-psh-check", "--spacing", "0"],
    ["quasi-psh-check", "--group", "trivial", "--spacing", "0"],
    ["approx-poly", "--f", "poly 1", "--dilation", "-5"],
    ["approx-poly", "--f", "poly 1", "--delta", "0"],
    ["approx-poly", "--f", "rational 1 / 2 -1", "--delta", "0"],
    ["approx-poly", "--f", "rational 1 / 2 -1", "--delta", "nan"],
    ["approx-poly", "--f", "rational 1 / 2 -1", "--dilation", "1.5"],
    ["norm", "--l", "nan"],
    ["norm", "--l", "inf"],
    ["approx-poly", "--f", "rational 1 / 2 -1", "--l", "nan"],
    ["approx-poly", "--f", "rational 1 / 2 -1", "--l", "inf"],
    ["approx-poly", "--f", "poly 1", "--l", "nan"]])
def test_bad_numeric_flag_exits_1(tmp_path, capsys, argv):
    # one error line, no traceback
    code, data = run(tmp_path, *argv)
    assert code == 1 and data is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--l" in argv:
        # before any quadrature: not the JSON writer's complaint, nor a
        # degree cap reached on NaN norms
        assert err.startswith("error: l must be finite and >= 0, got ")


def test_polynomial_seed_takes_no_dilation(tmp_path, capsys):
    # a polynomial is its own approximation, reported with dilation 1; a
    # dilation the library would ignore is an input error naming it
    code, data = run(tmp_path, "approx-poly", "--f", "poly 1 2",
                     "--dilation", "0.5")
    assert code == 1 and data is None
    err = capsys.readouterr().err
    assert err.startswith("error: dilation: ") and err.count("\n") == 1
    code, data = run(tmp_path, "approx-poly", "--f", "poly 1 2")
    assert code == 0 and data["report"]["dilation"] == 1.0
    code, data = run(tmp_path, "approx-poly", "--f", "rational 1 / 2 -1",
                     "--dilation", "0.999", "--delta", "0.01")
    assert code == 0 and data["report"]["dilation"] == 0.999


@pytest.mark.parametrize("dilation", ["0.99", "0.98"])
def test_dilated_approximation_reaches_delta(tmp_path, dilation):
    # the halving error of ||f - h|| grows 4x from the quarter grid to the
    # full one at degree 4 here, but stays below 1e-5 of the norm, which
    # is what norm_pl judges; the degree is taken once norm + error < delta
    code, data = run(tmp_path, "approx-poly", "--f", "rational 1 / 2 -1",
                     "--delta", "0.01", "--dilation", dilation)
    assert code == 0 and data["report"]["achieved_norm"] < 0.01


def _readme_commands():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = [shlex.split(line)
             for line in block.split("```", 1)[0].splitlines()]
    assert all(line[0] == "discforms" for line in lines)
    return [line[1:] for line in lines]


README_COMMANDS = _readme_commands()


def test_readme_names_every_subcommand():
    assert sorted(argv[0] for argv in README_COMMANDS) \
        == sorted(cli.build_parser().flags)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda a: a[0])
def test_readme_command_runs(tmp_path, monkeypatch, capsys, argv):
    # each documented command as written, in a fresh directory for --csv:
    # exit 0 or 2 and nothing on stderr
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) in (0, 2)
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("extra", [[], ["--radius", "8"]])
def test_lemma22_last_shell_is_lhs(tmp_path, extra):
    # shell sums are correctly rounded like lhs, so the shell at the radius
    # reports lhs to the bit
    code, data = run(tmp_path, "lemma22-check", *extra)
    rep = data["report"]
    assert code == 0
    assert rep["partial_lhs"][-1] == [data["config"]["radius"], rep["lhs"]]


@pytest.mark.parametrize("command", ["lemma22-check", "cm-constant",
                                     "kernel-check", "norm"])
def test_quadrature_memory_budget(tmp_path, command):
    # the dense integrands are evaluated in blocks; over whole grids these
    # commands peaked at 115, 50, 28 and 22 MiB
    tracemalloc.start()
    try:
        code, _ = run(tmp_path, command)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 20 * 2 ** 20


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


def test_injectivity_command(tmp_path):
    code, data = run(tmp_path, "injectivity-radius")
    assert code == 0
    assert data["report"]["rho_x"] == pytest.approx(1.5285709, rel=1e-6)


def test_density_floor_command(tmp_path):
    # r = 0.015 is below the grid's reach of the orbit of 0; the reduced x
    # is a candidate center, so the count is 1, not 0
    code, data = run(tmp_path, "density", "--r", "0.015")
    assert code == 0
    rep = data["report"]
    assert rep["best_count"] == 1 and rep["best_center"] == [0.0, 0.0]
    assert rep["value"] == pytest.approx(1.0 / 0.015 ** 2, rel=1e-15)


def test_injectivity_trivial_is_null(tmp_path):
    # the report is strict JSON: no orbit, so rho_x is null, not Infinity
    code, data = run(tmp_path, "injectivity-radius", "--group", "trivial")
    assert code == 0
    assert data["report"] == {"rho_x": None}


def test_kernel_check_command(capsys):
    # passing checks give numpy booleans, which the report must serialize
    assert cli.main(["kernel-check", "--m", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "kernel-check"
    assert data["report"]["passed"] is True


@pytest.mark.parametrize("m", range(2, 9))
def test_kernel_check_passes_at_every_weight(capsys, m):
    # the series gate is kernels.series_rounding_bound; a fixed 1e-10
    # relative bound failed m = 6, 7 and 8 on a correct closed form
    assert cli.main(["kernel-check", "--m", str(m), "--samples", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["passed"] is True


def test_kernel_check_series_gate_is_not_vacuous(monkeypatch, capsys):
    # a closed form off by a relative 1e-8 fails the series gate alone:
    # the transformation and reproducing checks still pass
    real = cli.kernels.weighted_kernel
    monkeypatch.setattr(cli.kernels, "weighted_kernel",
                        lambda m, z, w: real(m, z, w) * (1.0 + 1e-8))
    assert cli.main(["kernel-check", "--samples", "5"]) == 2
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["transformation"]["max_residual"] < 1e-10
    assert report["reproducing"]["rel_error"] < 5e-3


def test_enumerate_nonfinite_radius(capsys):
    for r in ("nan", "inf"):
        assert cli.main(["enumerate", "--radius", r]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err


def test_enumerate_far_point_past_dedup_limit(tmp_path, capsys):
    # the ball at 0.97 is cut from the ball at 0 of radius 12 + 2 rho(0, x)
    # = 20.4, past the dedup key's limit: one line, no report
    code, data = run(tmp_path, "enumerate", "--x", "0.97", "--radius", "12")
    assert code == 1 and data is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: radius + 2 rho(0, x) + slack = 20.3")


@pytest.mark.parametrize("spec", ["rational 1 / 0", "rational 1 /",
                                  "rational 1 / 0 0"])
def test_zero_denominator(capsys, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["approx-poly", "--f", spec]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "denominator" in err


def test_group_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    gen = "= 2.414213562373095 0.0 2.197368227230559 0.0\n"
    cfg.write_text(f"name = two\ngenerator.0 {gen}generater.1 {gen}")
    code, data = run(tmp_path, "enumerate", "--group", str(cfg),
                     "--radius", "5")
    assert code == 1 and data is None
    err = capsys.readouterr().err
    assert err == "error: line 3: unknown key 'generater.1'\n"


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


# Every checked command: the library call it checks, a spoiler that turns
# the real result into a failing one, and where the report shows that.
FAILING = [
    ("automorphy-check", cli.series, "automorphy_residual",
     lambda r: (1.0, *(dataclasses.replace(v, tail_estimate=0.0)
                       for v in r[1:])), ("samples", 0, "residual"), 1.0),
    ("lemma22-check", cli.series, "lemma22_check",
     lambda r: dataclasses.replace(r, holds=False), ("holds",), False),
    ("kernel-check", cli.kernels, "kernel_transformation_check",
     lambda r: dataclasses.replace(r, max_residual=1.0),
     ("transformation", "max_residual"), 1.0),
    ("cm-constant", cli.kernels, "cm_constant",
     lambda r: dataclasses.replace(r, spread=1.0), ("spread",), 1.0),
    ("roundtrip", cli.kernels, "roundtrip_check",
     lambda r: dataclasses.replace(r, max_rel_error=1.0),
     ("max_rel_error",), 1.0),
    ("cutoff-check", cli.seshadri, "cutoff_a",
     lambda r: (r[0] + 1.0, r[1]), ("a0",), 1.0),
    ("quasi-psh-check", cli.seshadri, "quasi_psh_check",
     lambda r: dataclasses.replace(r, n_violations=1),
     ("reports", 0, "n_violations"), 1),
]


@pytest.mark.parametrize("command, module, name, spoil, path, value",
                         FAILING, ids=[case[0] for case in FAILING])
def test_exit_2_on_failed_inequality(tmp_path, monkeypatch, command, module,
                                     name, spoil, path, value):
    # a failed check still writes its report, with the failing value
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: spoil(real(*a, **k)))
    code, data = run(tmp_path, command, *CHEAP[command])
    assert code == 2
    node = data["report"]
    for key in path:
        node = node[key]
    assert node == value
    assert data["report"].get("passed", False) is False


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


@pytest.mark.parametrize("command", ["automorphy-check", "kernel-check",
                                     "separation-scan"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_samples_must_be_positive(tmp_path, capsys, command, samples):
    # 0 used to pass over no samples or fail inside NumPy or min()
    code, data = run(tmp_path, command, "--samples", samples)
    assert code == 1 and data is None
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (f"error: argument --samples: must be a positive "
                       f"integer, got {samples}")


def test_automorphy_check_needs_generators(tmp_path, capsys):
    # a group without generators used to pass over "samples": []
    code, data = run(tmp_path, "automorphy-check", "--group", "trivial")
    assert code == 1 and data is None
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: argument --group: trivial has no generators, so "
                   "there is nothing to check"]


def test_parser_built_once_per_process(tmp_path, monkeypatch, capsys):
    # main builds its parser on first use and keeps it: runs with --config,
    # with bad input (exit 1) and plain give what fresh parsers give
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("radius = 4\nz = 0.1+0j\n")
    runs = [["weight-sum", "--config", str(cfg)],
            ["enumerate", "--radius", "nan"],
            ["thresholds", "--epsilon", "2", "--n", "1"]]

    def outputs():
        return [(cli.main(argv), *capsys.readouterr()) for argv in runs]
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append((cli.main(argv), *capsys.readouterr()))
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    assert outputs() == fresh
    assert len(builds) == 1
    assert [code for code, _, _ in fresh] == [0, 1, 0]


def _parser_defaults(parser):
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    return {(name, act.dest): copy.deepcopy(act.default)
            for name, sub in subs.choices.items() for act in sub._actions}


def test_commands_leave_the_parser_defaults_alone(tmp_path):
    # the parser outlives a run, so no command may write to a default it
    # was handed, such as quasi-psh-check's r_factors list
    before = _parser_defaults(cli._parser())
    assert before["quasi-psh-check", "r_factors"] == [1.0, 1.5, 2.0]
    for command, extra in CHEAP.items():
        if command == "quasi-psh-check":     # at its default r_factors
            extra = ["--group", "trivial", "--spacing", "0.05"]
        assert run(tmp_path, command, *extra)[0] in (0, 2)
    assert _parser_defaults(cli._parser()) == before


@pytest.mark.parametrize("command", ["fundamental-domain", "roundtrip",
                                     "quasi-psh-check"])
def test_out_of_memory_exits_1(tmp_path, monkeypatch, capsys, command):
    # `--spacing 1e-6` asks the quadrature grid for 17.6 TiB.  The refusal
    # is faked: where the kernel overcommits, the real allocation can
    # succeed and the process is then killed.
    message = ("Unable to allocate 17.6 TiB for an array with shape "
               "(1553776, 1553776) and data type float64")
    real = domain._clipped_grid

    def grid(verts, h):
        if h < 1e-4:
            raise MemoryError(message)
        return real(verts, h)
    monkeypatch.setattr(domain, "_clipped_grid", grid)
    code, data = run(tmp_path, command, "--spacing", "1e-6")
    assert code == 1 and data is None
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
