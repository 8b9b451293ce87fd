"""Command-line front end: configs in, machine-readable reports out.

Every command writes a JSON report (stdout or --out).  Reports embed the
resolved configuration and the package version, contain no timestamps, and
use sorted keys, so identical configs produce byte-identical bytes.  Grid
CSV output uses 17-significant-digit decimals.  Exit codes: 0 success, 2 a
checked inequality failed beyond tolerance, 1 input error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import DiscformsError
from . import series, kernels, seshadri, embedding
from .domain import dirichlet_domain
from .geometry import disc_points
from .group import enumerate_ball, load_group
from .series import SeedFunction


def _jsonable(obj):
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def parse_seed(text):
    """Seed spec: 'poly c0 c1 ...' or 'rational n0 n1 ... / d0 d1 ...'."""
    parts = text.split()
    if not parts:
        raise ValueError("empty seed spec")
    if parts[0] == "poly":
        return SeedFunction.poly([complex(p) for p in parts[1:]])
    if parts[0] == "rational":
        if "/" not in parts:
            raise ValueError("rational seed needs 'num / den'")
        cut = parts.index("/")
        return SeedFunction.rational([complex(p) for p in parts[1:cut]],
                                     [complex(p) for p in parts[cut + 1:]])
    raise ValueError(f"unknown seed kind {parts[0]!r}")


def _write_report(args, command, payload, out_path=None):
    cfg = {k: _jsonable(v) for k, v in sorted(vars(args).items())
           if k not in ("func",) and v is not None}
    report = {"command": command, "config": cfg, "version": __version__,
              "report": _jsonable(payload)}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow(["%.17g" % v if isinstance(v, float) else v
                         for v in row])


# --------------------------------------------------------------- commands

def cmd_enumerate(args):
    g = load_group(args.group)
    ball = enumerate_ball(g, complex(args.x), args.radius)
    if args.csv:
        _write_csv(args.csv,
                   ["word", "re_alpha", "im_alpha", "re_beta", "im_beta",
                    "displacement"],
                   [("".join(map(str, w)) or "id", a.real, a.imag, b.real,
                     b.imag, float(d))
                    for w, a, b, d in zip(ball.words, ball.alphas,
                                          ball.betas, ball.displacements)])
    _write_report(args, "enumerate", {
        "count": len(ball), "radius": args.radius,
        "max_displacement": float(ball.displacements.max()),
    }, args.out)
    return 0


def cmd_fundamental_domain(args):
    g = load_group(args.group)
    dom = dirichlet_domain(g, 0.0j, spacing=args.spacing)
    if args.csv:
        _write_csv(args.csv, ["re_node", "im_node", "weight"],
                   [(z.real, z.imag, float(w))
                    for z, w in zip(dom.nodes, dom.weights)])
    _write_report(args, "fundamental-domain", {
        "n_vertices": len(dom.vertices),
        "vertices": list(dom.vertices),
        "euclidean_area": dom.euclidean_area,
        "quadrature_mass": float(dom.weights.sum()),
        "n_nodes": len(dom.nodes),
    }, args.out)
    return 0


def cmd_weight_sum(args):
    g = load_group(args.group)
    sv = series.weight_sum(g, complex(args.x), complex(args.z), args.radius)
    _write_report(args, "weight-sum", sv, args.out)
    return 0


def cmd_poincare_eval(args):
    g = load_group(args.group)
    f = parse_seed(args.f)
    sv = series.poincare_eval(g, f, args.m, complex(args.z), args.radius)
    _write_report(args, "poincare-eval", sv, args.out)
    return 0


def cmd_automorphy_check(args):
    g = load_group(args.group)
    f = parse_seed(args.f)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    records = []
    gens = list(g.generators) + [h.inverse() for h in g.generators]
    for _ in range(args.samples):
        z = disc_points(rng, 1, 0.5)[0]
        h = gens[rng.integers(len(gens))] if gens else None
        if h is None:
            break
        res, pz, pgz = series.automorphy_residual(g, f, args.m, h,
                                                  complex(z), args.radius)
        bound = 2.0 * max(pz.tail_estimate, pgz.tail_estimate)
        records.append({"z": complex(z), "residual": res, "bound": bound})
        worst = max(worst, res - bound)
    ok = worst <= 0.0
    _write_report(args, "automorphy-check",
                  {"passed": ok, "samples": records}, args.out)
    return 0 if ok else 2


def cmd_norm(args):
    f = parse_seed(args.f)
    val, err = series.norm_pl(f, args.p, args.l, full_output=True)
    _write_report(args, "norm",
                  {"value": val, "halving_error": err}, args.out)
    return 0


def cmd_lemma22_check(args):
    g = load_group(args.group)
    f = parse_seed(args.f)
    rep = series.lemma22_check(g, f, args.m, radius=args.radius)
    _write_report(args, "lemma22-check", rep, args.out)
    return 0 if rep.holds else 2


def cmd_approx_poly(args):
    f = parse_seed(args.f)
    res = series.polynomial_approx(f, args.l, args.delta,
                                   dilation=args.dilation)
    _write_report(args, "approx-poly", {
        "degree": res.degree, "dilation": res.dilation,
        "achieved_norm": res.achieved_norm,
        "coefficients": list(res.poly.coeffs),
    }, args.out)
    return 0


def cmd_kernel_check(args):
    g = load_group(args.group)
    tr = kernels.kernel_transformation_check(g, args.m, args.samples,
                                             seed=args.seed)
    rng = np.random.default_rng(args.seed)
    z = disc_points(rng, 50, 0.8)
    w = disc_points(rng, 50, 0.8)
    cf = kernels.weighted_kernel(args.m, z, w)
    se = kernels.weighted_kernel_series(args.m, z, w)
    series_rel = float(np.max(np.abs(cf - se) / np.abs(cf)))
    rp = kernels.reproducing_check(args.m, SeedFunction.poly([0, 0, 1.0]),
                                   0.3)
    ok = (tr.max_residual < 1e-10 and series_rel < 1e-10
          and rp.rel_error < 5e-3)
    _write_report(args, "kernel-check", {
        "passed": ok, "transformation": tr,
        "series_vs_closed_form": series_rel, "reproducing": rp,
    }, args.out)
    return 0 if ok else 2


def cmd_cm_constant(args):
    rep = kernels.cm_constant(args.m)
    ok = rep.spread < 0.01
    _write_report(args, "cm-constant", rep, args.out)
    return 0 if ok else 2


def cmd_roundtrip(args):
    g = load_group(args.group)
    f0 = parse_seed(args.f)
    rng = np.random.default_rng(args.seed)
    pts = disc_points(rng, 10, 0.3)
    rep = kernels.roundtrip_check(g, f0, args.m, pts, radius=args.radius,
                                  spacing=args.spacing)
    _write_report(args, "roundtrip", rep, args.out)
    return 0 if rep.max_rel_error < 0.05 else 2


def cmd_injectivity_radius(args):
    g = load_group(args.group)
    rho = seshadri.injectivity_radius(g, complex(args.x))
    _write_report(args, "injectivity-radius", {"rho_x": rho}, args.out)
    return 0


def cmd_density(args):
    g = load_group(args.group)
    rep = seshadri.density(g, complex(args.x), args.r, full_output=True)
    _write_report(args, "density", rep, args.out)
    return 0


def cmd_cutoff_check(args):
    v0, d0 = seshadri.cutoff_a(0.0)
    vm1, _ = seshadri.cutoff_a(-1.0)
    _, d20 = seshadri.cutoff_a(-20.0)
    t = -1e9
    vt, _ = seshadri.cutoff_a(t)
    checks = {
        "a0": v0, "da0": d0,
        "a_minus1_vs_minus_exp": abs(vm1 + math.exp(-1)),
        "da_minus20_vs_one": abs(d20 - 1.0),
        "slope_limit_error": abs(vt / t - 1.0),
    }
    ok = (v0 == 0.0 and d0 == 0.0
          and checks["a_minus1_vs_minus_exp"] < 1e-15
          and checks["da_minus20_vs_one"] < 1e-8
          and checks["slope_limit_error"] < 1e-8)
    _write_report(args, "cutoff-check", {"passed": ok, **checks}, args.out)
    return 0 if ok else 2


def cmd_quasi_psh_check(args):
    g = load_group(args.group)
    rho = seshadri.injectivity_radius(g, complex(args.x))
    base = rho if math.isfinite(rho) else 1.0
    reports = []
    bad = 0
    for s in args.r_factors:
        rep = seshadri.quasi_psh_check(g, complex(args.x), s * base,
                                       spacing=args.spacing)
        reports.append(rep)
        bad += rep.n_violations
    _write_report(args, "quasi-psh-check",
                  {"passed": bad == 0, "reports": reports}, args.out)
    return 0 if bad == 0 else 2


def cmd_seshadri_bound(args):
    g = load_group(args.group)
    rep = seshadri.seshadri_lower_bound(g, complex(args.x))
    _write_report(args, "seshadri-bound", rep, args.out)
    return 0


def cmd_thresholds(args):
    rep = seshadri.ampleness_thresholds(args.epsilon, args.n, C=args.C)
    _write_report(args, "thresholds", rep, args.out)
    return 0


def cmd_separation_scan(args):
    g = load_group(args.group)
    rep = embedding.very_ampleness_scan(g, args.m, d=args.d,
                                        radius=args.radius,
                                        n_samples=args.samples,
                                        seed=args.seed)
    _write_report(args, "separation-scan", rep, args.out)
    return 0


# --------------------------------------------------------------- wiring

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


_COMMON_FLAGS = dict(
    out=dict(help="JSON report path (default stdout)"),
    seed=dict(type=int, default=0, help="RNG seed"),
    config=dict(help="key = value config file, read before the command "
                     "line; command-line flags override it"),
)


def build_parser():
    ap = _Parser(prog="discforms")
    ap.flags = {}           # command -> {flag: add_argument keywords}
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        ap.flags[name] = {**_COMMON_FLAGS, **flags}
        for flag, spec in ap.flags[name].items():
            p.add_argument("--" + flag.replace("_", "-"), **spec)
        p.set_defaults(func=fn)

    F = dict
    # only the subcommands that load a group or write a grid take these
    G = F(group=F(default="genus2-octagon",
                  help="preset name or group config file"))
    CSV = F(csv=F(help="optional CSV grid output path"))
    add("enumerate", cmd_enumerate, **G, **CSV,
        radius=F(type=float, default=8.0), x=F(default="0"))
    add("fundamental-domain", cmd_fundamental_domain, **G, **CSV,
        spacing=F(type=float, default=0.01))
    add("weight-sum", cmd_weight_sum, **G, radius=F(type=float, default=10.0),
        x=F(default="0"), z=F(default="0"))
    add("poincare-eval", cmd_poincare_eval, **G, f=F(default="poly 1"),
        m=F(type=int, default=4), z=F(default="0"),
        radius=F(type=float, default=10.0))
    add("automorphy-check", cmd_automorphy_check, **G, f=F(default="poly 1"),
        m=F(type=int, default=4), radius=F(type=float, default=10.0),
        samples=F(type=int, default=20))
    add("norm", cmd_norm, f=F(default="poly 1"), p=F(type=int, default=1),
        l=F(type=float, default=0.0))
    add("lemma22-check", cmd_lemma22_check, **G, f=F(default="poly 1"),
        m=F(type=int, default=4), radius=F(type=float, default=6.0))
    add("approx-poly", cmd_approx_poly, f=F(required=True),
        l=F(type=float, default=1.0), delta=F(type=float, default=1e-3),
        dilation=F(type=float, default=None))
    add("kernel-check", cmd_kernel_check, **G, m=F(type=int, default=4),
        samples=F(type=int, default=100))
    add("cm-constant", cmd_cm_constant, m=F(type=int, default=4))
    add("roundtrip", cmd_roundtrip, **G, f=F(default="poly 1"),
        m=F(type=int, default=4), radius=F(type=float, default=8.0),
        spacing=F(type=float, default=0.02))
    add("injectivity-radius", cmd_injectivity_radius, **G, x=F(default="0"))
    add("density", cmd_density, **G, x=F(default="0"),
        r=F(type=float, required=True))
    add("cutoff-check", cmd_cutoff_check)
    add("quasi-psh-check", cmd_quasi_psh_check, **G, x=F(default="0"),
        r_factors=F(type=float, nargs="+", default=[1.0, 1.5, 2.0]),
        spacing=F(type=float, default=0.0125))
    add("seshadri-bound", cmd_seshadri_bound, **G, x=F(default="0"))
    add("thresholds", cmd_thresholds,
        epsilon=F(type=float, required=True), n=F(type=int, required=True),
        C=F(type=float, default=None))
    add("separation-scan", cmd_separation_scan, **G, m=F(type=int, default=4),
        d=F(type=int, default=6), radius=F(type=float, default=8.0),
        samples=F(type=int, default=100))
    return ap


def _expand_config(parser, argv):
    """argv with the --config file's lines spliced in right after the command.

    Each `key = value` line becomes a flag placed ahead of the command line,
    so one parse applies argparse's types, nargs and required checks to
    both, and the command line, coming last, wins.
    """
    flags = parser.flags.get(argv[0]) if argv else None
    pre = _Parser(prog="discforms", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if flags is None or path is None:
        return argv
    tokens = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            if not eq:
                raise DiscformsError(f"{path}:{lineno}: expected 'key = value'")
            key = key.replace("-", "_")
            if key not in flags:
                raise DiscformsError(f"{path}: unknown key {key!r}")
            opt = "--" + key.replace("_", "-")
            # only nargs flags take several tokens; 'f = poly 1 0' is one
            tokens += ([opt, *val.split()] if "nargs" in flags[key]
                       else [f"{opt}={val}"])
    return [argv[0], *tokens, *argv[1:]]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_expand_config(parser, argv))
        return args.func(args)
    except SystemExit as exc:
        return exc.code
    except (DiscformsError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
