"""One workload in one fresh process: set-up, closed loop, oracle, trace.

Started by run.py.  It prints READY once set-up is done (run.py times the
set-up from process start to that line), then runs the timed phase, checks
every output and prints one JSON line with the raw results.  With
--setup-only it exits after READY.

The load is one client in a closed loop: the next operation starts when the
previous one returns.  The timed phase runs whole cycles of the workload
until at least --seconds have passed.  With --trace 1 the phase is split:
half untraced, half with every layer function wrapped, which gives the
per-layer numbers and the tracing overhead; a ball census follows.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import discforms  # noqa: E402
from discforms import (cli, domain, embedding, geometry, group,  # noqa: E402
                       kernels, series, seshadri)

import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = (discforms, cli, geometry, group, domain, series, kernels,
           seshadri, embedding)
CENSUS_RADII = (6, 8, 10, 12)
MAX_LISTED = 20
E2E_UNITS = {"sweep_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
             "success_rate": "ratio", "peak_rss_mb": "MB"}


# ------------------------------------------------------------ layer counters

def _ball_len(a, span):
    ball = a.get("ball")
    return len(ball) if ball is not None else span.ball_len


def _count_ball(a, result, span, parent):
    if parent is not None:
        parent.ball_len = len(result)
    return {"ball_kept": len(result)}


# (span name, module, attribute, counter)
LAYERS = (
    ("group.enumerate_ball", group, "enumerate_ball", _count_ball),
    ("group.orbit_counts", group, "orbit_counts",
     lambda a, r, s, p: {"pairs": s.ball_len * np.size(a["zs"])}),
    ("geometry.distance", geometry, "distance",
     lambda a, r, s, p: {"pairs": np.size(r)}),
    ("series.poincare_eval", series, "poincare_eval",
     lambda a, r, s, p: {"terms": r.terms_used}),
    ("series.weight_sum", series, "weight_sum",
     lambda a, r, s, p: {"terms": r.terms_used}),
    ("series.poincare_values", series, "poincare_values",
     lambda a, r, s, p: {"terms": _ball_len(a, s) * np.size(a["zs"])}),
    ("series.norm_pl", series, "norm_pl", None),
    ("series.lemma22_check", series, "lemma22_check", None),
    ("series.polynomial_approx", series, "polynomial_approx", None),
    ("seshadri.psi_values", seshadri, "psi_values",
     lambda a, r, s, p: {"pairs": _ball_len(a, s) * np.size(a["zs"])}),
    ("seshadri.density", seshadri, "density", None),
    ("seshadri.quasi_psh_check", seshadri, "quasi_psh_check", None),
    ("seshadri.injectivity_radius", seshadri, "injectivity_radius", None),
    ("domain.dirichlet_domain", domain, "dirichlet_domain",
     lambda a, r, s, p: {"nodes": len(r.nodes)}),
    ("kernels.relative_poincare", kernels, "relative_poincare",
     lambda a, r, s, p: {"pairs": len(a["domain"].nodes) * np.size(a["z"])}),
    ("kernels.roundtrip_check", kernels, "roundtrip_check", None),
    ("kernels.cm_constant", kernels, "cm_constant", None),
    ("embedding.eval_sections", embedding, "eval_sections",
     lambda a, r, s, p: {"terms": _ball_len(a, s) * np.size(a["z"])}),
)


def _safe(counter):
    """A counter that cannot fail the call it counts, if signatures move."""
    if counter is None:
        return None

    def count(a, r, s, p):
        try:
            return counter(a, r, s, p)
        except (KeyError, TypeError, AttributeError):
            return {"uncounted": 1}
    return count


def layer_targets():
    return [(name, getattr(mod, attr), _safe(counter))
            for name, mod, attr, counter in LAYERS if hasattr(mod, attr)]


# Per-layer metrics: (metric, unit, spans, field).  Values are per cycle.
_SPAN_METRICS = [
    ("group.enumerate_ball_s", "s", ["group.enumerate_ball"], "self_s"),
    ("group.enumerate_ball.calls", "count", ["group.enumerate_ball"], "calls"),
    ("group.ball_kept", "count", ["group.enumerate_ball"], "ball_kept"),
    ("series.poincare_eval_s", "s", ["series.poincare_eval"], "self_s"),
    ("series.weight_sum_s", "s", ["series.weight_sum"], "self_s"),
    ("series.poincare_values_s", "s", ["series.poincare_values"], "self_s"),
    ("series.terms", "count", ["series.poincare_eval", "series.weight_sum",
                               "series.poincare_values"], "terms"),
    ("geometry.distance_s", "s", ["geometry.distance"], "self_s"),
    ("geometry.distance.pairs", "count", ["geometry.distance"], "pairs"),
    ("group.orbit_counts_s", "s", ["group.orbit_counts"], "self_s"),
    ("group.orbit_counts.pairs", "count", ["group.orbit_counts"], "pairs"),
    ("seshadri.psi_values_s", "s", ["seshadri.psi_values"], "self_s"),
    ("seshadri.psi_values.pairs", "count", ["seshadri.psi_values"], "pairs"),
    ("seshadri.density_s", "s", ["seshadri.density"], "self_s"),
    ("seshadri.quasi_psh_check_s", "s", ["seshadri.quasi_psh_check"],
     "self_s"),
    ("seshadri.injectivity_radius_s", "s", ["seshadri.injectivity_radius"],
     "self_s"),
    ("domain.dirichlet_domain_s", "s", ["domain.dirichlet_domain"], "self_s"),
    ("domain.dirichlet_domain.calls", "count", ["domain.dirichlet_domain"],
     "calls"),
    ("domain.nodes", "count", ["domain.dirichlet_domain"], "nodes"),
    ("series.norm_pl_s", "s", ["series.norm_pl"], "self_s"),
    ("series.norm_pl.calls", "count", ["series.norm_pl"], "calls"),
    ("series.lemma22_check_s", "s", ["series.lemma22_check"], "self_s"),
    ("series.polynomial_approx_s", "s", ["series.polynomial_approx"],
     "self_s"),
    ("kernels.relative_poincare_s", "s", ["kernels.relative_poincare"],
     "self_s"),
    ("kernels.relative_poincare.pairs", "count",
     ["kernels.relative_poincare"], "pairs"),
    ("kernels.roundtrip_check_s", "s", ["kernels.roundtrip_check"], "self_s"),
    ("kernels.cm_constant_s", "s", ["kernels.cm_constant"], "self_s"),
    ("embedding.eval_sections_s", "s", ["embedding.eval_sections"], "self_s"),
    ("embedding.eval_sections.terms", "count", ["embedding.eval_sections"],
     "terms"),
] + [(f"cli.{sub}_s", "s", [f"cli.{sub}"], "self_s")
     for sub, _ in workloads.CLI_SWEEP] + [
    ("cli.report_bytes", "bytes", [f"cli.{sub}" for sub, _ in
                                   workloads.CLI_SWEEP], "report_bytes"),
]


# ---------------------------------------------------------------- the loop

def hd_median(latencies):
    """Harrell-Davis estimate of the median latency, taken on log latency.

    A weighted mean of all order statistics, the i-th weighted by the mass
    that Beta((n+1)/2, (n+1)/2) puts on [(i-1)/n, i/n] (Harrell and Davis,
    Biometrika 69, 1982).  It averages the jitter of the latencies near the
    middle instead of resting on one sample: a cli-defaults sweep has one
    ~0.2 s sample of each subcommand there, and one such sample varies by
    about 15% from call to call on a shared host.  On log latency the long
    subcommands pull it less.  With hundreds of operations it comes within
    a fraction of a percent of the sample median.  The weights come from
    the midpoint rule on 256 cells per order statistic.
    """
    steps = 256
    logs = np.sort(np.log(np.asarray(latencies, dtype=float)))
    n = len(logs)
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    log_density = ((n + 1) / 2.0 - 1.0) * (np.log(t) + np.log1p(-t))
    weights = np.exp(log_density - log_density.max()).reshape(n, steps)
    weights = weights.sum(axis=1)
    return float(np.exp(weights @ logs / weights.sum()))


class Phase:
    def __init__(self):
        self.records = []       # (kind, inputs, output) of completed ops
        self.latencies = []     # every attempted op, failed ones included
        self.cycle_times = []
        self.failures = []
        self.wall = 0.0

    @property
    def attempted(self):
        return len(self.latencies)

    def summary(self):
        return {
            "sweep_s": float(np.median(self.cycle_times)),
            "ops_per_s": len(self.records) / self.wall,
            "op_p50_s": hd_median(self.latencies),
            "success_rate": len(self.records) / self.attempted,
        }

    def tail(self):
        """p90 latency with its sample counts; reported, not gated, since
        only series-warm has ten samples above it."""
        p90 = float(np.percentile(self.latencies, 90, method="inverted_cdf"))
        return {"op_p90_s": p90, "samples": self.attempted,
                "above": int(np.sum(np.asarray(self.latencies) > p90))}


def run_phase(wl, seconds, first_cycle, tracer=None):
    """Whole cycles of wl until `seconds` have passed; one client."""
    ph = Phase()
    k = first_cycle
    start = time.perf_counter()
    while True:
        cycle_time = 0.0
        for kind, inputs in wl.cycle(k):
            root = tracer.root(f"{wl.root}.{kind}") if tracer else None
            t0 = time.perf_counter()
            try:
                out = wl.run(kind, inputs)
            except Exception as exc:  # a failed operation, not a crash
                out = exc
            dt = time.perf_counter() - t0
            cycle_time += dt
            ph.latencies.append(dt)
            if isinstance(out, Exception):
                ph.failures.append(
                    f"{kind}: " + traceback.format_exception_only(out)[-1]
                    .strip())
                if tracer:
                    tracer.end(root)
            else:
                ph.records.append((kind, inputs, out))
                if tracer:
                    tracer.end(root, **wl.root_counts(out))
        ph.cycle_times.append(cycle_time)
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    ph.wall = time.perf_counter() - start
    return ph


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, cycles):
    totals = tracer.totals()
    out = {}
    for metric, unit, names, field in _SPAN_METRICS:
        value = sum(totals.get(n, {}).get(field, 0) for n in names)
        out[metric] = {"value": value / cycles, "unit": unit}
    out["trace.spans"] = {"value": len(tracer.spans) / cycles,
                          "unit": "count"}
    return out


def census():
    """Cold ball sizes at x=0 next to Huber's (cosh R - 1)/2, and src size."""
    out = {}
    for r in CENSUS_RADII:
        kept = len(group.enumerate_ball(group.load_group(workloads.PRESET),
                                        0.0j, float(r)))
        out[f"census.R{r}.ball_kept"] = {"value": kept, "unit": "count"}
        out[f"census.R{r}.huber"] = {"value": (math.cosh(r) - 1.0) / 2.0,
                                     "unit": "count"}
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src").rglob("*.py")))
    out["census.src_lines"] = {"value": lines, "unit": "count"}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="JSON-lines file for traced spans")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if not args.trace:
        phase = run_phase(wl, args.seconds, 0)
        values = phase.summary()
        values["peak_rss_mb"] = peak_rss_mb()
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}
        phases = [phase]
        tail = phase.tail()
    else:
        plain = run_phase(wl, args.seconds / 2.0, 0)
        tracer = spans.Tracer()
        tracer.install(MODULES, layer_targets())
        try:
            traced = run_phase(wl, args.seconds / 2.0,
                               len(plain.cycle_times), tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, len(traced.cycle_times))
        base, over = plain.summary(), traced.summary()
        for key in ("sweep_s", "op_p50_s"):
            metrics[f"trace.overhead.{key}"] = {
                "value": over[key] - base[key], "unit": "s"}
        metrics.update(census())
        if args.spans_out:
            tracer.dump(args.spans_out)
        phases = [plain, traced]
        tail = None

    problems = wl.check([r for ph in phases for r in ph.records])
    print(json.dumps({
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(len(ph.failures) for ph in phases),
        "failures": [f for ph in phases for f in ph.failures][:MAX_LISTED],
        "problems": problems[:MAX_LISTED],
        "n_problems": len(problems),
        "metrics": metrics,
        "tail": tail,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
