"""What the traced run wraps in each charthree module, and the per-layer
metrics it derives from the records.

Layers are the package's modules.  Every public function and method that
does work is wrapped, so each module's `self_s` is the time spent in its
own code; the ones with a named metric are listed in `METRICS`, the rest
only feed the self times.  `README.md` maps each metric to the end-to-end
metric it should move.
"""

from __future__ import annotations

import inspect
import math
import statistics

from tracing import Target, Tracer

MODULES = ("fields", "f3linalg", "factorint", "semigroups", "polyfamilies",
           "curve", "localseries", "automorphisms", "weierstrass", "cli")

# Levels whose multiplications are counted on their own: the levels the
# workloads multiply at.  At q = 9: 4 (F_{q^2}), 8 (sampled places) and 12
# (lifts).  At q = 81: 8 (F_{q^2}), 16 and 24 (the generated places) and 48
# and 72 (their lifts).  Every other level adds to n_other.
MUL_LEVELS = (4, 8, 12, 16, 24, 48, 72)


def _count_by_level(tr, args, kwargs, result, dt):
    n = args[0].n
    key = f"fields.mul_calls.n{n}" if n in MUL_LEVELS else "fields.mul_calls.n_other"
    tr.extra[key] += 1


def _sample_outcome(sig):
    def observe(tr, args, kwargs, result, dt):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tr.extra["curve.sample_requested"] += bound.arguments["count"]
        tr.extra["curve.sample_returned"] += len(result)
        if not result:
            tr.extra["curve.sample_empty_s"] += dt
    return observe


def _newton_steps(tr, args, kwargs, result, dt):
    tr.extra["localseries.newton_steps"] += result.newton_steps


def _witness_time(tr, args, kwargs, result, dt):
    tr.samples["localseries.witness"].append(dt)


def _count_result(name):
    def observe(tr, args, kwargs, result, dt):
        tr.extra[name] += len(result)
    return observe


def targets(ch) -> list[Target]:
    """The wrap list for the imported package namespace `ch`.

    Each function object appears once: `FieldElement.__radd__` is the same
    object as `__add__` and is wrapped with it, and a function that other
    modules import by name (`verify_gaps` in `cli`, `p_order` in `curve`,
    `mult_order` in `curve` and `polyfamilies`) is wrapped at every binding.
    """
    F = ch.fields
    FE, FL, FT = F.FieldElement, F.FieldLevel, F.FieldTower
    LS = ch.f3linalg.LinearSolver
    NS = ch.semigroups.NumericalSemigroup
    C = ch.curve.Curve
    L = ch.localseries
    TS, LD = L.TruncatedSeries, L.LocalData
    A = ch.automorphisms
    W = ch.weierstrass
    P = ch.polyfamilies
    T = Target
    out = [
        # fields: the F_{3^n} kernel
        T(FL, "mul_packed", "fields", "fields.mul", observe=_count_by_level),
        T(FL, "reduce_raw", "fields", "fields.reduce"),
        T(FE, "__add__", "fields", "fields.add"),
        T(FE, "__sub__", "fields", "fields.add"),
        T(FE, "__rsub__", "fields", "fields.add"),
        T(FE, "__neg__", "fields", "fields.add"),
        T(FL, "inv_packed", "fields", "fields.inv"),
        T(FE, "__pow__", "fields", "fields.pow"),
        T(F, "mult_order", "fields", "fields.mult_order"),
        T(FT, "embed", "fields", "fields.embed"),
        T(FL, "__init__", "fields", "fields.level_build", span=True),
        T(FE, "__mul__", "fields", "fields.elem_mul"),
        T(FE, "__truediv__", "fields", "fields.div"),
        T(FE, "__rtruediv__", "fields", "fields.div"),
        T(FE, "inverse", "fields", "fields.inverse"),
        T(FE, "cube", "fields", "fields.cube"),
        T(FE, "pow3", "fields", "fields.frobenius"),
        T(FT, "section", "fields", "fields.section"),
        T(F, "trace_p", "fields", "fields.trace_p"),
        T(F, "sqrt", "fields", "fields.sqrt"),
        # f3linalg
        T(LS, "__init__", "f3linalg", "f3linalg.solver_build", span=True),
        T(LS, "solve", "f3linalg", "f3linalg.solve"),
        T(LS, "kernel_basis", "f3linalg", "f3linalg.kernel"),
        # factorint
        T(ch.factorint, "factorize", "factorint", "factorint.factorize", span=True),
        # semigroups
        T(NS, "from_generators", "semigroups", "semigroups.from_generators"),
        T(ch.semigroups, "is_cofinite_monoid", "semigroups", "semigroups.cofinite"),
        T(ch.semigroups.GapSet, "__init__", "semigroups", "semigroups.gap_set"),
        # polyfamilies
        T(P, "eval_chain", "polyfamilies", "polyfamilies.eval_chain"),
        T(P, "p_order", "polyfamilies", "polyfamilies.p_order"),
        T(P, "r_order", "polyfamilies", "polyfamilies.r_order"),
        T(P, "corollary_check_symbolic", "polyfamilies", "polyfamilies.symbolic",
          span=True),
        T(P, "eval_closed", "polyfamilies", "polyfamilies.eval_closed"),
        T(P, "identity_check", "polyfamilies", "polyfamilies.identity_check"),
        T(P, "corollary_check", "polyfamilies", "polyfamilies.corollary_check"),
        T(P, "gamma_of", "polyfamilies", "polyfamilies.gamma_of"),
        # curve
        T(C, "__init__", "curve", "curve.init", span=True),
        T(C, "enumerate_rational", "curve", "curve.enumerate", span=True,
          observe=_count_result("curve.places_enumerated")),
        T(C, "classify_beta", "curve", "curve.classify"),
        T(C, "sample_nonrational", "curve", "curve.sample", span=True,
          observe=_sample_outcome(inspect.signature(C.sample_nonrational))),
        T(C, "place_from_coords", "curve", "curve.place_from_coords"),
        T(C, "hermitian_lift", "curve", "curve.lift", span=True),
        T(C, "solve_artin_schreier", "curve", "curve.solve"),
        T(C, "solve_trace_p", "curve", "curve.solve"),
        T(C, "kernel_artin_schreier", "curve", "curve.kernel"),
        T(C, "kernel_trace_p", "curve", "curve.kernel"),
        T(C, "feasible_gamma_orders", "curve", "curve.feasible_orders"),
        # localseries
        T(LD, "__init__", "localseries", "localseries.localdata_init", span=True),
        T(L, "expand_coordinates", "localseries", "localseries.expand", span=True,
          observe=_newton_steps),
        T(TS, "__mul__", "localseries", "localseries.series_mul"),
        T(TS, "__add__", "localseries", "localseries.series_add"),
        T(TS, "__sub__", "localseries", "localseries.series_add"),
        T(TS, "__neg__", "localseries", "localseries.series_add"),
        T(TS, "scale", "localseries", "localseries.series_scale"),
        T(TS, "cube", "localseries", "localseries.series_frobenius"),
        T(TS, "pow3", "localseries", "localseries.series_frobenius"),
        T(L, "build_f_chain", "localseries", "localseries.f_chain", span=True),
        T(L, "build_g_chain", "localseries", "localseries.g_chain", span=True),
        T(L, "build_beta1_chain", "localseries", "localseries.h_chain", span=True),
        T(LD, "gap_witness", "localseries", "localseries.witness",
          observe=_witness_time),
        T(L, "expand_x_at_beta_zero", "localseries", "localseries.expand_beta_zero",
          span=True),
        # automorphisms
        T(A, "group_elements", "automorphisms", "automorphisms.group_elements",
          span=True),
        T(A, "apply_coords", "automorphisms", "automorphisms.apply"),
        T(A, "apply", "automorphisms", "automorphisms.apply"),
        T(A, "orbit_partition", "automorphisms", "automorphisms.orbit_partition",
          span=True, observe=_count_result("automorphisms.orbits")),
        T(A, "orbit", "automorphisms", "automorphisms.orbit"),
        T(A, "compose", "automorphisms", "automorphisms.compose"),
        T(A, "inverse", "automorphisms", "automorphisms.inverse"),
        # weierstrass
        T(W, "semigroup_at", "weierstrass", "weierstrass.semigroup_at", span=True),
        T(W, "verify_gaps", "weierstrass", "weierstrass.verify_gaps", span=True,
          observe=_count_result("weierstrass.gap_certs")),
        T(W, "verify_nongaps", "weierstrass", "weierstrass.verify_nongaps", span=True,
          observe=_count_result("weierstrass.nongap_certs")),
        T(W, "full_census", "weierstrass", "weierstrass.census", span=True),
        # cli
        T(ch.cli, "main", "cli", "cli.main", span=True),
    ]
    out += [T(ch.cli, name, "cli", f"cli.{name}", span=True)
            for name in ("cmd_places", "cmd_semigroup", "cmd_verify",
                         "cmd_polyfam", "cmd_aut")]
    return out


def make_tracer(ch) -> Tracer:
    namespaces = [ch.package] + [getattr(ch, m) for m in MODULES]
    return Tracer(targets(ch), also=namespaces)


# ---------------------------------------------------------------------------
# metrics


def _calls(key):
    return lambda tr: tr.calls[key], "count"


def _time(*keys):
    return lambda tr: sum(tr.inclusive[k] for k in keys), "s"


def _extra(key, unit="count"):
    return lambda tr: tr.extra[key], unit


def _self(layer):
    return lambda tr: tr.self_s[layer], "s"


def _ratio(num, den):
    def f(tr):
        d = den(tr)
        return num(tr) / d if d else 0.0
    return f, "ratio"


def _percentile_us(key, pct):
    def f(tr):
        xs = sorted(tr.samples[key])
        if not xs:
            return 0.0
        return xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)] * 1e6
    return f, "us"


METRICS: dict[str, tuple] = {
    "fields.mul_calls": _calls("fields.mul"),
    "fields.mul_s": _time("fields.mul"),
    **{f"fields.mul_calls.n{n}": _extra(f"fields.mul_calls.n{n}") for n in MUL_LEVELS},
    "fields.mul_calls.n_other": _extra("fields.mul_calls.n_other"),
    "fields.reduce_calls": _calls("fields.reduce"),
    "fields.reduce_s": _time("fields.reduce"),
    "fields.add_calls": _calls("fields.add"),
    "fields.add_s": _time("fields.add"),
    "fields.inv_calls": _calls("fields.inv"),
    "fields.inv_s": _time("fields.inv"),
    "fields.pow_calls": _calls("fields.pow"),
    "fields.pow_s": _time("fields.pow"),
    "fields.mult_order_calls": _calls("fields.mult_order"),
    "fields.mult_order_s": _time("fields.mult_order"),
    "fields.embed_calls": _calls("fields.embed"),
    "fields.embed_s": _time("fields.embed"),
    "fields.levels_built": _calls("fields.level_build"),
    "fields.level_build_s": _time("fields.level_build"),
    "fields.self_s": _self("fields"),
    "f3linalg.solver_builds": _calls("f3linalg.solver_build"),
    "f3linalg.solver_build_s": _time("f3linalg.solver_build"),
    "f3linalg.solves": _calls("f3linalg.solve"),
    "f3linalg.solve_s": _time("f3linalg.solve"),
    "f3linalg.self_s": _self("f3linalg"),
    "factorint.factorize_calls": _calls("factorint.factorize"),
    "factorint.factorize_s": _time("factorint.factorize"),
    "factorint.self_s": _self("factorint"),
    "semigroups.from_generators_s": _time("semigroups.from_generators"),
    "semigroups.cofinite_checks": _calls("semigroups.cofinite"),
    "semigroups.cofinite_s": _time("semigroups.cofinite"),
    "semigroups.self_s": _self("semigroups"),
    "polyfamilies.eval_chain_calls": _calls("polyfamilies.eval_chain"),
    "polyfamilies.eval_chain_s": _time("polyfamilies.eval_chain"),
    "polyfamilies.p_order_calls": _calls("polyfamilies.p_order"),
    "polyfamilies.p_order_s": _time("polyfamilies.p_order"),
    "polyfamilies.r_order_s": _time("polyfamilies.r_order"),
    "polyfamilies.symbolic_s": _time("polyfamilies.symbolic"),
    "polyfamilies.self_s": _self("polyfamilies"),
    "curve.enumerate_s": _time("curve.enumerate"),
    "curve.places_enumerated": _extra("curve.places_enumerated"),
    "curve.classify_calls": _calls("curve.classify"),
    "curve.classify_s": _time("curve.classify"),
    "curve.sample_calls": _calls("curve.sample"),
    "curve.sample_s": _time("curve.sample"),
    "curve.sample_empty_s": _extra("curve.sample_empty_s", "s"),
    "curve.sample_yield": _ratio(lambda tr: tr.extra["curve.sample_returned"],
                                 lambda tr: tr.extra["curve.sample_requested"]),
    "curve.place_from_coords_calls": _calls("curve.place_from_coords"),
    "curve.place_from_coords_s": _time("curve.place_from_coords"),
    "curve.lift_calls": _calls("curve.lift"),
    "curve.lift_s": _time("curve.lift"),
    "curve.self_s": _self("curve"),
    "localseries.localdata_inits": _calls("localseries.localdata_init"),
    "localseries.expand_s": _time("localseries.expand"),
    "localseries.newton_steps": _extra("localseries.newton_steps"),
    "localseries.series_mul_calls": _calls("localseries.series_mul"),
    "localseries.series_mul_s": _time("localseries.series_mul"),
    "localseries.series_add_s": _time("localseries.series_add"),
    "localseries.series_scale_s": _time("localseries.series_scale"),
    "localseries.f_chain_builds": _calls("localseries.f_chain"),
    "localseries.g_chain_builds": _calls("localseries.g_chain"),
    "localseries.chain_build_s": _time("localseries.f_chain", "localseries.g_chain",
                                       "localseries.h_chain"),
    "localseries.chain_builds_per_localdata": _ratio(
        lambda tr: (tr.calls["localseries.f_chain"] + tr.calls["localseries.g_chain"]
                    + tr.calls["localseries.h_chain"]),
        lambda tr: tr.calls["localseries.localdata_init"]),
    "localseries.witness_calls": _calls("localseries.witness"),
    "localseries.witness_s": _time("localseries.witness"),
    "localseries.witness_p50_us": _percentile_us("localseries.witness", 50),
    "localseries.witness_p99_us": _percentile_us("localseries.witness", 99),
    "localseries.self_s": _self("localseries"),
    "automorphisms.group_elements_calls": _calls("automorphisms.group_elements"),
    "automorphisms.group_elements_s": _time("automorphisms.group_elements"),
    "automorphisms.apply_calls": _calls("automorphisms.apply"),
    "automorphisms.orbit_partition_s": _time("automorphisms.orbit_partition"),
    "automorphisms.orbits": _extra("automorphisms.orbits"),
    "automorphisms.self_s": _self("automorphisms"),
    "weierstrass.semigroup_at_s": _time("weierstrass.semigroup_at"),
    "weierstrass.verify_gaps_s": _time("weierstrass.verify_gaps"),
    "weierstrass.gap_certs": _extra("weierstrass.gap_certs"),
    "weierstrass.verify_nongaps_s": _time("weierstrass.verify_nongaps"),
    "weierstrass.nongap_certs": _extra("weierstrass.nongap_certs"),
    "weierstrass.census_s": _time("weierstrass.census"),
    "weierstrass.self_s": _self("weierstrass"),
    "cli.main_s": _time("cli.main"),
    "cli.self_s": _self("cli"),
}


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Every metric of one traced pass, as name -> (value, unit)."""
    return {name: (float(fn(tr)), unit) for name, (fn, unit) in METRICS.items()}


def median_metrics(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-metric median over traced passes."""
    return {name: (statistics.median(p[name][0] for p in passes), unit)
            for name, (_, unit) in passes[0].items()}
