"""Per-layer metrics of a traced run, one layer per `misfdr` module.

Callables are picked by predicates on their names and owners rather than a
fixed list, so a refactor that renames or adds a function still lands in
the right counter; a predicate that stops matching anything is reported as
absent (its metrics read 0).
"""

from __future__ import annotations

import numpy as np

from tracer import Group, Tracer, is_operator_class

LAYERS = ("linalg", "covariance", "posterior", "sampdist", "divergence",
          "fdr", "rng", "simulation", "cli")

# Counters that must repeat exactly between traced runs of one seed.
EXACT_COUNTERS = (
    "linalg.chol_calls", "linalg.solve_calls", "linalg.inverse_solves",
    "linalg.flops_computed", "linalg.jitter_added", "covariance.builds",
    "posterior.operator_builds", "posterior.rows_drawn", "sampdist.law_builds",
    "divergence.draws", "divergence.excluded", "fdr.step_up_calls", "rng.streams",
)

UNITS = {name: "count" for name in EXACT_COUNTERS}
UNITS["linalg.flops_computed"] = "flop"


def _arg(args, kwargs, index):
    if index < len(args):
        return args[index]
    rest = list(kwargs.values())
    index -= len(args)
    return rest[index] if index < len(rest) else None


def _is_identity(b) -> bool:
    if not isinstance(b, np.ndarray) or b.ndim != 2 or b.shape[0] != b.shape[1]:
        return False
    return np.count_nonzero(b) == b.shape[0] and bool(np.all(b.diagonal() == 1.0))


def _factor_probe(args, kwargs, result, outermost, count):
    """m^3/3 flops per Cholesky attempt; a returned ridge means two attempts."""
    count("linalg.chol_calls")
    jitter = result[1] if isinstance(result, tuple) and len(result) == 2 else 0.0
    jittered = isinstance(jitter, float) and jitter > 0.0
    if jittered:
        count("linalg.jitter_added")
    a = _arg(args, kwargs, 0)
    if np.ndim(a) == 2:
        count("linalg.flops_computed", (2 if jittered else 1) * np.shape(a)[0] ** 3 / 3)


def _solve_probe(args, kwargs, result, outermost, count):
    """2 m^2 k flops for a k-column solve against a Cholesky factor."""
    count("linalg.solve_calls")
    factor, rhs = _arg(args, kwargs, 0), _arg(args, kwargs, 1)
    if np.ndim(factor) != 2 or rhs is None:
        return
    m = np.shape(factor)[0]
    k = np.shape(rhs)[1] if np.ndim(rhs) == 2 else 1
    count("linalg.flops_computed", 2 * m * m * k)
    if _is_identity(rhs):
        count("linalg.inverse_solves")


def _rows_probe(args, kwargs, result, outermost, count):
    """Datasets drawn: rows of the returned (n, m) arrays, or 1 for one vector."""
    if not outermost:
        return
    y = getattr(result, "y", None)
    if y is None and isinstance(result, tuple) and result:
        y = result[-1]
    count("posterior.rows_drawn", np.shape(y)[0] if np.ndim(y) == 2 else 1)


def _kl_probe(args, kwargs, result, outermost, count):
    if outermost and hasattr(result, "n_draws"):
        excluded = int(getattr(result, "n_excluded", 0))
        count("divergence.draws", int(result.n_draws) + excluded)
        count("divergence.excluded", excluded)


def _stream_probe(args, kwargs, result, outermost, count):
    """New Generators handed out by the outermost rng call (not ones passed in)."""
    if not outermost:
        return
    made = result if isinstance(result, (list, tuple)) else [result]
    given = {id(a) for a in args} | {id(v) for v in kwargs.values()}
    count("rng.streams", sum(
        isinstance(g, np.random.Generator) and id(g) not in given for g in made
    ))


def _module_function(prefix: str):
    return lambda t: t.owner is None and t.name.startswith(prefix)


GROUPS = (
    Group("linalg.factor", "linalg", lambda t: t.name.startswith("chol"), _factor_probe),
    Group("linalg.solve", "linalg", lambda t: "solve" in t.name, _solve_probe),
    Group("covariance.build", "covariance",
          lambda t: t.owner is None and t.name.endswith("_cov")),
    Group("covariance.chol", "covariance", lambda t: "chol" in t.name),
    # Posterior operators are the plain classes; dataclasses are records.
    Group("posterior.operator", "posterior",
          lambda t: is_operator_class(t) and t.name == "__init__"),
    Group("posterior.draw", "posterior", _module_function("draw"), _rows_probe),
    Group("posterior.score", "posterior",
          lambda t: (is_operator_class(t) and t.name != "__init__")
          or (t.owner is None and t.name.startswith("posterior_probs"))),
    Group("sampdist.law", "sampdist",
          lambda t: _module_function("law_")(t) and not t.name.endswith("_csv")),
    Group("sampdist.sampler", "sampdist", lambda t: t.name.startswith("xi_")),
    Group("divergence.all", "divergence", lambda t: True),
    Group("divergence.kl", "divergence", _module_function("kl"), _kl_probe),
    Group("fdr.step_up", "fdr", lambda t: t.name.startswith("step_up")),
    Group("rng.all", "rng", lambda t: True, _stream_probe),
)

# Metrics read from group call counts and outermost inclusive times.
_GROUP_CALLS = {
    "covariance.builds": "covariance.build",
    "posterior.operator_builds": "posterior.operator",
    "sampdist.law_builds": "sampdist.law",
    "fdr.step_up_calls": "fdr.step_up",
}
_GROUP_SECONDS = {
    "covariance.chol_s": "covariance.chol",
    "posterior.draw_s": "posterior.draw",
    "posterior.score_s": "posterior.score",
    "sampdist.law_s": "sampdist.law",
    "sampdist.sampler_s": "sampdist.sampler",
    "fdr.step_up_s": "fdr.step_up",
}
_PROBE_COUNTERS = tuple(n for n in EXACT_COUNTERS if n not in _GROUP_CALLS)

# Every per-layer metric, in report order; trace.* come from the caller.
METRICS = (
    tuple(f"{layer}.self_s" for layer in LAYERS)
    + ("divergence.inclusive_s",) + tuple(_GROUP_CALLS) + tuple(_GROUP_SECONDS)
    + _PROBE_COUNTERS + ("trace.wall_s", "trace.overhead_s")
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced run (trace.* excepted)."""
    metrics = {f"{layer}.self_s": tracer.layer_self_s.get(layer, 0.0) for layer in LAYERS}
    metrics["divergence.inclusive_s"] = tracer.group_inclusive_s("divergence.all")
    for name, group in _GROUP_CALLS.items():
        metrics[name] = tracer.group_calls(group)
    for name, group in _GROUP_SECONDS.items():
        metrics[name] = tracer.group_inclusive_s(group)
    for name in _PROBE_COUNTERS:
        metrics[name] = tracer.counters.get(name, 0)
    return metrics


def unit(name: str) -> str:
    return UNITS.get(name, "s")


def absent(tracer: Tracer) -> list[str]:
    """Layers with nothing wrapped and groups that matched no callable."""
    present = {target.layer for target in tracer.targets}
    return [f"layer:{layer}" for layer in LAYERS if layer not in present] + tracer.absent_groups()
