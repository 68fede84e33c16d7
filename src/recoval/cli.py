"""Command-line front end.

Scenario files are JSON documents naming a quality distribution (four
probabilities, or a reduced (Q, sigma, lambda) triple), a sender type
distribution, an optional receiver distribution and a threshold
specification.  Commands evaluate the system, sweep a parameter, find
the optimal threshold, export design-region boundaries, run the Monte
Carlo cross-check, print the belief decomposition, or query the
multi-recommendation posteriors.

Numeric output is rounded to 12 significant digits and record ordering
is fixed, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    QualityDistribution,
    Recommendation,
    RecommendationSystem,
    belief_decomposition,
    posterior,
    recommendation_probabilities,
)
from .design import REGION_MAPS, optimize_threshold, region_map
from .distributions import PowerTypes, TypeDistribution, distribution_from_spec
from .errors import ModelError
from .extensions import (
    MultiRecCount,
    ThresholdPair,
    infinite_learning_policy,
    infinite_learning_value,
    multi_posterior,
    multi_weights,
    neutral_indifferent_type,
    two_threshold_value,
)
from .montecarlo import (
    SimulationConfig,
    estimate_multi,
    estimate_pi_buy,
    estimate_posterior,
    estimate_two_threshold,
    estimate_value,
)
from .receiver import REGION_KINDS
from .value import (
    quality_from_params,
    symmetric_buy_probability,
    symmetric_value,
    system_value,
    system_values,
)


class ScenarioError(ModelError):
    """Scenario document violates the schema."""


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: environment plus one threshold variant."""

    quality: QualityDistribution
    sender_types: TypeDistribution
    receiver_types: TypeDistribution
    threshold: float | None = None
    pair: ThresholdPair | None = None
    counts: MultiRecCount | None = None
    infinite: bool = False

    @property
    def kind(self) -> str:
        if self.pair is not None:
            return "pair"
        if self.counts is not None:
            return "counts"
        if self.infinite:
            return "infinite"
        return "single"

    def system(self) -> RecommendationSystem:
        if self.threshold is None:
            raise ScenarioError("this command needs a single-threshold scenario")
        return RecommendationSystem(
            quality=self.quality,
            sender_types=self.sender_types,
            threshold=self.threshold,
            receiver_types=self.receiver_types,
        )


def _require_number(data, path, lo=None, hi=None) -> float:
    if not isinstance(data, (int, float)) or isinstance(data, bool):
        raise ScenarioError(f"{path}: expected a number, got {data!r}")
    x = float(data)
    if not math.isfinite(x):
        raise ScenarioError(f"{path}: expected a finite number, got {x}")
    if lo is not None and x < lo or hi is not None and x > hi:
        raise ScenarioError(f"{path}: {x} outside [{lo}, {hi}]")
    return x


_Q_KEYS = ("qH", "q1", "q2", "qL")


def _parse_quality(data) -> QualityDistribution:
    if not isinstance(data, dict):
        raise ScenarioError("quality: expected an object")
    keys = set(data)
    try:
        if keys == set(_Q_KEYS):
            return QualityDistribution(
                *(_require_number(data[k], f"quality.{k}", 0.0, 1.0) for k in _Q_KEYS)
            )
        if keys in ({"Q", "sigma"}, {"Q", "sigma", "lambda"}):
            return quality_from_params(
                prevalence=_require_number(data["Q"], "quality.Q", 0.0, 0.5),
                good_odds=_require_number(data["sigma"], "quality.sigma"),
                controversial_odds=_require_number(
                    data.get("lambda", 1.0), "quality.lambda"
                ),
            )
    except ModelError as exc:
        raise ScenarioError(f"quality: {exc}") from exc
    raise ScenarioError(
        "quality: expected keys {qH, q1, q2, qL} or {Q, sigma[, lambda]}"
    )


def _parse_types(data, path) -> TypeDistribution:
    try:
        return distribution_from_spec(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(data) - {"quality", "sender_types", "receiver_types", "threshold"}
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    for field in ("quality", "sender_types", "threshold"):
        if field not in data:
            raise ScenarioError(f"{field}: missing required field")
    quality = _parse_quality(data["quality"])
    sender = _parse_types(data["sender_types"], "sender_types")
    receiver = (
        _parse_types(data["receiver_types"], "receiver_types")
        if "receiver_types" in data
        else sender
    )
    spec = data["threshold"]
    threshold = pair = counts = None
    infinite = False
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        threshold = _require_number(spec, "threshold")
        if not 0.0 < threshold < 1.0:
            raise ScenarioError(f"threshold: {threshold} out of (0, 1)")
    elif spec == "infinite":
        infinite = True
    elif isinstance(spec, dict) and set(spec) == {"R1", "R2"}:
        try:
            pair = ThresholdPair(
                low=_require_number(spec["R1"], "threshold.R1"),
                high=_require_number(spec["R2"], "threshold.R2"),
            )
        except ModelError as exc:
            raise ScenarioError(f"threshold: {exc}") from exc
    elif isinstance(spec, dict) and set(spec) == {"b", "d", "R"}:
        threshold = _require_number(spec["R"], "threshold.R")
        if not 0.0 < threshold < 1.0:
            raise ScenarioError(f"threshold.R: {threshold} out of (0, 1)")
        try:
            counts = MultiRecCount(buys=int(spec["b"]), dont_buys=int(spec["d"]))
        except (ValueError, TypeError, OverflowError) as exc:
            raise ScenarioError(f"threshold: {exc}") from exc
    else:
        raise ScenarioError(
            "threshold: expected a number in (0, 1), {R1, R2}, {b, d, R}, "
            'or "infinite"'
        )
    return Scenario(
        quality=quality,
        sender_types=sender,
        receiver_types=receiver,
        threshold=threshold,
        pair=pair,
        counts=counts,
        infinite=infinite,
    )


def _round12(x):
    if x is None:
        return None
    if isinstance(x, float):
        return float(f"{x:.12g}") if math.isfinite(x) else None
    return x


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return _round12(obj)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(payload, rows, args) -> str:
    if args.csv:
        if rows is None:
            raise ScenarioError("--csv applies to tabular commands only")
        header, table = rows
        lines = [",".join(header)]
        lines += [",".join(_fmt(cell) for cell in row) for row in table]
        return "\n".join(lines) + "\n"
    return json.dumps(_json_ready(payload), indent=2) + "\n"


def _cmd_evaluate(scenario: Scenario, args):
    scenario = _apply_threshold_flags(scenario, args)
    if scenario.kind == "single":
        report = system_value(scenario.system())
        return report.to_record(), None
    if scenario.kind == "pair":
        _require_common_population(scenario)
        shares = scenario.pair.buy_shares(scenario.sender_types)
        record = {
            "value": two_threshold_value(
                scenario.quality, scenario.sender_types, scenario.pair
            ),
            "R1": scenario.pair.low,
            "R2": scenario.pair.high,
            "beta1": shares[0],
            "beta2": shares[1],
            "i_tilde_M": neutral_indifferent_type(scenario.quality),
        }
        return record, None
    raise ScenarioError("evaluate handles single or {R1, R2} thresholds; see multi")


def _require_common_population(scenario: Scenario):
    if scenario.receiver_types != scenario.sender_types:
        raise ScenarioError(
            "two-threshold systems assume senders and receivers share one population"
        )


def _cmd_decompose(scenario: Scenario, args):
    decomp = belief_decomposition(scenario.system())
    record = {
        "prior": list(decomp.prior),
        "step1": list(decomp.after_bad_removed),
        "step2": list(decomp.after_good_raised),
        "posterior": list(decomp.posterior),
        "k": decomp.k,
    }
    return record, None


def _cmd_optimize(scenario: Scenario, args):
    grid_points = args.steps if args.steps is not None else 2001
    verdict = optimize_threshold(scenario.system(), grid_points=grid_points)
    return verdict.to_record(), None


_SWEEP_DEFAULTS = {
    "R": (0.01, 0.99),
    "Q": (0.01, 0.49),
    "sigma": (0.1, 10.0),
    "beta": (0.0, 1.0),
    "a": (0.1, 10.0),
}


def _sweep_controversial_odds(quality) -> float:
    if quality.q_2 > 0.0:
        return quality.controversial_odds
    if quality.q_1 > 0.0:
        raise ScenarioError(
            "prevalence/odds sweeps need a defined controversial split (q2 > 0)"
        )
    return 1.0


def _sweep_rows(scenario: Scenario, param: str, grid) -> list[tuple]:
    if param == "R":
        batch = system_values(scenario.system(), grid)
        return [
            (float(x), float(v), float(p), REGION_KINDS[k])
            for x, v, p, k in zip(grid, batch.value, batch.pi_buy, batch.region)
        ]
    if param == "beta":
        if not scenario.sender_types.symmetric:
            raise ScenarioError("beta sweep requires a symmetric sender distribution")
        q, s = scenario.quality.prevalence, scenario.quality.good_odds
        return [
            (b, symmetric_value(q, s, b), symmetric_buy_probability(q, s, b), "all")
            for b in map(float, grid)
        ]
    rows = []
    for x in map(float, grid):
        if param == "a":
            variant = replace(scenario, sender_types=PowerTypes(x))
        else:
            lam = _sweep_controversial_odds(scenario.quality)
            prevalence = x if param == "Q" else scenario.quality.prevalence
            sigma = scenario.quality.good_odds if param == "Q" else x
            quality = quality_from_params(prevalence, sigma, lam)
            variant = replace(scenario, quality=quality)
        report = system_value(variant.system())
        rows.append((x, report.value, report.pi_buy, report.region.kind))
    return rows


def _cmd_sweep(scenario: Scenario, args):
    if args.param is None:
        raise ScenarioError("sweep requires --param")
    if scenario.kind != "single":
        raise ScenarioError("sweep requires a single-threshold scenario")
    lo, hi = _SWEEP_DEFAULTS[args.param]
    lo = args.start if args.start is not None else lo
    hi = args.stop if args.stop is not None else hi
    grid = np.linspace(lo, hi, _steps(args, 101))
    rows = _sweep_rows(scenario, args.param, grid)
    payload = [
        {"param": r[0], "value": r[1], "pi_buy": r[2], "region": r[3]} for r in rows
    ]
    return payload, (("param", "value", "pi_buy", "region"), rows)


def _steps(args, default: int) -> int:
    if args.steps is None:
        return default
    if args.steps < 1:
        raise ScenarioError(f"--steps must be at least 1, got {args.steps}")
    return args.steps


def _cmd_region_map(scenario: Scenario, args):
    if args.figure is None:
        raise ScenarioError("region-map requires --figure")
    rows = region_map(
        args.figure,
        x_from=args.start,
        x_to=args.stop,
        steps=_steps(args, 101),
        prevalence=scenario.quality.prevalence,
    )
    payload = [{"x": r[0], "y": r[1], "label": r[2]} for r in rows]
    return payload, (("x", "y", "label"), rows)


def _simulate_single(scenario: Scenario, config: SimulationConfig):
    system = scenario.system()
    pi_buy, _ = recommendation_probabilities(system)
    rows = [("pi_buy", estimate_pi_buy(system, config), pi_buy)]
    for rec, tag in ((Recommendation.BUY, "_buy"), (Recommendation.DONT_BUY, "_dont")):
        table = estimate_posterior(system, rec, config)
        rows += _posterior_rows(tag, table, posterior(system, rec).probs)
    rows.append(("value", estimate_value(system, config), system_value(system).value))
    return rows


def _simulate_pair(scenario: Scenario, config: SimulationConfig):
    _require_common_population(scenario)
    q, dist, pair = scenario.quality, scenario.sender_types, scenario.pair
    analytic = two_threshold_value(q, dist, pair)
    est = estimate_two_threshold(q, dist, pair, replace(config, mode="two_threshold"))
    return [("two_threshold_value", est, analytic)]


def _simulate_counts(scenario: Scenario, config: SimulationConfig):
    counts = scenario.counts
    cfg = replace(config, mode="multi", buys=counts.buys, dont_buys=counts.dont_buys)
    result = estimate_multi(scenario.system(), cfg)
    analytic = multi_posterior(
        scenario.quality, scenario.sender_types, scenario.threshold, scenario.counts
    ).probs
    rows = _posterior_rows("", result.posterior, analytic)
    return [("event_prob", result.value, None), *rows]


def _simulate_infinite(scenario: Scenario, config: SimulationConfig):
    system = replace(scenario, threshold=0.5).system()
    result = estimate_multi(system, replace(config, mode="infinite"))
    analytic_value = infinite_learning_value(scenario.quality, scenario.receiver_types)
    truths = (0.0, *_mixed_shares(scenario.quality), 0.0)
    rows = _posterior_rows("_mixed", result.posterior, truths)
    return [("value_infinite", result.value, analytic_value), *rows]


def _posterior_rows(tag: str, estimates, truths) -> list[tuple]:
    return [(f"p_{c}{tag}", e, t) for c, e, t in zip("H12L", estimates, truths)]


def _mixed_shares(q: QualityDistribution) -> tuple:
    """Controversial-version odds after mixed reports, None without any."""
    both = q.q_1 + q.q_2
    return (q.q_1 / both, q.q_2 / both) if both > 0.0 else (None, None)


def _cmd_simulate(scenario: Scenario, args):
    config = SimulationConfig(samples=args.samples, seed=args.seed)
    scenario = _apply_threshold_flags(scenario, args)
    handler = {
        "single": _simulate_single,
        "pair": _simulate_pair,
        "counts": _simulate_counts,
        "infinite": _simulate_infinite,
    }[scenario.kind]
    triples = handler(scenario, config)
    payload = [{"name": n, **e.to_record(), "analytic": t} for n, e, t in triples]
    rows = [(n, e.estimate, e.stderr, e.samples, e.seed, t) for n, e, t in triples]
    return payload, (("name", "estimate", "stderr", "n", "seed", "analytic"), rows)


def _apply_threshold_flags(scenario: Scenario, args) -> Scenario:
    """Let --R1/--R2, --b/--d and --infinite override the scenario threshold."""
    variant = replace(scenario, threshold=None, pair=None, counts=None, infinite=False)
    if getattr(args, "r1", None) is not None or getattr(args, "r2", None) is not None:
        if args.r1 is None or args.r2 is None:
            raise ScenarioError("--R1 and --R2 must be given together")
        return replace(variant, pair=ThresholdPair(low=args.r1, high=args.r2))
    if getattr(args, "infinite", False):
        return replace(variant, infinite=True)
    if getattr(args, "b", None) is not None or getattr(args, "d", None) is not None:
        if scenario.threshold is None:
            raise ScenarioError("report counts need a single threshold for the senders")
        counts = MultiRecCount(buys=args.b or 0, dont_buys=args.d or 0)
        return replace(variant, threshold=scenario.threshold, counts=counts)
    return scenario


def _cmd_multi(scenario: Scenario, args):
    scenario = _apply_threshold_flags(scenario, args)
    if scenario.kind == "counts":
        counts = scenario.counts
        env = (scenario.quality, scenario.sender_types, scenario.threshold, counts)
        post, weights = multi_posterior(*env), multi_weights(*env)
        b, d = counts.buys, counts.dont_buys
        return {
            "recommendation": post.recommendation.value,
            "p_H": post.p_h,
            "p_1": post.p_1,
            "p_2": post.p_2,
            "p_L": post.p_l,
            "event_prob": math.comb(b + d, b) * sum(weights),
            "b": b,
            "d": d,
        }, None
    if scenario.kind == "infinite":
        policy = infinite_learning_policy(scenario.quality)
        p_1, p_2 = _mixed_shares(scenario.quality)
        return {
            "value_infinite": infinite_learning_value(
                scenario.quality, scenario.receiver_types
            ),
            "cutoff": policy.cutoff,
            "direction": policy.direction,
            "p_1_mixed": p_1,
            "p_2_mixed": p_2,
        }, None
    raise ScenarioError("multi needs --b/--d, --infinite, or a matching scenario")


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "region-map": _cmd_region_map,
    "simulate": _cmd_simulate,
    "decompose": _cmd_decompose,
    "multi": _cmd_multi,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recoval",
        description="Value and design of coarse recommendation systems",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--csv", action="store_true", help="CSV output for tabular commands")
    parser.add_argument("--param", choices=sorted(_SWEEP_DEFAULTS), default=None)
    parser.add_argument("--from", dest="start", type=float, default=None)
    parser.add_argument("--to", dest="stop", type=float, default=None)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--figure", choices=sorted(REGION_MAPS), default=None)
    parser.add_argument("--b", type=int, default=None)
    parser.add_argument("--d", type=int, default=None)
    parser.add_argument("--infinite", action="store_true")
    parser.add_argument("--R1", dest="r1", type=float, default=None)
    parser.add_argument("--R2", dest="r2", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
        payload, rows = _COMMANDS[args.command](scenario, args)
        text = _emit(payload, rows, args)
    except (OSError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
