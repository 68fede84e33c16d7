"""Correctness checks for job outputs.

Every output is compared with a reference computed by a route other
than the one the timed command takes:

* the benchmark's own model: type CDFs evaluated from the scenario JSON
  with numpy, posteriors and effects from Bayes' rule, and the value as
  ``pi_buy * E|dO - i dS|`` integrated against the receiver CDF on a
  fixed Simpson grid (the per-type gain of accepting is minus that of
  rejecting, so the optimal response takes the absolute value);
* ``recoval.symmetric_value`` for symmetric scenarios and
  ``recoval.closed_form_value`` for power senders in the all-accept
  regime;
* Monte Carlo estimates within 5 standard errors of their analytic
  column;
* an optimum no lower than the best swept value of the same scenario
  (the sweep's thresholds lie on the optimizer's grid).

``Checker.check`` returns None for a correct output, else a message.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .workloads import Inputs, Job

VALUE_TOL = 1e-8  # grid-integrated values; the CLI prints 12 digits
ALGEBRA_TOL = 1e-9  # closed-form quantities
STDERR_MULT = 5.0
_CELLS = 1 << 15


class CheckError(Exception):
    pass


def _close(got, want, tol, what):
    """|got - want| <= tol, relative above magnitude 1 (outputs carry 12 digits)."""
    if got is None or want is None or not abs(got - want) <= tol * max(1.0, abs(want)):
        raise CheckError(f"{what}: got {got}, reference {want}")


# -- reference model -------------------------------------------------------


def quality(doc: dict) -> tuple[float, float, float, float]:
    if "Q" in doc:
        q, s, lam = doc["Q"], doc["sigma"], doc.get("lambda", 1.0)
        return quality_from_params(q, s, lam)
    return doc["qH"], doc["q1"], doc["q2"], doc["qL"]


def quality_from_params(q, s, lam=1.0):
    return (
        (1.0 - 2.0 * q) * s / (1.0 + s),
        2.0 * q * lam / (lam + 1.0),
        2.0 * q / (lam + 1.0),
        (1.0 - 2.0 * q) / (1.0 + s),
    )


def cdf(spec: dict, x):
    x = np.clip(np.asarray(x, dtype=float), -0.5, 0.5)
    kind = spec["kind"]
    if kind == "uniform":
        return x + 0.5
    if kind == "power":
        return (x + 0.5) ** spec["a"]
    if kind == "piecewise_symmetric":
        k, b = spec["R_ref"] - 0.5, spec["beta_target"]
        return np.interp(x, [-0.5, -k, k, 0.5], [0.0, b, 1.0 - b, 1.0])
    if kind == "tabulated":
        xs, fs = zip(*spec["points"])
        return np.interp(x, xs, fs)
    raise CheckError(f"no reference CDF for {kind!r}")


def is_symmetric(spec: dict) -> bool:
    if spec["kind"] in ("uniform", "piecewise_symmetric"):
        return True
    if spec["kind"] == "power":
        return spec["a"] == 1.0
    grid = np.linspace(-0.5, 0.5, 201)
    return float(np.max(np.abs(cdf(spec, grid) + cdf(spec, -grid) - 1.0))) < 1e-12


def linear_moments(spec: dict, c: float, s: float) -> tuple[float, float]:
    """(E[c + s i], E|c + s i|) for i drawn from ``spec``.

    Stieltjes integral on a uniform grid with the kink of |c + s i|
    inserted as an edge: per cell, int i dF = [i F] - int F di with
    Simpson's rule for int F di.
    """
    edges = np.linspace(-0.5, 0.5, _CELLS + 1)
    if s != 0.0 and -0.5 < -c / s < 0.5:
        edges = np.sort(np.append(edges, -c / s))
    a, b = edges[:-1], edges[1:]
    fa, fb = cdf(spec, a), cdf(spec, b)
    fm = cdf(spec, 0.5 * (a + b))
    i_df = b * fb - a * fa - (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    cell = c * (fb - fa) + s * i_df
    return float(cell.sum()), float(np.abs(cell).sum())


def single(q, sender: dict, receiver: dict, r: float) -> dict:
    """Reference record of a single-threshold system."""
    qh, q1, q2, ql = q
    phi1 = 1.0 - float(cdf(sender, r - 0.5))
    phi2 = float(cdf(sender, 0.5 - r))
    pi_b = qh + q1 * phi1 + q2 * phi2
    pi_d = 1.0 - pi_b
    post_b = (qh / pi_b, q1 * phi1 / pi_b, q2 * phi2 / pi_b, 0.0)
    post_d = (0.0, q1 * (1 - phi1) / pi_d, q2 * (1 - phi2) / pi_d, ql / pi_d)

    def effect(p):
        return (
            (p[0] - qh) + 0.5 * (p[1] - q1) + 0.5 * (p[2] - q2),
            (p[2] - q2) - (p[1] - q1),
        )

    d_o, d_s = effect(post_b)
    d_od, d_sd = effect(post_d)
    _, spread = linear_moments(receiver, d_o, -d_s)
    # region as the receiver rule classifies it; None when within 1e-9 of
    # a boundary between kinds, where rounding may go either way
    region, cutoff = "all", None
    margin = abs(abs(d_s) - 2.0 * d_o)
    if abs(d_s) > 2.0 * d_o:
        cutoff = d_o / d_s
        edge = -0.5 if d_s < 0.0 else 0.5
        margin = min(margin, abs(cutoff - edge))
        if (d_s < 0.0 and cutoff > -0.5) or (d_s > 0.0 and cutoff < 0.5):
            region = "upper" if d_s < 0.0 else "lower"
        else:
            cutoff = None
    return {
        "value": pi_b * spread,
        "pi_buy": pi_b,
        "phi": (phi1, phi2),
        "post_buy": post_b,
        "delta_O_B": d_o,
        "delta_S_B": d_s,
        "delta_O_D": d_od,
        "delta_S_D": d_sd,
        "region": region if margin > 1e-9 else None,
        "i_tilde": cutoff,
    }


def controversial_gain(q, receiver: dict) -> float:
    """E[max(g(i), 0)] for the gain of buying a revealed-controversial product."""
    qh, q1, q2, ql = q
    both = q1 + q2
    mean, spread = linear_moments(
        receiver, 0.5 * (ql - qh), (1.0 - both) * (q1 - q2) / both
    )
    return 0.5 * (mean + spread)


def counts_posterior(q, phi, b: int, d: int):
    per_version = (1.0, phi[0], phi[1], 0.0)
    weights = [qs * p**b * (1.0 - p) ** d for qs, p in zip(q, per_version)]
    total = sum(weights)
    return [w / total for w in weights], math.comb(b + d, b) * total


def infinite_value(q, receiver: dict) -> float:
    qh, q1, q2, _ = q
    mean_type, _ = linear_moments(receiver, 0.0, 1.0)
    prior_payoff = qh + 0.5 * (q1 + q2) + (q1 - q2) * mean_type
    return qh * (1.0 - prior_payoff) + (q1 + q2) * controversial_gain(q, receiver)


def pair_value(q, dist: dict, low: float, high: float) -> dict:
    qh, q1, q2, _ = q
    prevalence = 0.5 * (q1 + q2)
    share_low = float(cdf(dist, 0.5 - low))
    share_high = float(cdf(dist, 0.5 - high))
    pi_b = qh + 2.0 * prevalence * share_high
    value = (
        qh + prevalence * share_high - pi_b * (qh + prevalence)
        + (q1 + q2) * (share_low - share_high) * controversial_gain(q, dist)
    )
    return {"value": value, "beta1": share_low, "beta2": share_high}


def objective_effect_slope(prevalence, s, b):
    """d/dQ of the symmetric objective effect of a buy recommendation."""
    c = s / (1.0 + s)
    qh = c * (1.0 - 2.0 * prevalence)
    num, den = qh + prevalence * b, qh + 2.0 * prevalence * b
    d_num, d_den = b - 2.0 * c, 2.0 * b - 2.0 * c
    return (d_num * den - num * d_den) / (den * den) + 2.0 * c - 1.0


# -- per-command checks ----------------------------------------------------


def _options(args) -> dict:
    """``("--b", "2", "--infinite")`` -> ``{"b": "2", "infinite": True}``."""
    opts, key = {}, None
    for token in args:
        if token.startswith("--"):
            key = token[2:]
            opts[key] = True
        else:
            opts[key] = token
    return opts


class Scenario:
    def __init__(self, doc: dict):
        self.q = quality(doc["quality"])
        self.sender = doc["sender_types"]
        self.receiver = doc.get("receiver_types", self.sender)
        self.threshold = doc["threshold"]
        self.symmetric = (
            "receiver_types" not in doc
            and is_symmetric(self.sender)
            and self.q[1] == self.q[2]
        )

    def reduced(self):
        """(prevalence, good odds, controversial odds)."""
        qh, q1, q2, ql = self.q
        return 0.5 * (q1 + q2), qh / ql, q1 / q2


class Checker:
    """Validates job outputs; remembers sweep optima for optimize checks."""

    def __init__(self, inputs: Inputs):
        import recoval

        self._rv = recoval
        self.scenarios = {k: Scenario(doc) for k, doc in inputs.scenarios.items()}
        self.best_swept: dict = {}

    def check(self, job: Job, text: str) -> str | None:
        try:
            data = json.loads(text)
            handler = getattr(self, "_" + job.cli.replace("-", "_"))
            handler(job, self.scenarios[job.scenario], _options(job.args), data)
        except (CheckError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"{job.name}: {type(exc).__name__}: {exc}"
        return None

    # single-threshold value records -------------------------------------

    def _value_record(self, sc: Scenario, q, sender, receiver, r, got, what):
        ref = single(q, sender, receiver, r)
        _close(got["value"], ref["value"], VALUE_TOL, f"{what} value")
        _close(got["pi_buy"], ref["pi_buy"], ALGEBRA_TOL, f"{what} pi_buy")
        if ref["region"] is not None and got["region"] != ref["region"]:
            raise CheckError(f"{what}: region {got['region']} != {ref['region']}")
        if sc.symmetric and sender is sc.sender and q is sc.q:
            prevalence, sigma, _ = sc.reduced()
            share = float(cdf(sender, 0.5 - r))
            want = self._rv.symmetric_value(prevalence, sigma, share)
            _close(got["value"], want, ALGEBRA_TOL, f"{what} symmetric_value")
        if (
            sender["kind"] == "power" and receiver is sender and q is sc.q
            and sc.q[1] == sc.q[2] and ref["region"] == "all"
        ):
            prevalence, sigma, _ = sc.reduced()
            want = self._rv.closed_form_value(sender["a"], prevalence, sigma, r)
            _close(got["value"], want, ALGEBRA_TOL, f"{what} closed_form_value")
        return ref

    def _evaluate(self, job, sc, opts, got):
        if "R1" in opts:
            low, high = float(opts["R1"]), float(opts["R2"])
            ref = pair_value(sc.q, sc.sender, low, high)
            for key in ("value", "beta1", "beta2"):
                _close(got[key], ref[key], VALUE_TOL, f"pair {key}")
            return
        ref = self._value_record(sc, sc.q, sc.sender, sc.receiver, sc.threshold, got, "evaluate")
        for key in ("delta_O_B", "delta_S_B", "delta_O_D", "delta_S_D"):
            _close(got[key], ref[key], ALGEBRA_TOL, key)
        if ref["region"] in ("upper", "lower"):
            _close(got["i_tilde"], ref["i_tilde"], ALGEBRA_TOL, "i_tilde")

    def _decompose(self, job, sc, opts, got):
        ref = single(sc.q, sc.sender, sc.receiver, sc.threshold)
        qh, q1, q2, ql = sc.q
        keep = 1.0 - ql
        k = (1.0 - ref["post_buy"][0]) * keep / (q1 + q2)
        want = {
            "prior": sc.q,
            "step1": (qh / keep, q1 / keep, q2 / keep, 0.0),
            "step2": (ref["post_buy"][0], k * q1 / keep, k * q2 / keep, 0.0),
            "posterior": ref["post_buy"],
        }
        for key, vec in want.items():
            for g, w in zip(got[key], vec, strict=True):
                _close(g, w, ALGEBRA_TOL, f"decompose {key}")
        _close(got["k"], k, ALGEBRA_TOL, "decompose k")

    def _multi(self, job, sc, opts, got):
        qh, q1, q2, _ = sc.q
        if opts.get("infinite"):
            _close(got["value_infinite"], infinite_value(sc.q, sc.receiver),
                   VALUE_TOL, "value_infinite")
            _close(got["p_1_mixed"], q1 / (q1 + q2), ALGEBRA_TOL, "p_1_mixed")
            return
        phi = single(sc.q, sc.sender, sc.receiver, sc.threshold)["phi"]
        post, event = counts_posterior(sc.q, phi, int(opts["b"]), int(opts["d"]))
        for key, want in zip(("p_H", "p_1", "p_2", "p_L"), post):
            _close(got[key], want, ALGEBRA_TOL, f"multi {key}")
        _close(got["event_prob"], event, ALGEBRA_TOL, "multi event_prob")

    # tabular commands ---------------------------------------------------

    def _sweep(self, job, sc, opts, got):
        param = opts["param"]
        steps = int(opts.get("steps", 101))
        if len(got) != steps:
            raise CheckError(f"sweep has {len(got)} rows, expected {steps}")
        prevalence, sigma, lam = sc.reduced()
        for row in got:
            x = row["param"]
            if param == "beta":
                # symmetric value at buy share beta: a uniform population at R = 1 - beta
                q = quality_from_params(prevalence, sigma)
                ref = single(q, {"kind": "uniform"}, {"kind": "uniform"}, 1.0 - x)
                _close(row["value"], ref["value"], VALUE_TOL, f"beta={x} value")
                _close(row["pi_buy"], ref["pi_buy"], ALGEBRA_TOL, f"beta={x} pi_buy")
                continue
            q, sender, receiver, r = sc.q, sc.sender, sc.receiver, sc.threshold
            if param == "R":
                r = x
            elif param == "Q":
                q = quality_from_params(x, sigma, lam)
            elif param == "sigma":
                q = quality_from_params(prevalence, x, lam)
            else:
                sender = {"kind": "power", "a": x}
            self._value_record(sc, q, sender, receiver, r, row, f"{param}={x}")
        if param == "R":
            self.best_swept[job.scenario] = max(row["value"] for row in got)

    def _optimize(self, job, sc, opts, got):
        best = self.best_swept.get(job.scenario)
        if best is None:
            raise CheckError("no R sweep of this scenario to compare with")
        if got["value"] < best - 1e-10:
            raise CheckError(f"optimum {got['value']} below swept value {best}")
        if got["R_star"] is not None:
            ref = single(sc.q, sc.sender, sc.receiver, got["R_star"])
            _close(got["value"], ref["value"], VALUE_TOL, "value at R_star")

    def _region_map(self, job, sc, opts, got):
        figure = opts["figure"]
        prevalence = sc.reduced()[0]
        xs = np.linspace(0.05, 10.0, 101)
        if figure == "panelB":
            want = [(s, s / (1.0 + s)) for s in xs]
        elif figure == "panelA":
            want = [(s, (s * s - 3.0 * s) / (s * s - 1.0)) for s in xs if abs(s - 1.0) >= 1e-9]
            want = [(s, b) for s, b in want if 0.0 <= b <= 1.0]
        elif figure == "interior":
            want = []
            for a in xs:
                lower = 1.0 - prevalence * (a + 1.0)
                upper = a - prevalence * (a + 1.0)
                if prevalence > 1.0 - max(a, 1.0) / (a + 1.0) or lower <= 0 or upper <= 0:
                    continue
                edges = sorted((lower / upper, upper / lower))
                want += [(a, y) for y in edges if 0.0 < y < 1e6]
        else:
            for row in got:
                s, b = row["x"], row["y"]
                lo = objective_effect_slope(prevalence, s, max(b - 1e-6, 0.0))
                hi = objective_effect_slope(prevalence, s, min(b + 1e-6, 1.0))
                if lo * hi > 0.0:
                    raise CheckError(f"panelC: no sign change near b={b} at s={s}")
            if not got:
                raise CheckError("panelC: no boundary rows")
            return
        if len(got) != len(want):
            raise CheckError(f"{figure}: {len(got)} rows, expected {len(want)}")
        for row, (x, y) in zip(got, want):
            _close(row["x"], x, ALGEBRA_TOL, f"{figure} x")
            _close(row["y"], y, ALGEBRA_TOL, f"{figure} y at x={x}")

    def _simulate(self, job, sc, opts, got):
        rows = {row["name"]: row for row in got}
        for row in got:
            if row["analytic"] is None:
                continue
            gap = abs(row["estimate"] - row["analytic"])
            if not gap <= STDERR_MULT * row["stderr"] + 1e-12:
                raise CheckError(
                    f"{row['name']}: estimate {row['estimate']} is {gap:.3g} from "
                    f"analytic {row['analytic']} (stderr {row['stderr']})"
                )
        if "R1" in opts:
            ref = pair_value(sc.q, sc.sender, float(opts["R1"]), float(opts["R2"]))
            _close(rows["two_threshold_value"]["analytic"], ref["value"], VALUE_TOL, "pair")
        elif opts.get("infinite"):
            _close(rows["value_infinite"]["analytic"], infinite_value(sc.q, sc.receiver),
                   VALUE_TOL, "value_infinite")
        elif "b" in opts:
            phi = single(sc.q, sc.sender, sc.receiver, sc.threshold)["phi"]
            post, event = counts_posterior(sc.q, phi, int(opts["b"]), int(opts["d"]))
            est = rows["event_prob"]
            if not abs(est["estimate"] - event) <= STDERR_MULT * est["stderr"] + 1e-12:
                raise CheckError(f"event_prob {est['estimate']} vs reference {event}")
            for comp, want in zip("H12L", post):
                _close(rows[f"p_{comp}"]["analytic"], want, ALGEBRA_TOL, f"p_{comp}")
        else:
            ref = single(sc.q, sc.sender, sc.receiver, sc.threshold)
            _close(rows["value"]["analytic"], ref["value"], VALUE_TOL, "analytic value")
            _close(rows["pi_buy"]["analytic"], ref["pi_buy"], ALGEBRA_TOL, "analytic pi_buy")
