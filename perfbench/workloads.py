"""Seeded scenario and job generation for the benchmark workloads.

A workload is a fixed list of CLI jobs over a few scenario slots.  Each
slot has a fixed regime -- type family, knot count, and centre values
of the quality, shape, threshold and report parameters -- and the seed
moves every continuous parameter by up to +/-5% around its centre (knot
gaps of tabulated CDFs likewise).  Different seeds therefore give
different inputs that do comparable work: quadrature and optimizer cost
depend steeply on the region structure, the shape exponent and the knot
layout, and unconstrained draws made run-to-run cost differ by up to 5x.
Generation uses the standard library only and never imports recoval.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("analytic_design", "tabulated", "monte_carlo")

# Ends of the optimizer's threshold grid (recoval.design._GRID_LO/_HI).
# R sweeps run over the same interval with (steps - 1) dividing the
# optimizer's (grid - 1), so every swept threshold is an optimizer grid
# point and the optimum can be checked against the best swept value.
GRID_LO = 1e-4
GRID_HI = 1.0 - 1e-4

POINT_COMMANDS = ("evaluate", "decompose", "multi")
JITTER = 0.05


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``recoval <cli> --scenario <file> <args>``."""

    name: str
    cli: str
    scenario: str
    args: tuple[str, ...] = ()
    samples: int = 0

    @property
    def kind(self) -> str:
        """Metric class: point, sweep, optimize, region_map or simulate."""
        if self.cli in POINT_COMMANDS:
            return "point"
        return self.cli.replace("-", "_")


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    scenarios: dict = field(default_factory=dict)
    jobs: tuple = ()

    def write(self, directory: str) -> dict:
        """Write one JSON file per scenario; return scenario -> path."""
        paths = {}
        for key, doc in self.scenarios.items():
            path = os.path.join(directory, f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True))
            paths[key] = path
        return paths


def generate(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    gen = _Draw(random.Random(f"{workload}/{seed}"))
    scenarios, jobs = _BUILDERS[workload](gen)
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise AssertionError("job names must be unique")
    return Inputs(workload, seed, scenarios, tuple(_interleave(jobs)))


class _Draw:
    """Seeded draws around fixed centres."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def near(self, centre: float) -> float:
        return centre * self.rng.uniform(1.0 - JITTER, 1.0 + JITTER)

    def quality(self, prevalence, odds, lam=None) -> dict:
        doc = {"Q": self.near(prevalence), "sigma": self.near(odds)}
        if lam is not None:
            doc["lambda"] = self.near(lam)
        return doc

    def power(self, a) -> dict:
        return {"kind": "power", "a": self.near(a)}

    def piecewise(self, beta, r_ref) -> dict:
        return {"kind": "piecewise_symmetric", "beta_target": self.near(beta),
                "R_ref": self.near(r_ref)}

    def shares(self, slot: str, n: int) -> list:
        """n+1 cumulative shares from 0 to 1: a fixed layout per slot, gaps jittered."""
        layout = random.Random(f"layout/{slot}")
        gaps = [layout.uniform(0.3, 1.0) * self.near(1.0) for _ in range(n)]
        total = sum(gaps)
        out = [0.0]
        for g in gaps[:-1]:
            out.append(out[-1] + g / total)
        out.append(1.0)
        return out

    def tabulated(self, slot: str, knots: int) -> dict:
        """Knots at non-dyadic abscissae, density bounded below."""
        xs = [s - 0.5 for s in self.shares(slot + "/x", knots - 1)]
        xs[-1] = 0.5
        fs = self.shares(slot + "/f", knots - 1)
        return {"kind": "tabulated", "points": [[x, f] for x, f in zip(xs, fs)]}

    def tabulated_symmetric(self, slot: str, knots: int) -> dict:
        """Odd knot count, mirrored about (0, 1/2) so F(i) + F(-i) = 1."""
        half = (knots - 1) // 2
        xs_up = [0.5 * s for s in self.shares(slot + "/x", half)]
        fs_up = [0.5 + 0.5 * s for s in self.shares(slot + "/f", half)]
        xs = [-x for x in xs_up[:0:-1]] + xs_up
        fs = [1.0 - f for f in fs_up[:0:-1]] + fs_up
        return {"kind": "tabulated", "points": [[x, f] for x, f in zip(xs, fs)]}

    def counts(self) -> tuple[str, ...]:
        """Two reports, so every seed simulates the same number of senders."""
        b = self.rng.choice((1, 2))
        return ("--b", str(b), "--d", str(2 - b))

    def pair(self, low, high) -> tuple[str, ...]:
        return ("--R1", repr(self.near(low)), "--R2", repr(self.near(high)))

    def sim_seed(self) -> str:
        return str(self.rng.randrange(1 << 31))


def _scenario(quality, sender, threshold, receiver=None) -> dict:
    doc = {"quality": quality, "sender_types": sender, "threshold": threshold}
    if receiver is not None:
        doc["receiver_types"] = receiver
    return doc


def _r_sweep(steps: int) -> tuple[str, ...]:
    return ("--param", "R", "--from", repr(GRID_LO), "--to", repr(GRID_HI),
            "--steps", str(steps))


def _points(key: str, gen: _Draw, pair=None) -> list:
    jobs = [
        Job(f"{key}.evaluate", "evaluate", key),
        Job(f"{key}.decompose", "decompose", key),
        Job(f"{key}.multi_counts", "multi", key, gen.counts()),
        Job(f"{key}.multi_infinite", "multi", key, ("--infinite",)),
    ]
    if pair is not None:
        jobs.append(Job(f"{key}.evaluate_pair", "evaluate", key, gen.pair(*pair)))
    return jobs


def _simulate(name, key, gen: _Draw, samples, extra=()) -> Job:
    args = ("--samples", str(samples), "--seed", gen.sim_seed()) + tuple(extra)
    return Job(name, "simulate", key, args, samples=samples)


# -- workloads ------------------------------------------------------------


def _analytic_design(gen: _Draw):
    """Point commands, sweeps, full-grid optimize and region maps.

    Analytic families only: uniform, power with non-integer exponents
    across [0.4, 4] and the piecewise polarization family, some with
    distinct receivers.  Full-grid optimize runs on the receivers whose
    value needs few CDF evaluations; a non-integer power receiver needs
    7-50x more per value (1197 at a = 0.4, 169 at a = 2.9), which its R
    and a sweeps and point commands exercise, so that one job does not
    dominate a pass.
    """
    sc = {
        "uniform": _scenario(gen.quality(0.25, 2.0), {"kind": "uniform"}, gen.near(0.6)),
        "power": _scenario(gen.quality(0.2, 0.55), gen.power(2.6), gen.near(0.45)),
        "piecewise": _scenario(gen.quality(0.3, 1.8, lam=2.0), gen.piecewise(0.25, 0.7),
                               gen.near(0.65)),
        "distinct": _scenario(gen.quality(0.2, 0.55), gen.power(0.7), gen.near(0.4),
                              receiver=gen.piecewise(0.2, 0.75)),
        # slots spanning the exponent range, two with distinct receivers
        "power_low": _scenario(gen.quality(0.15, 1.6, lam=0.5), gen.power(0.55),
                               gen.near(0.5), receiver=gen.piecewise(0.3, 0.65)),
        "power_mid": _scenario(gen.quality(0.3, 2.2, lam=2.5), gen.power(1.5),
                               gen.near(0.55), receiver={"kind": "uniform"}),
        "power_high": _scenario(gen.quality(0.2, 1.5, lam=0.6), gen.power(3.4),
                                gen.near(0.35)),
    }
    jobs = []
    jobs += _points("uniform", gen, pair=(0.3, 0.7))
    jobs += _points("power", gen)
    jobs += _points("piecewise", gen, pair=(0.35, 0.6))
    jobs += _points("distinct", gen)
    for key in ("power_low", "power_mid", "power_high"):
        jobs += _points(key, gen)
    for key in ("uniform", "power", "piecewise", "distinct", "power_low", "power_mid"):
        jobs.append(Job(f"{key}.sweep_R", "sweep", key, _r_sweep(101)))
    jobs += [
        Job("uniform.sweep_beta", "sweep", "uniform", ("--param", "beta")),
        Job("uniform.sweep_Q", "sweep", "uniform", ("--param", "Q")),
        Job("power.sweep_a", "sweep", "power",
            ("--param", "a", "--from", "1.0", "--to", "4.0", "--steps", "31")),
        Job("piecewise.sweep_sigma", "sweep", "piecewise", ("--param", "sigma")),
        Job("distinct.sweep_Q", "sweep", "distinct", ("--param", "Q")),
    ]
    for key in ("uniform", "piecewise", "distinct", "power_low", "power_mid"):
        jobs.append(Job(f"{key}.optimize", "optimize", key))
    for figure in ("interior", "panelA", "panelB", "panelC"):
        jobs.append(Job(f"region.{figure}", "region-map", "uniform", ("--figure", figure)))
    return sc, jobs


def _tabulated(gen: _Draw):
    """Tabulated senders and receivers with 7-31 knots, symmetric and not."""
    sc = {
        "sym": _scenario(gen.quality(0.25, 1.9), gen.tabulated_symmetric("sym", 9),
                         gen.near(0.55)),
        "mid": _scenario(gen.quality(0.2, 0.55, lam=2.0), gen.tabulated("mid", 11),
                         gen.near(0.45)),
        "wide": _scenario(gen.quality(0.3, 1.7, lam=0.5), gen.tabulated("wide", 31),
                          gen.near(0.6), receiver=gen.tabulated("wide_receiver", 7)),
        # point-only slots
        "few": _scenario(gen.quality(0.2, 2.1, lam=1.8), gen.tabulated("few", 7),
                         gen.near(0.5), receiver=gen.tabulated("few_receiver", 10)),
        "many": _scenario(gen.quality(0.35, 0.6, lam=0.6), gen.tabulated("many", 21),
                          gen.near(0.4)),
    }
    jobs = _points("sym", gen, pair=(0.35, 0.65))
    for key in ("mid", "wide", "few", "many"):
        jobs += _points(key, gen)
    for key, grid in (("sym", 41), ("mid", 21), ("wide", 21)):
        jobs.append(Job(f"{key}.sweep_R", "sweep", key, _r_sweep(21)))
        jobs.append(Job(f"{key}.optimize", "optimize", key, ("--steps", str(grid))))
    jobs.append(_simulate("sym.simulate", "sym", gen, 1 << 16))
    jobs.append(_simulate("wide.simulate", "wide", gen, 1 << 17))
    return sc, jobs


def _monte_carlo(gen: _Draw):
    """simulate in all four modes at 2^20 samples, plus the analytic counterparts."""
    sc = {
        "power": _scenario(gen.quality(0.25, 1.8, lam=2.0), gen.power(2.3), gen.near(0.55)),
        "sym": _scenario(gen.quality(0.2, 0.6), gen.piecewise(0.25, 0.7), gen.near(0.45)),
    }
    samples = 1 << 20
    jobs = []
    for key in ("power", "sym"):
        counts = gen.counts()
        jobs += [
            _simulate(f"{key}.simulate", key, gen, samples),
            _simulate(f"{key}.simulate_counts", key, gen, samples, counts),
            _simulate(f"{key}.simulate_infinite", key, gen, samples, ("--infinite",)),
            Job(f"{key}.evaluate", "evaluate", key),
            Job(f"{key}.multi_counts", "multi", key, counts),
            Job(f"{key}.multi_infinite", "multi", key, ("--infinite",)),
        ]
    pair = gen.pair(0.3, 0.65)
    jobs += [
        _simulate("sym.simulate_pair", "sym", gen, samples, pair),
        Job("sym.evaluate_pair", "evaluate", "sym", pair),
    ]
    return sc, jobs


def _interleave(jobs: list) -> list:
    """Round-robin over metric classes so any prefix has a similar mix."""
    by_kind: dict = {}
    for job in jobs:
        by_kind.setdefault(job.kind, []).append(job)
    queues = list(by_kind.values())
    out = []
    while any(queues):
        for queue in queues:
            if queue:
                out.append(queue.pop(0))
    return out


_BUILDERS = {
    "analytic_design": _analytic_design,
    "tabulated": _tabulated,
    "monte_carlo": _monte_carlo,
}
