#!/usr/bin/env python3
"""Sweep the counterexample search across claims and model-family sizes.

For every (claim, state count) pair the script runs either an exhaustive
enumeration or a seeded random search and prints one row per run: how many
models were checked, how many fell outside the claim's hypotheses, the
verdict, and the elapsed time.  A found counterexample is printed in the
model text format and makes the script exit with status 1.

Examples:

    # exhaustively sweep the default claims on 1- and 2-state models
    python3 scripts/counterexample_sweep.py --states 1,2

    # hammer one claim with random monotone capacities
    python3 scripts/counterexample_sweep.py --claims prop-1 --states 3 \\
        --mode random --budget 20000 --type-mode random-monotone-capacity \\
        --require one-intersection --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace

from emck import GenParams, search_counterexample, serialize_model
from emck.fixtures import as_interactive
from emck.modelgen import CLAIMS, POSS_MODES, SIGMA_MODES, TYPE_MODES

DEFAULT_CLAIMS = ("theorem-main", "prop-1", "prop-2", "cor-regular", "cor-ta")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a set of claims crossed with a set of state counts."""

    claims: tuple[str, ...] = DEFAULT_CLAIMS
    states: tuple[int, ...] = (1, 2)
    denominator: int = 4
    type_mode: str = "random-additive"
    poss_mode: str = "arbitrary-nonempty"
    sigma_mode: str = "powerset"
    require: tuple[str, ...] = ()
    mode: str = "enumerate"
    budget: int | None = None
    seed: int = 0
    n_agents: int = 2
    full_support: bool = False

    def params_for(self, claim: str, n_states: int) -> GenParams:
        base = GenParams(
            n_states=n_states,
            weight_denominator=self.denominator,
            sigma_mode=self.sigma_mode,
            type_mode=self.type_mode,
            poss_mode=self.poss_mode,
            require=self.require,
            seed=self.seed,
            budget=self.budget,
            full_support=self.full_support,
        )
        if CLAIMS[claim].kind == "interactive":
            base = replace(base, n_agents=self.n_agents)
        return base


def parse_args(argv: list[str] | None = None) -> SweepConfig:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n", 1)[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="known claims: " + " ".join(sorted(CLAIMS)),
    )
    parser.add_argument(
        "--claims",
        default=",".join(DEFAULT_CLAIMS),
        help="comma-separated claim names (default: %(default)s)",
    )
    parser.add_argument(
        "--states",
        default="1,2",
        help="comma-separated state counts (default: %(default)s)",
    )
    parser.add_argument("--denominator", type=int, default=4,
                        help="weight grid denominator (default: %(default)s)")
    parser.add_argument("--type-mode", choices=TYPE_MODES,
                        default="random-additive")
    parser.add_argument("--poss-mode", choices=POSS_MODES,
                        default="arbitrary-nonempty")
    parser.add_argument("--sigma-mode", choices=SIGMA_MODES,
                        default="powerset")
    parser.add_argument("--require", default="",
                        help="comma-separated hypothesis filters")
    parser.add_argument("--mode", choices=("enumerate", "random"),
                        default="enumerate")
    parser.add_argument("--budget", type=int, default=None,
                        help="models per run in random mode")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--agents", type=int, default=2,
                        help="agent count for interactive claims")
    parser.add_argument("--full-support", action="store_true",
                        help="restrict priors to strictly positive weights")
    args = parser.parse_args(argv)

    claims = tuple(c for c in args.claims.split(",") if c)
    unknown = [c for c in claims if c not in CLAIMS]
    if unknown:
        parser.error(f"unknown claim(s): {', '.join(unknown)}")
    return SweepConfig(
        claims=claims,
        states=tuple(int(s) for s in args.states.split(",") if s),
        denominator=args.denominator,
        type_mode=args.type_mode,
        poss_mode=args.poss_mode,
        sigma_mode=args.sigma_mode,
        require=tuple(r for r in args.require.split(",") if r),
        mode=args.mode,
        budget=args.budget,
        seed=args.seed,
        n_agents=args.agents,
        full_support=args.full_support,
    )


def main(argv: list[str] | None = None) -> int:
    config = parse_args(argv)
    header = f"{'claim':<20} {'n':>2} {'checked':>10} {'skipped':>9} {'verdict':<9} {'time':>7}"
    print(header)
    print("-" * len(header))
    found_any = False
    for claim in config.claims:
        for n_states in config.states:
            params = config.params_for(claim, n_states)
            start = time.perf_counter()
            result = search_counterexample(claim, params, mode=config.mode)
            elapsed = time.perf_counter() - start
            verdict = "FOUND" if result.found else "not found"
            print(
                f"{claim:<20} {n_states:>2} {result.models_checked:>10} "
                f"{result.hypothesis_skips:>9} {verdict:<9} {elapsed:>6.1f}s"
            )
            if result.found:
                found_any = True
                model = result.model
                if CLAIMS[claim].kind == "single":
                    model = as_interactive(model)
                print("\ncounterexample:\n")
                print(serialize_model(model))
    return 1 if found_any else 0


if __name__ == "__main__":
    sys.exit(main())
