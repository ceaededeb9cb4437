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
from dataclasses import replace

from emck import GenParams, search_counterexample, serialize_model
from emck.fixtures import as_interactive
from emck.modelgen import CLAIMS, POSS_MODES, SIGMA_MODES, TYPE_MODES

DEFAULT_CLAIMS = ("theorem-main", "prop-1", "prop-2", "cor-regular", "cor-ta")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The parsed options, with ``claims`` and ``states`` as tuples and
    ``params`` the family's ``GenParams``, whose ``n_states`` and
    ``n_agents`` each row replaces."""
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

    args.claims = tuple(c for c in args.claims.split(",") if c)
    unknown = [c for c in args.claims if c not in CLAIMS]
    if unknown:
        parser.error(f"unknown claim(s): {', '.join(unknown)}")
    args.states = tuple(int(s) for s in args.states.split(",") if s)
    try:
        args.params = GenParams(
            weight_denominator=args.denominator,
            sigma_mode=args.sigma_mode,
            type_mode=args.type_mode,
            poss_mode=args.poss_mode,
            require=tuple(r for r in args.require.split(",") if r),
            seed=args.seed,
            budget=args.budget,
            full_support=args.full_support,
        )
        for n_states in args.states:
            replace(args.params, n_states=n_states)
    except ValueError as exc:
        parser.error(str(exc))
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    header = f"{'claim':<20} {'n':>2} {'checked':>10} {'skipped':>9} {'verdict':<9} {'time':>7}"
    print(header)
    print("-" * len(header))
    found_any = False
    for claim in args.claims:
        n_agents = args.agents if CLAIMS[claim].kind == "interactive" else 1
        for n_states in args.states:
            params = replace(args.params, n_states=n_states, n_agents=n_agents)
            start = time.perf_counter()
            result = search_counterexample(claim, params, mode=args.mode)
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
