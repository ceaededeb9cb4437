"""The benchmark's four workloads, each driven through emck's public API.

A workload turns the benchmark seed into a fixed list of inputs, one per
operation.  ``prepare`` builds an operation's argument from its input, afresh
on every pass; ``op`` is the timed call into emck; ``settle`` is untimed: it
checks the result against a frozen outcome (raising :class:`Failure` on a
miss) and returns the number of models the operation visited.  On a traced
pass ``op`` records spans and ``settle`` also probes the layers underneath
the operation, again through public functions only, so that private kernels
can be rewritten without breaking the benchmark.

``layer_spans`` maps each per-layer timing a workload exercises to the span
it is measured from: a name ending in ``_s`` is the span's total time per
pass, one ending in ``_ms`` or ``_us`` its mean time per call.  Per-layer
counts are accumulated by ``settle`` under their metric names.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

from emck import (
    GenParams,
    agreement_sweep,
    enumerate_models,
    is_regular,
    is_regular_interactive,
    parse_model,
    random_interactive_model,
    random_model,
    search_counterexample,
    serialize_doc,
    serialize_model,
    verify_agreement,
    verify_cor_ck,
    verify_prop1,
    verify_theorem_main,
)
from emck.fixtures import as_interactive
from emck.modelgen import satisfies_require

from tracing import NULL


class Failure(Exception):
    """A wrong verdict, or a count that differs from its frozen value."""


def _seeds(name: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(1 << 30) for _ in range(n)]


class Workload:
    name: str
    seedless = False
    # percentile of per-model latency reported as model_ms_tail, with ten
    # inputs beyond it; None reports the maximum, for a single input
    tail_pct: float | None
    layer_spans: dict[str, str] = {}

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, spec):
        return spec

    def first_model(self, seed: int):
        raise NotImplementedError

    def op(self, x, tr):
        raise NotImplementedError

    def settle(self, x, out, tr, counts: Counter) -> int:
        raise NotImplementedError

    def derived(self, metrics: dict) -> None:
        """Per-layer metrics computed from the others."""


class ExhaustiveAdditive(Workload):
    """theorem-main over the whole c01-shaped grid: powerset algebra,
    additive types, arbitrary nonempty cells, weights on the 1/1 grid.  The
    family is the whole grid, so the workload takes no seed.

    The grid is the coarsest one of c01's shape so that a sweep takes a
    fifth of a second and a run can time over a hundred: the 1/2 grid's 444,528
    models take about 3 s a sweep, and its fastest of the few sweeps that
    fit in a run spread by a fifth between runs on a shared machine."""

    name = "exhaustive-additive"
    seedless = True
    tail_pct = None
    # (models_checked, hypothesis_skips) by number of states.  Each prior is
    # a point mass; a model is checked when every cell holds the prior's
    # state: at n=3, 3 priors x 27 type vectors x 4**3 of the 7**3
    # correspondences.
    FROZEN = {2: (32, 40), 3: (5_184, 22_599)}
    SAMPLE = 200
    layer_spans = {
        "modelgen.enumerate_s": "modelgen.enumerate_models",
        "modelgen.search_s": "modelgen.search_counterexample",
        "theorems.verify_theorem_main_us": "theorems.verify_theorem_main",
        "axioms.is_regular_us": "axioms.is_regular",
    }

    def __init__(self, tiny: bool):
        n = 2 if tiny else 3
        self.params = GenParams(
            n_states=n,
            weight_denominator=1,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
        )
        self.frozen = self.FROZEN[n]

    def inputs(self, seed):
        return [self.params]

    def first_model(self, seed):
        return next(enumerate_models(self.params))

    def op(self, params, tr):
        with tr.span("modelgen.search_counterexample"):
            return search_counterexample("theorem-main", params)

    def settle(self, params, result, tr, counts):
        split = (result.models_checked, result.hypothesis_skips)
        if result.found or split != self.frozen:
            raise Failure(f"{result.summary()}, frozen split {self.frozen}")
        counts["modelgen.hypothesis_skips"] += result.hypothesis_skips
        if tr.enabled:
            self._probe(params, tr, counts)
        return sum(split)

    def _probe(self, params, tr, counts):
        """Drain the enumeration alone, then time the report path of
        ``emck verify`` on a fixed, evenly spaced sample of the grid."""
        total = sum(self.frozen)
        stride = max(1, total // self.SAMPLE)
        sample = []
        generated = 0
        with tr.span("modelgen.enumerate_models"):
            for model in enumerate_models(params):
                if generated % stride == 0:
                    sample.append(model)
                generated += 1
        if generated != total:
            raise Failure(f"enumerate_models gave {generated} models, frozen {total}")
        counts["modelgen.models_generated"] += generated
        for model in sample:
            with tr.span("axioms.is_regular"):
                is_regular(model)
            if model.has_null_cells:
                continue
            with tr.span("theorems.verify_theorem_main"):
                report = verify_theorem_main(model)
            if report.status != "verified":
                raise Failure(f"verify_theorem_main: {report.status}")

    def derived(self, metrics):
        metrics["modelgen.verdict_s"] = (
            metrics["modelgen.search_s"] - metrics["modelgen.enumerate_s"]
        )


class RandomCapacity(Workload):
    """prop-1 by random search on the c04 n=3 family: monotone capacities on
    the 1/4 grid, filtered to down-sets that meet in one point.  One search
    per model (budget 1), so each model's latency includes its rejected
    draws."""

    name = "random-capacity"
    tail_pct = 99
    layer_spans = {
        "modelgen.random_model_us": "modelgen.random_model",
        "modelgen.require_s": "modelgen.satisfies_require",
        "theorems.verify_prop1_us": "theorems.verify_prop1",
    }
    PARAMS = GenParams(
        n_states=3,
        weight_denominator=4,
        type_mode="random-monotone-capacity",
        poss_mode="arbitrary-nonempty",
        require=("one-intersection",),
        budget=1,
    )
    # the search gives up after this many consecutive rejected draws
    DRAW_LIMIT = 1000

    def __init__(self, tiny: bool):
        self.ops = 20 if tiny else 1000

    def inputs(self, seed):
        return _seeds(self.name, seed, self.ops)

    def prepare(self, seed):
        return replace(self.PARAMS, seed=seed)

    def first_model(self, seed):
        return self.op(self.prepare(_seeds(self.name, seed, 1)[0]), NULL)

    def op(self, params, tr):
        with tr.span("modelgen.search_counterexample"):
            return search_counterexample("prop-1", params, mode="random")

    def settle(self, params, result, tr, counts):
        if result.found or result.models_checked != 1:
            raise Failure(result.summary())
        if tr.enabled:
            self._probe(params, tr, counts)
        return 1

    def _probe(self, params, tr, counts):
        """Replay the search's draws: generate, filter, then verify."""
        for seed in range(params.seed, params.seed + self.DRAW_LIMIT):
            with tr.span("modelgen.random_model"):
                model = random_model(params, seed)
            with tr.span("modelgen.satisfies_require"):
                accepted = satisfies_require(model, params.require)
            counts["modelgen.require_attempts"] += 1
            if accepted:
                break
        else:
            raise Failure(f"no draw accepted from seed {params.seed}")
        counts["modelgen.require_accepted"] += 1
        with tr.span("theorems.verify_prop1"):
            report = verify_prop1(model)
        if report.status != "verified":
            raise Failure(f"verify_prop1: {report.status}")

    def derived(self, metrics):
        attempts = metrics["modelgen.require_attempts"]
        metrics["modelgen.require_accept_ratio"] = (
            metrics["modelgen.require_accepted"] / attempts if attempts else 0.0
        )


class Agreement(Workload):
    """The c10 n=3 loop: two agents, Bayes types on partitions, full-support
    1/6-grid priors; per model, generate, sweep every (threshold, event)
    pair, and verify cor-ck."""

    name = "agreement"
    tail_pct = 97.5
    layer_spans = {
        "modelgen.random_interactive_model_us": "modelgen.random_interactive_model",
        "modelgen.agreement_sweep_ms": "modelgen.agreement_sweep",
        "multiagent.verify_agreement_us": "multiagent.verify_agreement",
        "multiagent.is_regular_interactive_us": "multiagent.is_regular_interactive",
        "multiagent.verify_cor_ck_ms": "multiagent.verify_cor_ck",
    }
    PARAMS = GenParams(
        n_states=3,
        weight_denominator=6,
        n_agents=2,
        type_mode="bayes",
        poss_mode="partition",
        full_support=True,
    )

    def __init__(self, tiny: bool):
        self.ops = 5 if tiny else 400

    def inputs(self, seed):
        return _seeds(self.name, seed, self.ops)

    def first_model(self, seed):
        return random_interactive_model(self.PARAMS, _seeds(self.name, seed, 1)[0])

    def op(self, seed, tr):
        with tr.span("modelgen.random_interactive_model"):
            imodel = random_interactive_model(self.PARAMS, seed)
        with tr.span("modelgen.agreement_sweep"):
            sweep = agreement_sweep(imodel)
        with tr.span("multiagent.verify_cor_ck"):
            cor_ck = verify_cor_ck(imodel)
        return imodel, sweep, cor_ck

    def settle(self, seed, out, tr, counts):
        imodel, sweep, cor_ck = out
        if not (imodel.is_discrete and sweep.passed and cor_ck.status == "verified"):
            raise Failure(
                f"seed {seed}: discrete={imodel.is_discrete} "
                f"sweep={sweep.passed} cor-ck={cor_ck.status}"
            )
        if tr.enabled:
            self._probe(imodel, tr, counts)
        return 1

    def _probe(self, imodel, tr, counts):
        """The regularity check and the per-pair calls the sweep makes."""
        with tr.span("multiagent.is_regular_interactive"):
            regular = is_regular_interactive(imodel)
        if not regular.passed:
            raise Failure("is_regular_interactive failed")
        for p in imodel.thresholds:
            for event in imodel.sigma.events():
                with tr.span("multiagent.verify_agreement"):
                    report = verify_agreement(imodel, p, event)
                counts["multiagent.verify_agreement_calls"] += 1
                if not report.passed:
                    raise Failure(f"verify_agreement at p={p}, {event}")


class TextRoundtrip(Workload):
    """serialize_model -> parse_model -> serialize_doc over the c11 grids,
    one model from each grid in turn.  Models are generated afresh on every
    pass, outside the timed calls."""

    name = "text-roundtrip"
    tail_pct = 99
    layer_spans = {
        "dslio.serialize_us": "dslio.serialize_model",
        "dslio.parse_us": "dslio.parse_model",
        "dslio.serialize_doc_us": "dslio.serialize_doc",
    }
    GRIDS = (
        GenParams(n_states=3, weight_denominator=4, type_mode="random-additive",
                  poss_mode="arbitrary-nonempty"),
        GenParams(n_states=4, weight_denominator=3, type_mode="random-capacity",
                  poss_mode="reflexive"),
        GenParams(n_states=3, weight_denominator=6, type_mode="bayes",
                  poss_mode="partition", full_support=True),
        GenParams(n_states=4, weight_denominator=5,
                  type_mode="random-monotone-capacity",
                  poss_mode="arbitrary-nonempty", sigma_mode="random-partition"),
        GenParams(n_states=3, weight_denominator=6, n_agents=2, type_mode="bayes",
                  poss_mode="partition", full_support=True),
    )

    def __init__(self, tiny: bool):
        self.ops = 10 if tiny else 1000

    def inputs(self, seed):
        return list(enumerate(_seeds(self.name, seed, self.ops)))

    def prepare(self, spec):
        i, seed = spec
        params = self.GRIDS[i % len(self.GRIDS)]
        if params.n_agents > 1:
            return random_interactive_model(params, seed)
        return as_interactive(random_model(params, seed))

    def first_model(self, seed):
        return self.prepare(self.inputs(seed)[0])

    def op(self, imodel, tr):
        with tr.span("dslio.serialize_model"):
            text = serialize_model(imodel)
        with tr.span("dslio.parse_model"):
            doc = parse_model(text)
        with tr.span("dslio.serialize_doc"):
            again = serialize_doc(doc)
        return text, doc, again

    def settle(self, imodel, out, tr, counts):
        text, doc, again = out
        if again != text:
            raise Failure("serialize_doc(parse_model(text)) != text")
        if doc.imodel != imodel:
            raise Failure("parse_model(text).imodel != the serialized model")
        counts["dslio.text_bytes"] += len(text.encode())
        return 1


WORKLOADS = {
    w.name: w for w in (ExhaustiveAdditive, RandomCapacity, Agreement, TextRoundtrip)
}


def make(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](tiny)
