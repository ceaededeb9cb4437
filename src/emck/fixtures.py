"""Small reference models used across tests and documentation.

Type tables are written out explicitly (hand-computed) rather than derived,
so the fixtures double as independent oracles for the derivation helpers.
"""

from __future__ import annotations

from fractions import Fraction

from .beliefs import Prior, SetFunction, TypeMapping
from .events import make_space, sigma_powerset
from .multiagent import InteractiveModel
from .operators import EpistemicModel, PossibilityCorrespondence

F = Fraction


def three_state_partition() -> EpistemicModel:
    """Three states, partition information, Bayesian types.

    mu = (1/2, 1/4, 1/4); P(1) = {1}, P(2) = P(3) = {2, 3}; t(omega, .) =
    mu(. | P(omega)).  Regular and partitional.
    """
    sigma = sigma_powerset(make_space(["1", "2", "3"]))
    prior = Prior(sigma, (F(1, 2), F(1, 4), F(1, 4)))
    poss = PossibilityCorrespondence(sigma, (0b001, 0b110, 0b110))
    # event order: {}, {1}, {2}, {1,2}, {3}, {1,3}, {2,3}, {1,2,3}
    t1 = SetFunction(sigma, (F(0), F(1), F(0), F(1), F(0), F(1), F(0), F(1)))
    t23 = SetFunction(
        sigma,
        (F(0), F(0), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1), F(1)),
    )
    types = TypeMapping(sigma, (t1, t23, t23))
    return EpistemicModel(sigma, prior, poss, types)


def null_state_slack() -> EpistemicModel:
    """Two states with a null state b: mu = (1, 0), P(a) = {a}, P(b) = {a, b},
    t(omega, .) = the point mass at a for both states.

    Regular but not partitional; the bracket of a strictly contains P(a) with
    a null difference, exercising the almost-sure part of the main theorem.
    """
    sigma = sigma_powerset(make_space(["a", "b"]))
    prior = Prior(sigma, (F(1), F(0)))
    poss = PossibilityCorrespondence(sigma, (0b01, 0b11))
    delta_a = SetFunction(sigma, (F(0), F(1), F(0), F(1)))
    types = TypeMapping(sigma, (delta_a, delta_a))
    return EpistemicModel(sigma, prior, poss, types)


def two_state_capacity() -> EpistemicModel:
    """Two states with a non-additive capacity type at a.

    t(a, .) is the capacity v with v(empty) = v({a}) = v({b}) = 0, v(Omega) =
    1; t(b, .) is the point mass at b.  P is the total correspondence and mu
    is uniform.  Not regular; the capacity is monotone and convex.
    """
    sigma = sigma_powerset(make_space(["a", "b"]))
    prior = Prior(sigma, (F(1, 2), F(1, 2)))
    poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
    v = SetFunction(sigma, (F(0), F(0), F(0), F(1)))
    delta_b = SetFunction(sigma, (F(0), F(0), F(1), F(1)))
    types = TypeMapping(sigma, (v, delta_b))
    return EpistemicModel(sigma, prior, poss, types)


def two_agent_partitions() -> InteractiveModel:
    """Two agents with different partitions over the three-state space.

    Alice's partition is {{1}, {2,3}}, Bob's is {{1,2}, {3}}; both types are
    Bayesian for the shared prior (1/2, 1/4, 1/4).
    """
    sigma = sigma_powerset(make_space(["1", "2", "3"]))
    prior = Prior(sigma, (F(1, 2), F(1, 4), F(1, 4)))
    alice_poss = PossibilityCorrespondence(sigma, (0b001, 0b110, 0b110))
    bob_poss = PossibilityCorrespondence(sigma, (0b011, 0b011, 0b100))
    t1 = SetFunction(sigma, (F(0), F(1), F(0), F(1), F(0), F(1), F(0), F(1)))
    t23 = SetFunction(
        sigma,
        (F(0), F(0), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1), F(1)),
    )
    alice_types = TypeMapping(sigma, (t1, t23, t23))
    # mu(. | {1,2}) has weights (2/3, 1/3, 0)
    t12 = SetFunction(
        sigma,
        (F(0), F(2, 3), F(1, 3), F(1), F(0), F(2, 3), F(1, 3), F(1)),
    )
    delta_3 = SetFunction(sigma, (F(0), F(0), F(0), F(0), F(1), F(1), F(1), F(1)))
    bob_types = TypeMapping(sigma, (t12, t12, delta_3))
    return InteractiveModel(
        sigma,
        prior,
        ("alice", "bob"),
        (alice_poss, bob_poss),
        (alice_types, bob_types),
    )


def as_interactive(model: EpistemicModel, name: str = "alice") -> InteractiveModel:
    return InteractiveModel(model.sigma, model.prior, (name,), (model.poss,), (model.types,))
