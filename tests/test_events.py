"""State spaces, sigma-algebras as atom partitions, and exact event algebra."""

import tracemalloc

import pytest

from emck import (
    AlgebraMismatch,
    DuplicateState,
    Event,
    InvalidAtoms,
    InvalidStateName,
    NotMeasurable,
    TooManyAtoms,
    make_space,
    sigma_from_atoms,
    sigma_powerset,
)

from helpers import members


class TestMakeSpace:
    def test_singleton(self):
        assert len(make_space(["a"])) == 1

    def test_three_states_keep_order(self):
        space = make_space(["1", "2", "3"])
        assert space.states == ("1", "2", "3")
        assert len(space) == 3

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateState):
            make_space(["a", "a"])

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidStateName):
            make_space(["a", ""])

    def test_empty_space_rejected(self):
        with pytest.raises(InvalidStateName):
            make_space([])

    @pytest.mark.parametrize(
        "name",
        ["a b", "a\tb", "a\nb", "a\u00a0b", "a#b", "a:b", "a;b", "a=b", "{a", "a}"],
        ids=["space", "tab", "newline", "nbsp", "hash", "colon", "semicolon", "equals",
             "open-brace", "close-brace"],
    )
    def test_names_the_model_text_cannot_carry_are_rejected(self, name):
        with pytest.raises(InvalidStateName) as exc:
            make_space(["b", name])
        assert str(exc.value) == (
            f"state name {name!r} contains whitespace or one of #:;={{}}"
        )


class TestSigmaConstruction:
    def test_powerset_counts(self):
        sigma = sigma_powerset(make_space(["1", "2", "3"]))
        assert sigma.n_atoms == 3
        assert len(sigma.events()) == 8
        assert sigma.is_powerset

    def test_coarse_algebra_counts(self):
        space = make_space(["1", "2", "3"])
        sigma = sigma_from_atoms(space, [["1"], ["2", "3"]])
        assert sigma.n_atoms == 2
        assert len(sigma.events()) == 4
        assert not sigma.is_powerset

    def test_overlapping_blocks_rejected(self):
        space = make_space(["1", "2"])
        with pytest.raises(InvalidAtoms):
            sigma_from_atoms(space, [["1"], ["1", "2"]])

    def test_non_covering_blocks_rejected(self):
        space = make_space(["1", "2"])
        with pytest.raises(InvalidAtoms):
            sigma_from_atoms(space, [["1"]])

    def test_empty_block_rejected(self):
        space = make_space(["1", "2"])
        with pytest.raises(InvalidAtoms):
            sigma_from_atoms(space, [["1", "2"], []])


class TestEventAlgebra:
    def setup_method(self):
        self.sigma = sigma_powerset(make_space(["1", "2", "3"]))

    def ev(self, *names):
        return self.sigma.event(names)

    def test_complement(self):
        assert members(self.ev("1").complement()) == {"2", "3"}

    def test_intersection(self):
        assert members(self.ev("1", "2").intersect(self.ev("2", "3"))) == {"2"}

    def test_union(self):
        assert members(self.ev("1").union(self.ev("3"))) == {"1", "3"}

    def test_difference(self):
        assert members(self.ev("1", "2").difference(self.ev("2"))) == {"1"}

    def test_symmetric_difference_self_is_empty(self):
        assert self.ev("1").symmetric_difference(self.ev("1")).is_empty()

    def test_subset_and_membership(self):
        assert self.ev("1").is_subset(self.ev("1", "2"))
        assert not self.ev("1", "3").is_subset(self.ev("1", "2"))
        assert "2" in self.ev("1", "2")
        assert "3" not in self.ev("1", "2")

    def test_mixed_algebras_rejected(self):
        other = sigma_powerset(make_space(["1", "2", "3"]))
        coarse = sigma_from_atoms(make_space(["1", "2", "3"]), [["1"], ["2", "3"]])
        # equal algebras are fine even when distinct objects
        assert members(self.ev("1").union(other.event(["2"]))) == {"1", "2"}
        with pytest.raises(AlgebraMismatch):
            self.ev("1").union(coarse.event(["2", "3"]))

    def test_event_must_be_union_of_atoms(self):
        coarse = sigma_from_atoms(make_space(["1", "2", "3"]), [["1"], ["2", "3"]])
        with pytest.raises(NotMeasurable):
            coarse.event(["2"])

    def test_repr_lists_members(self):
        assert repr(self.ev("2", "3")) == "{2,3}"
        assert repr(self.sigma.empty_event) == "{}"


class TestMeasurability:
    def test_union_of_atoms_is_measurable(self):
        sigma = sigma_from_atoms(make_space(["1", "2", "3"]), [["1"], ["2", "3"]])
        assert sigma.is_measurable(["2", "3"])

    def test_atom_split_is_not_measurable(self):
        sigma = sigma_from_atoms(make_space(["1", "2", "3"]), [["1"], ["2", "3"]])
        assert not sigma.is_measurable(["2"])

    def test_empty_set_is_measurable(self):
        sigma = sigma_from_atoms(make_space(["1", "2", "3"]), [["1"], ["2", "3"]])
        assert sigma.is_measurable([])


class TestEnumerateEvents:
    def test_two_atoms_give_four_events(self):
        sigma = sigma_from_atoms(make_space(["1", "2", "3"]), [["1"], ["2", "3"]])
        sets = [members(e) for e in sigma.events()]
        assert sets == [set(), {"1"}, {"2", "3"}, {"1", "2", "3"}]

    def test_three_atoms_give_eight_events(self):
        sigma = sigma_powerset(make_space(["1", "2", "3"]))
        events = sigma.events()
        assert len(events) == 8
        assert len(set(e.mask for e in events)) == 8

    def test_closure_under_complement_and_intersection(self):
        sigma = sigma_from_atoms(make_space(list("abcd")), [["a"], ["b", "d"], ["c"]])
        events = sigma.events()
        pool = {e.mask for e in events}
        assert 0 in pool and sigma.full_event.mask in pool
        for e in events:
            assert e.complement().mask in pool
            for f in events:
                assert e.intersect(f).mask in pool

    def test_powerset_measurability_is_the_atom_loop(self):
        """On a powerset algebra ``is_measurable_mask`` answers from the
        full-mask test alone; it agrees with the union-of-atoms test on
        every mask, masks leaving the space included."""
        for n in range(1, 5):
            sigma = sigma_powerset(make_space([str(i) for i in range(n)]))
            full = sigma.space.full_mask
            for mask in range(1 << (n + 2)):
                union_of_atoms = not mask & ~full and all(
                    mask & atom in (0, atom) for atom in sigma.atoms
                )
                assert sigma.is_measurable_mask(mask) == union_of_atoms, (n, mask)

    def test_atom_cap(self):
        sigma = sigma_powerset(make_space([str(i) for i in range(17)]))
        with pytest.raises(TooManyAtoms):
            sigma.events()

    @pytest.mark.parametrize("table", ["event_masks", "event_literals"])
    def test_atom_cap_is_checked_before_any_list_is_built(self, table):
        """17 atoms give 131,072 events: a table built before the refusal
        would take megabytes."""
        sigma = sigma_powerset(make_space([str(i) for i in range(17)]))
        tracemalloc.start()
        try:
            with pytest.raises(TooManyAtoms):
                getattr(sigma, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_event_tables_match_the_union_of_atoms_oracle(self):
        """Over every set partition of n <= 5 states (52 at n = 5), event
        ``c`` is the union of the atoms j with bit j of c set, and its
        literal lists its states in declaration order."""

        def set_partitions(items):
            if not items:
                yield []
                return
            first, rest = items[0], items[1:]
            for blocks in set_partitions(rest):
                yield [[first], *blocks]
                for i in range(len(blocks)):
                    yield [*blocks[:i], [first, *blocks[i]], *blocks[i + 1:]]

        for n in range(1, 6):
            # declared out of alphabetical order, so names do not sort like indices
            space = make_space(["s3", "s1", "s4", "s0", "s2"][:n])
            algebras = [sigma_from_atoms(space, blocks) for blocks in set_partitions(space.states)]
            assert len({sigma.atoms for sigma in algebras}) == [1, 2, 5, 15, 52][n - 1]
            for sigma in algebras:
                masks, literals = sigma.event_masks, sigma.event_literals
                assert len(masks) == len(literals) == 1 << sigma.n_atoms
                for combo in range(1 << sigma.n_atoms):
                    union = 0
                    for j, atom in enumerate(sigma.atoms):
                        if combo >> j & 1:
                            union |= atom
                    assert masks[combo] == union, (sigma.atoms, combo)
                    inside = [s for i, s in enumerate(space.states) if union >> i & 1]
                    assert literals[combo] == "{" + " ".join(inside) + "}", (sigma.atoms, combo)

    def test_atom_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("EMCK_MAX_ATOMS", "2")
        sigma = sigma_powerset(make_space(["1", "2", "3"]))
        with pytest.raises(TooManyAtoms):
            sigma.events()
        monkeypatch.setenv("EMCK_MAX_ATOMS", "3")
        sigma = sigma_powerset(make_space(["1", "2", "3"]))
        assert len(sigma.events()) == 8


class TestDeMorgan:
    def test_identities_hold_exactly(self):
        sigma = sigma_from_atoms(make_space(list("abcd")), [["a", "c"], ["b"], ["d"]])
        events = sigma.events()
        for e in events:
            assert e.complement().complement() == e
            for f in events:
                assert e.intersect(f) == f.intersect(e)
                assert e.union(f) == f.union(e)
                assert e.union(f).complement() == e.complement().intersect(f.complement())
                assert e.intersect(f).complement() == e.complement().union(f.complement())
                assert e.difference(f) == e.intersect(f.complement())
                assert e.symmetric_difference(f) == e.difference(f).union(f.difference(e))
                assert sigma.is_measurable(e.union(f).members)
