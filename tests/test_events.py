"""State spaces, sigma-algebras as atom partitions, and exact event algebra."""

import pytest

from emck import (
    AlgebraMismatch,
    DuplicateState,
    Event,
    InvalidAtoms,
    InvalidStateName,
    NotMeasurable,
    TooManyAtoms,
    is_measurable,
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
        assert is_measurable(sigma, ["2", "3"])

    def test_atom_split_is_not_measurable(self):
        sigma = sigma_from_atoms(make_space(["1", "2", "3"]), [["1"], ["2", "3"]])
        assert not is_measurable(sigma, ["2"])

    def test_empty_set_is_measurable(self):
        sigma = sigma_from_atoms(make_space(["1", "2", "3"]), [["1"], ["2", "3"]])
        assert is_measurable(sigma, [])


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

    def test_atom_cap(self):
        sigma = sigma_powerset(make_space([str(i) for i in range(17)]))
        with pytest.raises(TooManyAtoms):
            sigma.events()

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
                assert is_measurable(sigma, e.union(f).members)
