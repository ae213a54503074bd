"""The property sweeps' check counts, and the pairing sweep's failing branch."""

import pytest

import mcg.sweeps
from mcg import load_model
from mcg.sweeps import homology_property_sweep, pairing_preservation_sweep


def _double(v, cls, mates, exp):
    """A broken twist step: doubles every entry of ``v`` in place."""
    for k in v:
        v[k] *= 2
    return 1


# checked counts at window 12: pairing preservation, homology sweep
WINDOW_12 = {
    ("sn", 16): (6976, 4137),
    ("sn", 17): (7412, 4396),
    ("jacob", None): (816, 511),
    ("lochness", None): (716, 357),
}


@pytest.mark.parametrize("kind, n", sorted(WINDOW_12, key=str))
def test_sweep_check_counts_at_window_12(kind, n):
    model = load_model(kind, n)
    pairing, homology = WINDOW_12[(kind, n)]
    rep = pairing_preservation_sweep(model, 12)
    assert (rep.ok, rep.checked) == (True, pairing)
    rep = homology_property_sweep(model, 12)
    assert (rep.ok, rep.checked) == (True, homology)


def test_pairing_sweep_reports_a_twist_that_breaks_the_form(monkeypatch, jacob):
    # doubling every image scales each pairing by 4: for every label, the
    # first key of the checked set breaks the form with its mate, and the
    # sweep reports that first pair once per label
    monkeypatch.setattr(mcg.sweeps, "_transvect", _double)
    rep = pairing_preservation_sweep(jacob, 2)
    assert not rep.ok
    assert rep.issues[:2] == (
        "twist about A[-2] breaks the pairing at (('a', -2),('b', -2))",
        "twist about A[-1] breaks the pairing at (('a', -1),('b', -1))",
    )
    named = [i.split(" breaks the pairing at ")[0] for i in rep.issues]
    assert named == [f"twist about {c}" for c in jacob.labels_in_window(2)]


def test_pairing_sweep_stops_at_the_issue_cap(monkeypatch, sn16):
    # S(16) at window 12 has 784 labels whose twists all break the form;
    # the sweep stops after 25 issues, each naming a different label
    monkeypatch.setattr(mcg.sweeps, "_transvect", _double)
    rep = pairing_preservation_sweep(sn16, 12)
    assert len(sn16.labels_in_window(12)) == 784
    assert len(rep.issues) == 26
    named = [i.split(" breaks the pairing at ")[0] for i in rep.issues]
    assert named == [f"twist about {c}" for c in sn16.labels_in_window(12)[:26]]


def test_sweeps_twist_through_the_oracle_step():
    assert mcg.sweeps._transvect is mcg.homology._transvect
