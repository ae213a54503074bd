"""The property sweeps' check counts, and the pairing sweep's failing branch."""

import pytest

import mcg.sweeps
from mcg import load_model
from mcg.sweeps import homology_property_sweep, pairing_preservation_sweep

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
    # doubling every image scales each pairing by 4: for every label, each
    # key x of the checked set breaks the form with its mate, and the sweep
    # reports the first such pair of each x
    monkeypatch.setattr(mcg.sweeps, "_twist_apply", lambda v, cls, exp: {k: 2 * c for k, c in v.items()})
    rep = pairing_preservation_sweep(jacob, 2)
    assert not rep.ok
    assert rep.issues[:2] == (
        "twist about A[-2] breaks the pairing at (('a', -2),('b', -2))",
        "twist about A[-2] breaks the pairing at (('b', -2),('a', -2))",
    )
    named = {i.split(" breaks the pairing at ")[0] for i in rep.issues}
    assert named == {f"twist about {c}" for c in jacob.labels_in_window(2)}
