"""Scripts and model files given by path replay like the builtins, and a
substituted model file must match the script's kind."""

from importlib import resources

from mcg.cli import main

DATA = resources.files("mcg.data")


def test_verify_script_by_path(capsys):
    assert main(["verify", str(DATA / "scripts" / "thmA.mcg"), "--n", "17", "--quiet"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_with_substituted_model_file(capsys):
    model = str(DATA / "models" / "lochness.model")
    assert main(["verify", "thmD", "--model-file", model, "--quiet"]) == 0


def test_verify_rejects_mismatched_model_file(capsys):
    model = str(DATA / "models" / "jacob.model")
    assert main(["verify", "thmD", "--model-file", model]) == 2
    assert "does not match" in capsys.readouterr().err
