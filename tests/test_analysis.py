"""Each derived object is computed at most once per report command."""

import sys

import pytest

from hlra import cli, connections, decomposition, model, roots, structure

# (module, name) of each counted builder; root_partition counts only the
# unrestricted partition, since the profile also takes the not-J one
COUNTED = (
    (model, "compute_J"),
    (model, "annihilator_Z"),
    (decomposition, "enumerate_ideals"),
    (connections, "weight_partition"),
    (connections, "root_partition"),
)


def count_calls(monkeypatch):
    """Wrap each counted builder in every hlra module that binds it, since
    `from .model import compute_J` copies the name at import time."""
    counts = {}
    modules = [m for n, m in sys.modules.items() if n == "hlra" or n.startswith("hlra.")]
    for owner, name in COUNTED:
        orig = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _orig=orig, _name=name, **kwargs):
            if kwargs.get("restrict") is None:
                counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


@pytest.mark.parametrize("command", ("decompose", "analyze"))
@pytest.mark.parametrize("name", ("fix_s2", "fix_e", "fix_zero"))
def test_each_builder_runs_at_most_once(monkeypatch, capsys, data_dir, command, name):
    counts = count_calls(monkeypatch)
    cli.main([command, str(data_dir / f"{name}.json")])
    capsys.readouterr()
    assert all(n <= 1 for n in counts.values()), counts


def record_full_spaces(monkeypatch):
    """(name, algebra) for each build of an algebra's whole L or whole A."""
    built = []
    for name in ("full_L", "full_A"):
        prop = vars(model.HLRAlgebra)[name]

        def counted(h, _orig=prop.func, _name=name):
            built.append((_name, h))
            return _orig(h)

        monkeypatch.setattr(prop, "func", counted)
    return built


@pytest.mark.parametrize("command", ("decompose", "analyze"))
@pytest.mark.parametrize("name", ("fix_s2", "fix_e", "fix_zero"))
def test_whole_spaces_are_built_once_per_algebra(monkeypatch, capsys, data_dir, command, name):
    built = record_full_spaces(monkeypatch)
    cli.main([command, str(data_dir / f"{name}.json")])
    capsys.readouterr()
    keys = [(n, id(h)) for n, h in built]
    assert built and len(keys) == len(set(keys)), keys


def test_cor_5_13_builds_no_weight_decomposition(monkeypatch, bundled):
    # a component's simplicity verdict reads only J and the enumeration
    h = bundled["fix_e2"]
    rd = roots.root_decomposition(h)
    a = structure.Analysis(h, rd, roots.weight_decomposition(h, rd))
    calls = []
    orig = roots.weight_decomposition
    for mod in [m for n, m in sys.modules.items() if n == "hlra" or n.startswith("hlra.")]:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, attr, lambda *args: calls.append(args) or orig(*args))
    report = structure.verify_cor_5_13(a)
    assert [c.simple_verdict for c in report.components] == ["simple", "simple"]
    assert calls == []
