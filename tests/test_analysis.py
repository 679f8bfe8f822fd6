"""Each derived object is computed at most once per report command."""

import sys

import pytest

from hlra import cli, connections, decomposition, model, roots, structure
from hlra.linalg import vec_neg

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


@pytest.mark.parametrize("name", ("fix_s2", "fix_p2"))
def test_opposite_products_are_evaluated_once_per_analysis(monkeypatch, bundled, name):
    """The class ideals, the generated parts, the profile with tightness
    and the pairing evaluate each opposite product once, and the pairing
    verifiers read the actions table instead of acting again."""
    h = bundled[name]
    rd = roots.root_decomposition(h)
    wd = roots.weight_decomposition(h, rd)
    a = structure.Analysis(h, rd, wd)
    evaluated, acted = [], []
    evaluate, act_space = model._evaluate, model.HLRAlgebra.act_space

    def counted(sides, spaces):
        evaluated.append((sides[0][0].fn, *spaces))
        return evaluate(sides, spaces)

    monkeypatch.setattr(model, "_evaluate", counted)
    a.root_ideals, a.weight_ideals, a.root_inner, a.weight_inner, a.profile, a.actions
    m = h.maps
    opposites = [
        key
        for g in rd.gamma
        for key in ((m.action, wd.space(vec_neg(g)), rd.space(g)), (m.bracket, rd.space(vec_neg(g)), rd.space(g)))
    ] + [
        key
        for x in wd.lam
        for key in ((m.anchor, rd.space(vec_neg(x)), wd.space(x)), (m.mul, wd.space(vec_neg(x)), wd.space(x)))
    ]
    assert len(opposites) == 2 * (len(rd.gamma) + len(wd.lam)) > 0
    assert all(evaluated.count(key) <= 1 for key in opposites)

    def recorded(self, sa, sl):
        if self is h:
            acted.append((sa, sl))
        return act_space(self, sa, sl)

    monkeypatch.setattr(model.HLRAlgebra, "act_space", recorded)
    structure.verify_pairing_5_9(a)
    structure.verify_cor_5_13(a)
    assert acted == []
