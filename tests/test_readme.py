"""The README's library examples run as written and use only the public names."""

import re
from pathlib import Path

import conformal_wm
from conformal_wm import density

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src" / "conformal_wm"


def library_use_section():
    """README's "## Library use" section, without its heading."""
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def library_use_blocks():
    """The ```python blocks under "## Library use", in order."""
    return re.findall(r"^```python\n(.*?)^```", library_use_section(), flags=re.S | re.M)


def test_library_use_snippets_run():
    blocks = library_use_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # later blocks use names the earlier ones define
        exec(compile(block, str(README), "exec"), namespace)


PUBLIC_NAMES = [
    "standard_p_values", "hierarchical_p_values", "weighted_p_values", "WeightedRule",
    "ExperimentConfig", "ScoreDistribution", "default_config", "run_scenario",
    "MetricsReport", "__version__",
]


def test_public_names_are_the_documented_list():
    assert conformal_wm.__all__ == PUBLIC_NAMES
    section = library_use_section()
    for name in PUBLIC_NAMES:
        assert getattr(conformal_wm, name) is not None
        assert f"`{name}`" in section, name
    # one weighted path: the rule object, and the kernel over raw ratios
    for gone in ("density_ratios", "fit_kde"):
        assert not hasattr(conformal_wm, gone) and not hasattr(density, gone)


def test_library_use_blocks_import_only_public_names():
    imported = []
    for block in library_use_blocks():
        for module, names in re.findall(r"^from (\S+) import (.+)$", block, flags=re.M):
            assert module == "conformal_wm", module
            imported += [name.strip() for name in names.split(",")]
        for module in re.findall(r"^import (\S+)", block, flags=re.M):
            assert not module.startswith("conformal_wm"), module
    assert "WeightedRule" in imported
    assert set(imported) <= set(conformal_wm.__all__)


def test_every_error_code_is_documented():
    codes = {"invalid_input"}  # the CLI's code for a ValueError raised below io
    for path in SRC.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for code in re.findall(r'ValidationError\(\s*f?"([^"]+)"', text):
            if code == "missing_{name}":  # the columns detect requires
                codes.update(("missing_group_id", "missing_population"))
            else:
                codes.add(code)
    assert len(codes) >= 25
    readme = README.read_text(encoding="utf-8")
    assert [code for code in sorted(codes) if f"`{code}`" not in readme] == []
