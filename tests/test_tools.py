import ast
import subprocess
import sys
from pathlib import Path

import vibronic
from vibronic import model, sos

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def test_code_lines_skips_comments_blanks_and_docstrings(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        text = """a string
that is code"""
        return (math.sqrt(x),
                text)
''', encoding="utf-8")
    out = subprocess.run([sys.executable, str(CODE_LINES), str(module)],
                         capture_output=True, text=True, check=True).stdout
    # import, class, def, the 2-line string, the 2-line return
    assert out.split() == ["7", str(module), "7", "total"]


SOURCE = CODE_LINES.parents[1] / "src" / "vibronic"
# The per-mode count law and the spectrum type: defined in model.py only.
LAW_NAMES = {"LineSpectrum", "fc_factor_1d", "tail_ratio", "mode_distribution", "hazards",
             "law_window", "window_bounds", "check_cutoff", "_LOG_SPACE_J", "_LOG_DIRECT_MAX",
             "_NEVER"}
# The sampler only draws: it weighs no pmf value, so it names no pmf function.
PMF_NAMES = {"fc_factor_1d", "tail_ratio"}


def referenced(tree: ast.Module) -> set[str]:
    """Every name a module reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def sos_imports(tree: ast.Module) -> set[str]:
    """The names a module takes from the SOS engine, "sos" for the module itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if source in (".sos", "vibronic.sos"):
                names |= {a.name for a in node.names}
            elif source in (".", "vibronic"):
                names |= {a.name for a in node.names if a.name == "sos"}
        elif isinstance(node, ast.Import):
            names |= {"sos" for a in node.names if a.name.startswith("vibronic.sos")}
    return names


def test_layering_law_in_model_and_no_sos_below_analysis():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCE.glob("*.py")}
    assert sos_imports(trees["sampling.py"]) == set()
    assert sos_imports(trees["io.py"]) == set()
    assert sos_imports(trees["analysis.py"]) == {"SosConfig", "build_reference_spectrum"}
    assert not referenced(trees["sampling.py"]) & PMF_NAMES
    for name, tree in trees.items():
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        if name == "model.py":
            assert LAW_NAMES <= defined
        else:
            assert not defined & LAW_NAMES, name


def test_law_names_keep_their_old_import_paths():
    # `sos` keeps `mode_distribution`, which its engine looks up there;
    # version 0.6.0 dropped its copies of `LineSpectrum` and `fc_factor_1d`
    assert sos.mode_distribution is model.mode_distribution
    assert not hasattr(sos, "LineSpectrum") and not hasattr(sos, "fc_factor_1d")
    assert vibronic.LineSpectrum is model.LineSpectrum
    assert vibronic.fc_factor_1d is model.fc_factor_1d
