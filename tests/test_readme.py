"""README's figures about the tree agree with the tree."""

import importlib
import pkgutil
import re
from pathlib import Path

import weyldeform

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_readme_states_the_src_line_count():
    stated = re.search(r"`src/` is ([\d,]+) lines", README)
    assert stated, "README states no `src/` line count"
    counted = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "weyldeform").glob("*.py"))
    assert int(stated[1].replace(",", "")) == counted


def _resolve(name: str, namespace: dict):
    """The object a dotted name reads: its head is the package, one of its
    modules or a name one of them defines, else an importable module."""
    head, *rest = name.split(".")
    obj = namespace[head] if head in namespace else importlib.import_module(head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_readme_names_existing_code():
    # module-qualified names (`weyl._memo`, `fractions.Fraction`, a call's
    # `json.dumps`) and private ones (`_t_powers`), not file names
    mods = [importlib.import_module(f"weyldeform.{m.name}")
            for m in pkgutil.iter_modules(weyldeform.__path__)]
    namespace = {"weyldeform": weyldeform}
    for mod in mods:
        namespace[mod.__name__.rsplit(".", 1)[1]] = mod
    for mod in mods:
        for key, value in vars(mod).items():
            namespace.setdefault(key, value)
    names = {re.sub(r"\(.*\)$", "", span) for span in re.findall(r"`([^`\n]+)`", README)}
    checked = sorted(n for n in names
                     if re.fullmatch(r"_\w+|[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", n)
                     and n.rsplit(".", 1)[-1] not in {"py", "md", "json", "txt", "toml"})
    missing = []
    for name in checked:
        try:
            _resolve(name, namespace)
        except (AttributeError, ImportError):
            missing.append(name)
    assert len(checked) >= 20
    assert missing == []
