"""Which modules a run loads, and the package's names that load on first use."""

import subprocess
import sys

import pytest


# Runs `python -m shiftspace ARGV` as -m does, then prints the shiftspace
# submodules loaded on a last line of stderr.
_RUN_PROBE = """
import runpy, sys
sys.argv[0] = "shiftspace"
code = 0
try:
    runpy.run_module("shiftspace", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m for m in sys.modules if m.startswith("shiftspace.")), file=sys.stderr)
"""


def _loaded_submodules(*argv: str) -> set[str]:
    """The shiftspace submodules a fresh `python -m shiftspace` run imports."""
    result = subprocess.run(
        [sys.executable, "-c", _RUN_PROBE, *argv], capture_output=True, text=True, check=True
    )
    code, *names = result.stderr.splitlines()[-1].split()
    assert code == "0", result.stderr
    return {name.removeprefix("shiftspace.") for name in names}


@pytest.mark.parametrize(
    ("argv", "unused"),
    [
        (["table", "--m-range", "1..2", "--k-range", "2..4"], {"transfer", "enumeration", "recurrence"}),
        (["design", "--target-entropy", "0.6931471805599453"], {"transfer", "enumeration", "recurrence"}),
        (["design", "--target-ratio", "2", "--m", "1"], {"transfer", "enumeration", "recurrence"}),
        # n past m + 1, so the count reads the family's recurrence
        (["count", "--tmk", "1,2", "--n", "40"], {"transfer", "enumeration", "spectral", "design"}),
        (["sequence", "--tmk", "1,2", "--n-max", "8"], {"transfer", "enumeration", "spectral", "design"}),
        (["entropy", "--tmk", "1,3"], {"transfer", "enumeration", "recurrence", "design"}),
    ],
    ids=["table", "design-entropy", "design-ratio", "count-tmk", "sequence-tmk", "entropy-tmk"],
)
def test_a_run_loads_only_the_modules_its_command_uses(argv, unused):
    loaded = _loaded_submodules(*argv)
    assert {"cli", "core", "errors"} <= loaded
    assert not loaded & unused, sorted(loaded & unused)


# Runs in a fresh interpreter, so no name is bound before the checks.
_NAMES_PROBE = """
import sys
import shiftspace

loaded = lambda: sorted(m for m in sys.modules if m.startswith("shiftspace."))
assert loaded() == [], loaded()
assert set(shiftspace.__all__) <= set(dir(shiftspace))
assert loaded() == [], loaded()
star = {}
exec("from shiftspace import *", star)
assert set(shiftspace.__all__) <= set(star), set(shiftspace.__all__) - set(star)
for name in shiftspace.__all__:
    value = getattr(shiftspace, name)
    assert star[name] is value, name
    assert getattr(sys.modules[value.__module__], name) is value, name
for name in ("core", "design", "enumeration", "errors", "recurrence", "spectral", "transfer"):
    assert getattr(shiftspace, name) is sys.modules["shiftspace." + name], name
try:
    shiftspace.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'shiftspace' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("no AttributeError")
print(len(shiftspace.__all__))
"""


def test_public_names_resolve_on_first_use():
    result = subprocess.run([sys.executable, "-c", _NAMES_PROBE], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "48\n"
