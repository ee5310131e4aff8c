"""The bitwise contract: seeded outputs, trainings, gradients, report files
and model files hash to the lines in ``tests/digests.golden``.

The lines depend on the numpy, scipy and BLAS build, so the golden file's
``#`` header names the build it came from.  On a host with that build the
test compares every line; on another build it skips and names both
builds, since other kernels may round differently.
"""

from pathlib import Path

import pytest

import digests

GOLDEN = Path(__file__).with_name("digests.golden")


def _by_name(lines):
    return dict(reversed(line.split("  ", 1)) for line in lines)


def test_seeded_outputs_match_the_golden_file():
    recorded = GOLDEN.read_text().splitlines()
    header = [line for line in recorded if line.startswith("#")]
    here = digests.build()
    if header != here:
        pytest.skip(f"digests.golden is for the build {header}, this host has {here}")
    expected = [line for line in recorded if not line.startswith("#")]
    got = list(digests.lines())
    want, have = _by_name(expected), _by_name(got)
    differ = [f"{name}: {want.get(name, 'absent')} recorded, {have.get(name, 'absent')} now"
              for name in dict.fromkeys([*want, *have]) if want.get(name) != have.get(name)]
    if differ:
        pytest.fail("lines differ from digests.golden:\n" + "\n".join(differ))
    assert got == expected, "the lines are equal but in another order"
