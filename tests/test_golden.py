"""The bundled ``reproduce`` outputs, byte for byte.

``golden/reproduce/<target>/summary.json`` holds each target's summary, and
``golden/reproduce/trajectory.sha256`` the SHA-256 of each
``<target>/trajectory.csv`` in ``sha256sum`` format (the CSVs themselves come
to 1.3 MB).  A change that moves an output on purpose regenerates them in the
same commit, from the repository root:

    graphsync reproduce all --check --out-dir OUT
    (cd OUT && cp --parents */summary.json "$OLDPWD/tests/golden/reproduce/" &&
     sha256sum */trajectory.csv) > tests/golden/reproduce/trajectory.sha256
"""
import hashlib
import json
from pathlib import Path

from graphsync.cli import main
from graphsync.experiments import REPRODUCE_TARGETS

GOLDEN = Path(__file__).parent / "golden" / "reproduce"


def _first_difference(want, got, path=""):
    """The first key path, in sorted-key order, at which two JSON values differ,
    with both values; None when they agree."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in want or key not in got:
                return f"{path}/{key}", want.get(key, "<absent>"), got.get(key, "<absent>")
            found = _first_difference(want[key], got[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            found = _first_difference(w, g, f"{path}/{i}")
            if found:
                return found
        return None
    # json.dumps compares floats by their text, so NaN equals NaN.
    return None if json.dumps(want) == json.dumps(got) else (path or "/", want, got)


def _summary_mismatch(name: str, want: bytes, got: bytes) -> str:
    found = _first_difference(json.loads(want), json.loads(got))
    if found is None:
        return f"{name}/summary.json: same values, different bytes"
    key, w, g = found
    return f"{name}/summary.json: first difference at {key}: golden {w!r}, now {g!r}"


def test_reproduce_outputs_match_the_goldens_byte_for_byte(tmp_path, capsys):
    assert main(["reproduce", "all", "--check", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = dict(
        reversed(line.split("  ", 1))
        for line in (GOLDEN / "trajectory.sha256").read_text().splitlines()
    )
    assert sorted(p.parent.name for p in GOLDEN.glob("*/summary.json")) == sorted(REPRODUCE_TARGETS)
    assert sorted(digests) == sorted(f"{name}/trajectory.csv" for name in REPRODUCE_TARGETS)

    mismatches = []
    for name in sorted(REPRODUCE_TARGETS):
        want = (GOLDEN / name / "summary.json").read_bytes()
        got = (tmp_path / name / "summary.json").read_bytes()
        if got != want:
            mismatches.append(_summary_mismatch(name, want, got))
        csv = f"{name}/trajectory.csv"
        digest = hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest()
        if digest != digests[csv]:
            mismatches.append(f"{csv}: SHA-256 {digest}, golden {digests[csv]}")
    assert not mismatches, "reproduce outputs moved:\n" + "\n".join(mismatches)
