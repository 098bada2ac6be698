"""Every command's output is reproducible: the digest matrix of
tools/output_digest.py, run twice from fresh working directories, writes
the same bytes. Each checkpoint also has an array-only digest line, and
`--pin-train-code` changes the checkpoint manifests but no array, and
`--keep` keeps the files that were digested."""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest(*extra) -> list[str]:
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"),
                           "--checkout", str(ROOT), *extra],
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.splitlines()


def test_every_command_writes_the_same_bytes_twice(tmp_path):
    first, second = _digest("--keep", str(tmp_path / "out")), _digest()
    assert first == second
    out = tmp_path / "out"
    kept = {f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}"
            for p in out.rglob("*") if p.is_file()}
    assert kept == {line for line in first if not line.endswith(" arrays")}
    paths = {line.split("  ", 1)[1] for line in first}
    for path in ("toy.jsonl", "full.jsonl.gz", "conj.jsonl", "m21/best.ckpt", "m32/last.ckpt",
                 "mconj/curve.csv", "cal-is.json", "infer-both.jsonl", "infer-csv.jsonl",
                 "eval-conformal/report.csv", "eval-m32/coverage.csv", "report/report.txt",
                 "report-chains/report.csv", "cal-conj-is.json", "eval-conj-both/report.csv",
                 "many.jsonl.gz", "infer-many.jsonl"):
        assert path in paths
    checkpoints = {p for p in paths if p.endswith(".ckpt")}
    assert len(checkpoints) == 6
    assert {p + " arrays" for p in checkpoints} <= paths


def test_pinned_train_code_moves_manifests_not_arrays():
    plain, pinned = ({path: digest for digest, path in (line.split("  ", 1) for line in run)}
                     for run in (_digest(), _digest("--pin-train-code")))
    assert plain.keys() == pinned.keys()
    checkpoints = [p for p in plain if p.endswith(".ckpt")]
    assert all(plain[p] != pinned[p] for p in checkpoints)
    assert all(plain[p + " arrays"] == pinned[p + " arrays"] for p in checkpoints)
