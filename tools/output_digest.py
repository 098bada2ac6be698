"""Digest every file the command line writes, to compare two checkouts byte
for byte.

    python3 tools/output_digest.py --checkout DIR [--pin-train-code] [--keep OUT]

Runs a fixed matrix of `mixedflow` commands in-process, with the package
imported from DIR/src, inside a fresh temporary working directory and with
relative paths only, so no manifest carries a machine path. Each command's
standard output is kept as a file too. Prints `sha256  path` for every file,
sorted by path; two checkouts that print the same lines wrote the same
bytes. Each checkpoint also gets a line `sha256  path arrays`, a digest of
its arrays alone (names, dtypes, shapes, bytes), so a change that edits
only manifests shows up as one. One BLAS thread is set before numpy loads,
so reductions do not depend on the thread count.

`--pin-train-code` replaces `mixedflow.train.train_code` with a fixed
string, so the checkpoint manifests no longer record the hash of the
training sources: two checkouts that differ only in those sources' bytes
(comments, refactors) then print the same lines whenever they train the
same arrays.

`--keep OUT` copies the working directory, every digested file, to OUT
(which must not exist), so that the outputs of two checkouts can be
loaded and compared numerically where their bytes differ.

The matrix: `simulate` toy, non-toy and conjugate; a tiny `train` on
d=2/q=1, d=3/q=2 and the conjugate family, each followed by `train
--resume` with a larger budget (the d=3/q=2 run stops on patience, so its
resume runs nothing); `calibrate --refine none|is`; `infer` in all four
refine modes and on an observation CSV; `evaluate` in all four refine
modes, and of the d=3/q=2 model with `--refine is` and its own `--alphas`;
`report` of two draw files, and of an external chain CSV named after a
simulated set (two chains, one with an outlier, and a Stan-style `lp__`
column that is ignored) beside a draw file, with its own `--alphas`;
for the known-noise conjugate model, `calibrate --refine is` and
`evaluate --refine both` with that table; and a `simulate --count 40` into
a gzip file with `infer --refine both` over it, so that files of many
streamed records, gzip and plain, are digested too.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

TINY = {"width": 16, "summary_blocks": 1, "heads": 2, "flow_blocks": 2,
        "flow_hidden": 16, "eval_every": 5, "val_sets": 8, "warmup_steps": 5}
REFINES = ("none", "is", "conformal", "both")
PINNED_TRAIN_CODE = "pinned"


def _inputs():
    """Training configs, an observation CSV and its prior, as files."""
    files = {
        "tiny.json": TINY,
        "early.json": {**TINY, "eval_every": 2, "patience": 1, "lr": 0.05},
        "conj.json": {**TINY, "family": "conjugate"},
        "prior.json": {"nu_beta": [0.0, 0.0], "tau_beta": [2.0, 2.0],
                       "tau_sigma": [1.0], "tau_eps": 1.0},
    }
    for name, obj in files.items():
        Path(name).write_text(json.dumps(obj), encoding="utf-8")
    rows = ["group_id,y,x_1"]
    for g, group in enumerate("abc"):
        rows += [f"{group},{(7 * g + 3 * i) % 11 / 5 - 1:.2f},{(5 * i + g) % 7 / 3 - 1:.3f}"
                 for i in range(6 + g)]
    Path("obs.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    params = ["lp__", "beta[0]", "beta[1]", "sigma[0]", "sigma_eps"]
    params += [f"alpha[{i},0]" for i in range(6)]
    rows = ["chain,draw,parameter,value"]
    for c in range(2):
        for i in range(20):
            for j, p in enumerate(params):
                v = (7 * c + 3 * i + 5 * j) % 13 / 6 - 1
                v = 50.0 if (c, i, p) == (0, 7, "beta[0]") else abs(v) if p.startswith("sigma") else v
                rows.append(f'{c},{i},"{p}",{v:.3f}')
    Path("sim-1-0.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def _commands() -> list[list[str]]:
    def train(name, d, q, budget, config, *extra):
        return ["train", "--d", str(d), "--q", str(q), "--budget", str(budget), "--batch", "8",
                "--seed", "4", "--toy", "--config", config, "--out", name, *extra]

    cmds = [
        ["simulate", "--d", "2", "--q", "1", "--count", "6", "--seed", "1", "--toy",
         "--m-range", "3,6", "--n-range", "5,10", "--out", "toy.jsonl"],
        ["simulate", "--d", "3", "--q", "2", "--count", "4", "--seed", "2",
         "--m-range", "3,5", "--n-range", "5,10", "--out", "full.jsonl.gz"],
        ["simulate", "--d", "2", "--q", "0", "--family", "conjugate", "--count", "4",
         "--seed", "3", "--n-range", "10,20", "--out", "conj.jsonl"],
    ]
    for name, d, q, config in (("m21", 2, 1, "tiny.json"), ("m32", 3, 2, "early.json"),
                               ("mconj", 2, 0, "conj.json")):
        cmds += [train(name, d, q, 80, config), train(name, d, q, 120, config, "--resume")]
    model = ["--checkpoint", "m21/best.ckpt"]
    for refine in ("none", "is"):
        cmds.append(["calibrate", *model, "--sets", "toy.jsonl", "--k", "40", "--seed", "5",
                     "--refine", refine, "--out", f"cal-{refine}.json"])
    for refine in REFINES:
        table = {"conformal": ["--conformal-table", "cal-none.json"],
                 "both": ["--conformal-table", "cal-is.json"]}.get(refine, [])
        cmds.append(["infer", *model, "--data", "toy.jsonl", "--k", "40", "--seed", "6",
                     "--refine", refine, *table, "--out", f"infer-{refine}.jsonl"])
        cmds.append(["evaluate", *model, "--data", "toy.jsonl", "--k", "40", "--seed", "7",
                     "--refine", refine, *table, "--out", f"eval-{refine}"])
    cmds += [
        ["infer", *model, "--data", "obs.csv", "--q", "1", "--prior", "prior.json",
         "--k", "40", "--seed", "8", "--out", "infer-csv.jsonl"],
        ["infer", "--checkpoint", "m32/best.ckpt", "--data", "full.jsonl.gz", "--k", "40",
         "--refine", "is", "--out", "infer-m32.jsonl.gz"],
        ["infer", "--checkpoint", "mconj/best.ckpt", "--data", "conj.jsonl", "--k", "40",
         "--refine", "is", "--out", "infer-conj.jsonl"],
        ["report", "--draws", "none=infer-none.jsonl", "is=infer-is.jsonl",
         "--data", "toy.jsonl", "--out", "report"],
        ["evaluate", "--checkpoint", "m32/best.ckpt", "--data", "full.jsonl.gz", "--k", "40",
         "--seed", "9", "--refine", "is", "--alphas", "0.1,0.3,0.7", "--out", "eval-m32"],
        ["report", "--draws", "hmc=sim-1-0.csv", "both=infer-both.jsonl", "--data", "toy.jsonl",
         "--alphas", "0.1,0.5", "--out", "report-chains"],
        ["calibrate", "--checkpoint", "mconj/best.ckpt", "--sets", "conj.jsonl", "--k", "40",
         "--seed", "10", "--refine", "is", "--out", "cal-conj-is.json"],
        ["evaluate", "--checkpoint", "mconj/best.ckpt", "--data", "conj.jsonl", "--k", "40",
         "--seed", "11", "--refine", "both", "--conformal-table", "cal-conj-is.json",
         "--out", "eval-conj-both"],
        ["simulate", "--d", "2", "--q", "1", "--count", "40", "--seed", "12", "--toy",
         "--m-range", "3,8", "--n-range", "5,10", "--out", "many.jsonl.gz"],
        ["infer", *model, "--data", "many.jsonl.gz", "--k", "40", "--seed", "13",
         "--refine", "both", "--conformal-table", "cal-is.json", "--out", "infer-many.jsonl"],
    ]
    return cmds


def _array_digest(path) -> str:
    from mixedflow.nn.checkpoint import load_checkpoint  # the checkout's, as run_matrix set up
    _, arrays, _ = load_checkpoint(path)
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = arrays[name]
        h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def run_matrix(checkout, pin_train_code: bool = False, keep=None) -> list[tuple[str, str]]:
    """(sha256, relative path) for every file the matrix writes, plus
    (array digest, "path arrays") for every checkpoint; the files are
    copied to `keep` when it is given."""
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    from mixedflow.cli import main
    if pin_train_code:
        import mixedflow.train
        mixedflow.train.train_code = lambda root=None: PINNED_TRAIN_CODE

    home = os.getcwd()
    keep = keep and Path(keep).resolve()
    with tempfile.TemporaryDirectory(prefix="mixedflow-digest-") as work:
        os.chdir(work)
        try:
            _inputs()
            Path("stdout").mkdir()
            for i, argv in enumerate(_commands()):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    raise SystemExit(f"output_digest: exit {code} from {' '.join(argv)}")
                Path(f"stdout/{i:02d}-{argv[0]}.txt").write_text(out.getvalue(), encoding="utf-8")
            files = sorted(p for p in Path(".").rglob("*") if p.is_file())
            lines = [(hashlib.sha256(p.read_bytes()).hexdigest(), p.as_posix()) for p in files]
            lines += [(_array_digest(p), f"{p.as_posix()} arrays")
                      for p in files if p.suffix == ".ckpt"]
            if keep:
                shutil.copytree(".", keep)
            return sorted(lines, key=lambda line: line[1])
        finally:
            os.chdir(home)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", required=True, help="repository root to run")
    parser.add_argument("--pin-train-code", action="store_true",
                        help=f"record train_code {PINNED_TRAIN_CODE!r} in every checkpoint")
    parser.add_argument("--keep", metavar="OUT", help="copy the output tree to OUT (new)")
    args = parser.parse_args(argv)
    for digest, path in run_matrix(args.checkout, args.pin_train_code, args.keep):
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
