"""Regenerate encode_reference.json: the summaries `model.encode` gives for
the fixture models on fixed inputs. Run from the checkout root with

    python3 perfbench/make_reference.py

only when the summary network is meant to compute something new.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import REFERENCE, build_model, encode  # noqa: E402

if __name__ == "__main__":
    ref = {key: {part: a.tolist() for part, a in encode(build_model(key)).items()}
           for key in ("paper", "desk")}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh)
        fh.write("\n")
