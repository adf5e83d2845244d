"""Record the program's verdicts on the ``identify`` corpus, seed by seed.

    python3 perfbench/record_reference.py 0-39

Run from the repository root.  Writes ``perfbench/reference.json``: for each
seed, a digest of the corpus and one verdict code per query.  Every query on
a graph small enough for :mod:`bruteforce` is cross-checked first, and the
recording stops at the first disagreement or failed output check.  Record
again only when the corpus generator changes, and only from a commit whose
verdicts are trusted.
"""

from __future__ import annotations

import json
import sys

import run
import series


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open(run.REFERENCE) as f:
        reference = json.load(f)
    for seed in series.seeds(argv[0] if argv else "0-39"):
        payload = run.build("identify", seed, 1.0)
        _, out = run.worker("identify", "run", json.dumps(payload), 0)
        if out["problems"]:
            raise SystemExit(f"seed {seed}: output checks failed: {out['problems'][:3]}")
        for index, code in run.definitional_codes(payload).items():
            if out["codes"][index] != code:
                raise SystemExit(f"seed {seed} query {index}: program {out['codes'][index]}, definition {code}")
        reference["identify"][str(seed)] = {"digest": run.digest(payload), "codes": out["codes"]}
        print(f"seed {seed}: {len(out['codes'])} verdicts", file=sys.stderr)
    with open(run.REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
