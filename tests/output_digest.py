"""Print one SHA-256 per pipeline output for a fixed set of caps, so that two
checkouts can be compared line by line.

    python tests/output_digest.py [N:SEED ...] > digest.txt

Caps: every ``oracle_set()`` cap, the ``large-net`` cap at four quarter
turns and, for each ``N:SEED`` argument, ``generate_budget_cap(N,
seed=SEED)``.  Each line holds the cap's name, then these columns:

1. the forest ``edges``;
2. the ``Net.images`` bytes;
3. the cut edges;
4. the waterfall ``points``;
5. ``json.dumps(diagnostics, sort_keys=True)``;
6. the same without ``paths.max_turn_distortion``;
7. that value's ``repr``, so a move of that one float can be read off;
8. ``check_overlap(net, eps=-1e-3).pairs``: every candidate pair whose
   boxes overlap by more than 1e-3, with its separating-axis depth, so the
   narrow phase shows on caps whose nets are clean;
9. the per-path verdicts of the two left_of certificates (the developed
   chains' ``left_of`` list and ``banks_ordered``), so that one path's
   verdict or violating radius shows where the diagnostics hold only each
   family's ``*_monotone`` and ``*_ordered`` verdicts;
10. ``json.dumps([status, errors, warnings])``, so a change that reshapes
    the diagnostics (moving columns 5 and 6) can show that the verdicts
    did not move.

Every column but 7 is a SHA-256 prefix.
Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from capunfold.develop import (banks_ordered, check_overlap,  # noqa: E402
                               develop_chain, path_turns)
from capunfold.generate import generate_budget_cap  # noqa: E402
from capunfold.monotone import left_of  # noqa: E402
from capunfold.pipeline import cut_and_unfold  # noqa: E402
from fixtures import large_net_cap, oracle_set, quarter_turn  # noqa: E402


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def verdicts(cap, res) -> list:
    """The developed chains' and the net banks' left_of verdicts, per leaf
    path, as the pipeline's certificates compute them."""
    forest = res.forest
    chains = left_of(*develop_chain(cap, forest, path_turns(cap, forest)),
                     forest.path_offsets)
    return [chains, banks_ordered(cap, res.net, forest)]


def digest(cap) -> list[str]:
    res = cut_and_unfold(cap)
    points = [p.points for i in range(4) for p in res.strips.paths[i]]
    diag = res.diagnostics
    rest = copy.deepcopy(diag)
    mtd = rest["paths"].pop("max_turn_distortion")
    return [
        _sha(json.dumps(res.forest.edges.tolist())),
        _sha(res.net.images.tobytes()),
        _sha(json.dumps(sorted(res.net.cut_edges))),
        _sha(b"".join(np.ascontiguousarray(p).tobytes() for p in points)),
        _sha(json.dumps(diag, sort_keys=True)),
        _sha(json.dumps(rest, sort_keys=True)),
        repr(mtd),
        _sha(json.dumps(check_overlap(res.net, eps=-1e-3).pairs)),
        _sha(json.dumps(verdicts(cap, res))),
        _sha(json.dumps([diag["status"], diag["errors"], diag["warnings"]])),
    ]


def caps(extra):
    for k, (cap, _) in enumerate(oracle_set()):
        yield f"oracle-{k}", cap
    for turn in range(4):
        yield f"large-net-turn{turn}", quarter_turn(large_net_cap(), turn)
    for arg in extra:
        n, seed = (int(x) for x in arg.split(":"))
        yield f"budget-{n}-seed{seed}", generate_budget_cap(n, seed=seed)


def main(argv) -> int:
    for name, cap in caps(argv):
        print(name, *digest(cap), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
