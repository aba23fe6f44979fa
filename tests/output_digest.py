"""Print one SHA-256 per pipeline output for a fixed set of caps, so that two
checkouts can be compared line by line.

    python tests/output_digest.py [N:SEED ...] > digest.txt

Caps: every ``oracle_set()`` cap, the ``large-net`` cap at four quarter
turns and, for each ``N:SEED`` argument, ``generate_budget_cap(N,
seed=SEED)``.  Each line holds the cap's name and the digests of the forest
``edges``, the ``Net.images`` bytes, the cut edges, the waterfall
``points`` and ``json.dumps(diagnostics, sort_keys=True)``; then the
digest of the diagnostics without ``paths.max_turn_distortion``, and that
value's ``repr``, so a move of that one float can be read off; last the
digest of ``check_overlap(net, eps=-1e-3).pairs``, every candidate pair
whose boxes overlap by more than 1e-3 with its separating-axis depth, so
that the narrow phase shows on caps whose nets are clean; last the digest
of the per-path verdicts of the two left_of certificates, the developed
chains' ``left_of`` list and ``banks_ordered``, so that one path's verdict
or violating radius shows where the diagnostics only hold their ``all()``.
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
    turns = path_turns(cap, forest)
    split = forest.path_offsets[1:-1]
    chains = left_of(list(zip(
        *(np.split(develop_chain(cap, forest, turns, side), split)
          for side in ("left", "right")))))
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
