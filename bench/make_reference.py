"""Regenerate ``reference.json`` from the library as it stands.

    python3 bench/make_reference.py

References are taken at the default seed: both session digests (six
numbers per batch, see ``worker.session_digest``) and, for the SA study,
every candidate's objective value plus the RBD-FAST indices and CIs.  Run
it only when a change is meant to alter the pipeline's outputs.
"""
import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import worker  # noqa: E402


def main() -> int:
    seed = worker.DEFAULT_SEED
    ref = {}
    for name in ("session_default", "session_long"):
        sess = worker.setup_session(worker.WORKLOADS[name], seed)
        result = worker.stream_once(sess)
        digest = worker.session_digest(sess, result, sess.n_batches)
        ref[name] = {"seed": seed, "digest": digest.tolist()}
    study = worker.setup_sa(seed)
    _, _, ys, result, _ = worker.run_study(study)
    step = worker.SA_CANDIDATES // worker.SA_REFERENCE_ROWS
    ref["sa_rbdfast"] = {
        "seed": seed,
        "checked_rows": list(range(0, worker.SA_CANDIDATES, step)),
        "objective": ys.tolist(),
        "indices": worker.indices_vector(result).tolist(),
    }
    with open(worker.REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
