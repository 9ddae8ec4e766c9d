"""Version 1 dataset containers, as ``save_dataset`` wrote them before
version 2: one entry of hex-float rows, targets and 0/1 mask per sequence.
Tests of the version 1 reader build their files from these."""

import json


def v1_document(data, task="copy", spec=None, seed=0) -> dict:
    n, T, d = data.x.shape
    return {"format": "temporal-range/dataset", "version": 1, "task": task,
            "spec": {} if spec is None else spec, "seed": seed, "n": n, "T": T, "d": d,
            "sequences": [{"x": [[v.hex() for v in row] for row in seq.x.tolist()],
                           "targets": seq.targets.tolist(),
                           "mask": seq.mask.astype(int).tolist()}
                          for seq in data]}


def v1_text(doc: dict) -> str:
    """The file text of a version 1 document."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
