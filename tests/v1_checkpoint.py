"""Version 1 checkpoints, as ``save_model`` wrote them before version 2: one
hex-float string per parameter value.  Tests of the version 1 reader build
their files from these."""

import json


def v1_document(model) -> dict:
    return {"format": "temporal-range/model", "version": 1,
            "cell_kind": model.cell.kind.value, "input_dim": model.cell.input_dim,
            "hidden_dim": model.cell.hidden_dim, "lem_dt": model.cell.lem_dt.hex(),
            "output_dim": model.output_dim, "encoder_dim": model.encoder_dim,
            "params": {name: {"data": [v.hex() for v in arr.ravel().tolist()],
                              "shape": list(arr.shape)}
                       for name, arr in model.params.items()}}


def v1_text(doc: dict) -> str:
    """The file text of a version 1 document."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
