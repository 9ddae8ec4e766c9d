"""Make a forward pass project its gate input parts a set number of steps
at a time, so a short test sequence still crosses chunk boundaries."""

from temporal_range import models
from temporal_range.cells import cell_impl


def project_steps(monkeypatch, model, B: int, steps: int, itemsize: int = 8) -> None:
    """Set ``models.UNROLL_BUDGET_BYTES`` so that a pass of ``B`` sequences
    through ``model``, in a dtype of ``itemsize`` bytes, projects ``steps``
    steps per chunk."""
    width = sum(model.params[n].shape[0] for n in cell_impl(model.cell.kind).input_names)
    monkeypatch.setattr(models, "UNROLL_BUDGET_BYTES", steps * B * width * itemsize)
