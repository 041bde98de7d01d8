"""Regenerate the golden experiment tables in this directory.

Each ``<name>.txt`` is the exact stdout of ``repro experiment <name>``:
the rendered table of one experiment that compares Daydream's prediction
with a measured (engine) execution.  ``tests/test_golden.py`` re-renders
each one and diffs it against its file, so a change to any prediction,
measurement or error shows up as a named diff.

Run from the repository root after a deliberate change to those numbers
(and say why in CHANGES.md, including whether ``RESULT_SCHEMA_VERSION``
moves)::

    PYTHONPATH=src python tests/golden/update.py [NAME ...]
"""

import inspect
import os
import sys

from repro.experiments import experiment_runners

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

#: the experiments whose tables hold engine ground truth
MEASURED = ("fig5", "fig7", "fig8", "fig9b", "fig10-resnet50", "fig10-vgg19",
            "sec64")


def render(name, store=None, jobs=None):
    """``repro experiment NAME`` stdout, given only the options it takes."""
    run = experiment_runners()[name]
    params = inspect.signature(run).parameters
    kwargs = {key: value for key, value in (("store", store), ("jobs", jobs))
              if value is not None and key in params}
    return run(**kwargs).render() + "\n"


def golden_path(name):
    """The golden file of one experiment."""
    return os.path.join(GOLDEN_DIR, f"{name}.txt")


def main(names):
    for name in names or MEASURED:
        with open(golden_path(name), "w") as f:
            f.write(render(name))
        print(f"wrote {golden_path(name)}")


if __name__ == "__main__":
    main(sys.argv[1:])
