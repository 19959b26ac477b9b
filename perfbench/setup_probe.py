"""Do what `mialab run` does before its campaign, then exit.

    PYTHONPATH=src python perfbench/setup_probe.py CONFIG SEED

Imports the CLI, loads and resolves the config with the seed override, and
materializes the data and split. The caller times the whole process, so
interpreter start and exit count too.
"""

import sys

import mialab.cli  # noqa: F401  (the CLI's import cost is part of set-up)
from mialab import config

if __name__ == "__main__":
    doc = config.load_config(sys.argv[1])
    resolved = config.resolve(doc, seed_override=int(sys.argv[2]))
    config.materialize(resolved)
