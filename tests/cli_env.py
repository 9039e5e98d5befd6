"""The environment for running the command line in a fresh interpreter."""

import os
from pathlib import Path

import touchalarm


def cli_env(**extra: str) -> dict[str, str]:
    """``os.environ`` with this package's sources first on PYTHONPATH, every warning an error,
    and ``extra`` on top.

    Not PYTHONDEVMODE: its debug allocator would move the memory bounds that the tests check.
    """
    src = str(Path(touchalarm.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            "PYTHONWARNINGS": "error", **extra}
